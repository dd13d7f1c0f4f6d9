#pragma once

/// \file constraints.hpp
/// Global surface-area and enclosed-volume constraints. RBC membranes are
/// locally nearly area-incompressible (the Skalak C term) and the interior
/// cytosol is incompressible; the IBM coupling does not enforce either
/// exactly, so cell codes add weak penalty forces (Fedosov et al.):
///
///   E_A = ka/2 (A - A0)^2 / A0        E_V = kv/2 (V - V0)^2 / V0
///
/// The gradients of A and V per triangle are exact:
///   grad_a A_t = 0.5 (b - c) x n_hat      (and cyclic)
///   grad_a V_t = (b x c) / 6              (and cyclic)

#include <span>
#include <vector>

#include "src/common/vec3.hpp"
#include "src/mesh/trimesh.hpp"

namespace apr::fem {

/// Total surface area and its per-vertex gradient accumulated into `grad`.
double surface_area_with_gradient(std::span<const Vec3> x,
                                  const std::vector<mesh::Triangle>& tris,
                                  std::vector<Vec3>* grad);

/// Signed enclosed volume and its per-vertex gradient accumulated into
/// `grad`.
double volume_with_gradient(std::span<const Vec3> x,
                            const std::vector<mesh::Triangle>& tris,
                            std::vector<Vec3>* grad);

/// Accumulate the global-area penalty force -ka (A - A0)/A0 * grad A.
/// The gradient goes through a per-thread buffer that is reused across
/// calls, so the per-cell force assembly does not allocate.
void add_area_constraint_forces(double ka, double ref_area,
                                std::span<const Vec3> x,
                                const std::vector<mesh::Triangle>& tris,
                                std::span<Vec3> forces);

/// Accumulate the volume penalty force -kv (V - V0)/V0 * grad V (same
/// reused gradient buffer).
void add_volume_constraint_forces(double kv, double ref_volume,
                                  std::span<const Vec3> x,
                                  const std::vector<mesh::Triangle>& tris,
                                  std::span<Vec3> forces);

}  // namespace apr::fem
