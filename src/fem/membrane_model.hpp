#pragma once

/// \file membrane_model.hpp
/// Assembled membrane mechanics of one cell species: the reference shape's
/// per-element Skalak data, per-hinge spontaneous angles and global
/// area/volume targets, plus the material parameters. One MembraneModel is
/// shared by every cell instantiated from the same reference mesh (all RBCs
/// share one model; the CTC has its own), which keeps per-cell memory at
/// just the vertex positions -- the 51 kB/RBC budget of paper §3.6.

#include <memory>
#include <span>
#include <vector>

#include "src/fem/bending.hpp"
#include "src/fem/skalak.hpp"
#include "src/mesh/trimesh.hpp"

namespace apr::fem {

/// Material parameters in *lattice* units (convert with UnitConverter).
struct MembraneParams {
  double shear_modulus = 1e-3;   ///< Skalak Gs
  double skalak_c = 50.0;        ///< Skalak area-preservation constant C
  double bending_modulus = 0.0;  ///< Helfrich Eb (hinge kb derived from it)
  double ka_global = 0.0;        ///< global area penalty
  double kv_global = 0.0;        ///< global volume penalty
  double mass = 1.0;             ///< per-vertex mass (unused by IBM update)
};

/// Energy breakdown, mainly for tests and diagnostics.
struct MembraneEnergy {
  double elastic = 0.0;
  double bending = 0.0;
  double area = 0.0;
  double volume = 0.0;
  double total() const { return elastic + bending + area + volume; }
};

class MembraneModel {
 public:
  /// Build the reference state from `reference` (vertex positions define
  /// the unstressed configuration).
  MembraneModel(mesh::TriMesh reference, MembraneParams params);

  const mesh::TriMesh& reference() const { return ref_; }
  const mesh::MeshTopology& topology() const { return topo_; }
  const MembraneParams& params() const { return params_; }

  int num_vertices() const { return ref_.num_vertices(); }
  int num_triangles() const { return ref_.num_triangles(); }
  double ref_area() const { return ref_area_; }
  double ref_volume() const { return ref_volume_; }
  /// Largest vertex distance from the reference centroid (the cell
  /// radius used to size insertion margins and overlap grids).
  double max_radius() const { return max_radius_; }

  /// Accumulate all membrane forces (Skalak + bending + constraints) for a
  /// deformed configuration `x` into `forces` (must be sized and typically
  /// zeroed by the caller). Both may be a cell's slice of a CellPool, so
  /// the FSI loop assembles straight into the pool's force buffer.
  void add_forces(std::span<const Vec3> x, std::span<Vec3> forces) const;

  /// Energy breakdown for configuration `x`.
  MembraneEnergy energy(const std::vector<Vec3>& x) const;

  /// Per-element deformation extrema in one sweep: the largest Skalak I1
  /// and the smallest area stretch det(F), each with its element index.
  /// det(F) is computed in the deformed triangle's own plane, so it stays
  /// non-negative; a collapsed/degenerate element reads as det(F) -> 0.
  /// Used by the numerical-health watchdog (src/apr/health.hpp) and the
  /// per-region deformation diagnostics (src/apr/diagnostics.hpp).
  struct DeformationScan {
    double max_i1 = 0.0;
    int max_i1_element = -1;
    double min_det_f = 1.0;
    int min_det_f_element = -1;
  };
  DeformationScan deformation_scan(const std::vector<Vec3>& x) const;

 private:
  mesh::TriMesh ref_;
  mesh::MeshTopology topo_;
  MembraneParams params_;
  SkalakParams skalak_;
  std::vector<TriangleRef> tri_ref_;
  std::vector<double> hinge_theta0_;    ///< rest angles, for energy()
  std::vector<HingeRest> hinge_rest_;   ///< the same for the force kernel
  double hinge_kb_ = 0.0;
  double ref_area_ = 0.0;
  double ref_volume_ = 0.0;
  double max_radius_ = 0.0;
};

}  // namespace apr::fem
