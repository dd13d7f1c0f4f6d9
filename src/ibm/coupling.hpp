#pragma once

/// \file coupling.hpp
/// The immersed-boundary phases of paper §2.3 (Eqs. 4 and 6): interpolation
/// of Eulerian velocity to membrane vertices and spreading of membrane
/// forces back to the lattice. All operations work in the fine lattice's
/// coordinates; vertex positions and forces are physical, conversions
/// happen internally.
///
/// Both phases evaluate the same per-vertex delta stencils. A
/// StencilRecord holds them for one set of positions, so one FSI sub-step
/// computes every vertex's weights once and its spread and its
/// interpolation both read them.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/vec3.hpp"
#include "src/ibm/delta.hpp"
#include "src/lbm/lattice.hpp"

namespace apr::ibm {

/// Per-vertex values stored as consecutive spans (one per cell pool) and
/// indexed as their concatenation.
template <class T>
using Blocks = std::span<const std::span<T>>;

/// One vertex's delta stencil: per axis (x, y, z), the first support
/// node, the support count and the 1D weights. Node (kx, ky, kz) of the
/// support weighs w[0][kx] * (w[1][ky] * w[2][kz]).
struct Stencil {
  std::array<std::array<double, 4>, 3> w;
  std::array<int, 3> first;
  std::array<std::uint8_t, 3> count;
};

namespace detail {

void* map_pages(std::size_t bytes);
void unmap_pages(void* p, std::size_t bytes);

/// Allocator that maps each block straight from the kernel: pages become
/// resident only once written and return to the system when the block is
/// freed, so a long-lived, growing buffer neither fragments the malloc
/// heap nor holds retained heap memory.
template <class T>
struct PageAllocator {
  using value_type = T;
  PageAllocator() = default;
  template <class U>
  PageAllocator(const PageAllocator<U>&) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(map_pages(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) { unmap_pages(p, n * sizeof(T)); }
  friend bool operator==(const PageAllocator&, const PageAllocator&) {
    return true;
  }
};

}  // namespace detail

/// The delta stencils of a vertex set at one set of positions. It stores
/// node indices and weights, never storage addresses, so tile release or
/// allocation between build and use cannot invalidate it; a different
/// lattice origin or spacing, kernel or set of positions can, which
/// matches() detects exactly.
class StencilRecord {
 public:
  /// Rebuild the stencils of `positions` (physical) on `lat`'s grid.
  void build(const lbm::Lattice& lat, Blocks<const Vec3> positions,
             DeltaKernel kernel);
  /// True iff the last build used `lat`'s origin and spacing, `kernel`,
  /// and bitwise these positions.
  bool matches(const lbm::Lattice& lat, Blocks<const Vec3> positions,
               DeltaKernel kernel) const;

  std::size_t size() const { return stencils_.size(); }
  const Stencil& operator[](std::size_t v) const { return stencils_[v]; }

 private:
  std::vector<Stencil, detail::PageAllocator<Stencil>> stencils_;
  std::vector<Vec3, detail::PageAllocator<Vec3>> positions_;
  Vec3 origin_;
  double dx_ = 0.0;
  DeltaKernel kernel_ = DeltaKernel::Cosine4;
  bool built_ = false;
};

/// Interpolate the lattice's cached velocity field at the record's vertices
/// (Eq. 4) into `velocities` (sized like the record). Velocities are in
/// *lattice* units (grid spacings per time step); multiply by dx/dt for
/// physical.
void interpolate_velocities(const lbm::Lattice& lat,
                            const StencilRecord& stencils,
                            Blocks<Vec3> velocities);

/// Spread `scale` times the per-vertex forces onto the lattice's force
/// field (Eq. 6); `scale` converts them to lattice force units. Large
/// vertex sets scatter in parallel through per-worker accumulators merged
/// in a deterministic order; small ones fall through to
/// spread_forces_serial. For a fixed worker count the result is
/// bit-for-bit reproducible; across worker counts it matches the serial
/// reference to rounding (<= 1e-14 relative).
void spread_forces(lbm::Lattice& lat, const StencilRecord& stencils,
                   Blocks<const Vec3> forces, double scale = 1.0);

/// Single-threaded reference scatter (exact vertex-order summation); the
/// determinism tests compare spread_forces against this.
void spread_forces_serial(lbm::Lattice& lat, const StencilRecord& stencils,
                          Blocks<const Vec3> forces, double scale = 1.0);

/// Vector forms of the above: build a record for `positions` and run the
/// same kernels (forces already in lattice units).
void interpolate_velocities(const lbm::Lattice& lat,
                            const std::vector<Vec3>& positions,
                            std::vector<Vec3>& velocities,
                            DeltaKernel kernel = DeltaKernel::Cosine4);
void spread_forces(lbm::Lattice& lat, const std::vector<Vec3>& positions,
                   const std::vector<Vec3>& forces,
                   DeltaKernel kernel = DeltaKernel::Cosine4);
void spread_forces_serial(lbm::Lattice& lat,
                          const std::vector<Vec3>& positions,
                          const std::vector<Vec3>& forces,
                          DeltaKernel kernel = DeltaKernel::Cosine4);

/// Sum of the 3D kernel weights at a position (diagnostic; should be 1 in
/// the interior, < 1 if the support leaves the lattice).
double kernel_weight_sum(const lbm::Lattice& lat, const Vec3& position,
                         DeltaKernel kernel = DeltaKernel::Cosine4);

}  // namespace apr::ibm
