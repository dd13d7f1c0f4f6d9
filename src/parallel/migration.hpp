#pragma once

/// \file migration.hpp
/// Cell-task assignment and force-policy cost accounting (paper §2.4.5,
/// "Reducing Cell Communication"). Cells are owned by the task containing
/// their centroid; tasks whose boxes intersect a cell's inflated bounding
/// box hold it as a halo cell. Two parallelization policies for the IBM
/// spreading phase are modelled:
///   - Communicate: owners compute forces, then send per-vertex forces to
///     every halo task.
///   - Recompute: every task (owner + halo holders) recomputes forces for
///     all cells it stores -- the paper's choice, trading FLOPs for
///     communication.
/// The byte/flop accounting feeds bench/ablation_force_policy. No cell
/// state moves between ranks here; the parallel substrate moves halos only.

#include <cstdint>
#include <vector>

#include "src/common/aabb.hpp"
#include "src/parallel/decomposition.hpp"

namespace apr::parallel {

/// Which tasks store a cell, given its centroid and spatial extent.
struct CellAssignment {
  int owner = -1;
  std::vector<int> halo_tasks;  ///< tasks holding the cell in their halo
};

/// Maps physical space onto the decomposition's node grid.
class SpatialDecomposition {
 public:
  /// \param decomp node-grid decomposition
  /// \param origin physical position of node (0,0,0)
  /// \param dx node spacing
  SpatialDecomposition(const BoxDecomposition& decomp, const Vec3& origin,
                       double dx);

  const BoxDecomposition& grid() const { return *decomp_; }

  /// Task owning the physical point (points outside are clamped).
  int owner_of(const Vec3& p) const;

  /// Physical region of a task's owned box.
  Aabb task_region(int rank) const;

  /// Full assignment for a cell with the given centroid whose vertices fit
  /// in `bounds` inflated by `halo_distance` (IBM support + contact
  /// cutoff).
  CellAssignment assign(const Vec3& centroid, const Aabb& bounds,
                        double halo_distance) const;

 private:
  const BoxDecomposition* decomp_;
  Vec3 origin_;
  double dx_;

  Int3 node_of(const Vec3& p) const;
};

/// Communication/recompute cost of one FSI step for a set of cells.
struct ForcePolicyCost {
  std::uint64_t communicate_bytes = 0;  ///< owner -> halo force messages
  std::uint64_t recompute_flops = 0;    ///< redundant force evaluations
  std::uint64_t halo_copies = 0;        ///< number of (cell, halo task) pairs
};

/// Evaluate both policies for cells described by (assignment, vertex
/// count, flops per force evaluation).
ForcePolicyCost force_policy_cost(
    const std::vector<CellAssignment>& assignments, int vertices_per_cell,
    std::uint64_t flops_per_cell_force);

}  // namespace apr::parallel
