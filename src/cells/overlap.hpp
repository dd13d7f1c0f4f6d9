#pragma once

/// \file overlap.hpp
/// Overlap detection and deterministic removal (paper §2.4.2): a candidate
/// cell overlaps an existing one when any of its vertices lies within
/// `min_distance` of another cell's vertex, found via the background
/// SubGrid. When a freshly placed tile produces mutually overlapping
/// cells, removal preferentially drops the cell with the *larger* global
/// ID, which makes the outcome identical for any task count or iteration
/// order. Also provides the short-range vertex-vertex contact force used
/// during the simulation.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/cells/cell_pool.hpp"
#include "src/cells/subgrid.hpp"

namespace apr::cells {

/// Does `vertices` (belonging to `self_id`) come within `min_distance` of
/// any vertex of a different cell registered in `grid`?
bool overlaps_existing(std::span<const Vec3> vertices, std::uint64_t self_id,
                       const SubGrid& grid, double min_distance);

/// Minimum vertex-vertex clearance between inserted cells whose largest
/// vertex radius is `rmax`: the one rule behind window fills and refills,
/// window-move copies, eFSI fills and tile packing.
inline double insertion_clearance(double rmax) { return 0.15 * rmax; }

/// A candidate cell for batch insertion.
struct Candidate {
  std::uint64_t id = 0;
  std::vector<Vec3> vertices;
};

/// The one cell-insertion routine (tile stamps, window-move fill copies,
/// eFSI fills). Walks `candidates` in increasing global-ID order; a
/// candidate that overlaps_existing() some vertex in `grid` is dropped,
/// any other is added to `pool` and its vertices go into `grid` at once,
/// so higher-ID candidates and later batches sharing the grid see it.
/// The accepted set is therefore independent of input order and task
/// count, and the cells already in `grid` are never removed. Returns the
/// number of candidates added.
int add_nonoverlapping(std::vector<Candidate> candidates, SubGrid& grid,
                       double min_distance, CellPool& pool);

/// Insert every vertex of every cell in `pools` into `grid`, which the
/// caller has just constructed or reset() (fill_subgrid does not clear it).
void fill_subgrid(SubGrid& grid,
                  const std::vector<const CellPool*>& pools);

/// Short-range soft-sphere repulsion between vertices of cells with
/// different ids:
///   F = k (1 - d/cutoff)^2 * d_hat   for 0 < d < cutoff.
/// One search serves one force evaluation. The constructor takes the live
/// cells of `pools` (cell k is the k-th in pool order, then slot order)
/// and prepares the cell-level broad phase; add_forces(k) then gathers the
/// neighbour vertices near cell k and adds its contact force.
///
/// A cell with a non-finite centroid (so every cell with a non-finite
/// vertex) stays out of the search, as source and as target: the step
/// completes and every other cell's force is what it would be without it.
///
/// Order contract (DESIGN.md §6): a vertex sums its partners in the order
/// a SubGrid over every vertex would visit them -- ascending bucket of the
/// frame below, then insertion (pool, slot, vertex) order. The frame is
/// the box of finite centroids inflated by 2 rmax + cutoff with spacing
/// max(cutoff, rmax / 2), rmax being the first pool's model radius. It
/// only orders the sums; no bucket array is allocated for it.
class ContactSearch {
 public:
  /// Throws std::invalid_argument when the frame would need more than
  /// 2^30 buckets (a cell flung far from the rest).
  ContactSearch(const std::vector<CellPool*>& pools, double cutoff);

  /// Add the contact force on every vertex of cell k to its force block
  /// and return the number of interacting vertex pairs. Writes only cell
  /// k's forces, so distinct cells may run concurrently.
  std::size_t add_forces(std::size_t k, double strength) const;

 private:
  struct Cell {
    CellPool* pool;
    std::size_t slot;
    std::uint64_t id;
    std::size_t first;  ///< insertion index of its first vertex
    Aabb box;           ///< vertex box; invalid when out of the search
  };

  double cutoff_;
  std::vector<Cell> cells_;
  std::optional<GridFrame> frame_;  ///< empty: no cell is in the search
  std::optional<SubGrid> centres_;  ///< box centres of the searched cells
  double reach_ = 0.0;  ///< centre distance bound of boxes within cutoff
};

}  // namespace apr::cells
