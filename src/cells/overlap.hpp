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
#include <span>
#include <vector>

#include "src/cells/cell_pool.hpp"
#include "src/cells/subgrid.hpp"

namespace apr::cells {

/// Does `vertices` (belonging to `self_id`) come within `min_distance` of
/// any vertex of a different cell registered in `grid`?
bool overlaps_existing(std::span<const Vec3> vertices, std::uint64_t self_id,
                       const SubGrid& grid, double min_distance);

/// A candidate cell for batch overlap resolution.
struct Candidate {
  std::uint64_t id = 0;
  std::vector<Vec3> vertices;
};

/// Resolve overlaps within `candidates` (and against `existing`, which is
/// never removed): returns the ids of candidates to drop. Deterministic:
/// candidates are processed in increasing global-ID order; a candidate is
/// dropped if it overlaps an existing cell or an already-accepted
/// lower-ID candidate.
std::vector<std::uint64_t> resolve_overlaps(
    const std::vector<Candidate>& candidates, const SubGrid& existing,
    const Aabb& region, double min_distance);

/// The one cell-insertion routine (tile stamps, window-move fill copies,
/// eFSI fills): resolve `candidates` against `background` with
/// resolve_overlaps, add the survivors to `pool` in increasing ID order
/// and insert their vertices into `background`, so the next batch sharing
/// the grid sees them. Returns the number of candidates added.
int add_nonoverlapping(std::vector<Candidate> candidates, SubGrid& background,
                       const Aabb& region, double min_distance,
                       CellPool& pool);

/// Insert every vertex of every cell in `pools` into `grid`, which the
/// caller has just constructed or reset() (fill_subgrid does not clear it).
void fill_subgrid(SubGrid& grid,
                  const std::vector<const CellPool*>& pools);

/// Short-range soft-sphere repulsion between vertices of *different* cells:
///   F = k (1 - d/cutoff)^2 * d_hat   for d < cutoff.
/// Accumulated into each pool's force buffers. Returns the number of
/// interacting pairs (diagnostics).
std::size_t add_contact_forces(std::vector<CellPool*> pools, double cutoff,
                               double strength, const SubGrid& grid);

}  // namespace apr::cells
