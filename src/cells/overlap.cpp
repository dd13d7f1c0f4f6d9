#include "src/cells/overlap.hpp"

#include <algorithm>
#include <cmath>

#include "src/exec/exec.hpp"

namespace apr::cells {

bool overlaps_existing(std::span<const Vec3> vertices, std::uint64_t self_id,
                       const SubGrid& grid, double min_distance) {
  const double d2 = min_distance * min_distance;
  for (const Vec3& v : vertices) {
    bool hit = false;
    grid.for_neighbors(v, min_distance, [&](const SubGrid::Entry& e) {
      if (hit || e.cell_id == self_id) return;
      if (norm2(e.p - v) < d2) hit = true;
    });
    if (hit) return true;
  }
  return false;
}

int add_nonoverlapping(std::vector<Candidate> candidates, SubGrid& grid,
                       double min_distance, CellPool& pool) {
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) { return a.id < b.id; });
  int added = 0;
  for (const Candidate& c : candidates) {
    if (overlaps_existing(c.vertices, c.id, grid, min_distance)) continue;
    pool.add(c.id, c.vertices);
    for (std::size_t v = 0; v < c.vertices.size(); ++v) {
      grid.insert(c.vertices[v], c.id, static_cast<int>(v));
    }
    ++added;
  }
  return added;
}

void fill_subgrid(SubGrid& grid,
                  const std::vector<const CellPool*>& pools) {
  for (const CellPool* pool : pools) {
    for (std::size_t s = 0; s < pool->size(); ++s) {
      const auto x = pool->positions(s);
      const std::uint64_t id = pool->id(s);
      for (std::size_t v = 0; v < x.size(); ++v) {
        grid.insert(x[v], id, static_cast<int>(v));
      }
    }
  }
}

namespace {

/// Relative slack on the broad-phase reach. Box centres round by an ulp
/// of the coordinates; 1e-10 of the magnitudes involved covers that many
/// times over, as in the vessel BVH's bound.
constexpr double kReachSlack = 1e-10;

/// A neighbour vertex that may touch the querying cell.
struct Partner {
  std::size_t bucket;  ///< frame bucket of p
  std::size_t order;   ///< insertion index (pool, slot, vertex)
  Vec3 p;
};

}  // namespace

ContactSearch::ContactSearch(const std::vector<CellPool*>& pools,
                             double cutoff)
    : cutoff_(cutoff) {
  std::size_t first = 0;
  for (CellPool* pool : pools) {
    for (std::size_t s = 0; s < pool->size(); ++s) {
      cells_.push_back({pool, s, pool->id(s), first, Aabb{}});
      first += static_cast<std::size_t>(pool->vertices_per_cell());
    }
  }
  // A finite sum has only finite terms, so a finite centroid also clears
  // every vertex; such cells get their box and join the search.
  std::vector<Vec3> centroids(cells_.size());
  exec::parallel_for(cells_.size(), [&](std::size_t k) {
    Cell& c = cells_[k];
    centroids[k] = c.pool->cell_centroid(c.slot);
    if (finite(centroids[k])) c.box = bounds(c.pool->positions(c.slot));
  });
  Aabb all;
  Aabb centres;
  double extent = 0.0;
  double mag = 0.0;
  for (std::size_t k = 0; k < cells_.size(); ++k) {
    const Aabb& b = cells_[k].box;
    if (!b.valid()) continue;
    all.include(centroids[k]);
    centres.include(b.center());
    const Vec3 e = b.extent();
    extent = std::max({extent, e.x, e.y, e.z});
    mag = std::max(mag, b.magnitude());
  }
  if (!all.valid()) return;
  const double rmax = pools.front()->model().max_radius();
  frame_.emplace(all.inflated(2.0 * rmax + cutoff),
                 std::max(cutoff, rmax / 2.0));
  // Boxes within `cutoff` of each other have centres at most
  // extent + cutoff apart on every axis.
  reach_ = extent + cutoff + kReachSlack * (extent + cutoff + mag);
  // Each entry's `vertex` field holds the cell index k.
  centres_.emplace(centres, reach_);
  for (std::size_t k = 0; k < cells_.size(); ++k) {
    const Cell& c = cells_[k];
    if (!c.box.valid()) continue;
    centres_->insert(c.box.center(), c.id, static_cast<int>(k));
  }
}

std::size_t ContactSearch::add_forces(std::size_t k, double strength) const {
  const Cell& cell = cells_[k];
  if (!cell.box.valid()) return 0;
  // A partner within cutoff of a vertex lies inside the box inflated by
  // cutoff: |fl(x - p)| < cutoff needs |x - p| < cutoff exactly, and the
  // inflated corner rounds to the nearest double, never past p.
  const Aabb reach = cell.box.inflated(cutoff_);
  static thread_local std::vector<Partner> partners;
  partners.clear();
  centres_->for_neighbors(
      cell.box.center(), reach_, [&](const SubGrid::Entry& e) {
        const Cell& other = cells_[static_cast<std::size_t>(e.vertex)];
        if (other.id == cell.id || !other.box.overlaps(reach)) return;
        const auto y = other.pool->positions(other.slot);
        for (std::size_t v = 0; v < y.size(); ++v) {
          if (!reach.contains(y[v])) continue;
          int b[3];
          frame_->coords(y[v], b);
          partners.push_back(
              {frame_->index(b[0], b[1], b[2]), other.first + v, y[v]});
        }
      });
  // The order of a SubGrid walk: bucket (z, y, x), then insertion order.
  // Its bucket-range filter needs no test here: for finite coordinates
  // the d2 test below implies it (DESIGN.md §6).
  std::sort(partners.begin(), partners.end(),
            [](const Partner& a, const Partner& b) {
              return a.bucket < b.bucket ||
                     (a.bucket == b.bucket && a.order < b.order);
            });
  Aabb near;
  for (const Partner& q : partners) near.include(q.p);
  near = near.inflated(cutoff_);

  const double c2 = cutoff_ * cutoff_;
  const auto x = cell.pool->positions(cell.slot);
  const auto f = cell.pool->forces(cell.slot);
  std::size_t pairs = 0;
  for (std::size_t v = 0; v < x.size(); ++v) {
    Vec3 acc{};
    if (near.contains(x[v])) {
      for (const Partner& q : partners) {
        const Vec3 d = x[v] - q.p;
        const double d2 = norm2(d);
        if (d2 >= c2 || d2 <= 0.0) continue;
        const double dist = std::sqrt(d2);
        const double overlap = 1.0 - dist / cutoff_;
        acc += d * (strength * overlap * overlap / dist);
        ++pairs;
      }
    }
    f[v] += acc;
  }
  return pairs;
}

}  // namespace apr::cells
