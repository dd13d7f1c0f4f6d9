#include "src/cells/overlap.hpp"

#include <algorithm>
#include <utility>

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

std::vector<std::uint64_t> resolve_overlaps(
    const std::vector<Candidate>& candidates, const SubGrid& existing,
    const Aabb& region, double min_distance) {
  // Sort candidate indices by global ID so acceptance order -- and hence
  // the removal set -- is independent of input order and task count.
  std::vector<std::size_t> order(candidates.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return candidates[a].id < candidates[b].id;
  });

  SubGrid accepted(region, std::max(min_distance, existing.spacing()));
  std::vector<std::uint64_t> dropped;
  for (std::size_t i : order) {
    const Candidate& c = candidates[i];
    const bool bad =
        overlaps_existing(c.vertices, c.id, existing, min_distance) ||
        overlaps_existing(c.vertices, c.id, accepted, min_distance);
    if (bad) {
      dropped.push_back(c.id);
    } else {
      for (std::size_t v = 0; v < c.vertices.size(); ++v) {
        accepted.insert(c.vertices[v], c.id, static_cast<int>(v));
      }
    }
  }
  std::sort(dropped.begin(), dropped.end());
  return dropped;
}

int add_nonoverlapping(std::vector<Candidate> candidates, SubGrid& background,
                       const Aabb& region, double min_distance,
                       CellPool& pool) {
  const auto dropped =
      resolve_overlaps(candidates, background, region, min_distance);
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) { return a.id < b.id; });
  int added = 0;
  for (const Candidate& c : candidates) {
    if (std::binary_search(dropped.begin(), dropped.end(), c.id)) continue;
    pool.add(c.id, c.vertices);
    for (std::size_t v = 0; v < c.vertices.size(); ++v) {
      background.insert(c.vertices[v], c.id, static_cast<int>(v));
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

std::size_t add_contact_forces(std::vector<CellPool*> pools, double cutoff,
                               double strength, const SubGrid& grid) {
  const double c2 = cutoff * cutoff;
  // Each cell writes only its own force block and reads the shared grid,
  // so cells parallelize independently across the pools.
  std::vector<std::pair<CellPool*, std::size_t>> refs;
  for (CellPool* pool : pools) {
    for (std::size_t s = 0; s < pool->size(); ++s) refs.emplace_back(pool, s);
  }
  return exec::parallel_reduce<std::size_t>(
      refs.size(), 0,
      [&](std::size_t b, std::size_t e) {
        std::size_t pairs = 0;
        for (std::size_t k = b; k < e; ++k) {
          CellPool* pool = refs[k].first;
          const std::size_t s = refs[k].second;
          const auto x = pool->positions(s);
          const auto f = pool->forces(s);
          const std::uint64_t id = pool->id(s);
          for (std::size_t v = 0; v < x.size(); ++v) {
            Vec3 acc{};
            grid.for_neighbors(x[v], cutoff, [&](const SubGrid::Entry& e2) {
              if (e2.cell_id == id) return;
              const Vec3 d = x[v] - e2.p;
              const double d2 = norm2(d);
              if (d2 >= c2 || d2 <= 0.0) return;
              const double dist = std::sqrt(d2);
              const double overlap = 1.0 - dist / cutoff;
              acc += d * (strength * overlap * overlap / dist);
              ++pairs;
            });
            f[v] += acc;
          }
        }
        return pairs;
      },
      [](std::size_t a, std::size_t b) { return a + b; });
}

}  // namespace apr::cells
