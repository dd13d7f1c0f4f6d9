#include "src/cells/tile.hpp"

#include <cmath>

#include "src/cells/overlap.hpp"
#include "src/cells/subgrid.hpp"

namespace apr::cells {

RbcTile RbcTile::generate(const fem::MembraneModel& rbc, double side,
                          double hematocrit, Rng& rng, double min_distance,
                          int max_attempts) {
  RbcTile tile;
  tile.side_ = side;
  const double cell_volume = rbc.ref_volume();
  // Round to the nearest integer count: ceiling behaviour overshoots the
  // target hematocrit badly for small tiles.
  const double target_cells =
      std::round(hematocrit * side * side * side / cell_volume);

  // Max vertex distance from the centroid: cells keep their centroids far
  // enough from the tile faces that at most ~25% of the cell radius pokes
  // out (overlap resolution at stamping time handles collisions between
  // neighbouring tiles).
  const double rmax = rbc.max_radius();
  const double margin = std::min(0.75 * rmax, side / 2.0);

  if (min_distance <= 0.0) min_distance = insertion_clearance(rmax);

  const Aabb box = Aabb::cube(Vec3{}, side);
  SubGrid grid(box.inflated(rmax), std::max(min_distance, rmax / 2.0));

  const Vec3 inner_lo = box.lo + Vec3{margin, margin, margin};
  const Vec3 inner_hi = box.hi - Vec3{margin, margin, margin};

  int rejections = 0;
  std::uint64_t next_id = 1;
  while (static_cast<double>(tile.placements_.size()) < target_cells &&
         rejections < max_attempts) {
    Placement p;
    p.offset = rng.point_in_box(inner_lo, inner_hi);
    p.rotation = random_rotation(rng);
    const std::vector<Vec3> verts = instantiate(rbc, p.offset, p.rotation);
    if (overlaps_existing(verts, next_id, grid, min_distance)) {
      ++rejections;
      continue;
    }
    rejections = 0;
    for (std::size_t v = 0; v < verts.size(); ++v) {
      grid.insert(verts[v], next_id, static_cast<int>(v));
    }
    tile.placements_.push_back(p);
    ++next_id;
  }
  tile.achieved_ht_ = static_cast<double>(tile.placements_.size()) *
                      cell_volume / (side * side * side);
  return tile;
}

std::vector<std::vector<Vec3>> RbcTile::instantiate_at(
    const fem::MembraneModel& rbc, const Vec3& center, const Mat3& rot) const {
  std::vector<std::vector<Vec3>> out;
  out.reserve(placements_.size());
  for (const auto& p : placements_) {
    // Compose: cell-local rotation, then whole-tile rotation and shift.
    std::vector<Vec3> verts = instantiate(rbc, p.offset, p.rotation);
    for (auto& v : verts) v = center + rot.apply(v);
    out.push_back(std::move(verts));
  }
  return out;
}

}  // namespace apr::cells
