#include "src/apr/window.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "src/obs/trace.hpp"

namespace apr::core {

namespace {

/// Samples per axis when estimating how much of a box lies inside the
/// flow domain.
constexpr int kFillSamples = 4;

}  // namespace

void WindowConfig::validate() const {
  if (proper_side <= 0.0 || onramp_width < 0.0 || insertion_width <= 0.0) {
    throw std::invalid_argument("Window: bad region dimensions");
  }
  const double ratio = outer_side() / insertion_width;
  if (std::abs(ratio - std::round(ratio)) > 1e-9 * ratio) {
    throw std::invalid_argument(
        "Window: outer_side (" + std::to_string(outer_side()) +
        " m) is not an integer multiple of insertion_width (" +
        std::to_string(insertion_width) +
        " m); the insertion shell cannot be tiled exactly -- adjust "
        "proper_side / onramp_width / insertion_width");
  }
}

Window::Window(const Vec3& center, const WindowConfig& config,
               const geometry::Domain* domain)
    : center_(center), cfg_(config), domain_(domain) {
  cfg_.validate();
  build_subregions();
}

Vec3 Window::snap_center(const Vec3& desired, const WindowConfig& config,
                         const Vec3& coarse_origin, double coarse_dx) {
  const double half = config.outer_side() / 2.0;
  Vec3 lo = desired - Vec3{half, half, half};
  // Snap the lower corner to the coarse node grid.
  Vec3 rel = (lo - coarse_origin) / coarse_dx;
  rel = {std::round(rel.x), std::round(rel.y), std::round(rel.z)};
  lo = coarse_origin + rel * coarse_dx;
  return lo + Vec3{half, half, half};
}

WindowRegion Window::classify(const Vec3& p) const {
  if (proper_box().contains(p)) return WindowRegion::Proper;
  if (inner_box().contains(p)) return WindowRegion::OnRamp;
  if (outer_box().contains(p)) return WindowRegion::Insertion;
  return WindowRegion::Outside;
}

void Window::build_subregions() {
  // Tile the outer box with cubes of edge = insertion width and keep those
  // whose center falls in the insertion shell. The shell is exactly one
  // subregion thick, so this covers it without overlap; the constructor's
  // validate() guarantees outer_side is an integer multiple of s.
  const double s = cfg_.insertion_width;
  const Aabb outer = outer_box();
  const Aabb inner = inner_box();
  const int n = std::max(1, static_cast<int>(std::round(cfg_.outer_side() / s)));
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        const Vec3 c = outer.lo + Vec3{(i + 0.5) * s, (j + 0.5) * s,
                                       (k + 0.5) * s};
        if (inner.contains(c)) continue;  // on-ramp/proper interior
        subregions_.push_back(Aabb::cube(c, s));
      }
    }
  }
  fill_.resize(subregions_.size());
  for (std::size_t i = 0; i < subregions_.size(); ++i) {
    fill_[i] = box_fill(subregions_[i]);
  }
  // Cache the whole-box fill too: hematocrit() is called every
  // maintenance pass and the O(kFillSamples^3) domain scan would
  // otherwise repeat on immutable geometry.
  outer_fill_ = box_fill(outer);
}

double Window::box_fill(const Aabb& box) const {
  if (!domain_) return 1.0;
  const int n = kFillSamples;
  const Vec3 e = box.extent();
  int inside = 0;
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        const Vec3 p = box.lo + Vec3{(i + 0.5) / n * e.x, (j + 0.5) / n * e.y,
                                     (k + 0.5) / n * e.z};
        if (domain_->inside(p)) ++inside;
      }
    }
  }
  return static_cast<double>(inside) / (n * n * n);
}

bool Window::cell_inside_domain(std::span<const Vec3> verts) const {
  if (!domain_) return true;
  for (const Vec3& v : verts) {
    if (!domain_->inside(v)) return false;
  }
  return true;
}

double Window::hematocrit(const cells::CellPool& rbcs) const {
  const Aabb w = outer_box();
  const double flow_volume = w.volume() * outer_fill_;
  if (flow_volume <= 0.0) return 0.0;
  double cell_volume = 0.0;
  for (std::size_t slot = 0; slot < rbcs.size(); ++slot) {
    if (w.contains(rbcs.cell_centroid(slot))) {
      cell_volume += rbcs.model().ref_volume();
    }
  }
  return cell_volume / flow_volume;
}

void Window::ensure_measure_regions(const cells::CellPool& rbcs) const {
  const double rmax = rbcs.model().max_radius();
  if (measure_rmax_ == rmax && !measure_boxes_.empty()) return;
  measure_rmax_ = rmax;
  measure_boxes_.clear();
  measure_fill_.clear();
  const Aabb outer = outer_box();
  for (const Aabb& box : subregions_) {
    const Aabb m = box.inflated(rmax).intersect(outer);
    measure_boxes_.push_back(m);
    measure_fill_.push_back(m.valid() ? box_fill(m) : 0.0);
  }
}

double Window::subregion_hematocrit(std::size_t s,
                                    const cells::CellPool& rbcs,
                                    std::span<const Aabb> cell_boxes) const {
  // The paper monitors subregions by centroid count, which is exact when
  // subregions are much larger than a cell (50 um cubes vs 4 um RBCs).
  // At this library's scales subregions can approach the cell size, where
  // a per-box reading is ill-posed (the gaps between packed cells read
  // zero forever and repopulation would ratchet the density up). The
  // robust equivalent: measure over the subregion inflated by one cell
  // radius (clipped to the window) and apportion each cell's volume by
  // the fraction of its vertices inside. For paper-scale subregions this
  // converges to the centroid count.
  ensure_measure_regions(rbcs);
  const Aabb& box = measure_boxes_.at(s);
  const double flow_volume =
      box.valid() ? box.volume() * measure_fill_[s] : 0.0;
  if (flow_volume <= 0.0) return cfg_.target_hematocrit;  // solid: no refill
  const double nv = static_cast<double>(rbcs.vertices_per_cell());
  double cell_volume = 0.0;
  for (std::size_t slot = 0; slot < rbcs.size(); ++slot) {
    if (!box.overlaps(cell_boxes[slot])) continue;
    const auto x = rbcs.positions(slot);
    int inside = 0;
    for (const Vec3& v : x) {
      if (box.contains(v)) ++inside;
    }
    if (inside > 0) {
      cell_volume += rbcs.model().ref_volume() * (inside / nv);
    }
  }
  return cell_volume / flow_volume;
}

int Window::remove_exited_cells(cells::CellPool& rbcs) const {
  const Aabb w = outer_box();
  std::vector<std::uint64_t> doomed;
  for (std::size_t slot = 0; slot < rbcs.size(); ++slot) {
    if (!w.contains(rbcs.cell_centroid(slot))) {
      doomed.push_back(rbcs.id(slot));
    }
  }
  for (const auto id : doomed) rbcs.remove(id);
  return static_cast<int>(doomed.size());
}

cells::SubGrid Window::insertion_grid(const cells::CellPool& rbcs) const {
  const double rmax = rbcs.model().max_radius();
  cells::SubGrid grid(outer_box().inflated(2.0 * rmax),
                      std::max(cells::insertion_clearance(rmax), rmax / 2.0));
  cells::fill_subgrid(grid, {&rbcs});
  return grid;
}

int Window::insert_cells(std::vector<cells::Candidate> candidates,
                         cells::SubGrid& grid, cells::CellPool& rbcs) const {
  return cells::add_nonoverlapping(
      std::move(candidates), grid,
      cells::insertion_clearance(rbcs.model().max_radius()), rbcs);
}

void Window::stamp_tile(const Aabb& box, cells::CellPool& rbcs,
                        const cells::RbcTile& tile, Rng& rng,
                        std::uint64_t& next_id, cells::SubGrid& grid,
                        PopulationReport& report) const {
  // Random orientation and a random offset inside the subregion (the tile
  // is at least as large as the subregion, so coverage is complete).
  const Mat3 rot = random_rotation(rng);
  const double jitter = tile.side() * 0.1;
  const Vec3 center =
      box.center() + Vec3{rng.uniform(-jitter, jitter),
                          rng.uniform(-jitter, jitter),
                          rng.uniform(-jitter, jitter)};
  std::vector<cells::Candidate> candidates;
  for (auto& verts : tile.instantiate_at(rbcs.model(), center, rot)) {
    if (!box.contains(cells::centroid(verts))) continue;
    if (!cell_inside_domain(verts)) {
      ++report.rejected_wall;
      continue;
    }
    candidates.push_back({next_id++, std::move(verts)});
  }
  const int stamped = static_cast<int>(candidates.size());
  const int added = insert_cells(std::move(candidates), grid, rbcs);
  report.rejected_overlap += stamped - added;
  report.added += added;
}

PopulationReport Window::populate(cells::CellPool& rbcs,
                                  const cells::RbcTile& tile, Rng& rng,
                                  std::uint64_t& next_id,
                                  std::span<const Vec3> avoid) const {
  OBS_SPAN("window", "populate");
  PopulationReport report;
  // Existing cells plus the avoid set are the immovable background.
  cells::SubGrid grid = insertion_grid(rbcs);
  constexpr std::uint64_t kAvoidId = ~0ull;
  for (std::size_t v = 0; v < avoid.size(); ++v) {
    grid.insert(avoid[v], kAvoidId, static_cast<int>(v));
  }
  // Partition the outer box into *disjoint* stamp boxes no larger than
  // the tile (each stamp keeps only cells whose centroid falls in its own
  // box, so no region is seeded twice).
  const Aabb outer = outer_box();
  const int n = std::max(
      1, static_cast<int>(std::ceil(cfg_.outer_side() / tile.side())));
  const double box_side = cfg_.outer_side() / n;
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        const Vec3 c = outer.lo + Vec3{(i + 0.5) * box_side,
                                       (j + 0.5) * box_side,
                                       (k + 0.5) * box_side};
        stamp_tile(Aabb::cube(c, box_side), rbcs, tile, rng, next_id, grid,
                   report);
      }
    }
  }
  return report;
}

PopulationReport Window::maintain(cells::CellPool& rbcs,
                                  const cells::RbcTile& tile, Rng& rng,
                                  std::uint64_t& next_id) const {
  OBS_SPAN("window", "maintain");
  PopulationReport report;
  report.removed_outside = remove_exited_cells(rbcs);
  const double floor_ht = cfg_.repopulation_threshold * cfg_.target_hematocrit;
  std::optional<cells::SubGrid> grid;  // built at the first refill
  // Each cell's box, computed once per pass. A refill only appends cells
  // (an added cell takes the next slot; only removals shift slots), so
  // the list is extended for the new cells, never recomputed.
  std::vector<Aabb> cell_boxes;
  cell_boxes.reserve(rbcs.size());
  for (std::size_t s = 0; s < subregions_.size(); ++s) {
    if (fill_[s] <= 0.0) continue;
    for (std::size_t slot = cell_boxes.size(); slot < rbcs.size(); ++slot) {
      cell_boxes.push_back(cells::bounds(rbcs.positions(slot)));
    }
    if (subregion_hematocrit(s, rbcs, cell_boxes) >= floor_ht) continue;
    ++report.subregions_refilled;
    if (!grid) grid.emplace(insertion_grid(rbcs));
    stamp_tile(subregions_[s], rbcs, tile, rng, next_id, *grid, report);
  }
  return report;
}

}  // namespace apr::core
