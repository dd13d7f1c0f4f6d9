#include "src/apr/window_mover.hpp"

#include <vector>

namespace apr::core {

bool WindowMover::should_move(const Window& window,
                              const Vec3& ctc_position) const {
  // boundary_distance is negative inside; -distance is the clearance.
  const double d = window.proper_box().boundary_distance(ctc_position);
  return d > -cfg_.trigger_distance;
}

MoveReport WindowMover::move(Window& window, cells::CellPool& rbcs,
                             const Vec3& ctc_position,
                             const cells::RbcTile& tile, Rng& rng,
                             std::uint64_t& next_id) const {
  MoveReport report;
  const WindowConfig& cfg = window.config();
  const Vec3 new_center =
      Window::snap_center(ctc_position, cfg, coarse_origin_, coarse_dx_);
  const Vec3 delta = new_center - window.center();
  if (norm(delta) == 0.0) return report;
  report.moved = true;
  report.displacement = delta;

  // Capture region: cube on the CTC whose boundary coincides with the new
  // insertion-region inner boundary.
  const Aabb capture = Aabb::cube(new_center, cfg.inner_side());
  const Aabb new_inner = capture;  // by construction
  const Aabb old_outer = window.outer_box();

  // Pass 1: classify existing cells and collect deep copies.
  std::vector<cells::Candidate> fill_copies;
  std::vector<std::uint64_t> keep_ids;
  std::vector<std::uint64_t> drop_ids;
  for (std::size_t slot = 0; slot < rbcs.size(); ++slot) {
    const auto x = rbcs.positions(slot);
    const Vec3 c = cells::centroid(x);
    if (capture.contains(c)) {
      keep_ids.push_back(rbcs.id(slot));
    } else {
      drop_ids.push_back(rbcs.id(slot));
    }
    // Deep copy (of every old-window cell) shifted to the new frame.
    if (!old_outer.contains(c)) continue;
    const Vec3 cc = c + delta;
    // Keep the copy only if it lands in the fill region: the part of the
    // new inner box the capture pass could not supply because it lies
    // beyond the old window (for small displacements this region is
    // empty and the capture alone re-uses every deformed cell).
    if (new_inner.contains(cc) && !old_outer.contains(cc)) {
      cells::Candidate copy{next_id++, std::vector<Vec3>(x.begin(), x.end())};
      for (auto& v : copy.vertices) v += delta;
      fill_copies.push_back(std::move(copy));
    }
  }

  // Pass 2: drop non-captured originals.
  for (const auto id : drop_ids) rbcs.remove(id);
  report.captured = static_cast<int>(keep_ids.size());
  report.discarded = static_cast<int>(drop_ids.size());

  // Pass 3: re-center the window (same config and domain).
  window = Window(new_center, cfg, window.domain());

  // Pass 4: insert fill copies (deterministic overlap resolution against
  // the captured cells).
  cells::SubGrid grid = window.insertion_grid(rbcs);
  report.filled = window.insert_cells(std::move(fill_copies), grid, rbcs);

  // Pass 5: re-populate the insertion shell.
  report.repopulation = window.maintain(rbcs, tile, rng, next_id);
  return report;
}

}  // namespace apr::core
