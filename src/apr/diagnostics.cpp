#include "src/apr/diagnostics.hpp"

#include <stdexcept>

#include "src/common/csv.hpp"

namespace apr::core {

RegionReport region_report(const Window& window,
                           const cells::CellPool& pool) {
  RegionReport report;
  std::array<double, 4> i1_sum{};
  std::array<double, 4> speed_sum{};
  std::array<double, 4> volume_sum{};

  std::vector<Vec3> scratch;
  for (std::size_t s = 0; s < pool.size(); ++s) {
    const auto x = pool.positions(s);
    const auto region =
        static_cast<std::size_t>(window.classify(cells::centroid(x)));
    RegionStats& stats = report.regions[region];
    ++stats.cells;
    scratch.assign(x.begin(), x.end());
    i1_sum[region] += pool.model().deformation_scan(scratch).max_i1;
    double speed = 0.0;
    for (const Vec3& v : pool.velocities(s)) speed += norm(v);
    speed_sum[region] += speed / static_cast<double>(x.size());
    volume_sum[region] += pool.model().ref_volume();
  }

  // Region flow volumes (geometric; wall-clipping is ignored here -- the
  // report is a relative diagnostic).
  const double outer = window.outer_box().volume();
  const double inner = window.inner_box().volume();
  const double proper = window.proper_box().volume();
  const std::array<double, 4> region_volume{
      1.0,              // Outside: undefined, leave Ht = volume_sum
      outer - inner,    // Insertion shell
      inner - proper,   // On-ramp shell
      proper,           // Window proper
  };

  for (std::size_t r = 0; r < 4; ++r) {
    RegionStats& stats = report.regions[r];
    if (stats.cells > 0) {
      stats.mean_max_i1 = i1_sum[r] / stats.cells;
      stats.mean_speed = speed_sum[r] / stats.cells;
    }
    if (r > 0 && region_volume[r] > 0.0) {
      stats.hematocrit = volume_sum[r] / region_volume[r];
    }
  }
  return report;
}

RunRecorder::RunRecorder(const Vec3& axis_point, const Vec3& axis_direction)
    : axis_point_(axis_point), axis_dir_(normalized(axis_direction)) {
  if (norm(axis_direction) <= 0.0) {
    throw std::invalid_argument("RunRecorder: zero axis direction");
  }
}

void RunRecorder::sample(const AprSimulation& sim) {
  RunSample s;
  s.step = sim.coarse_steps();
  s.time_s = sim.physical_time();
  s.window_ht = sim.window_hematocrit();
  s.rbc_count = sim.rbcs().size();
  s.ctc_position = sim.ctc_position();
  const Vec3 d = s.ctc_position - axis_point_;
  s.ctc_radial = norm(d - axis_dir_ * dot(d, axis_dir_));
  s.window_moves = sim.window_move_count();
  s.site_updates = sim.total_site_updates();
  samples_.push_back(s);
}

void RunRecorder::write_csv(const std::string& path) const {
  CsvWriter csv(path, {"step", "time_s", "window_ht", "rbc_count", "ctc_x",
                       "ctc_y", "ctc_z", "ctc_radial", "window_moves",
                       "site_updates"});
  for (const RunSample& s : samples_) {
    csv.row({static_cast<double>(s.step), s.time_s, s.window_ht,
             static_cast<double>(s.rbc_count), s.ctc_position.x,
             s.ctc_position.y, s.ctc_position.z, s.ctc_radial,
             static_cast<double>(s.window_moves),
             static_cast<double>(s.site_updates)});
  }
  csv.flush();
}

double RunRecorder::mean_ctc_speed() const {
  if (samples_.size() < 2) return 0.0;
  const RunSample& a = samples_.front();
  const RunSample& b = samples_.back();
  const double dt = b.time_s - a.time_s;
  return dt > 0.0 ? distance(b.ctc_position, a.ctc_position) / dt : 0.0;
}

}  // namespace apr::core
