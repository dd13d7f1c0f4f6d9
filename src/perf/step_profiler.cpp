#include "src/perf/step_profiler.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>

#include "src/common/csv.hpp"
#include "src/obs/trace.hpp"

namespace apr::perf {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int index_of(StepPhase phase) {
  const int i = static_cast<int>(phase);
  if (i < 0 || i >= kNumStepPhases) {
    throw std::out_of_range("StepProfiler: bad phase");
  }
  return i;
}

}  // namespace

double phase_mlups(const PhaseStats& stats) {
  if (stats.seconds <= 0.0) return 0.0;
  return static_cast<double>(stats.site_updates) / stats.seconds / 1e6;
}

const char* to_string(StepPhase phase) {
  switch (phase) {
    case StepPhase::CoarseCollideStream:
      return "coarse_collide_stream";
    case StepPhase::Coupling:
      return "coupling";
    case StepPhase::Forces:
      return "forces";
    case StepPhase::Spread:
      return "spread";
    case StepPhase::FineCollideStream:
      return "fine_collide_stream";
    case StepPhase::Advect:
      return "advect";
    case StepPhase::Maintenance:
      return "maintenance";
    case StepPhase::WindowMove:
      return "window_move";
    case StepPhase::Health:
      return "health";
  }
  return "unknown";
}

StepProfiler::Scope::Scope(StepProfiler& profiler, StepPhase phase)
    : profiler_(&profiler),
      phase_(phase),
      tracing_(obs::Tracer::instance().enabled()),
      start_ns_(now_ns()) {}

StepProfiler::Scope::Scope(Scope&& other) noexcept
    : profiler_(other.profiler_),
      phase_(other.phase_),
      tracing_(other.tracing_),
      start_ns_(other.start_ns_) {
  other.profiler_ = nullptr;
}

StepProfiler::Scope::~Scope() {
  if (!profiler_) return;
  const std::int64_t dur_ns = now_ns() - start_ns_;
  profiler_->add_seconds(phase_, dur_ns * 1e-9);
  if (tracing_) {
    obs::Tracer::instance().record_complete("step", to_string(phase_),
                                            start_ns_, dur_ns);
  }
}

void StepProfiler::add_seconds(StepPhase phase, double seconds) {
  PhaseStats& s = stats_[index_of(phase)];
  s.seconds += seconds;
  ++s.calls;
}

void StepProfiler::add_site_updates(StepPhase phase, std::uint64_t updates) {
  stats_[index_of(phase)].site_updates += updates;
}

const PhaseStats& StepProfiler::stats(StepPhase phase) const {
  return stats_[index_of(phase)];
}

double StepProfiler::total_seconds() const {
  double t = 0.0;
  for (const auto& s : stats_) t += s.seconds;
  return t;
}

std::uint64_t StepProfiler::total_site_updates() const {
  std::uint64_t n = 0;
  for (const auto& s : stats_) n += s.site_updates;
  return n;
}

void StepProfiler::merge(const StepProfiler& other) {
  for (int i = 0; i < kNumStepPhases; ++i) {
    stats_[i].seconds += other.stats_[i].seconds;
    stats_[i].calls += other.stats_[i].calls;
    stats_[i].site_updates += other.stats_[i].site_updates;
  }
}

void StepProfiler::reset() { stats_.fill(PhaseStats{}); }

std::vector<std::pair<std::string, PhaseStats>> StepProfiler::report() const {
  std::vector<std::pair<std::string, PhaseStats>> out;
  out.reserve(kNumStepPhases);
  for (int i = 0; i < kNumStepPhases; ++i) {
    out.emplace_back(to_string(static_cast<StepPhase>(i)), stats_[i]);
  }
  return out;
}

std::string StepProfiler::format_report() const {
  const double total = total_seconds();
  std::vector<std::vector<std::string>> rows;
  for (const auto& [name, s] : report()) {
    std::ostringstream sec;
    sec.precision(4);
    sec << std::fixed << s.seconds;
    std::ostringstream share;
    share.precision(1);
    share << std::fixed << (total > 0.0 ? 100.0 * s.seconds / total : 0.0)
          << "%";
    std::ostringstream mlups;
    mlups.precision(1);
    mlups << std::fixed << phase_mlups(s);
    rows.push_back({name, sec.str(), share.str(), std::to_string(s.calls),
                    std::to_string(s.site_updates), mlups.str()});
  }
  return format_table(
      {"phase", "seconds", "share", "calls", "site_updates", "mlups"}, rows);
}

void StepProfiler::write_csv(const std::string& path) const {
  CsvWriter csv(path, {"phase", "seconds", "calls", "site_updates",
                       "ms_per_call", "mlups"});
  for (int i = 0; i < kNumStepPhases; ++i) {
    const PhaseStats& s = stats_[i];
    // Per-invocation cost: makes one-shot phases (e.g. a single window
    // relocation) comparable across runs whose call counts differ.
    const double ms_per_call = s.calls ? 1e3 * s.seconds / s.calls : 0.0;
    csv.row({static_cast<double>(i), s.seconds, static_cast<double>(s.calls),
             static_cast<double>(s.site_updates), ms_per_call,
             phase_mlups(s)});
  }
  csv.flush();
}

}  // namespace apr::perf
