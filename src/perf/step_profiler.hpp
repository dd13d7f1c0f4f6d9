#pragma once

/// \file step_profiler.hpp
/// Per-phase wall-time and work-counter decomposition of one APR coarse
/// step. AprSimulation::step() brackets each of its phases (coarse
/// collide-stream, grid coupling, membrane forces, IBM spread, fine
/// collide-stream, advection, density maintenance, window moves, health
/// watchdog scans) with a
/// Scope, so after a run the profiler answers "where did the time go"
/// with a struct, a text table or CSV -- the measurement side of the
/// paper's node-hour accounting (Fig. 6) and the input the scaling model
/// of src/perf is calibrated against.
///
/// When the obs tracer is enabled (obs::Tracer::instance()), every Scope
/// additionally emits a Chrome trace span (category "step", name =
/// to_string(phase)).
///
/// Overhead is two steady_clock reads per phase per step, always on.

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace apr::perf {

enum class StepPhase : int {
  CoarseCollideStream = 0,  ///< coarse lattice collide+stream
  Coupling,                 ///< snapshots, fine-boundary blend, restriction
  Forces,                   ///< membrane FEM + contact + wall forces
  Spread,                   ///< IBM force spreading onto the fine lattice
  FineCollideStream,        ///< fine lattice collide+stream (n sub-steps)
  Advect,                   ///< IBM velocity interpolation + vertex update
  Maintenance,              ///< hematocrit maintenance (insert/remove)
  WindowMove,               ///< window re-centering + fine-grid rebuild
  Health,                   ///< numerical-health watchdog scans
};

inline constexpr int kNumStepPhases = 9;

/// Stable lower-case phase name ("coarse_collide_stream", ...).
const char* to_string(StepPhase phase);

struct PhaseStats {
  double seconds = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t site_updates = 0;
};

/// Throughput of a phase in million lattice-site updates per second
/// (the paper's MLUPS figure of merit); 0 when no time was recorded.
double phase_mlups(const PhaseStats& stats);

class StepProfiler {
 public:
  /// RAII wall-clock bracket for one phase occurrence.
  class Scope {
   public:
    Scope(StepProfiler& profiler, StepPhase phase);
    ~Scope();
    Scope(Scope&& other) noexcept;
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope& operator=(Scope&&) = delete;

   private:
    StepProfiler* profiler_;  // null when moved-from
    StepPhase phase_;
    bool tracing_ = false;  // emit an obs trace span on close
    std::int64_t start_ns_ = 0;
  };

  Scope scope(StepPhase phase) { return Scope(*this, phase); }

  void add_seconds(StepPhase phase, double seconds);
  void add_site_updates(StepPhase phase, std::uint64_t updates);

  const PhaseStats& stats(StepPhase phase) const;
  double total_seconds() const;
  std::uint64_t total_site_updates() const;

  /// Accumulate another profiler's counters into this one (ensemble runs).
  void merge(const StepProfiler& other);

  void reset();

  /// Ordered (phase name, stats) rows covering every phase.
  std::vector<std::pair<std::string, PhaseStats>> report() const;

  /// Fixed-width text table (phase, seconds, share, calls, site updates,
  /// MLUPS).
  std::string format_report() const;

  /// CSV with columns phase,seconds,calls,site_updates,ms_per_call,mlups
  /// where `phase` is the StepPhase enum index (names via to_string).
  /// Written through common/csv so the plotting tooling can ingest it
  /// directly.
  void write_csv(const std::string& path) const;

 private:
  std::array<PhaseStats, kNumStepPhases> stats_{};
};

}  // namespace apr::perf
