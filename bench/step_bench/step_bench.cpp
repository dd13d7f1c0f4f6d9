/// \file step_bench.cpp
/// The APR step benchmark: one fixed workload per process, timed at a
/// pinned worker count, with the end-state digest as the physics check.
///
///   step_bench --workload NAME [--seed S] [--seconds T] [--layers]
///              [--trace FILE] [--steps N]
///
/// Workloads (see README.md for why each exists):
///   channel_apr      fig6 expanding channel, n = 2: window maintenance and
///                    relocation dominate the step
///   cerebral_apr     fig9 cerebral tree with inlet/outflow faces, n = 3:
///                    steady cell FSI (forces, spread, advect)
///   channel_n6_ckpt  the same channel at n = 6 with a checkpoint save every
///                    10 coarse steps: fine LBM and the io layer
///   tree_bulk        coarse-only branching tree (Lattice::step): pure LBM
///
/// Every run uses 3 workers (exec::set_num_workers): on the 4-core machine
/// the benchmark was written on, that leaves one core for the OS. A run
/// sets the workload up several times (setup_s is the median), takes
/// one untimed warm step and snapshots the warmed state in memory. It then
/// times *episodes* until --seconds have elapsed (at least 3): each episode
/// restores the snapshot (untimed) and times a fixed number of coarse steps
/// one by one. Every episode repeats the same trajectory, so every episode
/// must end in the same state digest; a mismatch, a throwing step or an
/// unhealthy end state fails the run. The step metrics summarize each
/// step's fastest replay.
///
/// --layers splits the loop into an untraced and a traced half (the
/// difference is trace.overhead_pct), then times each public layer call 9x
/// on the warmed end state, at 3 workers and at 1 worker, restores the
/// snapshot and requires the pre-snapshot digest back. It finishes with a
/// STREAM triad that calibrates the computed LBM bandwidth.
///
/// The last stdout line is one JSON object: metrics (name -> value, unit),
/// attempted/failed step counts, digest, params fingerprint and machine
/// fingerprint. Exit code 0 only when every check passed.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/vasculature_common.hpp"
#include "src/apr/health.hpp"
#include "src/apr/simulation.hpp"
#include "src/common/log.hpp"
#include "src/exec/exec.hpp"
#include "src/geometry/domain.hpp"
#include "src/geometry/vasculature.hpp"
#include "src/geometry/voxelizer.hpp"
#include "src/io/checkpoint.hpp"
#include "src/obs/json.hpp"
#include "src/obs/manifest.hpp"
#include "src/obs/proc_stats.hpp"
#include "src/obs/trace.hpp"
#include "src/perf/step_profiler.hpp"
#include "src/rheology/blood.hpp"
#include "src/rheology/pries.hpp"

#ifndef STEP_BENCH_BUILD_FLAGS
#define STEP_BENCH_BUILD_FLAGS "unknown"
#endif

namespace {

using namespace apr;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Linear-interpolation quantile (numpy's default), q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Median wall time [ms] of `reps` calls of `call`; `before` runs untimed
/// ahead of each call (a snapshot restore for calls that consume state).
double median_ms(int reps, const std::function<void()>& call,
                 const std::function<void()>& before = {}) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    if (before) before();
    const auto t0 = Clock::now();
    call();
    t.push_back(ms_since(t0));
  }
  return median(std::move(t));
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Ordered (name, value, unit) metric list rendered into the result JSON.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  double get(const std::string& name) const {
    for (const auto& m : items_) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  }
  void print_table() const {
    for (const auto& m : items_) {
      std::printf("  %-44s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::string to_json() const {
    std::string s = "{";
    for (const auto& m : items_) {
      if (s.size() > 1) s += ',';
      s.append("\"").append(obs::json_escape(m.name));
      s.append("\":{\"value\":").append(obs::json_number(m.value));
      s.append(",\"unit\":\"").append(obs::json_escape(m.unit)).append("\"}");
    }
    return s + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

constexpr int kLayerReps = 9;
/// Bytes an LBM site update moves, computed from array sizes: the kQ
/// distributions read from f and written to ftmp (8 B each). Cache misses
/// and the per-node type/tau/force reads are not counted.
constexpr double kBytesPerSiteUpdate = 2.0 * lbm::kQ * sizeof(double);

double gbs_computed(double mlups) {
  return mlups * 1e6 * kBytesPerSiteUpdate / 1e9;
}

/// The coarse site updates one step performs, over the resident tile
/// nodes: how much of the allocated storage the sweep actually updates.
double fluid_fill(const lbm::Lattice& lat, std::uint64_t updates_per_step) {
  const double nodes =
      static_cast<double>(lat.num_tiles() * lbm::Lattice::kTileNodes);
  return nodes > 0.0 ? static_cast<double>(updates_per_step) / nodes : 0.0;
}

/// One benchmark workload: a stepped state with an in-memory snapshot.
class Scenario {
 public:
  virtual ~Scenario() = default;
  /// Coarse steps per timed episode.
  virtual int episode_steps() const = 0;
  /// One coarse step (the timed unit).
  virtual void step() = 0;
  virtual void snapshot() = 0;
  virtual void restore() = 0;
  virtual std::uint64_t digest() const = 0;
  virtual std::uint64_t params_fingerprint() const = 0;
  /// Empty when the current state passes the health scans.
  virtual std::string health() const = 0;
  /// Clear the per-phase profile before a loop whose phases are reported.
  virtual void reset_profile() = 0;
  /// Per-phase metrics of the `steps` timed steps (`wall_ms` in total)
  /// since reset_profile().
  virtual void phase_metrics(Metrics& m, int steps, double wall_ms) const = 0;
  /// Layer microbenches on the current state. Restores that state through
  /// the io layer afterwards and returns whether its digest came back.
  virtual bool layer_metrics(Metrics& m, int workers) = 0;
};

/// The watchdog of fig6's `--health throw`, scanning every 10 coarse steps
/// (a violation throws, failing the step). The miniature scale runs a
/// steady peak Mach of ~0.31 and tangles membranes at ~1 lattice spacing
/// per cell, so Mach gets headroom and the cell shape checks stay off.
core::HealthParams bench_health() {
  core::HealthParams h;
  h.enabled = true;
  h.interval = 10;
  h.max_mach = 0.35;
  h.check_cells = false;
  return h;
}

/// What --seed varies: every fluid node of `lat` restarts from equilibrium
/// at a density and velocity perturbed by up to 1e-4 (lattice units). The
/// geometry, the RBC packing and every parameter stay fixed per workload,
/// so a seed changes the trajectory (and the digest) but not the work a
/// step does -- the cell count a seed-drawn packing gives varies by +-12%
/// on the cerebral window, which would swamp the timings.
void perturb_flow(lbm::Lattice& lat, std::uint64_t seed) {
  constexpr double a = 1e-4;
  Rng rng(seed);
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    if (lat.type(i) != lbm::NodeType::Fluid) continue;
    const Vec3 u{rng.uniform(-a, a), rng.uniform(-a, a), rng.uniform(-a, a)};
    lat.init_node_equilibrium(i, 1.0 + rng.uniform(-a, a), u);
  }
  lat.update_macroscopic();
}

// --- APR workloads ----------------------------------------------------------

class AprScenario final : public Scenario {
 public:
  AprScenario(std::shared_ptr<const geometry::Domain> domain,
              std::unique_ptr<core::AprSimulation> sim,
              std::vector<lbm::OutflowBoundary> outlets, int episode_steps,
              int checkpoint_every, std::string checkpoint_path)
      : domain_(std::move(domain)),
        sim_(std::move(sim)),
        outlets_(std::move(outlets)),
        episode_steps_(episode_steps),
        checkpoint_every_(checkpoint_every),
        checkpoint_path_(std::move(checkpoint_path)) {
    sim_->set_health_params(bench_health());
  }

  ~AprScenario() override {
    if (!checkpoint_path_.empty()) {
      std::error_code ec;
      std::filesystem::remove(checkpoint_path_, ec);
    }
  }

  int episode_steps() const override { return episode_steps_; }

  void step() override {
    for (const auto& o : outlets_) o.update(sim_->coarse());
    sim_->step();
    if (checkpoint_every_ > 0 &&
        sim_->coarse_steps() % checkpoint_every_ == 0) {
      sim_->save_checkpoint(checkpoint_path_);
    }
  }

  void snapshot() override {
    snap_ = sim_->make_checkpoint();
    snap_moves_ = sim_->window_move_count();
  }
  void restore() override { sim_->load_checkpoint(snap_); }
  std::uint64_t digest() const override { return sim_->state_digest(); }
  std::uint64_t params_fingerprint() const override {
    return sim_->params_fingerprint();
  }
  std::string health() const override {
    const core::HealthReport rep = sim_->check_health();
    return rep.ok() ? std::string() : rep.message;
  }

  void reset_profile() override { sim_->profiler().reset(); }

  void phase_metrics(Metrics& m, int steps, double) const override {
    const perf::StepProfiler& prof = sim_->profiler();
    const double total = prof.total_seconds();
    for (int i = 0; i < perf::kNumStepPhases; ++i) {
      const auto phase = static_cast<perf::StepPhase>(i);
      const perf::PhaseStats& st = prof.stats(phase);
      const std::string p = std::string("phase.") + perf::to_string(phase);
      m.set(p + ".ms_per_step", 1e3 * st.seconds / steps, "ms");
      m.set(p + ".share", total > 0.0 ? st.seconds / total : 0.0, "ratio");
    }
    for (const auto phase :
         {perf::StepPhase::Maintenance, perf::StepPhase::WindowMove}) {
      const perf::PhaseStats& st = prof.stats(phase);
      m.set(std::string("phase.") + perf::to_string(phase) + ".ms_per_call",
            st.calls ? 1e3 * st.seconds / static_cast<double>(st.calls) : 0.0,
            "ms");
    }
    for (const auto phase : {perf::StepPhase::CoarseCollideStream,
                             perf::StepPhase::FineCollideStream}) {
      m.set(std::string("phase.") + perf::to_string(phase) + ".mlups",
            perf::phase_mlups(prof.stats(phase)), "MLUPS");
    }
    // Every episode restarts from the snapshot, so this is the move count
    // of one episode.
    m.set("apr.window_moves",
          static_cast<double>(sim_->window_move_count() - snap_moves_),
          "count");
  }

  bool layer_metrics(Metrics& m, int workers) override;

 private:
  std::vector<cells::CellPool*> pools() {
    std::vector<cells::CellPool*> p;
    if (sim_->rbcs().size() > 0) p.push_back(&sim_->rbcs());
    if (sim_->ctcs().size() > 0) p.push_back(&sim_->ctcs());
    return p;
  }

  std::shared_ptr<const geometry::Domain> domain_;
  std::unique_ptr<core::AprSimulation> sim_;
  std::vector<lbm::OutflowBoundary> outlets_;
  int episode_steps_;
  int checkpoint_every_;
  std::string checkpoint_path_;
  io::Checkpoint snap_;
  int snap_moves_ = 0;
};

bool AprScenario::layer_metrics(Metrics& m, int workers) {
  core::AprSimulation& sim = *sim_;
  const std::uint64_t d0 = sim.state_digest();

  // io: the snapshot the microbenches restore from is the one timed here.
  io::Checkpoint layer_snap;
  m.set("io.checkpoint.make_ms", median_ms(kLayerReps, [&] {
          OBS_SPAN("bench", "io.checkpoint.make");
          layer_snap = sim.make_checkpoint();
        }),
        "ms");
  std::vector<char> bytes;
  m.set("io.checkpoint.encode_ms", median_ms(kLayerReps, [&] {
          OBS_SPAN("bench", "io.checkpoint.encode");
          bytes = layer_snap.to_bytes();
        }),
        "ms");
  m.set("io.checkpoint.mb", static_cast<double>(bytes.size()) / 1e6, "MB");
  m.set("io.checkpoint.load_ms", median_ms(kLayerReps, [&] {
          OBS_SPAN("bench", "io.checkpoint.load");
          sim.load_checkpoint(io::Checkpoint::from_bytes(bytes));
        }),
        "ms");
  m.set("io.state_digest_ms", median_ms(kLayerReps, [&] {
          OBS_SPAN("bench", "io.state_digest");
          (void)sim.state_digest();
        }),
        "ms");
  const auto restore = [&] { sim.load_checkpoint(layer_snap); };
  restore();

  const std::size_t rbc_count = sim.rbcs().size();
  const double verts = static_cast<double>(
      rbc_count * static_cast<std::size_t>(sim.rbcs().vertices_per_cell()) +
      sim.ctcs().size() *
          static_cast<std::size_t>(sim.ctcs().vertices_per_cell()));
  m.set("cells.rbc_count", static_cast<double>(rbc_count), "count");
  m.set("cells.vertices", verts, "count");
  m.set("lbm.coarse.resident_tiles",
        static_cast<double>(sim.coarse().num_tiles()), "count");
  m.set("lbm.fine.resident_tiles", static_cast<double>(sim.fine().num_tiles()),
        "count");

  const core::FsiParams& fsi = sim.params().fsi;
  const auto forces = [&] {
    OBS_SPAN("bench", "fem.forces");
    core::compute_cell_forces(pools(), domain_.get(), fsi);
  };
  const auto spread = [&] {
    OBS_SPAN("bench", "ibm.spread");
    sim.fine().clear_forces();
    core::spread_cell_forces(sim.fine(), sim.fine_units(), pools(),
                             fsi.kernel);
  };
  const auto advect = [&] {
    OBS_SPAN("bench", "ibm.advect");
    core::advect_cells(sim.fine(), pools(), fsi.kernel);
  };
  const auto fine_step = [&] {
    OBS_SPAN("bench", "lbm.fine_step");
    sim.fine().step();
  };
  const auto coarse_step = [&] {
    OBS_SPAN("bench", "lbm.coarse_step");
    sim.coarse().step();
  };
  core::PopulationReport maint;
  const auto maintain = [&] {
    OBS_SPAN("bench", "apr.maintain");
    Rng rng(0xBE7C4ull);
    std::uint64_t next_id = std::uint64_t{1} << 40;  // clear of live ids
    maint = sim.window().maintain(sim.rbcs(), sim.tile(), rng, next_id);
  };

  struct Timings {
    double forces, spread, advect, fine, coarse, maintain;
  };
  const auto time_all = [&] {
    Timings t{};
    // Repeated calls drift the state by a few steps at most, which does
    // not change their cost; the warm-up calls rebuild the sweep plans a
    // restore invalidates. Maintenance consumes the density deficit it
    // refills, so every call starts from the snapshot.
    restore();
    t.forces = median_ms(kLayerReps, forces);
    t.spread = median_ms(kLayerReps, spread);
    t.advect = median_ms(kLayerReps, advect);
    fine_step();
    t.fine = median_ms(kLayerReps, fine_step);
    coarse_step();
    t.coarse = median_ms(kLayerReps, coarse_step);
    t.maintain = median_ms(kLayerReps, maintain, restore);
    return t;
  };
  const std::uint64_t fine0 = sim.fine().site_updates();
  fine_step();
  const auto fine_updates = static_cast<double>(sim.fine().site_updates() -
                                                fine0);
  const std::uint64_t coarse0 = sim.coarse().site_updates();
  coarse_step();
  const auto coarse_updates =
      static_cast<double>(sim.coarse().site_updates() - coarse0);

  const Timings tw = time_all();
  exec::set_num_workers(1);
  const Timings t1 = time_all();
  exec::set_num_workers(workers);

  m.set("fem.forces.ms", tw.forces, "ms");
  m.set("fem.forces.mvert_per_s", verts / tw.forces / 1e3, "Mvert/s");
  m.set("ibm.spread.ms", tw.spread, "ms");
  m.set("ibm.spread.mvert_per_s", verts / tw.spread / 1e3, "Mvert/s");
  m.set("ibm.advect.ms", tw.advect, "ms");
  m.set("ibm.advect.mvert_per_s", verts / tw.advect / 1e3, "Mvert/s");
  const double fine_mlups = fine_updates / tw.fine / 1e3;
  m.set("lbm.fine_step.ms", tw.fine, "ms");
  m.set("lbm.fine_step.mlups", fine_mlups, "MLUPS");
  m.set("lbm.fine_step.gbs_computed", gbs_computed(fine_mlups), "GB/s");
  const double coarse_mlups = coarse_updates / tw.coarse / 1e3;
  m.set("lbm.coarse_step.ms", tw.coarse, "ms");
  m.set("lbm.coarse_step.mlups", coarse_mlups, "MLUPS");
  m.set("lbm.coarse_step.gbs_computed", gbs_computed(coarse_mlups), "GB/s");
  m.set("lbm.coarse.fluid_fill",
        fluid_fill(sim.coarse(), static_cast<std::uint64_t>(coarse_updates)),
        "ratio");

  m.set("apr.maintain.ms", tw.maintain, "ms");
  m.set("apr.maintain.refills", maint.subregions_refilled, "count");
  const int tried = maint.added + maint.rejected_overlap + maint.rejected_wall;
  m.set("apr.maintain.accept_ratio",
        tried > 0 ? static_cast<double>(maint.added) / tried : 0.0, "ratio");

  core::WindowRelocationStats reloc;
  const double dz = sim.coarse().dx();
  m.set("apr.relocate.ms", median_ms(kLayerReps, [&] {
          OBS_SPAN("bench", "apr.relocate");
          reloc = sim.relocate_window(sim.window().center() + Vec3{0, 0, dz});
        }, restore),
        "ms");
  const double moved = static_cast<double>(reloc.preserved_nodes +
                                           reloc.reinit_nodes);
  m.set("apr.relocate.preserved_frac",
        moved > 0.0 ? static_cast<double>(reloc.preserved_nodes) / moved : 0.0,
        "ratio");

  const auto speedup = [](double one, double many) {
    return many > 0.0 ? one / many : 0.0;
  };
  m.set("exec.fine_step.speedup_vs_1", speedup(t1.fine, tw.fine), "x");
  m.set("exec.coarse_step.speedup_vs_1", speedup(t1.coarse, tw.coarse), "x");
  m.set("exec.forces.speedup_vs_1", speedup(t1.forces, tw.forces), "x");
  m.set("exec.spread.speedup_vs_1", speedup(t1.spread, tw.spread), "x");
  m.set("exec.advect.speedup_vs_1", speedup(t1.advect, tw.advect), "x");
  m.set("exec.maintain.speedup_vs_1", speedup(t1.maintain, tw.maintain), "x");

  restore();
  return sim.state_digest() == d0;
}

/// The fig6 APR run: 20 -> 40 um expanding channel, body-force driven,
/// RBC packing seed 11, 300 coarse warm-up steps before the window, CTC
/// and RBC fill are placed.
std::unique_ptr<Scenario> build_channel(std::uint64_t seed, int n,
                                        int episode_steps,
                                        int checkpoint_every) {
  auto domain = std::make_shared<geometry::ExpandingChannelDomain>(
      Vec3{0, 0, 0}, 100e-6, 10e-6, 20e-6, 30e-6, 10e-6, /*capped=*/false);
  core::AprParams p;
  p.dx_coarse = 2.0e-6;
  p.n = n;
  p.tau_coarse = 1.0;
  const double mu_bulk = rheology::kPlasmaViscosity *
                         rheology::pries_relative_viscosity(78.0, 0.10);
  p.nu_bulk = mu_bulk / rheology::kBloodDensity;
  p.lambda = rheology::kPlasmaViscosity / mu_bulk;
  p.window.proper_side = 6e-6;
  p.window.onramp_width = 2.5e-6;
  p.window.insertion_width = 5.5e-6;
  p.window.target_hematocrit = 0.10;
  p.move.trigger_distance = 1.5e-6;
  p.fsi.contact_cutoff = 0.4e-6;
  p.fsi.contact_strength = 2e-12;
  p.fsi.wall_cutoff = 0.5e-6;
  p.fsi.wall_strength = 5e-12;
  p.maintain_interval = 4;
  p.rbc_capacity = 1500;
  p.seed = 11;
  auto sim = std::make_unique<core::AprSimulation>(
      domain, vasc_bench::make_rbc(), vasc_bench::make_ctc(), p);
  const Vec3 start{4e-6, 0.0, 12e-6};
  sim->initialize_flow(Vec3{});
  perturb_flow(sim->coarse(), seed);
  sim->coarse().set_periodic(false, false, true);
  sim->set_body_force_density(Vec3{0, 0, 2e7});
  for (int s = 0; s < 300; ++s) sim->coarse().step();
  sim->place_window(start);
  sim->place_ctc(start);
  sim->fill_window();
  std::string chk;
  if (checkpoint_every > 0) {
    std::filesystem::create_directories("out/step_bench");
    chk = "out/step_bench/channel_n6_ckpt.chk";
  }
  return std::make_unique<AprScenario>(std::move(domain), std::move(sim),
                                       std::vector<lbm::OutflowBoundary>{},
                                       episode_steps, checkpoint_every, chk);
}

/// The fig9 cerebral tree (scale 0.15, geometry seed 424242, RBC packing
/// seed 99, 400 inlet-driven warm-up steps), clipped to a
/// 90 x 90 um column that runs from the inlet face to 120 um past the
/// window start. fig9 voxelizes the whole tree's bounding box (3.9 GB peak,
/// 8.5 s per set-up); the column keeps the root vessel the window travels
/// in, with the same inlet and a zero-gradient outflow face downstream, at
/// 160 MB and well under 2 s per set-up.
std::unique_ptr<Scenario> build_cerebral(std::uint64_t seed) {
  Rng geo_rng(424242);
  auto vasc = std::make_shared<geometry::Vasculature>(
      geometry::Vasculature::cerebral_like(geo_rng, 0.15));
  // The window start open_tree() will pick: the first centerline point one
  // window width past its inlet clip.
  const auto& root = vasc->segments().front();
  const double inlet_z = root.a.z + 0.35 * (root.b.z - root.a.z);
  const double margin = vasc_bench::tree_params(99).window.outer_side();
  Vec3 start{};
  for (const Vec3& p : vasc->main_path(2e-6)) {
    if (p.z > inlet_z + margin) {
      start = p;
      break;
    }
  }
  const double half = 45e-6;
  vasc->clip_bounds(Aabb(start - Vec3{half, half, 1.0},
                         start + Vec3{half, half, 120e-6}));
  auto tree = vasc_bench::open_tree(vasc, 99);
  perturb_flow(tree.sim->coarse(), seed);
  for (int s = 0; s < 400; ++s) {
    tree.update_outlets();
    tree.sim->coarse().step();
  }
  tree.sim->place_window(tree.start);
  tree.sim->place_ctc(tree.start);
  tree.sim->fill_window();
  return std::make_unique<AprScenario>(std::move(tree.vasc),
                                       std::move(tree.sim),
                                       std::move(tree.outlets), 20, 0, "");
}

// --- coarse-only bulk workload ----------------------------------------------

/// The ablation_row_kernels branching tree (geometry seed 11, 15 um
/// spacing, tau 0.8, body force along the root) at half its root length:
/// 1.1M box nodes, 62 resident tiles, ~6k fluid updates per step. The full
/// tree peaks at 4 GB during set-up.
class BulkScenario final : public Scenario {
 public:
  explicit BulkScenario(std::uint64_t seed) : lat_(make_lattice(seed)) {}

  int episode_steps() const override { return 1000; }
  void step() override {
    const std::uint64_t before = lat_.site_updates();
    lat_.step();
    updates_ += lat_.site_updates() - before;
  }
  void snapshot() override { snap_ = lat_; }
  void restore() override { lat_ = snap_; }
  std::uint64_t digest() const override {
    const std::vector<char> bytes = io::LatticeState::capture(lat_).serialize();
    io::Fnv1a h;
    h.update(bytes.data(), bytes.size());
    return h.value();
  }
  std::uint64_t params_fingerprint() const override {
    io::Fnv1a h;
    h.update_pod(kTreeSeed);
    h.update_pod(kDx);
    h.update_pod(kTau);
    h.update_pod(kBodyForce);
    return h.value();
  }
  std::string health() const override {
    const core::HealthReport rep =
        core::HealthMonitor(bench_health()).scan_lattice(lat_, "coarse", 0);
    return rep.ok() ? std::string() : rep.message;
  }
  void reset_profile() override { updates_ = 0; }
  void phase_metrics(Metrics& m, int steps, double wall_ms) const override {
    // The whole step is the coarse sweep; every other phase is idle.
    for (int i = 0; i < perf::kNumStepPhases; ++i) {
      const auto phase = static_cast<perf::StepPhase>(i);
      const bool coarse = phase == perf::StepPhase::CoarseCollideStream;
      const std::string p = std::string("phase.") + perf::to_string(phase);
      m.set(p + ".ms_per_step", coarse ? wall_ms / steps : 0.0, "ms");
      m.set(p + ".share", coarse ? 1.0 : 0.0, "ratio");
    }
    m.set("phase.maintenance.ms_per_call", 0.0, "ms");
    m.set("phase.window_move.ms_per_call", 0.0, "ms");
    m.set("phase.coarse_collide_stream.mlups",
          static_cast<double>(updates_) / wall_ms / 1e3, "MLUPS");
    m.set("phase.fine_collide_stream.mlups", 0.0, "MLUPS");
    m.set("apr.window_moves", 0.0, "count");
  }
  bool layer_metrics(Metrics& m, int workers) override;

 private:
  static constexpr std::uint64_t kTreeSeed = 11;
  static constexpr double kDx = 15e-6;
  static constexpr double kTau = 0.8;
  static constexpr double kBodyForce = 1e-5;  // lattice units along +z

  static lbm::Lattice make_lattice(std::uint64_t seed) {
    Rng geo_rng(kTreeSeed);
    geometry::VasculatureParams vp;
    vp.root_radius = 60e-6;
    vp.root_length = 0.6e-3;
    vp.levels = 4;
    const auto vasc = geometry::Vasculature::branching_tree(vp, geo_rng);
    lbm::Lattice lat = geometry::make_lattice_for(vasc, kDx, kTau);
    geometry::voxelize(lat, vasc);
    lat.shrink_to_fit();
    lat.set_body_force(Vec3{0.0, 0.0, kBodyForce});
    perturb_flow(lat, seed);
    return lat;
  }

  lbm::Lattice lat_;
  lbm::Lattice snap_{lat_};
  std::uint64_t updates_ = 0;  ///< site updates since reset_profile()
};

bool BulkScenario::layer_metrics(Metrics& m, int workers) {
  const std::uint64_t d0 = digest();
  io::LatticeState state;
  m.set("io.checkpoint.make_ms", median_ms(kLayerReps, [&] {
          OBS_SPAN("bench", "io.checkpoint.make");
          state = io::LatticeState::capture(lat_);
        }),
        "ms");
  std::vector<char> bytes;
  m.set("io.checkpoint.encode_ms", median_ms(kLayerReps, [&] {
          OBS_SPAN("bench", "io.checkpoint.encode");
          bytes = state.serialize();
        }),
        "ms");
  m.set("io.checkpoint.mb", static_cast<double>(bytes.size()) / 1e6, "MB");
  m.set("io.checkpoint.load_ms", median_ms(kLayerReps, [&] {
          OBS_SPAN("bench", "io.checkpoint.load");
          io::LatticeState::deserialize(bytes, "coarse").apply(lat_);
        }),
        "ms");
  m.set("io.state_digest_ms", median_ms(kLayerReps, [&] {
          OBS_SPAN("bench", "io.state_digest");
          (void)digest();
        }),
        "ms");
  const auto restore = [&] { state.apply(lat_); };

  const std::uint64_t u0 = lat_.site_updates();
  lat_.step();
  const auto updates = static_cast<double>(lat_.site_updates() - u0);
  const auto coarse_step = [&] {
    OBS_SPAN("bench", "lbm.coarse_step");
    lat_.step();
  };
  const double tw = median_ms(kLayerReps, coarse_step);
  exec::set_num_workers(1);
  const double t1 = median_ms(kLayerReps, coarse_step);
  exec::set_num_workers(workers);

  const double mlups = updates / tw / 1e3;
  m.set("lbm.coarse_step.ms", tw, "ms");
  m.set("lbm.coarse_step.mlups", mlups, "MLUPS");
  m.set("lbm.coarse_step.gbs_computed", gbs_computed(mlups), "GB/s");
  m.set("lbm.coarse.fluid_fill",
        fluid_fill(lat_, static_cast<std::uint64_t>(updates)), "ratio");
  m.set("lbm.coarse.resident_tiles", static_cast<double>(lat_.num_tiles()),
        "count");
  m.set("exec.coarse_step.speedup_vs_1", tw > 0.0 ? t1 / tw : 0.0, "x");
  // Idle layers on a coarse-only lattice.
  const std::pair<const char*, const char*> idle[] = {
      {"fem.forces.ms", "ms"},
      {"fem.forces.mvert_per_s", "Mvert/s"},
      {"ibm.spread.ms", "ms"},
      {"ibm.spread.mvert_per_s", "Mvert/s"},
      {"ibm.advect.ms", "ms"},
      {"ibm.advect.mvert_per_s", "Mvert/s"},
      {"lbm.fine_step.ms", "ms"},
      {"lbm.fine_step.mlups", "MLUPS"},
      {"lbm.fine_step.gbs_computed", "GB/s"},
      {"apr.maintain.ms", "ms"},
      {"apr.maintain.refills", "count"},
      {"apr.maintain.accept_ratio", "ratio"},
      {"apr.relocate.ms", "ms"},
      {"apr.relocate.preserved_frac", "ratio"},
      {"exec.fine_step.speedup_vs_1", "x"},
      {"exec.forces.speedup_vs_1", "x"},
      {"exec.spread.speedup_vs_1", "x"},
      {"exec.advect.speedup_vs_1", "x"},
      {"exec.maintain.speedup_vs_1", "x"},
      {"cells.rbc_count", "count"},
      {"cells.vertices", "count"},
      {"lbm.fine.resident_tiles", "count"},
  };
  for (const auto& [name, unit] : idle) m.set(name, 0.0, unit);
  restore();
  return digest() == d0;
}

// --- command line and the timed loop -----------------------------------------

const char* const kWorkloads[] = {"channel_apr", "cerebral_apr",
                                  "channel_n6_ckpt", "tree_bulk"};

std::unique_ptr<Scenario> build(const std::string& workload,
                                std::uint64_t seed) {
  if (workload == "channel_apr") return build_channel(seed, 2, 40, 0);
  if (workload == "cerebral_apr") return build_cerebral(seed);
  if (workload == "channel_n6_ckpt") return build_channel(seed, 6, 10, 10);
  return std::make_unique<BulkScenario>(seed);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool layers = false;
  std::string trace_file;
  int steps = 0;  ///< episode length override (0 = the workload's own)
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload channel_apr|cerebral_apr|"
               "channel_n6_ckpt|tree_bulk [--seed S] [--seconds T] "
               "[--layers] [--trace FILE] [--steps N]\n",
               argv0);
  return 2;
}

constexpr int kWorkers = 3;
constexpr int kMinEpisodes = 3;

/// Timed loop outcome: the per-step wall times of every replayed episode.
struct Loop {
  std::vector<std::vector<double>> episodes;  ///< [episode][step] ms
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;  ///< first failure (throw, digest mismatch)

  std::size_t steps_run() const {
    std::size_t n = 0;
    for (const auto& e : episodes) n += e.size();
    return n;
  }
  double wall_ms() const {
    double t = 0.0;
    for (const auto& e : episodes) {
      for (const double ms : e) t += ms;
    }
    return t;
  }
  /// Each step's fastest replay. Every episode repeats the same steps, and
  /// other tenants of a shared host only ever slow a step down, so the
  /// per-step minimum over the replays is the run's interference floor.
  std::vector<double> best_per_step() const {
    std::vector<double> best = episodes.empty() ? std::vector<double>{}
                                                : episodes.front();
    for (const auto& e : episodes) {
      for (std::size_t k = 0; k < best.size(); ++k) {
        best[k] = std::min(best[k], e[k]);
      }
    }
    return best;
  }
};

/// Replay restored episodes of `steps` timed steps until `seconds` have
/// passed and at least kMinEpisodes ran. `ref_digest` is the expected end
/// digest (0 = take the first episode's).
Loop run_episodes(Scenario& sc, int steps, double seconds,
                  std::uint64_t& ref_digest) {
  Loop loop;
  const auto t_end = Clock::now() + std::chrono::duration<double>(seconds);
  while (loop.episodes.size() < kMinEpisodes || Clock::now() < t_end) {
    sc.restore();
    std::vector<double> ms;
    try {
      for (int k = 0; k < steps; ++k) {
        ++loop.attempted;
        const auto t0 = Clock::now();
        sc.step();
        ms.push_back(ms_since(t0));
      }
    } catch (const std::exception& e) {
      // The throwing step and the rest of its episode count as failed.
      const auto rest = static_cast<std::uint64_t>(steps) - ms.size();
      loop.attempted += rest - 1;
      loop.failed += rest;
      loop.error = std::string("step threw: ") + e.what();
      return loop;
    }
    loop.episodes.push_back(std::move(ms));
    const std::uint64_t d = sc.digest();
    if (ref_digest == 0) ref_digest = d;
    if (d != ref_digest) {
      loop.error = "episode end digest " + hex64(d) + " != " +
                   hex64(ref_digest) + " (nondeterministic trajectory)";
      return loop;
    }
  }
  return loop;
}

/// STREAM triad a = b + s*c over three arrays of `mib` MiB each (>= 4x the
/// last-level cache), median of 5 passes; returns GB/s counting 3 arrays.
double triad_gbs(std::size_t mib) {
  const std::size_t n = mib * 1024 * 1024 / sizeof(double);
  std::vector<double> a(n), b(n), c(n);
  exec::parallel_for_chunks(n, [&](std::size_t lo, std::size_t hi, int) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  std::vector<double> gbs;
  for (int pass = 0; pass < 5; ++pass) {
    OBS_SPAN("bench", "calib.triad");
    const auto t0 = Clock::now();
    exec::parallel_for_chunks(n, [&](std::size_t lo, std::size_t hi, int) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
    });
    gbs.push_back(3.0 * static_cast<double>(n * sizeof(double)) /
                  (ms_since(t0) * 1e6));
  }
  if (a[n / 2] != 7.0) throw std::runtime_error("triad: wrong result");
  return median(std::move(gbs));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

double mb(std::uint64_t bytes) { return static_cast<double>(bytes) / 1e6; }

int run(const Options& opt) {
  exec::set_num_workers(kWorkers);
  const int workers = exec::num_workers();
  Metrics m;

  // Set-up, several times: setup_s is the median. Only the last state is
  // kept (and the previous one is freed first, so peak RSS is one setup's).
  const int setups = opt.layers ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<Scenario> sc;
  for (int i = 0; i < setups; ++i) {
    sc.reset();
    const auto t0 = Clock::now();
    sc = build(opt.workload, opt.seed);
    sc->step();  // warm step: sweep plans, stencil caches, scratch pools
    setup_s.push_back(ms_since(t0) / 1e3);
  }
  sc->snapshot();
  const int steps = opt.steps > 0 ? opt.steps : sc->episode_steps();

  std::uint64_t ref_digest = 0;
  const double untraced_s = opt.layers ? opt.seconds / 2 : opt.seconds;
  sc->reset_profile();
  const Loop loop = run_episodes(*sc, steps, untraced_s, ref_digest);
  if (loop.error.empty()) {
    sc->phase_metrics(m, static_cast<int>(loop.steps_run()), loop.wall_ms());
  }
  std::string error = loop.error;

  const std::vector<double> best = loop.best_per_step();
  const double mean_ms = mean(best);
  m.set("step_ms_p50", quantile(best, 0.5), "ms");
  m.set("step_ms_p90", quantile(best, 0.9), "ms");
  m.set("step_ms_mean", mean_ms, "ms");
  m.set("setup_s", median(setup_s), "s");
  m.set("episodes", static_cast<double>(loop.episodes.size()), "count");
  m.set("episode_steps", steps, "count");

  std::string health = error.empty() ? sc->health() : std::string();
  if (!health.empty()) error = "unhealthy end state: " + health;

  bool restore_ok = true;
  if (opt.layers && error.empty()) {
    obs::Tracer::instance().set_enabled(true);
    const Loop traced = run_episodes(*sc, steps, opt.seconds / 2, ref_digest);
    obs::Tracer::instance().set_enabled(false);
    if (!traced.error.empty()) error = "traced loop: " + traced.error;
    const double traced_mean = mean(traced.best_per_step());
    m.set("trace.overhead_pct",
          mean_ms > 0.0 ? 100.0 * (traced_mean / mean_ms - 1.0) : 0.0, "%");
    if (error.empty()) {
      obs::Tracer::instance().set_enabled(!opt.trace_file.empty());
      restore_ok = sc->layer_metrics(m, workers);
      obs::Tracer::instance().set_enabled(false);
      if (!restore_ok) {
        error = "restored state digest differs from the pre-snapshot digest";
      }
    }
    m.set("exec.workers", workers, "count");
  }

  const obs::ProcessMemory mem = obs::sample_process_memory();
  m.set("peak_rss_mb", mb(mem.peak_rss_bytes), "MB");
  m.set("rss_end_mb", mb(mem.rss_bytes), "MB");
  const std::uint64_t digest = sc->digest();
  const std::uint64_t fingerprint = sc->params_fingerprint();
  sc.reset();

  if (opt.layers) {
    // After the scenario is freed, so its memory and the triad's never
    // overlap. 512 MiB per array is >= 4x this machine's 105 MiB L3.
    const double triad = triad_gbs(512);
    m.set("calib.triad_gbs", triad, "GB/s");
    for (const char* layer : {"lbm.fine_step", "lbm.coarse_step"}) {
      m.set(std::string(layer) + ".bw_frac",
            m.get(std::string(layer) + ".gbs_computed") / triad, "ratio");
    }
  }
  if (!opt.trace_file.empty()) {
    obs::Tracer::instance().write_chrome_json(opt.trace_file);
  }

  obs::RunManifest env;
  obs::capture_environment(env);
  std::printf("%s seed %llu: %zu episodes of %d steps at %d workers, "
              "digest %s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              loop.episodes.size(), steps, workers, hex64(digest).c_str());
  m.print_table();
  if (!error.empty()) std::printf("FAIL: %s\n", error.c_str());

  std::string out = "{\"workload\":\"" + opt.workload + "\"";
  out += ",\"seed\":" + std::to_string(opt.seed);
  out += ",\"correct\":" + std::string(error.empty() ? "true" : "false");
  out += ",\"error\":\"" + obs::json_escape(error) + "\"";
  out += ",\"attempted\":" + std::to_string(loop.attempted);
  out += ",\"failed\":" + std::to_string(loop.failed);
  out += ",\"digest\":\"" + hex64(digest) + "\"";
  out += ",\"params_fingerprint\":\"" + hex64(fingerprint) + "\"";
  out += ",\"workers\":" + std::to_string(workers);
  out += ",\"layers\":" + std::string(opt.layers ? "true" : "false");
  out += ",\"restore_digest_ok\":" +
         std::string(restore_ok ? "true" : "false");
  out += ",\"machine\":{\"cpu\":\"" + obs::json_escape(cpu_model()) +
         "\",\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"workers\":" + std::to_string(workers) + ",\"compiler\":\"" +
         obs::json_escape(env.compiler) + "\",\"build_flags\":\"" +
         obs::json_escape(STEP_BENCH_BUILD_FLAGS) + "\"}";
  out += ",\"metrics\":" + m.to_json() + "}";
  std::printf("%s\n", out.c_str());
  return error.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) try {
  set_log_level(LogLevel::Warn);
  Options opt;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const bool has_value = a + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++a];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++a], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++a]);
    } else if (arg == "--steps" && has_value) {
      opt.steps = std::atoi(argv[++a]);
    } else if (arg == "--trace" && has_value) {
      opt.trace_file = argv[++a];
    } else if (arg == "--layers") {
      opt.layers = true;
    } else {
      return usage(argv[0]);
    }
  }
  const bool known = std::any_of(
      std::begin(kWorkloads), std::end(kWorkloads),
      [&](const char* w) { return opt.workload == w; });
  if (!known || opt.seconds < 0.0 || opt.steps < 0) {
    return usage(argv[0]);
  }
  return run(opt);
} catch (const std::exception& e) {
  std::fprintf(stderr, "step_bench: %s\n", e.what());
  return 1;
}
