#pragma once

/// \file simulation.hpp
/// AprSimulation: the assembled adaptive-physics-refinement model of the
/// paper. A coarse whole-blood lattice spans the flow domain; a fine
/// plasma lattice spans the moving window; RBCs and the tracked CTC live
/// on the fine lattice via IBM/FEM; the Window maintains hematocrit and
/// the WindowMover re-centers everything on the CTC.
///
/// Shared FSI helpers (also used by the eFSI baseline) are exposed as free
/// functions. Membrane models and all FsiParams are in SI units; the
/// helpers convert to lattice units internally.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/apr/coupler.hpp"
#include "src/apr/health.hpp"
#include "src/apr/window.hpp"
#include "src/apr/window_mover.hpp"
#include "src/cells/cell_pool.hpp"
#include "src/cells/tile.hpp"
#include "src/common/units.hpp"
#include "src/geometry/domain.hpp"
#include "src/ibm/coupling.hpp"
#include "src/io/checkpoint.hpp"
#include "src/lbm/lattice.hpp"
#include "src/obs/metrics.hpp"
#include "src/perf/step_profiler.hpp"

namespace apr::core {

/// Fluid-structure interaction parameters (SI).
struct FsiParams {
  ibm::DeltaKernel kernel = ibm::DeltaKernel::Cosine4;
  double contact_cutoff = 0.0;    ///< [m] cell-cell repulsion range; 0=off
  double contact_strength = 0.0;  ///< [N] peak repulsion per vertex pair
  double wall_cutoff = 0.0;       ///< [m] wall repulsion range; 0=off
  double wall_strength = 0.0;     ///< [N] peak wall repulsion per vertex
};

/// Accumulate membrane (FEM), cell-cell contact and wall repulsion forces
/// in SI units into the pools' force buffers (which are cleared first).
/// One dynamically scheduled pass over cells; each vertex sums membrane,
/// then contact, then wall terms (DESIGN.md §6). A cell with a non-finite
/// vertex gets no contact term and gives none. Returns the number of
/// interacting contact vertex pairs.
std::size_t compute_cell_forces(const std::vector<cells::CellPool*>& pools,
                                const geometry::Domain* domain,
                                const FsiParams& params);

/// Spread the pools' SI force buffers onto the lattice force field,
/// converting with `conv` (must match the lattice spacing).
void spread_cell_forces(lbm::Lattice& lat, const UnitConverter& conv,
                        const std::vector<cells::CellPool*>& pools,
                        ibm::DeltaKernel kernel);

/// Interpolate lattice velocities at all vertices and advance positions
/// one lattice time step (paper Eqs. 4-5).
void advect_cells(const lbm::Lattice& lat,
                  const std::vector<cells::CellPool*>& pools,
                  ibm::DeltaKernel kernel);

struct AprParams {
  double dx_coarse = 2.5e-6;  ///< [m]
  int n = 5;                  ///< resolution ratio (dx_fine = dx_coarse/n)
  double tau_coarse = 1.0;    ///< coarse relaxation time
  double nu_bulk = 4.0e-3 / 1060.0;  ///< [m^2/s] bulk kinematic viscosity
  double lambda = 0.3;        ///< nu_window / nu_bulk (plasma / whole blood)
  WindowConfig window;
  MoveConfig move;
  FsiParams fsi;
  int maintain_interval = 5;  ///< coarse steps between density maintenance
  std::size_t rbc_capacity = 512;
  std::uint64_t seed = 42;
  /// Collision operator for both lattices (paper §2.1 uses BGK; TRT and
  /// MRT are the stability/accuracy extensions, see lbm/lattice.hpp).
  /// Shapes the trajectory, so it is part of the checkpoint params
  /// digest, together with trt_magic.
  lbm::CollisionModel collision = lbm::CollisionModel::Bgk;
  /// TRT magic parameter Lambda (ignored by BGK and MRT).
  double trt_magic = 3.0 / 16.0;
  /// Numerical-health watchdog (off by default; see src/apr/health.hpp
  /// and DESIGN.md §10). Observability-only: health settings never shape
  /// the healthy trajectory, so they are deliberately excluded from the
  /// checkpoint params digest.
  HealthParams health;
};

/// Fingerprint (FNV-1a) of every AprParams field that shapes the
/// trajectory -- the digest the checkpoint layer embeds in META sections.
/// The observability-only health settings are excluded. Exposed so
/// drivers can stamp run manifests before constructing a simulation.
std::uint64_t params_fingerprint(const AprParams& params);

/// Deterministic metric reductions: fixed-grain exec::parallel_reduce
/// combined in ascending chunk order, so for a given lattice state the
/// sampled values are bit-identical across worker counts (the obs test
/// suite asserts this). Both scan Fluid and Coupling nodes, computing
/// moments from the distributions like the health scans do.
/// Total mass (sum of node densities, lattice units).
double lattice_total_mass(const lbm::Lattice& lat);
/// Peak Mach number |u| / c_s.
double lattice_max_mach(const lbm::Lattice& lat);

/// What one window relocation did, for benchmarks and diagnostics.
struct WindowRelocationStats {
  bool incremental = false;       ///< shift path taken (vs full rebuild)
  std::size_t preserved_nodes = 0;  ///< nodes carried over by the shift
  std::size_t reinit_nodes = 0;   ///< fluid nodes re-seeded from coarse
};

class AprSimulation {
 public:
  /// \param domain flow domain; the caller configures coarse-lattice
  ///        boundary conditions (walls are marked automatically, inlets /
  ///        moving walls / body force are the caller's job) between
  ///        construction and the first step.
  /// \param rbc_model / ctc_model SI-unit membrane models
  AprSimulation(std::shared_ptr<const geometry::Domain> domain,
                std::shared_ptr<const fem::MembraneModel> rbc_model,
                std::shared_ptr<const fem::MembraneModel> ctc_model,
                const AprParams& params);

  const AprParams& params() const { return params_; }
  lbm::Lattice& coarse() { return *coarse_; }
  const lbm::Lattice& coarse() const { return *coarse_; }
  lbm::Lattice& fine() { return *fine_; }
  const lbm::Lattice& fine() const { return *fine_; }
  bool has_window() const { return fine_ != nullptr; }

  const UnitConverter& coarse_units() const { return coarse_units_; }
  const UnitConverter& fine_units() const { return fine_units_; }

  /// Initialize the coarse flow field to equilibrium at (rho=1, u) and run
  /// `warmup_steps` coarse-only steps so the window starts in a developed
  /// flow.
  void initialize_flow(const Vec3& u_lattice, int warmup_steps = 0);

  /// Drive the flow with a uniform body-force density [N/m^3] (a pressure
  /// gradient proxy). Applied to the coarse lattice and to every window
  /// lattice, including after window moves.
  void set_body_force_density(const Vec3& f_phys);

  /// Create the window (fine lattice + coupler) centered near `center`
  /// (snapped to the coarse grid). Always builds a fresh fine lattice:
  /// whole-window voxelization and init-from-coarse. Called on an
  /// existing window it is the reference full rebuild the shift path is
  /// tested against.
  void place_window(const Vec3& center);

  /// Move an existing window so it is centered near `center` (snapped to
  /// the coarse grid), the same relocation a CTC-triggered move does: the
  /// surviving fine-lattice state is shifted and only the exposed slabs
  /// are re-seeded whenever the old and new windows overlap by an
  /// integral fine-node displacement; otherwise the fine lattice is
  /// rebuilt. Exposed so benches and tests can drive relocation directly,
  /// without the CTC/mover machinery.
  WindowRelocationStats relocate_window(const Vec3& center);

  /// Stats of the most recent window relocation (place or move) in this
  /// process; load_checkpoint() resets them, since they describe how the
  /// window was built, not the state.
  const WindowRelocationStats& last_relocation() const {
    return last_relocation_;
  }

  /// Place the CTC with its centroid at `position` (must be inside the
  /// window proper).
  void place_ctc(const Vec3& position);

  /// Initial RBC fill of the whole window at the target hematocrit.
  PopulationReport fill_window();

  /// Advance one coarse step: n fine FSI sub-steps, grid coupling,
  /// density maintenance, window-move check.
  void step();

  /// Advance `steps` coarse steps.
  void run(int steps);

  // --- observables ---------------------------------------------------------
  Vec3 ctc_position() const;
  double window_hematocrit() const { return window_->hematocrit(*rbcs_); }
  const Window& window() const { return *window_; }
  cells::CellPool& rbcs() { return *rbcs_; }
  const cells::CellPool& rbcs() const { return *rbcs_; }
  cells::CellPool& ctcs() { return *ctcs_; }
  const cells::CellPool& ctcs() const { return *ctcs_; }
  int window_move_count() const { return move_count_; }
  int coarse_steps() const { return coarse_steps_; }
  double physical_time() const {
    return coarse_steps_ * coarse_units_.dt();
  }
  const std::vector<Vec3>& ctc_trajectory() const { return trajectory_; }
  const cells::RbcTile& tile() const { return *tile_; }

  /// Total lattice site updates across both grids (compute-cost proxy for
  /// the Fig. 6 comparison).
  std::uint64_t total_site_updates() const;

  /// Per-phase wall-time / site-update decomposition of step(). Enabled by
  /// default; the accumulated stats persist across window moves.
  perf::StepProfiler& profiler() { return profiler_; }
  const perf::StepProfiler& profiler() const { return profiler_; }

  // --- observability -------------------------------------------------------
  /// The simulation's metrics registry, refreshed by sample_metrics().
  obs::Metrics& metrics() { return metrics_; }
  const obs::Metrics& metrics() const { return metrics_; }

  /// Share a driver-owned JSONL sink (non-owning; nullptr detaches), so
  /// multi-run drivers (fig6's two seeds) can interleave into one file.
  void attach_metrics_sink(obs::MetricsWriter* sink) { metrics_sink_ = sink; }

  /// Refresh every gauge/counter in metrics() from the current state and,
  /// when a sink is attached, append one JSONL sample. step() calls this
  /// at the end of every coarse step while a sink is attached; it is
  /// public so drivers and tests can force a sample.
  void sample_metrics();

  /// The trajectory-shaping parameter digest the checkpoint layer embeds
  /// in every META section (health params excluded). Run manifests
  /// record it so artifacts can be matched to compatible checkpoints.
  std::uint64_t params_fingerprint() const;

  // --- checkpoint / restart ------------------------------------------------
  /// Assemble the complete simulation state as an io::Checkpoint container:
  /// both lattices, all cells, counters, trajectory and the Rng stream.
  /// save -> load -> step(N) is bit-exact with an uninterrupted run at the
  /// same worker count (see tests/test_checkpoint.cpp and DESIGN.md §9).
  io::Checkpoint make_checkpoint() const;

  /// make_checkpoint() serialized to `path`. Throws io::CheckpointError on
  /// I/O failure.
  void save_checkpoint(const std::string& path) const;

  /// Restore the state saved by save_checkpoint(). The simulation must
  /// have been constructed with the same domain, membrane models and
  /// AprParams (enforced via a parameter digest and the coarse-lattice
  /// geometry). Strong guarantee: any io::CheckpointError -- unreadable or
  /// corrupt file, version skew, mismatched configuration -- leaves this
  /// simulation exactly as it was.
  void load_checkpoint(const std::string& path);

  /// Same restore from an already-parsed in-memory container (the
  /// make_checkpoint() round-trip); the health watchdog's Recover policy
  /// rolls back through this path without touching the filesystem. Same
  /// validation and strong guarantee as the path overload.
  void load_checkpoint(const io::Checkpoint& ckpt);

  /// Fingerprint of the complete simulation state (FNV-1a over the
  /// checkpoint sections); profiler wall-times are excluded. Equal digests
  /// <=> bit-identical state.
  std::uint64_t state_digest() const;

  // --- numerical-health watchdog -------------------------------------------
  /// Run every check params().health enables right now, regardless of the
  /// sampling interval, and return the first violation (or an ok()
  /// report). Pure observation: no policy is applied, no state touched.
  HealthReport check_health() const;

  /// check_health(), throwing HealthError on a violation. Strong
  /// guarantee: the simulation state is untouched either way.
  void assert_healthy() const;

  /// Report of the most recent scan (ok() when healthy or none ran yet).
  const HealthReport& last_health_report() const {
    return last_health_report_;
  }
  /// Rollback/replay record of the most recent Recover, if any happened.
  const std::optional<RecoveryReport>& last_recovery() const {
    return last_recovery_;
  }
  std::uint64_t health_scans() const { return health_scans_; }
  std::uint64_t health_violations() const { return health_violations_; }

  /// Replace the watchdog configuration on a live simulation. Legal at
  /// any time precisely because health params are observability-only
  /// (excluded from the checkpoint digest): flipping them can never
  /// invalidate existing checkpoints or change the healthy trajectory.
  void set_health_params(const HealthParams& hp) { params_.health = hp; }

 private:
  std::shared_ptr<const geometry::Domain> domain_;
  std::shared_ptr<const fem::MembraneModel> rbc_model_;
  std::shared_ptr<const fem::MembraneModel> ctc_model_;
  AprParams params_;
  UnitConverter coarse_units_;
  UnitConverter fine_units_;

  std::unique_ptr<lbm::Lattice> coarse_;
  std::unique_ptr<lbm::Lattice> fine_;
  std::unique_ptr<CoarseFineCoupler> coupler_;
  std::optional<Window> window_;
  std::unique_ptr<WindowMover> mover_;
  std::unique_ptr<cells::CellPool> rbcs_;
  std::unique_ptr<cells::CellPool> ctcs_;
  std::unique_ptr<cells::RbcTile> tile_;
  Rng rng_;
  Vec3 body_force_phys_{};
  std::uint64_t next_cell_id_ = 1;
  int coarse_steps_ = 0;
  int move_count_ = 0;
  std::uint64_t fine_updates_retired_ = 0;  // from discarded fine lattices
  std::vector<Vec3> trajectory_;
  perf::StepProfiler profiler_;
  WindowRelocationStats last_relocation_;

  // Observability state. The sink is driver-owned. Checkpoint-size
  // bookkeeping is mutable because save_checkpoint() is const and the
  // counters are observability-only.
  obs::Metrics metrics_;
  obs::MetricsWriter* metrics_sink_ = nullptr;
  double last_step_seconds_ = 0.0;
  mutable std::size_t last_checkpoint_bytes_ = 0;
  mutable std::uint64_t checkpoint_saves_ = 0;
  /// Profiler per-phase seconds at the previous sample, for delta gauges.
  std::array<double, perf::kNumStepPhases> phase_seconds_prev_{};

  // Health watchdog state. The rolling checkpoint is refreshed on every
  // clean scan under the Recover policy, so a violation always rolls back
  // to a state the watchdog itself vouched for.
  HealthReport last_health_report_;
  std::optional<RecoveryReport> last_recovery_;
  std::optional<io::Checkpoint> rolling_checkpoint_;
  int rolling_checkpoint_step_ = -1;
  bool recovering_ = false;  ///< inside a Recover replay (no re-entry)
  std::uint64_t health_scans_ = 0;
  std::uint64_t health_violations_ = 0;

  /// (Re)create fine lattice + coupler at `window_center`, taking the
  /// incremental shift path when `allow_shift` and it applies.
  WindowRelocationStats relocate_fine_lattice(const Vec3& window_center,
                                              bool allow_shift);
  /// Reference path: fresh lattice, full voxelization + init-from-coarse.
  void build_fine_lattice(const Aabb& box, int nn, WindowRelocationStats& st);
  /// Shift path: recycle the spare allocation, import the surviving state,
  /// re-voxelize and re-seed only the exposed slabs. Returns false (no
  /// state touched) when the shift is inapplicable.
  bool try_shift_fine_lattice(const Aabb& box, int nn,
                              WindowRelocationStats& st);
  /// Equilibrium-seed fine fluid nodes in the half-open sub-range from the
  /// coarse velocity field; returns the number of nodes seeded. `reset`
  /// clears stale per-node state first (recycled lattices).
  std::size_t init_fine_from_coarse(int x0, int x1, int y0, int y1, int z0,
                                    int z1, bool reset);
  /// Refresh the coarse macroscopic cache only where the window box reads
  /// it.
  void refresh_coarse_macro_for(const Aabb& box);
  void attach_coupler();
  void rebuild_window_at_ctc();
  std::vector<cells::CellPool*> active_pools();
  /// Sampled scan at the end of step(): run check_health() under the
  /// Health profiler phase and apply the configured policy on violation.
  void run_health_check();
  /// Recover policy: roll back to the rolling checkpoint, replay the span
  /// (bit-exact, window moves included), and re-scan. Throws HealthError
  /// when the violation survives the replay (a deterministic fault).
  void recover_from(const HealthReport& violation);
};

}  // namespace apr::core
