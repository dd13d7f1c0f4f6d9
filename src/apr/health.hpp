#pragma once

/// \file health.hpp
/// Numerical-health watchdog for the APR simulation. One stale node is
/// enough to poison the whole domain (`rho = 0 -> NaN on the next
/// collision`, see AprSimulation::try_shift_fine_lattice), and a NaN born
/// anywhere -- a bad window shift, an inverted membrane element, a Mach
/// breach after a viscosity-jump crossing -- spreads silently until a
/// bench CSV turns to garbage. Production blood-flow codes treat
/// stability guards as a first-class subsystem; this module is ours.
///
/// HealthMonitor runs cheap fused scans on the exec layer:
///  - lattice scans (coarse + fine): finiteness of rho/momentum recomputed
///    from the distributions, density bounds, max Mach number;
///  - cell scans (RBC + CTC pools): vertex finiteness, element inversion
///    (signed volume / area collapse), Skalak I1, volume drift;
///  - coupling scan: structural window/fine-lattice/coupler invariants.
///
/// Each check is individually toggleable with per-check thresholds in
/// HealthParams (AprParams::health; config keys `health_*`, bench flags
/// `--health*`). A violation produces a structured HealthReport naming
/// the first offending node or cell, the step and the value; the
/// simulation then applies a HealthPolicy: Throw (typed HealthError, the
/// default in tests), Log, or Recover (roll back to a rolling in-memory
/// io::Checkpoint and re-run the span bit-exactly on the production path
/// -- see DESIGN.md §10).

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "src/cells/cell_pool.hpp"
#include "src/lbm/lattice.hpp"

namespace apr::core {

class Window;

/// What the simulation does when a scan reports a violation.
enum class HealthPolicy : std::uint8_t {
  Throw = 0,    ///< throw HealthError (fail fast; default in tests)
  Log = 1,      ///< log a warning and keep stepping
  Recover = 2,  ///< roll back to the rolling checkpoint and replay
};

const char* to_string(HealthPolicy policy);

/// Parse "throw" / "log" / "recover" (as accepted by the `health` config
/// key and the `--health` bench flag). Throws std::invalid_argument for
/// anything else.
HealthPolicy health_policy_from_string(const std::string& s);

/// Which check a HealthReport is about. None = healthy.
enum class HealthCheck : std::uint8_t {
  None = 0,
  FieldFinite,        ///< non-finite rho or momentum at a lattice node
  DensityBounds,      ///< rho outside [rho_min, rho_max]
  MachLimit,          ///< |u|/cs above max_mach
  CellFinite,         ///< non-finite vertex position
  ElementInversion,   ///< inverted or collapsed membrane element
  CellDeformation,    ///< Skalak I1 above max_i1
  CellVolume,         ///< enclosed volume drifted beyond max_volume_drift
  CouplingInvariant,  ///< window / fine-lattice / coupler mis-alignment
};

const char* to_string(HealthCheck check);

/// Watchdog configuration. Lives in AprParams::health; every threshold
/// has a config key of the same name with a `health_` prefix.
struct HealthParams {
  bool enabled = false;  ///< master switch (scans cost ~a cache sweep)
  int interval = 10;     ///< coarse steps between scans (<=0 disables)
  HealthPolicy policy = HealthPolicy::Throw;

  bool check_cells = true;  ///< scan the RBC and CTC pools

  double rho_min = 0.5;  ///< lattice-unit density lower bound
  double rho_max = 2.0;  ///< lattice-unit density upper bound
  double max_mach = 0.3;  ///< |u|/cs ceiling (BGK stability margin)
  double max_i1 = 50.0;   ///< Skalak I1 ceiling per element
  /// Relative enclosed-volume drift ceiling per cell (|V - V0| / V0).
  double max_volume_drift = 0.5;
  /// Area-stretch floor per element: det(F) at or below this reads as a
  /// collapsed element. The deformed triangle is flattened in its own
  /// plane, so det(F) cannot go negative; collapse shows up as -> 0.
  double min_det_f = 1e-3;
};

/// Structured result of one scan: the first offending site in
/// deterministic (lowest node index / lowest cell slot) order, or
/// check == None when everything passed.
struct HealthReport {
  HealthCheck check = HealthCheck::None;
  std::string subject;  ///< "coarse", "fine", "rbc", "ctc" or "coupler"
  int step = 0;         ///< coarse step the scan ran at

  // Lattice scans.
  std::size_t node = 0;
  int node_x = 0, node_y = 0, node_z = 0;

  // Cell scans.
  std::uint64_t cell_id = 0;
  std::size_t cell_slot = 0;
  int element = -1;  ///< triangle index for per-element checks

  double value = 0.0;  ///< the offending quantity
  double limit = 0.0;  ///< the threshold it violated
  std::string message;

  bool ok() const { return check == HealthCheck::None; }
};

/// Thrown by the Throw policy (and by Recover when escalation is the only
/// option left); carries the full report.
class HealthError : public std::runtime_error {
 public:
  explicit HealthError(HealthReport report)
      : std::runtime_error(report.message.empty() ? "health violation"
                                                  : report.message),
        report_(std::move(report)) {}
  const HealthReport& report() const { return report_; }

 private:
  HealthReport report_;
};

/// What one Recover rollback did. The replay runs on the production path,
/// window moves included, so the replayed span is bit-exact with the
/// original one: a transient fault vanishes and a deterministic one
/// reproduces (and escalates).
struct RecoveryReport {
  int violation_step = 0;  ///< step the violating scan ran at
  int rollback_step = 0;   ///< step of the rolling checkpoint restored
  int replayed_steps = 0;
};

/// Stateless scanner; holds a copy of the thresholds. Scans are fused
/// parallel_reduce sweeps; the first violation (by node index / cell
/// slot) wins deterministically regardless of the worker count.
class HealthMonitor {
 public:
  explicit HealthMonitor(const HealthParams& params) : params_(params) {}

  const HealthParams& params() const { return params_; }

  /// Finiteness + density bounds + Mach over all Fluid/Coupling nodes.
  /// rho and momentum are recomputed from the distributions (the
  /// macroscopic caches may be stale after step_no_macro()).
  HealthReport scan_lattice(const lbm::Lattice& lat,
                            const std::string& subject, int step) const;

  /// Vertex finiteness, element inversion/collapse, Skalak I1 and volume
  /// drift over every live cell in the pool.
  HealthReport scan_cells(const cells::CellPool& pool,
                          const std::string& subject, int step) const;

  /// Structural invariants binding window, fine lattice and coupler:
  /// origin/extent alignment, resolution ratio, coarse-node snapping,
  /// and a live coupling layer.
  HealthReport scan_coupling(const Window& window, const lbm::Lattice& fine,
                             const lbm::Lattice& coarse, int n,
                             bool coupler_attached,
                             std::size_t coupling_nodes, int step) const;

 private:
  HealthParams params_;
};

}  // namespace apr::core
