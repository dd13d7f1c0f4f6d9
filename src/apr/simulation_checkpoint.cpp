/// \file simulation_checkpoint.cpp
/// AprSimulation checkpoint/restart on top of the io::Checkpoint container
/// (see DESIGN.md §9 for the lifecycle and the exactness contract).
///
/// Sections:
///   META  counters, Rng stream, body force, window center, trajectory,
///         and a digest of the AprParams the checkpoint was taken under.
///         Nothing about how the window was last built: which relocation
///         path ran is not state, and restoring it would make equal
///         physical states save different bytes.
///   CLAT  coarse LatticeState. The relaxation times inside the window
///         footprint are patched back to their bulk values before
///         serialization: the footprint adjustment is coupler state,
///         re-applied by attach_coupler() on load -- saving it verbatim
///         would bake already-adjusted values into the restored coupler's
///         release() list and corrupt the bulk tau at the next window move.
///   FLAT  fine LatticeState (window runs only). Coupling node types are
///         normalized to Fluid: the coupling layer is rebuilt by
///         attach_coupler(), whose coupler selects only Fluid boundary
///         nodes. The coupler is a pure function of the window's base
///         coarse node and the node types, so the rebuilt one is the
///         one the saved run was using, whichever relocation path built
///         it.
///   RBCS / CTCS  CellPoolState in slot order, so pool layout (and with it
///         every slot-indexed iteration) round-trips exactly.
///
/// load_checkpoint gives the strong guarantee by splitting into a
/// parse-and-validate stage that builds complete staged objects (fine
/// lattice, cell pools) off to the side, and a commit stage with no
/// failure paths.

#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>

#include "src/apr/simulation.hpp"
#include "src/obs/trace.hpp"

namespace apr::core {

namespace {

constexpr std::uint32_t kMetaTag = io::fourcc('M', 'E', 'T', 'A');
constexpr std::uint32_t kCoarseTag = io::fourcc('C', 'L', 'A', 'T');
constexpr std::uint32_t kFineTag = io::fourcc('F', 'L', 'A', 'T');
constexpr std::uint32_t kRbcTag = io::fourcc('R', 'B', 'C', 'S');
constexpr std::uint32_t kCtcTag = io::fourcc('C', 'T', 'C', 'S');

/// Fingerprint of every AprParams field that shapes the trajectory. A
/// checkpoint can only be restored into a simulation built with the same
/// parameters (the domain is cross-checked separately via the coarse
/// lattice geometry, the membrane models via the pools' model digests).
std::uint64_t params_digest(const AprParams& p) {
  io::Fnv1a h;
  h.update_pod(p.dx_coarse);
  h.update_pod(p.n);
  h.update_pod(p.tau_coarse);
  h.update_pod(p.nu_bulk);
  h.update_pod(p.lambda);
  h.update_pod(p.window.proper_side);
  h.update_pod(p.window.onramp_width);
  h.update_pod(p.window.insertion_width);
  h.update_pod(p.window.target_hematocrit);
  h.update_pod(p.window.repopulation_threshold);
  h.update_pod(p.move.trigger_distance);
  h.update_pod(static_cast<std::uint8_t>(p.fsi.kernel));
  h.update_pod(p.fsi.contact_cutoff);
  h.update_pod(p.fsi.contact_strength);
  h.update_pod(p.fsi.wall_cutoff);
  h.update_pod(p.fsi.wall_strength);
  h.update_pod(p.maintain_interval);
  h.update_pod(static_cast<std::uint64_t>(p.rbc_capacity));
  h.update_pod(p.seed);
  h.update_pod(static_cast<std::uint8_t>(p.collision));
  h.update_pod(p.trt_magic);
  return h.value();
}

struct Meta {
  std::uint64_t params_digest = 0;
  std::int32_t coarse_steps = 0;
  std::int32_t move_count = 0;
  std::uint64_t next_cell_id = 1;
  std::uint64_t fine_updates_retired = 0;
  Vec3 body_force_phys{};
  std::array<std::uint64_t, 5> rng{};
  std::uint8_t has_window = 0;
  Vec3 window_center{};
  std::vector<Vec3> trajectory;

  std::vector<char> serialize() const {
    io::BufWriter w;
    w.pod(params_digest);
    w.pod(coarse_steps);
    w.pod(move_count);
    w.pod(next_cell_id);
    w.pod(fine_updates_retired);
    w.pod(body_force_phys);
    for (const std::uint64_t s : rng) w.pod(s);
    w.pod(has_window);
    w.pod(window_center);
    w.vec(trajectory);
    return w.take();
  }

  static Meta deserialize(const std::vector<char>& payload) {
    io::BufReader r(payload, "META");
    Meta m;
    r.pod(m.params_digest);
    r.pod(m.coarse_steps);
    r.pod(m.move_count);
    r.pod(m.next_cell_id);
    r.pod(m.fine_updates_retired);
    r.pod(m.body_force_phys);
    for (std::uint64_t& s : m.rng) r.pod(s);
    r.pod(m.has_window);
    r.pod(m.window_center);
    r.vec(m.trajectory, 1ull << 30);
    r.expect_end();
    return m;
  }
};

}  // namespace

io::Checkpoint AprSimulation::make_checkpoint() const {
  io::Checkpoint ckpt;

  Meta meta;
  meta.params_digest = params_digest(params_);
  meta.coarse_steps = coarse_steps_;
  meta.move_count = move_count_;
  meta.next_cell_id = next_cell_id_;
  meta.fine_updates_retired = fine_updates_retired_;
  meta.body_force_phys = body_force_phys_;
  meta.rng = rng_.state();
  meta.has_window = (window_ && fine_) ? 1 : 0;
  if (window_) meta.window_center = window_->center();
  meta.trajectory = trajectory_;
  ckpt.add(kMetaTag, meta.serialize());

  io::LatticeState cs = io::LatticeState::capture(*coarse_);
  if (coupler_) {
    for (const auto& [idx, tau] : coupler_->footprint_saved_tau()) {
      cs.tau[cs.node_pos(idx)] = tau;
    }
  }
  ckpt.add(kCoarseTag, cs.serialize());

  if (meta.has_window) {
    io::LatticeState fs = io::LatticeState::capture(*fine_);
    for (std::uint8_t& t : fs.type) {
      if (t == static_cast<std::uint8_t>(lbm::NodeType::Coupling)) {
        t = static_cast<std::uint8_t>(lbm::NodeType::Fluid);
      }
    }
    ckpt.add(kFineTag, fs.serialize());
  }

  ckpt.add(kRbcTag, io::CellPoolState::capture(*rbcs_).serialize());
  ckpt.add(kCtcTag, io::CellPoolState::capture(*ctcs_).serialize());
  return ckpt;
}

void AprSimulation::save_checkpoint(const std::string& path) const {
  OBS_SPAN("io", "save_checkpoint");
  const io::Checkpoint ckpt = make_checkpoint();
  ckpt.write(path);
  last_checkpoint_bytes_ = ckpt.byte_size();
  ++checkpoint_saves_;
  if (obs::Tracer::instance().enabled()) {
    obs::Tracer::instance().record_instant(
        "io", "checkpoint_save",
        "\"bytes\":" + std::to_string(last_checkpoint_bytes_) +
            ",\"step\":" + std::to_string(coarse_steps_));
  }
}

std::uint64_t params_fingerprint(const AprParams& params) {
  return params_digest(params);
}

std::uint64_t AprSimulation::params_fingerprint() const {
  return params_digest(params_);
}

std::uint64_t AprSimulation::state_digest() const {
  return make_checkpoint().digest();
}

void AprSimulation::load_checkpoint(const std::string& path) {
  OBS_SPAN("io", "load_checkpoint");
  load_checkpoint(io::Checkpoint::read(path));
  if (obs::Tracer::instance().enabled()) {
    obs::Tracer::instance().record_instant(
        "io", "checkpoint_load",
        "\"step\":" + std::to_string(coarse_steps_));
  }
}

void AprSimulation::load_checkpoint(const io::Checkpoint& ckpt) {
  // ---- stage 1: parse and validate everything; no member is touched ----
  Meta meta = Meta::deserialize(ckpt.section(kMetaTag));
  if (meta.params_digest != params_digest(params_)) {
    throw io::CheckpointError(
        "checkpoint: state was taken under different AprParams than this "
        "simulation's");
  }
  if (meta.coarse_steps < 0 || meta.move_count < 0) {
    throw io::CheckpointError("checkpoint: negative counters in META");
  }

  io::LatticeState cs =
      io::LatticeState::deserialize(ckpt.section(kCoarseTag), "coarse");
  cs.validate_geometry(*coarse_);

  std::unique_ptr<lbm::Lattice> new_fine;
  if (meta.has_window) {
    io::LatticeState fs =
        io::LatticeState::deserialize(ckpt.section(kFineTag), "fine");
    // The fine lattice must be the one this window center and these
    // params imply, or attach_coupler below would mis-align.
    const Aabb box =
        Aabb::cube(meta.window_center, params_.window.outer_side());
    const double dxf = fine_units_.dx();
    const int nn =
        static_cast<int>(std::round(params_.window.outer_side() / dxf)) + 1;
    if (fs.nx != nn || fs.ny != nn || fs.nz != nn ||
        std::abs(fs.dx - dxf) > 1e-15 || norm(fs.origin - box.lo) > 1e-9 * dxf) {
      throw io::CheckpointError(
          "checkpoint: fine-lattice geometry does not match the window "
          "recorded in META");
    }
    new_fine =
        std::make_unique<lbm::Lattice>(fs.nx, fs.ny, fs.nz, fs.origin, dxf,
                                       1.0);
    fs.validate_geometry(*new_fine);
    fs.apply(*new_fine);
  }

  auto new_rbcs = std::make_unique<cells::CellPool>(
      rbc_model_.get(), cells::CellKind::Rbc, params_.rbc_capacity);
  auto new_ctcs = std::make_unique<cells::CellPool>(ctc_model_.get(),
                                                    cells::CellKind::Ctc, 1);
  const io::CellPoolState rs =
      io::CellPoolState::deserialize(ckpt.section(kRbcTag), "RBC");
  rs.validate(*new_rbcs);
  const io::CellPoolState ts =
      io::CellPoolState::deserialize(ckpt.section(kCtcTag), "CTC");
  ts.validate(*new_ctcs);
  rs.apply(*new_rbcs);
  ts.apply(*new_ctcs);

  // ---- stage 2: commit; nothing below throws ----
  coupler_.reset();  // held raw pointers into the lattices being replaced
  cs.apply(*coarse_);
  fine_ = std::move(new_fine);
  rbcs_ = std::move(new_rbcs);
  ctcs_ = std::move(new_ctcs);
  rng_.set_state(meta.rng);
  body_force_phys_ = meta.body_force_phys;
  next_cell_id_ = meta.next_cell_id;
  coarse_steps_ = meta.coarse_steps;
  move_count_ = meta.move_count;
  fine_updates_retired_ = meta.fine_updates_retired;
  trajectory_ = std::move(meta.trajectory);
  last_relocation_ = {};
  if (meta.has_window) {
    window_.emplace(meta.window_center, params_.window, domain_.get());
    // Rebuilds the coupling layer / footprint tau from the bulk values in
    // CLAT.
    attach_coupler();
  } else {
    window_.reset();
  }
  // Any rolling rollback point belongs to the pre-restore timeline; the
  // health watchdog re-establishes one at its next clean scan. (The
  // Recover path moves its container out before calling this, so the
  // reset never invalidates the state being restored.)
  rolling_checkpoint_.reset();
  rolling_checkpoint_step_ = -1;
}

}  // namespace apr::core
