/// Fault-injection suite for the numerical-health watchdog
/// (src/apr/health.hpp, DESIGN.md §10). Each test poisons one site of a
/// live windowed simulation -- a NaN distribution, a zeroed density, an
/// inverted membrane element -- and asserts the watchdog localizes it
/// (correct node/cell, step, subject), that the Throw policy gives the
/// strong guarantee (state digest unchanged across the throw), and that
/// Recover rolls back to the rolling checkpoint and replays to a state
/// bit-exact with a never-faulted twin, window moves included.

#include "src/apr/health.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "src/apr/simulation.hpp"
#include "src/common/log.hpp"
#include "src/mesh/shapes.hpp"
#include "src/rheology/blood.hpp"

namespace apr::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::shared_ptr<fem::MembraneModel> tiny_rbc() {
  fem::MembraneParams p;
  p.shear_modulus = rheology::kRbcShearModulus;
  p.skalak_c = 50.0;
  p.bending_modulus = rheology::kRbcBendingModulus;
  p.ka_global = 1e-6;
  p.kv_global = 1e-6;
  return std::make_shared<fem::MembraneModel>(mesh::rbc_biconcave(1, 1e-6),
                                              p);
}

std::shared_ptr<fem::MembraneModel> tiny_ctc() {
  fem::MembraneParams p;
  p.shear_modulus = rheology::kCtcShearModulus;
  p.skalak_c = 50.0;
  p.bending_modulus = 10.0 * rheology::kRbcBendingModulus;
  p.ka_global = 1e-5;
  p.kv_global = 1e-5;
  return std::make_shared<fem::MembraneModel>(mesh::ctc_sphere(1, 1.6e-6), p);
}

AprParams tiny_params() {
  AprParams p;
  p.dx_coarse = 2.0e-6;
  p.n = 2;
  p.tau_coarse = 1.0;
  p.nu_bulk = rheology::kWholeBloodKinematicViscosity;
  p.lambda = rheology::kPlasmaViscosity / rheology::kWholeBloodViscosity;
  p.window.proper_side = 6.0e-6;
  p.window.onramp_width = 2.5e-6;
  p.window.insertion_width = 5.5e-6;  // outer = 22 um = 11 dx_coarse
  p.window.target_hematocrit = 0.10;
  p.move.trigger_distance = 1.5e-6;
  p.fsi.contact_cutoff = 0.4e-6;
  p.fsi.contact_strength = 2e-12;
  p.fsi.wall_cutoff = 0.5e-6;
  p.fsi.wall_strength = 5e-12;
  p.maintain_interval = 3;
  p.rbc_capacity = 1500;
  p.seed = 7;
  p.health.enabled = true;
  p.health.interval = 1;
  p.health.policy = HealthPolicy::Throw;
  return p;
}

std::shared_ptr<geometry::TubeDomain> tube_domain() {
  return std::make_shared<geometry::TubeDomain>(
      Vec3{0.0, 0.0, -30e-6}, Vec3{0.0, 0.0, 1.0}, 60e-6, 16e-6,
      /*capped=*/false);
}

/// A ready windowed simulation with cells and developed flow.
std::unique_ptr<AprSimulation> make_sim(const AprParams& p,
                                        const Vec3& ctc = Vec3{}) {
  auto sim = std::make_unique<AprSimulation>(tube_domain(), tiny_rbc(),
                                             tiny_ctc(), p);
  sim->initialize_flow(Vec3{});
  sim->coarse().set_periodic(false, false, true);
  sim->set_body_force_density(Vec3{0, 0, 2e6});
  for (int s = 0; s < 20; ++s) sim->coarse().step();
  sim->place_window(Vec3{});
  sim->place_ctc(ctc);
  sim->fill_window();
  return sim;
}

std::size_t first_fluid_node(const lbm::Lattice& lat) {
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    if (lat.type(i) == lbm::NodeType::Fluid) return i;
  }
  ADD_FAILURE() << "no fluid node in lattice";
  return 0;
}

class HealthTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::Error); }
};

TEST_F(HealthTest, PolicyStringsRoundTrip) {
  EXPECT_EQ(health_policy_from_string("throw"), HealthPolicy::Throw);
  EXPECT_EQ(health_policy_from_string("log"), HealthPolicy::Log);
  EXPECT_EQ(health_policy_from_string("recover"), HealthPolicy::Recover);
  EXPECT_STREQ(to_string(HealthPolicy::Recover), "recover");
  EXPECT_THROW(health_policy_from_string("panic"), std::invalid_argument);
  EXPECT_STREQ(to_string(HealthCheck::FieldFinite), "field_finite");
  EXPECT_STREQ(to_string(HealthCheck::ElementInversion),
               "element_inversion");
}

TEST_F(HealthTest, CleanSimulationPassesEveryCheck) {
  auto sim = make_sim(tiny_params());
  sim->run(2);
  const HealthReport rep = sim->check_health();
  EXPECT_TRUE(rep.ok()) << rep.message;
  EXPECT_NO_THROW(sim->assert_healthy());
}

TEST_F(HealthTest, LocalizesNaNDistributionInFineLattice) {
  auto sim = make_sim(tiny_params());
  // Poison a single distribution slot at one fine fluid node: the moment
  // sums propagate it, so one bad f is enough for FieldFinite to fire.
  const std::size_t node = first_fluid_node(sim->fine());
  sim->fine().set_f(5, node, kNaN);

  const HealthReport rep = sim->check_health();
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.check, HealthCheck::FieldFinite);
  EXPECT_EQ(rep.subject, "fine");
  EXPECT_EQ(rep.node, node);
  // Reported lattice coordinates decode the node index.
  const auto n = static_cast<std::size_t>(sim->fine().nx());
  EXPECT_EQ(static_cast<std::size_t>(rep.node_x), node % n);
  EXPECT_EQ(static_cast<std::size_t>(rep.node_y), (node / n) % n);
  EXPECT_EQ(static_cast<std::size_t>(rep.node_z), node / (n * n));
  EXPECT_NE(rep.message.find("fine"), std::string::npos);
}

TEST_F(HealthTest, LocalizesZeroedDensityNode) {
  auto sim = make_sim(tiny_params());
  // Zero every distribution at one coarse fluid node (the "stale node"
  // failure mode of a bad window shift): rho = 0 breaches rho_min well
  // before it becomes a NaN at the next collision.
  const std::size_t node = first_fluid_node(sim->coarse());
  for (int q = 0; q < lbm::kQ; ++q) sim->coarse().set_f(q, node, 0.0);

  const HealthReport rep = sim->check_health();
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.check, HealthCheck::DensityBounds);
  EXPECT_EQ(rep.subject, "coarse");
  EXPECT_EQ(rep.node, node);
  EXPECT_DOUBLE_EQ(rep.value, 0.0);
  EXPECT_DOUBLE_EQ(rep.limit, sim->params().health.rho_min);
}

TEST_F(HealthTest, LocalizesMachBreach) {
  auto sim = make_sim(tiny_params());
  const std::size_t node = first_fluid_node(sim->coarse());
  // A lattice velocity of 0.9 is Mach ~1.56 -- far beyond the 0.3 limit
  // but still a perfectly finite, in-bounds-density equilibrium.
  sim->coarse().init_node_equilibrium(node, 1.0, Vec3{0.9, 0.0, 0.0});

  const HealthReport rep = sim->check_health();
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.check, HealthCheck::MachLimit);
  EXPECT_EQ(rep.node, node);
  EXPECT_GT(rep.value, 1.0);
  EXPECT_DOUBLE_EQ(rep.limit, 0.3);

  // A known-benign Mach breach is silenced by raising the ceiling.
  AprParams p2 = sim->params();
  p2.health.max_mach = 2.0;
  sim->set_health_params(p2.health);
  EXPECT_TRUE(sim->check_health().ok());
}

TEST_F(HealthTest, LocalizesInvertedMembraneElement) {
  auto sim = make_sim(tiny_params());
  ASSERT_GT(sim->rbcs().size(), 2u);
  // Reflect one vertex of cell slot 2 through the cell centroid: some
  // incident element's signed-volume contribution flips negative.
  const std::size_t slot = 2;
  auto xs = sim->rbcs().positions(slot);
  Vec3 c{};
  for (const Vec3& v : xs) c = c + v;
  c = c / static_cast<double>(xs.size());
  xs[0] = c + (c - xs[0]) * 2.0;

  const HealthReport rep = sim->check_health();
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.check, HealthCheck::ElementInversion);
  EXPECT_EQ(rep.subject, "rbc");
  EXPECT_EQ(rep.cell_slot, slot);
  EXPECT_EQ(rep.cell_id, sim->rbcs().id(slot));
  EXPECT_GE(rep.element, 0);
}

TEST_F(HealthTest, LocalizesNaNCellVertex) {
  auto sim = make_sim(tiny_params());
  ASSERT_GT(sim->ctcs().size(), 0u);
  sim->ctcs().positions(0)[3].y = kNaN;

  const HealthReport rep = sim->check_health();
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.check, HealthCheck::CellFinite);
  EXPECT_EQ(rep.subject, "ctc");
  EXPECT_EQ(rep.cell_slot, 0u);
  EXPECT_EQ(rep.element, 3);  // vertex index for CellFinite
}

TEST_F(HealthTest, CouplingScanRejectsMisalignedFineLattice) {
  const HealthMonitor monitor{HealthParams{}};
  WindowConfig cfg;
  cfg.proper_side = 6.0e-6;
  cfg.onramp_width = 2.5e-6;
  cfg.insertion_width = 5.5e-6;  // outer = 22 um
  const Window window({0, 0, 0}, cfg, nullptr);
  const double dxf = 1.0e-6;
  const int nn = 23;  // 22 um / 1 um + 1
  const Aabb box = window.outer_box();
  lbm::Lattice coarse(12, 12, 12, box.lo - Vec3{2e-6, 2e-6, 2e-6}, 2.0e-6,
                      1.0);

  // Aligned: every invariant holds.
  lbm::Lattice good(nn, nn, nn, box.lo, dxf, 1.0);
  EXPECT_TRUE(monitor
                  .scan_coupling(window, good, coarse, 2, true, 100, 0)
                  .ok());

  // Origin shifted off the window corner by half a fine cell.
  lbm::Lattice shifted(nn, nn, nn, box.lo + Vec3{0.5e-6, 0, 0}, dxf, 1.0);
  const HealthReport rep =
      monitor.scan_coupling(window, shifted, coarse, 2, true, 100, 0);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.check, HealthCheck::CouplingInvariant);
  EXPECT_EQ(rep.subject, "coupler");

  // Wrong resolution ratio, missing coupler, empty coupling layer.
  EXPECT_FALSE(monitor
                   .scan_coupling(window, good, coarse, 3, true, 100, 0)
                   .ok());
  EXPECT_FALSE(monitor
                   .scan_coupling(window, good, coarse, 2, false, 100, 0)
                   .ok());
  EXPECT_FALSE(
      monitor.scan_coupling(window, good, coarse, 2, true, 0, 0).ok());
}

TEST_F(HealthTest, ThrowPolicyGivesStrongGuarantee) {
  auto sim = make_sim(tiny_params());
  const std::size_t node = first_fluid_node(sim->fine());
  sim->fine().set_f(0, node, kNaN);

  const std::uint64_t before = sim->state_digest();
  EXPECT_THROW(sim->assert_healthy(), HealthError);
  // The scan observed, reported and threw -- and mutated nothing.
  EXPECT_EQ(sim->state_digest(), before);

  try {
    sim->assert_healthy();
    FAIL() << "expected HealthError";
  } catch (const HealthError& e) {
    EXPECT_EQ(e.report().check, HealthCheck::FieldFinite);
    EXPECT_EQ(e.report().node, node);
    EXPECT_NE(std::string(e.what()).find("field_finite"),
              std::string::npos);
  }
}

TEST_F(HealthTest, SampledScanDetectsFaultWithinInterval) {
  AprParams p = tiny_params();
  p.health.interval = 3;
  auto sim = make_sim(p);
  sim->run(3);  // lands on a scan step: one clean scan behind us
  EXPECT_EQ(sim->health_scans(), 1u);
  EXPECT_EQ(sim->health_violations(), 0u);

  sim->fine().set_f(7, first_fluid_node(sim->fine()), kNaN);
  // The NaN spreads during the next steps; the next sampled scan (at most
  // `interval` steps away) must catch it and throw.
  EXPECT_THROW(sim->run(p.health.interval), HealthError);
  EXPECT_EQ(sim->health_violations(), 1u);
  EXPECT_FALSE(sim->last_health_report().ok());
  EXPECT_EQ(sim->last_health_report().step, sim->coarse_steps());
}

TEST_F(HealthTest, LogPolicyKeepsStepping) {
  AprParams p = tiny_params();
  p.health.policy = HealthPolicy::Log;
  auto sim = make_sim(p);
  // Zero one coarse node: a bounds violation that does not destroy the
  // whole run within a few steps.
  const std::size_t node = first_fluid_node(sim->coarse());
  for (int q = 0; q < lbm::kQ; ++q) sim->coarse().set_f(q, node, 0.0);
  EXPECT_NO_THROW(sim->run(2));
  EXPECT_GE(sim->health_violations(), 1u);
}

TEST_F(HealthTest, RecoverRollsBackAndReplaysBitExact) {
  AprParams p = tiny_params();
  p.health.policy = HealthPolicy::Recover;
  auto sim = make_sim(p);
  sim->run(4);  // every step scans clean -> rolling checkpoint at step 4

  // A reference twin runs the same schedule with no fault injected.
  auto ref = make_sim(tiny_params());
  ref->run(4);

  sim->fine().set_f(9, first_fluid_node(sim->fine()), kNaN);
  // Step 5 scans, sees the NaN, rolls back to the step-4 checkpoint
  // (which predates the poison) and replays to step 5.
  EXPECT_NO_THROW(sim->run(1));
  ref->run(1);

  ASSERT_TRUE(sim->last_recovery().has_value());
  const RecoveryReport& rec = *sim->last_recovery();
  EXPECT_EQ(rec.violation_step, 5);
  EXPECT_EQ(rec.rollback_step, 4);
  EXPECT_EQ(rec.replayed_steps, 1);
  EXPECT_TRUE(sim->check_health().ok());
  // Recovery is bit-exact with the never-faulted twin.
  EXPECT_EQ(sim->state_digest(), ref->state_digest());

  // And the run carries on normally afterwards.
  EXPECT_NO_THROW(sim->run(2));
  EXPECT_EQ(sim->coarse_steps(), 7);
}

TEST_F(HealthTest, RecoverReplaysWindowMoveBitExact) {
  // The CTC starts just short of the move trigger, so the mover fires
  // (at step 13) between the step-8 rolling checkpoint and the step-16
  // scan that finds the injected NaN. The replay re-runs that move on the
  // same relocation path as the original, so recovery stays bit-exact.
  const Vec3 ctc{0.0, 0.0, 2.48e-6};
  AprParams p = tiny_params();
  p.health.policy = HealthPolicy::Recover;
  p.health.interval = 8;
  auto sim = make_sim(p, ctc);
  auto ref = make_sim(tiny_params(), ctc);  // never-faulted twin

  sim->run(8);  // clean scan -> rolling checkpoint at step 8
  ref->run(8);
  ASSERT_EQ(sim->window_move_count(), 0);
  sim->run(7);
  ref->run(7);
  ASSERT_EQ(sim->window_move_count(), 1);  // the move is inside the span

  sim->fine().set_f(9, first_fluid_node(sim->fine()), kNaN);
  EXPECT_NO_THROW(sim->run(1));
  ref->run(1);

  ASSERT_TRUE(sim->last_recovery().has_value());
  EXPECT_EQ(sim->last_recovery()->rollback_step, 8);
  EXPECT_EQ(sim->last_recovery()->replayed_steps, 8);
  EXPECT_TRUE(sim->check_health().ok());
  EXPECT_EQ(sim->window_move_count(), ref->window_move_count());
  EXPECT_EQ(sim->state_digest(), ref->state_digest());
}

TEST_F(HealthTest, RecoverWithoutRollbackPointEscalates) {
  AprParams p = tiny_params();
  p.health.policy = HealthPolicy::Recover;
  auto sim = make_sim(p);
  // Poison before any clean scan has established a rolling checkpoint:
  // the first sampled scan has nothing to roll back to and must throw.
  sim->fine().set_f(2, first_fluid_node(sim->fine()), kNaN);
  EXPECT_THROW(sim->run(1), HealthError);
}

TEST_F(HealthTest, PersistentFaultEscalatesInsteadOfLooping) {
  AprParams p = tiny_params();
  p.health.policy = HealthPolicy::Recover;
  auto sim = make_sim(p);
  sim->run(2);  // clean scans -> rolling checkpoint at step 2
  // Tighten the Mach limit below the ambient driven flow: the violation
  // now reproduces from the vouched-for rollback state, so the replay's
  // re-scan must escalate (throw) instead of ping-ponging forever.
  HealthParams tight = sim->params().health;
  tight.max_mach = 1e-12;
  sim->set_health_params(tight);
  EXPECT_THROW(sim->run(1), HealthError);
  ASSERT_TRUE(sim->last_recovery().has_value());
  EXPECT_EQ(sim->last_recovery()->rollback_step, 2);
}

TEST_F(HealthTest, DisabledChecksAreSkipped) {
  AprParams p = tiny_params();
  p.health.check_cells = false;
  auto sim = make_sim(p);
  sim->ctcs().positions(0)[0].x = kNaN;
  EXPECT_TRUE(sim->check_health().ok());
}

TEST_F(HealthTest, HealthPhaseShowsUpInProfiler) {
  auto sim = make_sim(tiny_params());
  sim->run(2);
  const perf::PhaseStats& st =
      sim->profiler().stats(perf::StepPhase::Health);
  EXPECT_EQ(st.calls, 2u);
  EXPECT_GE(st.seconds, 0.0);
}

}  // namespace
}  // namespace apr::core
