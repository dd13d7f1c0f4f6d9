#include "src/apr/setup.hpp"
#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "src/common/log.hpp"
#include "src/rheology/blood.hpp"

namespace apr::core {
namespace {

class SetupTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::Error); }
};

TEST_F(SetupTest, DefaultsMatchDocumentedValues) {
  const Config cfg;  // empty deck: all defaults
  const AprParams p = params_from_config(cfg);
  EXPECT_DOUBLE_EQ(p.dx_coarse, 2.0e-6);
  EXPECT_EQ(p.n, 2);
  EXPECT_DOUBLE_EQ(p.tau_coarse, 1.0);
  EXPECT_NEAR(p.nu_bulk, 4.0e-3 / rheology::kBloodDensity, 1e-15);
  EXPECT_NEAR(p.lambda, 1.2 / 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(p.window.proper_side, 6.0e-6);
  EXPECT_DOUBLE_EQ(p.window.onramp_width, 2.5e-6);
  EXPECT_DOUBLE_EQ(p.window.insertion_width, 5.5e-6);
  // Default window tiles exactly: outer 22 um = 4 x 5.5 um.
  EXPECT_NO_THROW(p.window.validate());
  EXPECT_DOUBLE_EQ(p.window.target_hematocrit, 0.1);
  EXPECT_EQ(p.rbc_capacity, 1500u);
  // Watchdog is opt-in and off by default.
  EXPECT_FALSE(p.health.enabled);
  EXPECT_EQ(p.health.interval, 10);
  EXPECT_DOUBLE_EQ(p.health.rho_min, 0.5);
  EXPECT_DOUBLE_EQ(p.health.rho_max, 2.0);
}

TEST_F(SetupTest, WindowConfigRoundTripsAndValidates) {
  Config cfg;
  cfg.set("window_proper_um", "8");
  cfg.set("onramp_um", "4");
  cfg.set("insertion_um", "4");  // outer 24 = 6 tiles: valid
  const AprParams p = params_from_config(cfg);
  EXPECT_DOUBLE_EQ(p.window.proper_side, 8.0e-6);
  EXPECT_DOUBLE_EQ(p.window.onramp_width, 4.0e-6);
  EXPECT_DOUBLE_EQ(p.window.insertion_width, 4.0e-6);

  // A deck whose insertion shell cannot be tiled exactly fails fast in
  // params_from_config, not deep inside Window construction.
  Config bad;
  bad.set("window_proper_um", "6");
  bad.set("onramp_um", "3");
  bad.set("insertion_um", "5");  // outer 22, 22/5 not integral
  EXPECT_THROW(params_from_config(bad), std::invalid_argument);
}

TEST_F(SetupTest, HealthKeysParse) {
  Config cfg;
  cfg.set("health", "recover");
  cfg.set("health_interval", "5");
  cfg.set("health_rho_min", "0.8");
  cfg.set("health_max_mach", "0.2");
  cfg.set("health_max_i1", "30");
  const AprParams p = params_from_config(cfg);
  EXPECT_TRUE(p.health.enabled);
  EXPECT_EQ(p.health.policy, HealthPolicy::Recover);
  EXPECT_EQ(p.health.interval, 5);
  EXPECT_DOUBLE_EQ(p.health.rho_min, 0.8);
  EXPECT_DOUBLE_EQ(p.health.max_mach, 0.2);
  EXPECT_DOUBLE_EQ(p.health.max_i1, 30.0);

  Config off;
  off.set("health", "off");
  EXPECT_FALSE(params_from_config(off).health.enabled);

  Config bad;
  bad.set("health", "panic");
  EXPECT_THROW(params_from_config(bad), std::invalid_argument);

  Config bad_interval;
  bad_interval.set("health", "throw");
  bad_interval.set("health_interval", "0");
  EXPECT_THROW(params_from_config(bad_interval), std::runtime_error);
}

TEST_F(SetupTest, OverridesApply) {
  Config cfg;
  cfg.set("dx_coarse_um", "3.0");
  cfg.set("resolution_ratio", "5");
  cfg.set("bulk_viscosity_cp", "3.5");
  cfg.set("target_hematocrit", "0.25");
  cfg.set("seed", "99");
  const AprParams p = params_from_config(cfg);
  EXPECT_DOUBLE_EQ(p.dx_coarse, 3.0e-6);
  EXPECT_EQ(p.n, 5);
  EXPECT_NEAR(p.lambda, 1.2 / 3.5, 1e-12);
  EXPECT_DOUBLE_EQ(p.window.target_hematocrit, 0.25);
  EXPECT_EQ(p.seed, 99u);
}

TEST_F(SetupTest, RejectsNonPositiveViscosity) {
  Config cfg;
  cfg.set("bulk_viscosity_cp", "0");
  EXPECT_THROW(params_from_config(cfg), std::runtime_error);
}

TEST_F(SetupTest, CollisionModelKeyParses) {
  {
    const Config cfg;  // absent key: BGK, the paper's operator
    const AprParams p = params_from_config(cfg);
    EXPECT_EQ(p.collision, lbm::CollisionModel::Bgk);
    EXPECT_DOUBLE_EQ(p.trt_magic, 3.0 / 16.0);
  }
  for (const auto& [name, model] :
       {std::pair<std::string, lbm::CollisionModel>{
            "bgk", lbm::CollisionModel::Bgk},
        {"trt", lbm::CollisionModel::Trt},
        {"mrt", lbm::CollisionModel::Mrt}}) {
    Config cfg;
    cfg.set("collision_model", name);
    cfg.set("trt_magic", "0.25");
    const AprParams p = params_from_config(cfg);
    EXPECT_EQ(p.collision, model) << name;
    EXPECT_DOUBLE_EQ(p.trt_magic, 0.25);
  }
  Config bad;
  bad.set("collision_model", "mrt19");
  EXPECT_THROW(params_from_config(bad), std::runtime_error);
  Config bad_magic;
  bad_magic.set("trt_magic", "0");
  EXPECT_THROW(params_from_config(bad_magic), std::runtime_error);
}

TEST_F(SetupTest, CellModelsFollowDeck) {
  Config cfg;
  cfg.set("rbc_radius_um", "1.5");
  cfg.set("rbc_subdivisions", "2");
  cfg.set("ctc_radius_um", "2.5");
  const auto rbc = rbc_model_from_config(cfg);
  const auto ctc = ctc_model_from_config(cfg);
  // Subdivision 2 icosphere: 162 vertices.
  EXPECT_EQ(rbc->num_vertices(), 162);
  EXPECT_NEAR(rbc->reference().bounds().extent().x, 3.0e-6, 0.2e-6);
  EXPECT_NEAR(ctc->reference().bounds().extent().x, 5.0e-6, 0.1e-6);
  // CTC is the stiffer species by default.
  EXPECT_GT(ctc->params().shear_modulus, rbc->params().shear_modulus);
}

TEST_F(SetupTest, DomainKinds) {
  Config cfg;
  cfg.set("tube_radius_um", "10");
  cfg.set("tube_length_um", "40");
  const auto dom = domain_from_config(cfg);
  EXPECT_TRUE(dom->inside({0, 0, 0}));
  EXPECT_FALSE(dom->inside({11e-6, 0, 0}));
  // Uncapped by default: open ends.
  EXPECT_TRUE(dom->inside({0, 0, 100e-6}));

  Config bad;
  bad.set("domain", "klein_bottle");
  EXPECT_THROW(domain_from_config(bad), std::runtime_error);
}

TEST_F(SetupTest, MakeSimulationRunsEndToEnd) {
  Config cfg;
  cfg.set("target_hematocrit", "0.08");
  cfg.set("rbc_capacity", "1200");
  SimulationSetup setup = make_simulation(cfg);
  ASSERT_NE(setup.simulation, nullptr);
  auto& sim = *setup.simulation;
  sim.initialize_flow(Vec3{});
  sim.coarse().set_periodic(false, false, true);
  sim.set_body_force_density(Vec3{0, 0, 2e6});
  for (int s = 0; s < 50; ++s) sim.coarse().step();
  sim.place_window(Vec3{});
  sim.place_ctc(Vec3{});
  const PopulationReport rep = sim.fill_window();
  EXPECT_GT(rep.added, 5);
  sim.run(3);
  EXPECT_EQ(sim.coarse_steps(), 3);
  EXPECT_GT(sim.window_hematocrit(), 0.03);
}

TEST_F(SetupTest, UnreadKeyIsRejected) {
  // A misspelled key and a retired one would otherwise fall back to the
  // defaults without a word; the deck fails closed and names both.
  Config cfg;
  cfg.set("target_hematocrit", "0.08");
  cfg.set("maintain_intervl", "4");
  cfg.set("obs_metrics_file", "metrics.jsonl");
  try {
    make_simulation(cfg);
    FAIL() << "make_simulation accepted unknown keys";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("maintain_intervl"), std::string::npos) << what;
    EXPECT_NE(what.find("obs_metrics_file"), std::string::npos) << what;
    EXPECT_EQ(what.find("target_hematocrit"), std::string::npos) << what;
  }

  // A driver's own run-control key passes once the driver has read it.
  Config driver;
  driver.set("steps", "10");
  EXPECT_EQ(driver.unread_keys(), std::vector<std::string>{"steps"});
  EXPECT_EQ(driver.get_int("steps", 0), 10);
  EXPECT_TRUE(driver.unread_keys().empty());
  EXPECT_NO_THROW(make_simulation(driver));
}

TEST_F(SetupTest, DeckFileRoundTrip) {
  // A deck written to disk drives the same configuration.
  const std::string path =
      std::string(::testing::TempDir()) + "/apr_deck.cfg";
  {
    std::ofstream os(path);
    os << "# miniature tube run\n"
       << "dx_coarse_um = 2.5\n"
       << "resolution_ratio = 2\n"
       << "target_hematocrit = 0.12\n"
       << "tube_radius_um = 12\n";
  }
  const Config cfg = Config::from_file(path);
  const AprParams p = params_from_config(cfg);
  EXPECT_DOUBLE_EQ(p.dx_coarse, 2.5e-6);
  EXPECT_DOUBLE_EQ(p.window.target_hematocrit, 0.12);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace apr::core
