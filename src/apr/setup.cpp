#include "src/apr/setup.hpp"

#include <stdexcept>

#include "src/mesh/shapes.hpp"
#include "src/rheology/blood.hpp"

namespace apr::core {

namespace {

constexpr double kUm = 1e-6;
constexpr double kCp = 1e-3;  // centipoise -> Pa s

}  // namespace

AprParams params_from_config(const Config& config) {
  AprParams p;
  p.dx_coarse = config.get_double("dx_coarse_um", 2.0) * kUm;
  p.n = config.get_int("resolution_ratio", 2);
  p.tau_coarse = config.get_double("tau_coarse", 1.0);

  const double mu_bulk =
      config.get_double("bulk_viscosity_cp", 4.0) * kCp;
  const double mu_plasma =
      config.get_double("plasma_viscosity_cp", 1.2) * kCp;
  if (mu_bulk <= 0.0 || mu_plasma <= 0.0) {
    throw std::runtime_error("setup: viscosities must be positive");
  }
  p.nu_bulk = mu_bulk / rheology::kBloodDensity;
  p.lambda = mu_plasma / mu_bulk;

  // Defaults give outer_side = 6 + 2*(2.5 + 5.5) = 22 um: 11 coarse cells
  // at the default dx, and exactly 4 insertion tiles per edge (22 / 5.5).
  // The tiling constraint (outer_side an integer multiple of
  // insertion_width) is enforced by WindowConfig::validate() below.
  p.window.proper_side = config.get_double("window_proper_um", 6.0) * kUm;
  p.window.onramp_width = config.get_double("onramp_um", 2.5) * kUm;
  p.window.insertion_width = config.get_double("insertion_um", 5.5) * kUm;
  p.window.target_hematocrit = config.get_double("target_hematocrit", 0.1);
  p.window.repopulation_threshold =
      config.get_double("repopulation_threshold", 0.75);
  p.window.validate();
  p.maintain_interval = config.get_int("maintain_interval", 3);
  p.move.trigger_distance = config.get_double("move_trigger_um", 1.5) * kUm;

  p.fsi.contact_cutoff = config.get_double("contact_cutoff_um", 0.4) * kUm;
  p.fsi.contact_strength = config.get_double("contact_strength", 2e-12);
  p.fsi.wall_cutoff = config.get_double("wall_cutoff_um", 0.5) * kUm;
  p.fsi.wall_strength = config.get_double("wall_strength", 5e-12);

  p.rbc_capacity =
      static_cast<std::size_t>(config.get_int("rbc_capacity", 1500));
  p.seed = static_cast<std::uint64_t>(config.get_int("seed", 42));

  // Collision operator (see lbm/lattice.hpp). BGK is the paper's choice;
  // trt_magic is read even for bgk/mrt so a bad deck fails loudly.
  const std::string collision = config.get_string("collision_model", "bgk");
  if (collision == "bgk") {
    p.collision = lbm::CollisionModel::Bgk;
  } else if (collision == "trt") {
    p.collision = lbm::CollisionModel::Trt;
  } else if (collision == "mrt") {
    p.collision = lbm::CollisionModel::Mrt;
  } else {
    throw std::runtime_error("setup: unknown collision_model '" + collision +
                             "' (expected bgk, trt or mrt)");
  }
  p.trt_magic = config.get_double("trt_magic", 3.0 / 16.0);
  if (p.trt_magic <= 0.0) {
    throw std::runtime_error("setup: trt_magic must be > 0");
  }

  // Numerical-health watchdog (observability only: never shapes the
  // healthy trajectory, see simulation.hpp).
  const std::string health = config.get_string("health", "off");
  if (health == "off") {
    p.health.enabled = false;
  } else {
    p.health.enabled = true;
    p.health.policy = health_policy_from_string(health);
  }
  p.health.interval = config.get_int("health_interval", 10);
  p.health.check_cells = config.get_bool("health_check_cells", true);
  p.health.rho_min = config.get_double("health_rho_min", 0.5);
  p.health.rho_max = config.get_double("health_rho_max", 2.0);
  p.health.max_mach = config.get_double("health_max_mach", 0.3);
  p.health.max_i1 = config.get_double("health_max_i1", 50.0);
  p.health.max_volume_drift =
      config.get_double("health_max_volume_drift", 0.5);
  p.health.min_det_f = config.get_double("health_min_det_f", 1e-3);
  if (p.health.enabled && p.health.interval < 1) {
    throw std::runtime_error("setup: health_interval must be >= 1");
  }
  return p;
}

std::shared_ptr<fem::MembraneModel> rbc_model_from_config(
    const Config& config) {
  fem::MembraneParams mp;
  mp.shear_modulus =
      config.get_double("rbc_shear_modulus", rheology::kRbcShearModulus);
  mp.bending_modulus =
      config.get_double("rbc_bending_modulus", rheology::kRbcBendingModulus);
  mp.ka_global = config.get_double("rbc_ka_global", 1e-6);
  mp.kv_global = config.get_double("rbc_kv_global", 1e-6);
  const double radius = config.get_double("rbc_radius_um", 1.0) * kUm;
  const int subdiv = config.get_int("rbc_subdivisions", 1);
  return std::make_shared<fem::MembraneModel>(
      mesh::rbc_biconcave(subdiv, radius), mp);
}

std::shared_ptr<fem::MembraneModel> ctc_model_from_config(
    const Config& config) {
  fem::MembraneParams mp;
  mp.shear_modulus =
      config.get_double("ctc_shear_modulus", rheology::kCtcShearModulus);
  mp.bending_modulus = config.get_double(
      "ctc_bending_modulus", 10.0 * rheology::kRbcBendingModulus);
  mp.ka_global = config.get_double("ctc_ka_global", 1e-5);
  mp.kv_global = config.get_double("ctc_kv_global", 1e-5);
  const double radius = config.get_double("ctc_radius_um", 1.6) * kUm;
  const int subdiv = config.get_int("ctc_subdivisions", 1);
  return std::make_shared<fem::MembraneModel>(
      mesh::ctc_sphere(subdiv, radius), mp);
}

std::shared_ptr<geometry::Domain> domain_from_config(const Config& config) {
  const std::string kind = config.get_string("domain", "tube");
  if (kind == "tube") {
    const double radius = config.get_double("tube_radius_um", 16.0) * kUm;
    const double length = config.get_double("tube_length_um", 60.0) * kUm;
    const bool capped = config.get_bool("tube_capped", false);
    return std::make_shared<geometry::TubeDomain>(
        Vec3{0.0, 0.0, -length / 2.0}, Vec3{0.0, 0.0, 1.0}, length, radius,
        capped);
  }
  throw std::runtime_error("setup: unknown domain kind '" + kind + "'");
}

SimulationSetup make_simulation(const Config& config) {
  SimulationSetup setup;
  setup.params = params_from_config(config);
  setup.rbc_model = rbc_model_from_config(config);
  setup.ctc_model = ctc_model_from_config(config);
  setup.domain = domain_from_config(config);
  const std::vector<std::string> unread = config.unread_keys();
  if (!unread.empty()) {
    std::string names;
    for (const std::string& key : unread) {
      names += (names.empty() ? "" : ", ") + key;
    }
    throw std::runtime_error("setup: unknown deck key(s): " + names +
                             " (recognized keys are listed in "
                             "src/apr/setup.hpp)");
  }
  setup.simulation = std::make_unique<AprSimulation>(
      setup.domain, setup.rbc_model, setup.ctc_model, setup.params);
  return setup;
}

}  // namespace apr::core
