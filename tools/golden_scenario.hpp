#pragma once

/// \file golden_scenario.hpp
/// The shared definition of the golden-state regression scenario: a small
/// force-driven tube flow with a cell-resolved window, a CTC and two RBCs,
/// sized so the committed checkpoint stays around a megabyte. Both the
/// generator (tools/make_golden) and the regression test
/// (tests/test_golden.cpp) build the simulation from this one header, so
/// the committed checkpoint and the code that replays it can never drift
/// apart silently.
///
/// The manifest written next to the checkpoint records the container
/// digest (exact, byte-level) and physics invariants (mass, momentum,
/// per-species cell volume/area) at save time and after
/// kGoldenEvolveSteps further steps, plus the state digest at that point.
/// Exactness policy: the library compiles with no floating-point
/// contraction in any build flavour, so on one host the same arithmetic
/// rounds the same way everywhere. Raw bytes, digests and the invariants
/// recomputed from the loaded state are therefore compared exactly, and
/// so is the evolved digest (one worker). The evolved invariants keep a
/// 1e-6 relative check beside it, which measures how far the physics
/// moved when the digest does not match.

#include <cstdint>
#include <memory>
#include <string>

#include "src/apr/simulation.hpp"
#include "src/fem/constraints.hpp"
#include "src/mesh/shapes.hpp"
#include "src/rheology/blood.hpp"

namespace apr::tools {

constexpr int kGoldenSaveSteps = 30;    ///< steps before the checkpoint
constexpr int kGoldenEvolveSteps = 20;  ///< steps the regression replays

/// Ids of the two hand-placed RBCs -- far above anything next_cell_id_
/// can reach so maintenance insertions (sequential from 1) never clash.
constexpr std::uint64_t kGoldenRbcId = 1ull << 32;

inline std::shared_ptr<fem::MembraneModel> golden_rbc_model() {
  fem::MembraneParams p;
  p.shear_modulus = rheology::kRbcShearModulus;
  p.skalak_c = 50.0;
  p.bending_modulus = rheology::kRbcBendingModulus;
  p.ka_global = 1e-6;
  p.kv_global = 1e-6;
  return std::make_shared<fem::MembraneModel>(mesh::rbc_biconcave(1, 1e-6),
                                              p);
}

inline std::shared_ptr<fem::MembraneModel> golden_ctc_model() {
  fem::MembraneParams p;
  p.shear_modulus = rheology::kCtcShearModulus;
  p.skalak_c = 50.0;
  p.bending_modulus = 10.0 * rheology::kRbcBendingModulus;
  p.ka_global = 1e-5;
  p.kv_global = 1e-5;
  return std::make_shared<fem::MembraneModel>(mesh::ctc_sphere(1, 1.6e-6), p);
}

inline core::AprParams golden_params() {
  core::AprParams p;
  p.dx_coarse = 2.5e-6;
  p.n = 2;
  p.tau_coarse = 1.0;
  p.nu_bulk = rheology::kWholeBloodKinematicViscosity;
  p.lambda = rheology::kPlasmaViscosity / rheology::kWholeBloodViscosity;
  p.window.proper_side = 5.0e-6;
  p.window.onramp_width = 2.5e-6;
  p.window.insertion_width = 2.5e-6;  // outer = 15 um = 6 dx_coarse
  p.window.target_hematocrit = 0.08;
  p.move.trigger_distance = 1.5e-6;
  p.fsi.contact_cutoff = 0.4e-6;
  p.fsi.contact_strength = 2e-12;
  p.fsi.wall_cutoff = 0.5e-6;
  p.fsi.wall_strength = 5e-12;
  p.maintain_interval = 4;
  p.rbc_capacity = 600;
  p.seed = 11;
  return p;
}

inline std::shared_ptr<geometry::TubeDomain> golden_domain() {
  // Uncapped tube along z for periodic force-driven flow.
  return std::make_shared<geometry::TubeDomain>(
      Vec3{0.0, 0.0, -20e-6}, Vec3{0.0, 0.0, 1.0}, 40e-6, 10e-6,
      /*capped=*/false);
}

/// Build the scenario up to (but not including) the timed steps.
inline std::unique_ptr<core::AprSimulation> golden_setup() {
  auto sim = std::make_unique<core::AprSimulation>(
      golden_domain(), golden_rbc_model(), golden_ctc_model(),
      golden_params());
  sim->initialize_flow(Vec3{});
  sim->coarse().set_periodic(false, false, true);
  sim->set_body_force_density(Vec3{0.0, 0.0, 6e6});
  for (int s = 0; s < 100; ++s) sim->coarse().step();
  sim->place_window(Vec3{});
  sim->place_ctc(Vec3{});
  sim->rbcs().add(kGoldenRbcId, cells::instantiate(sim->rbcs().model(),
                                                   Vec3{0.0, 3.5e-6, 0.0}));
  sim->rbcs().add(kGoldenRbcId + 1,
                  cells::instantiate(sim->rbcs().model(),
                                     Vec3{0.0, -3.5e-6, 0.0}));
  return sim;
}

/// Physics invariants of a simulation state, computed from first
/// principles (distribution sums, vertex geometry) rather than from any
/// cached diagnostic, in fixed serial order.
struct GoldenInvariants {
  double coarse_mass = 0.0;     ///< sum of rho over coarse fluid nodes
  double fine_mass = 0.0;       ///< sum of rho over fine fluid nodes
  Vec3 fine_momentum{};         ///< sum of first moments, fine fluid nodes
  double rbc_volume = 0.0;      ///< summed enclosed volume, all RBCs [m^3]
  double rbc_area = 0.0;        ///< summed surface area, all RBCs [m^2]
  double ctc_volume = 0.0;
  double ctc_area = 0.0;
  std::size_t rbc_count = 0;
};

inline GoldenInvariants compute_invariants(const core::AprSimulation& sim) {
  GoldenInvariants inv;
  const auto lattice_mass = [](const lbm::Lattice& lat, Vec3* mom) {
    double mass = 0.0;
    for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
      if (lat.type(i) != lbm::NodeType::Fluid) continue;
      const auto f = lat.f_node(i);
      mass += lbm::density(f);
      if (mom) *mom += lbm::momentum(f);
    }
    return mass;
  };
  inv.coarse_mass = lattice_mass(sim.coarse(), nullptr);
  if (sim.has_window()) {
    inv.fine_mass = lattice_mass(sim.fine(), &inv.fine_momentum);
  }

  const auto pool_geometry = [](const cells::CellPool& pool, double* volume,
                                double* area) {
    const auto& tris = pool.model().reference().triangles;
    std::vector<Vec3> x;
    for (std::size_t s = 0; s < pool.size(); ++s) {
      const auto xs = pool.positions(s);
      x.assign(xs.begin(), xs.end());
      *volume += fem::volume_with_gradient(x, tris, nullptr);
      *area += fem::surface_area_with_gradient(x, tris, nullptr);
    }
  };
  pool_geometry(sim.rbcs(), &inv.rbc_volume, &inv.rbc_area);
  pool_geometry(sim.ctcs(), &inv.ctc_volume, &inv.ctc_area);
  inv.rbc_count = sim.rbcs().size();
  return inv;
}

inline std::string golden_checkpoint_name() { return "golden_tube.chk"; }
inline std::string golden_manifest_name() { return "golden_tube.manifest"; }

}  // namespace apr::tools
