/// \file expanding_channel.cpp
/// Reduced-scale version of the paper's §3.3 margination scenario: a CTC
/// with surrounding RBCs is carried through an expanding channel, once
/// with the APR moving window and once fully resolved (eFSI), and the two
/// radial trajectories are compared along with the compute cost.

#include <cstdio>
#include <cmath>
#include <memory>

#include "src/apr/efsi.hpp"
#include "src/apr/simulation.hpp"
#include "src/common/log.hpp"
#include "src/mesh/shapes.hpp"
#include "src/rheology/blood.hpp"
#include "src/rheology/pries.hpp"

using namespace apr;

namespace {

std::shared_ptr<fem::MembraneModel> make_rbc() {
  fem::MembraneParams p;
  p.shear_modulus = rheology::kRbcShearModulus;
  p.bending_modulus = rheology::kRbcBendingModulus;
  p.ka_global = 1e-6;
  p.kv_global = 1e-6;
  return std::make_shared<fem::MembraneModel>(mesh::rbc_biconcave(1, 1.0e-6),
                                              p);
}

std::shared_ptr<fem::MembraneModel> make_ctc() {
  fem::MembraneParams p;
  p.shear_modulus = rheology::kCtcShearModulus;
  p.bending_modulus = 10.0 * rheology::kRbcBendingModulus;
  p.ka_global = 1e-5;
  p.kv_global = 1e-5;
  return std::make_shared<fem::MembraneModel>(mesh::ctc_sphere(1, 1.6e-6), p);
}

double radial(const Vec3& p) { return std::hypot(p.x, p.y); }

}  // namespace

int main() {
  set_log_level(LogLevel::Warn);

  // Channel: radius 10 um -> 20 um at z = 30 um, length 100 um
  // (paper: 100 um -> 200 um at z = 400 um, length 2000 um).
  auto channel = std::make_shared<geometry::ExpandingChannelDomain>(
      Vec3{0, 0, 0}, 100e-6, 10e-6, 20e-6, 30e-6, 10e-6,
      /*capped=*/false);
  const Vec3 start{4e-6, 0.0, 12e-6};  // radial offset, upstream of the
                                       // expansion (paper: 25 um offset)
  const Vec3 body_force{0, 0, 2e7};

  auto rbc = make_rbc();
  auto ctc = make_ctc();

  // --- APR run -------------------------------------------------------------
  core::AprParams ap;
  ap.dx_coarse = 2.0e-6;
  ap.n = 2;
  ap.tau_coarse = 1.0;
  // Bulk viscosity = effective viscosity of the eFSI suspension at this
  // hematocrit (Pries at the cell-size-equivalent diameter), so both
  // models transport the CTC with matched kinematics -- exactly the
  // paper's premise that the bulk models the cell-laden blood.
  const double mu_bulk =
      rheology::kPlasmaViscosity *
      rheology::pries_relative_viscosity(78.0, 0.12);
  ap.nu_bulk = mu_bulk / rheology::kBloodDensity;
  ap.lambda = rheology::kPlasmaViscosity / mu_bulk;
  ap.window.proper_side = 6e-6;
  ap.window.onramp_width = 2.5e-6;
  ap.window.insertion_width = 5.5e-6;  // outer = 22 um = 4 insertion tiles
  ap.window.target_hematocrit = 0.12;
  ap.move.trigger_distance = 1.5e-6;
  ap.fsi.contact_cutoff = 0.4e-6;
  ap.fsi.contact_strength = 2e-12;
  ap.fsi.wall_cutoff = 0.5e-6;
  ap.fsi.wall_strength = 5e-12;
  ap.maintain_interval = 3;
  ap.rbc_capacity = 1600;

  core::AprSimulation apr_sim(channel, rbc, ctc, ap);
  apr_sim.initialize_flow(Vec3{});
  apr_sim.coarse().set_periodic(false, false, true);
  apr_sim.set_body_force_density(body_force);
  for (int s = 0; s < 400; ++s) apr_sim.coarse().step();
  apr_sim.place_window(start);
  apr_sim.place_ctc(start);
  apr_sim.fill_window();

  std::printf("APR: tracking CTC through the expansion...\n");
  const int apr_steps = 120;
  for (int s = 0; s < apr_steps; ++s) apr_sim.step();

  // --- eFSI run ------------------------------------------------------------
  core::EfsiParams ep;
  ep.dx = 1.0e-6;
  ep.tau = 1.0;
  ep.nu = rheology::kPlasmaKinematicViscosity;
  ep.fsi = ap.fsi;
  ep.rbc_capacity = 4000;

  core::EfsiSimulation efsi(channel, rbc, ctc, ep);
  efsi.lattice().set_periodic(false, false, true);
  efsi.set_body_force_density(body_force);
  efsi.initialize_flow(Vec3{}, 400);
  efsi.place_ctc(start);
  Rng tile_rng(3);
  const cells::RbcTile tile =
      cells::RbcTile::generate(*rbc, 6e-6, 0.12, tile_rng);
  const int filled = efsi.fill_region(
      Aabb({-20e-6, -20e-6, 2e-6}, {20e-6, 20e-6, 60e-6}), tile);
  std::printf("eFSI: %d RBCs over the whole channel (APR window holds %zu)\n",
              filled, apr_sim.rbcs().size());
  // Match physical time: eFSI (fine dt) needs n x the steps.
  for (int s = 0; s < apr_steps * ap.n; ++s) efsi.step();

  // --- Comparison ----------------------------------------------------------
  std::printf("\n%14s %14s %14s\n", "z[um]", "r_APR[um]", "r_eFSI[um]");
  const auto& ta = apr_sim.ctc_trajectory();
  const auto& te = efsi.ctc_trajectory();
  for (std::size_t k = 0; k < ta.size(); k += ta.size() / 8 + 1) {
    const std::size_t ke = std::min(te.size() - 1, k * ap.n);
    std::printf("%14.2f %14.3f %14.3f\n", ta[k].z * 1e6,
                radial(ta[k]) * 1e6, radial(te[ke]) * 1e6);
  }
  std::printf("\nfinal axial positions: APR %.2f um, eFSI %.2f um\n",
              apr_sim.ctc_position().z * 1e6, efsi.ctc_position().z * 1e6);
  std::printf("site updates: APR %.3e vs eFSI %.3e (savings %.1fx)\n",
              static_cast<double>(apr_sim.total_site_updates()),
              static_cast<double>(efsi.total_site_updates()),
              static_cast<double>(efsi.total_site_updates()) /
                  static_cast<double>(apr_sim.total_site_updates()));
  return 0;
}
