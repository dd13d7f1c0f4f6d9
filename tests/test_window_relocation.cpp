/// Tests of the incremental window-relocation pipeline (ROADMAP: shift-
/// and-reuse the fine lattice instead of a full rebuild on every move):
/// the Lattice::shift primitive, the subrange voxelizer, the coupler's
/// independence from origin roundoff, and end-to-end equivalence of the
/// incremental and full-rebuild paths.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "src/apr/coupler.hpp"
#include "src/apr/simulation.hpp"
#include "src/common/log.hpp"
#include "src/geometry/voxelizer.hpp"
#include "src/mesh/shapes.hpp"
#include "src/rheology/blood.hpp"

namespace apr::core {
namespace {

using lbm::Lattice;
using lbm::NodeType;

// --- Lattice::shift ---------------------------------------------------------

/// Value encoding that makes every (q, node) pair distinct.
double coded_f(int q, std::size_t i) { return 1000.0 * q + 1e-3 * i; }

TEST(LatticeShift, CarriesOverlapStateExactly) {
  const int nx = 6, ny = 5, nz = 4;
  Lattice lat(nx, ny, nz, Vec3{}, 1.0, 1.0);
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    for (int q = 0; q < lbm::kQ; ++q) lat.set_f(q, i, coded_f(q, i));
    lat.set_type(i, static_cast<NodeType>(i % 3));
    lat.set_boundary_velocity(i, Vec3{0.5 * i, 1.0, -2.0});
    lat.mutable_velocity(i) = Vec3{1.0 * i, 0.0, 3.0};
  }

  const int sx = 1, sy = -2, sz = 1;
  const std::size_t preserved = lat.shift(sx, sy, sz);
  EXPECT_EQ(preserved, static_cast<std::size_t>((nx - 1) * (ny - 2) * (nz - 1)));

  // Destination overlap range per axis: [max(0,-s), min(n, n-s)).
  for (int z = 0; z < nz - sz; ++z) {
    for (int y = -sy; y < ny; ++y) {
      for (int x = 0; x < nx - sx; ++x) {
        const std::size_t dst = lat.idx(x, y, z);
        const std::size_t src = lat.idx(x + sx, y + sy, z + sz);
        for (int q = 0; q < lbm::kQ; ++q) {
          EXPECT_EQ(lat.f(q, dst), coded_f(q, src)) << x << "," << y << "," << z;
        }
        EXPECT_EQ(lat.type(dst), static_cast<NodeType>(src % 3));
        EXPECT_EQ(lat.boundary_velocity(dst).x, 0.5 * src);
        EXPECT_EQ(lat.velocity(dst).x, 1.0 * src);
      }
    }
  }
}

TEST(LatticeShift, ZeroShiftIsIdentity) {
  Lattice lat(4, 4, 4, Vec3{}, 1.0, 1.0);
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    for (int q = 0; q < lbm::kQ; ++q) lat.set_f(q, i, coded_f(q, i));
  }
  EXPECT_EQ(lat.shift(0, 0, 0), lat.num_nodes());
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    for (int q = 0; q < lbm::kQ; ++q) EXPECT_EQ(lat.f(q, i), coded_f(q, i));
  }
}

TEST(LatticeShift, DisjointShiftMovesNothing) {
  Lattice lat(4, 4, 4, Vec3{}, 1.0, 1.0);
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    for (int q = 0; q < lbm::kQ; ++q) lat.set_f(q, i, coded_f(q, i));
  }
  EXPECT_EQ(lat.shift(4, 0, 0), 0u);
  EXPECT_EQ(lat.shift(0, -7, 0), 0u);
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    for (int q = 0; q < lbm::kQ; ++q) EXPECT_EQ(lat.f(q, i), coded_f(q, i));
  }
}

// --- subrange voxelizer -----------------------------------------------------

TEST(SubrangeVoxelizer, TiledSubrangesMatchWholeDomainClassification) {
  const geometry::TubeDomain tube(Vec3{0.0, 0.0, -12e-6}, Vec3{0.0, 0.0, 1.0},
                                  24e-6, 8e-6, /*capped=*/false);
  const double dx = 2e-6;
  Lattice ref = geometry::make_lattice_for(tube, dx, 1.0);
  geometry::voxelize(ref, tube);

  // Same lattice pre-filled with garbage types, then re-classified through
  // a disjoint tiling of subrange calls: every node must come out exactly
  // as the whole-domain overload classifies it.
  Lattice tiled = geometry::make_lattice_for(tube, dx, 1.0);
  for (std::size_t i = 0; i < tiled.num_nodes(); ++i) {
    tiled.set_type(i, NodeType::Velocity);
  }
  const int xs[3] = {0, tiled.nx() / 3, tiled.nx()};
  const int ys[3] = {0, tiled.ny() / 2, tiled.ny()};
  const int zs[3] = {0, 2, tiled.nz()};
  for (int k = 0; k < 2; ++k) {
    for (int j = 0; j < 2; ++j) {
      for (int i = 0; i < 2; ++i) {
        geometry::voxelize(tiled, tube, xs[i], xs[i + 1], ys[j], ys[j + 1],
                           zs[k], zs[k + 1]);
      }
    }
  }
  ASSERT_EQ(ref.num_nodes(), tiled.num_nodes());
  for (std::size_t i = 0; i < ref.num_nodes(); ++i) {
    EXPECT_EQ(ref.type(i), tiled.type(i)) << "node " << i;
  }

  // Out-of-range bounds clamp to the lattice: one oversized call is the
  // whole-domain classification.
  Lattice clamped = geometry::make_lattice_for(tube, dx, 1.0);
  geometry::voxelize(clamped, tube, -3, clamped.nx() + 3, -3,
                     clamped.ny() + 3, -3, clamped.nz() + 3);
  for (std::size_t i = 0; i < ref.num_nodes(); ++i) {
    EXPECT_EQ(ref.type(i), clamped.type(i)) << "node " << i;
  }
}

TEST(SubrangeVoxelizer, ReclassifySolidUsesStoredTypesOnly) {
  // reclassify_solid re-derives Wall-vs-Exterior from the stored node
  // types without consulting any geometry: solid nodes with a D3Q19
  // stream-source neighbour become Wall, other solid nodes Exterior, and
  // fluid-side types are never touched.
  Lattice lat(5, 5, 5, Vec3{}, 1.0, 1.0);
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    lat.set_type(i, NodeType::Exterior);
  }
  lat.set_type(2, 2, 2, NodeType::Fluid);
  lat.set_type(0, 0, 0, NodeType::Wall);  // isolated: must demote
  lat.set_type(4, 4, 4, NodeType::Velocity);
  geometry::reclassify_solid(lat, 0, 5, 0, 5, 0, 5);

  EXPECT_EQ(lat.type(2, 2, 2), NodeType::Fluid);     // untouched
  EXPECT_EQ(lat.type(4, 4, 4), NodeType::Velocity);  // untouched
  EXPECT_EQ(lat.type(1, 2, 2), NodeType::Wall);      // face neighbour
  EXPECT_EQ(lat.type(1, 1, 2), NodeType::Wall);      // edge neighbour
  // A 3D diagonal is not a D3Q19 direction: no bounce-back ever reads it.
  EXPECT_EQ(lat.type(1, 1, 1), NodeType::Exterior);
  EXPECT_EQ(lat.type(0, 0, 0), NodeType::Exterior);  // demoted
  // The Velocity node is a stream source: its solid neighbours are walls.
  EXPECT_EQ(lat.type(3, 4, 4), NodeType::Wall);

  // The pass respects its sub-range: outside nodes keep their types.
  Lattice part(5, 5, 5, Vec3{}, 1.0, 1.0);
  for (std::size_t i = 0; i < part.num_nodes(); ++i) {
    part.set_type(i, NodeType::Wall);
  }
  geometry::reclassify_solid(part, 0, 2, 0, 5, 0, 5);
  EXPECT_EQ(part.type(1, 2, 2), NodeType::Exterior);  // in range, isolated
  EXPECT_EQ(part.type(3, 2, 2), NodeType::Wall);      // out of range
}

// --- exact coupler stencil -------------------------------------------------

TEST(CouplerExactStencilTest, OriginRoundoffLeavesCoupledStepBitIdentical) {
  // Two identical coarse/fine pairs whose fine origin is the same coarse
  // node, computed two ways that differ in the last ulp: by repeated
  // += dx_c and as k * dx_c. The coupler rounds the origin to that node
  // and builds every stencil and footprint from integers, so both pairs
  // must stay bit-identical through a coupled step.
  constexpr double kTwoPi = 6.283185307179586;
  const double dxc = 0.1;
  const int k[3] = {6, 7, 8};
  Vec3 summed{};
  Vec3 scaled{};
  for (int a = 0; a < 3; ++a) {
    for (int i = 0; i < k[a]; ++i) summed[a] += dxc;
    scaled[a] = k[a] * dxc;
    ASSERT_NE(summed[a], scaled[a]) << "axis " << a;
  }

  Lattice coarse_a(14, 14, 14, Vec3{}, dxc, 1.0);
  coarse_a.set_periodic(true, true, true);
  // Sheared initial state so the exchange carries nontrivial moments.
  for (int z = 0; z < coarse_a.nz(); ++z) {
    for (int y = 0; y < coarse_a.ny(); ++y) {
      for (int x = 0; x < coarse_a.nx(); ++x) {
        const double uy = 0.03 * std::sin(kTwoPi * y / coarse_a.ny());
        coarse_a.init_node_equilibrium(coarse_a.idx(x, y, z), 1.0,
                                       Vec3{uy, 0.0, 0.01});
      }
    }
  }
  coarse_a.update_macroscopic();
  Lattice fine_a(9, 9, 9, summed, dxc / 2, 1.0);
  for (int z = 0; z < fine_a.nz(); ++z) {
    for (int y = 0; y < fine_a.ny(); ++y) {
      for (int x = 0; x < fine_a.nx(); ++x) {
        const double uy =
            0.03 * std::sin(kTwoPi * (k[1] + 0.5 * y) / coarse_a.ny());
        fine_a.init_node_equilibrium(fine_a.idx(x, y, z), 1.0,
                                     Vec3{uy, 0.0, 0.01});
      }
    }
  }
  fine_a.update_macroscopic();

  // Byte-for-byte copies; only the fine origin's rounding differs.
  Lattice coarse_b = coarse_a;
  Lattice fine_b = fine_a;
  fine_b.set_origin(scaled);

  CouplerConfig cfg;
  cfg.n = 2;
  cfg.lambda = 0.5;
  cfg.tau_coarse = 1.0;
  CoarseFineCoupler ca(coarse_a, fine_a, cfg);
  CoarseFineCoupler cb(coarse_b, fine_b, cfg);

  EXPECT_EQ(ca.num_coupling_nodes(), cb.num_coupling_nodes());
  EXPECT_EQ(ca.num_restriction_nodes(), cb.num_restriction_nodes());
  EXPECT_GT(ca.num_restriction_nodes(), 0u);
  for (std::size_t i = 0; i < fine_a.num_nodes(); ++i) {
    ASSERT_EQ(fine_a.type(i), fine_b.type(i)) << "fine node " << i;
  }
  for (std::size_t i = 0; i < coarse_a.num_nodes(); ++i) {
    ASSERT_EQ(coarse_a.tau(i), coarse_b.tau(i)) << "coarse node " << i;
  }

  ca.advance();
  cb.advance();
  for (std::size_t i = 0; i < fine_a.num_nodes(); ++i) {
    for (int q = 0; q < lbm::kQ; ++q) {
      ASSERT_EQ(fine_a.f(q, i), fine_b.f(q, i))
          << "fine node " << i << " q " << q;
    }
  }
  for (std::size_t i = 0; i < coarse_a.num_nodes(); ++i) {
    for (int q = 0; q < lbm::kQ; ++q) {
      ASSERT_EQ(coarse_a.f(q, i), coarse_b.f(q, i))
          << "coarse node " << i << " q " << q;
    }
  }
}

// --- end-to-end relocation through AprSimulation ----------------------------

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
  return p;
}

std::shared_ptr<geometry::TubeDomain> tube_domain() {
  return std::make_shared<geometry::TubeDomain>(
      Vec3{0.0, 0.0, -30e-6}, Vec3{0.0, 0.0, 1.0}, 60e-6, 16e-6,
      /*capped=*/false);
}

class WindowRelocationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::Error); }
};

TEST_F(WindowRelocationTest, RelocateWithoutWindowThrows) {
  AprSimulation sim(tube_domain(), tiny_rbc(), tiny_ctc(), tiny_params());
  sim.initialize_flow(Vec3{});
  EXPECT_THROW(sim.relocate_window(Vec3{}), std::logic_error);
}

TEST_F(WindowRelocationTest, IncrementalShiftPreservesDistributionsBitwise) {
  AprParams p = tiny_params();
  AprSimulation sim(tube_domain(), tiny_rbc(), tiny_ctc(), p);
  sim.initialize_flow(Vec3{});
  sim.coarse().set_periodic(false, false, true);
  sim.set_body_force_density(Vec3{0.0, 0.0, 6e6});
  for (int s = 0; s < 200; ++s) sim.coarse().step();
  sim.place_window(Vec3{});
  sim.run(3);  // develop fine-window flow distinct from the coarse field

  // Snapshot the fine lattice before the move.
  const Lattice& fine = sim.fine();
  const int nn = fine.nx();
  ASSERT_EQ(fine.ny(), nn);
  ASSERT_EQ(fine.nz(), nn);
  std::vector<double> f0(static_cast<std::size_t>(lbm::kQ) *
                         fine.num_nodes());
  std::vector<NodeType> t0(fine.num_nodes());
  for (std::size_t i = 0; i < fine.num_nodes(); ++i) {
    t0[i] = fine.type(i);
    for (int q = 0; q < lbm::kQ; ++q) {
      f0[static_cast<std::size_t>(q) * fine.num_nodes() + i] = fine.f(q, i);
    }
  }
  const Vec3 old_origin = fine.origin();

  // One coarse cell downstream: sz = n fine nodes.
  const Vec3 target = sim.window().center() + Vec3{0.0, 0.0, p.dx_coarse};
  const WindowRelocationStats st = sim.relocate_window(target);
  EXPECT_TRUE(st.incremental);
  EXPECT_TRUE(sim.last_relocation().incremental);
  const int sz = p.n;
  EXPECT_EQ(st.preserved_nodes,
            static_cast<std::size_t>(nn) * nn * (nn - sz));
  EXPECT_GT(st.reinit_nodes, 0u);
  EXPECT_NEAR(sim.fine().origin().z, old_origin.z + p.dx_coarse, 1e-12);

  // Every carried-over fluid node must hold bit-identical distributions:
  // destination (x, y, z) took the state of source (x, y, z + sz). The
  // coupling layer and the re-seeded slab are excluded by the type checks.
  std::size_t compared = 0;
  for (int z = 0; z < nn - sz; ++z) {
    for (int y = 0; y < nn; ++y) {
      for (int x = 0; x < nn; ++x) {
        const std::size_t dst = fine.idx(x, y, z);
        const std::size_t src = fine.idx(x, y, z + sz);
        if (fine.type(dst) != NodeType::Fluid) continue;
        if (t0[src] != NodeType::Fluid) continue;
        for (int q = 0; q < lbm::kQ; ++q) {
          ASSERT_EQ(fine.f(q, dst),
                    f0[static_cast<std::size_t>(q) * fine.num_nodes() + src])
              << "node (" << x << "," << y << "," << z << ") q " << q;
        }
        ++compared;
      }
    }
  }
  // The preserved interior dominates the window.
  EXPECT_GT(compared, fine.num_nodes() / 2);
}

TEST_F(WindowRelocationTest, FullRebuildPathReseedsEverything) {
  // Two ways to the rebuild: re-placing an existing window (the reference
  // path), and a relocate_window jump beyond the window width, where old
  // and new windows share no node and nothing is worth carrying over.
  AprParams p = tiny_params();
  const double jump = p.window.outer_side() + p.dx_coarse;
  for (const bool replace : {true, false}) {
    AprSimulation sim(tube_domain(), tiny_rbc(), tiny_ctc(), p);
    sim.initialize_flow(Vec3{});
    sim.coarse().set_periodic(false, false, true);
    sim.set_body_force_density(Vec3{0.0, 0.0, 6e6});
    for (int s = 0; s < 100; ++s) sim.coarse().step();
    if (replace) {
      sim.place_window(Vec3{});
      sim.place_window(sim.window().center() + Vec3{0.0, 0.0, p.dx_coarse});
    } else {
      sim.place_window(Vec3{0.0, 0.0, -jump / 2.0});
      sim.relocate_window(sim.window().center() + Vec3{0.0, 0.0, jump});
    }
    const WindowRelocationStats st = sim.last_relocation();
    EXPECT_FALSE(st.incremental) << "replace=" << replace;
    EXPECT_EQ(st.preserved_nodes, 0u) << "replace=" << replace;
    // A full rebuild seeds every fluid node, far more than one exposed
    // slab.
    EXPECT_GT(st.reinit_nodes,
              static_cast<std::size_t>(sim.fine().num_nodes()) / 2)
        << "replace=" << replace;
  }
}

TEST_F(WindowRelocationTest, DiagonalMovesOnSurfaceAlignedTubeStayFinite) {
  // Regression test for the fig6 NaN: a tube narrow enough to sit inside
  // the window, with a radius (8 um at 1 um fine spacing) that places
  // lattice nodes exactly on the wall surface. There inside() is decided
  // by the last ulp of origin + index*dx -- a verdict that is not
  // reproducible across the origin rebase of an incremental move. An
  // earlier version re-ran the geometry predicate over the one-node rim
  // around each exposed slab and could flip a preserved Wall into a
  // Fluid node with no distributions behind it (rho = 0 -> NaN at its
  // first collision). Diagonal moves exercise the full three-slab
  // decomposition the axis-aligned tests miss.
  AprParams p = tiny_params();
  auto narrow = std::make_shared<geometry::TubeDomain>(
      Vec3{0.0, 0.0, -30e-6}, Vec3{0.0, 0.0, 1.0}, 60e-6, 8e-6,
      /*capped=*/false);
  AprSimulation sim(narrow, tiny_rbc(), tiny_ctc(), p);
  sim.initialize_flow(Vec3{});
  sim.coarse().set_periodic(false, false, true);
  sim.set_body_force_density(Vec3{0.0, 0.0, 6e6});
  for (int s = 0; s < 100; ++s) sim.coarse().step();
  sim.place_window(Vec3{});
  sim.run(2);

  const auto check_physical_density = [&](const char* when) {
    const Lattice& fine = sim.fine();
    for (std::size_t i = 0; i < fine.num_nodes(); ++i) {
      const NodeType t = fine.type(i);
      if (t != NodeType::Fluid && t != NodeType::Coupling) continue;
      double rho = 0.0;
      for (int q = 0; q < lbm::kQ; ++q) {
        const double v = fine.f(q, i);
        ASSERT_TRUE(std::isfinite(v)) << when << ": node " << i << " q " << q;
        rho += v;
      }
      ASSERT_GT(rho, 0.5) << when << ": node " << i;
      ASSERT_LT(rho, 2.0) << when << ": node " << i;
    }
  };

  const double d = p.dx_coarse;
  const Vec3 moves[] = {Vec3{d, -d, d},   Vec3{-d, d, d}, Vec3{d, d, -d},
                        Vec3{-d, -d, -d}, Vec3{d, d, d},  Vec3{-d, d, -d}};
  for (const Vec3& m : moves) {
    const WindowRelocationStats st =
        sim.relocate_window(sim.window().center() + m);
    EXPECT_TRUE(st.incremental);
    check_physical_density("after relocation");
    sim.step();  // the first collision is where rho = 0 turns into NaN
    check_physical_density("after step");
  }
}

TEST_F(WindowRelocationTest, FineSeedingCarriesCoarseDensityGradient) {
  // Regression: init_fine_from_coarse seeded every fine node with a flat
  // rho = 1 while interpolating only the velocity. Under a Poiseuille
  // pressure drop (a genuine axial density gradient in LBM) every window
  // placement and every relocation slab then injected a mass kick of
  // order the local (rho - 1). The fix interpolates the coarse density
  // exactly like the velocity; this test drives both relocation paths
  // (relocate_window's shift, place_window's rebuild) across the gradient
  // and bounds the total mass error at 1e-6.
  for (const bool incremental : {true, false}) {
    AprParams p = tiny_params();
    AprSimulation sim(tube_domain(), tiny_rbc(), tiny_ctc(), p);
    sim.initialize_flow(Vec3{});

    // Hand-set a Poiseuille-with-pressure-drop coarse state: linear rho
    // along z (+-5% -- far beyond any fp noise), parabolic u_z profile.
    Lattice& coarse = sim.coarse();
    const Aabb cb = coarse.bounds();
    const double R = 16e-6;
    for (int z = 0; z < coarse.nz(); ++z) {
      for (int y = 0; y < coarse.ny(); ++y) {
        for (int x = 0; x < coarse.nx(); ++x) {
          const std::size_t i = coarse.idx(x, y, z);
          const Vec3 pos = coarse.position(x, y, z);
          const double s =
              (pos.z - cb.lo.z) / (cb.hi.z - cb.lo.z);  // 0..1 along z
          const double rho = 1.05 - 0.10 * s;
          const double r2 =
              (pos.x * pos.x + pos.y * pos.y) / (R * R);
          const Vec3 u{0.0, 0.0, 0.02 * std::max(0.0, 1.0 - r2)};
          coarse.init_node_equilibrium(i, rho, u);
        }
      }
    }

    sim.place_window(Vec3{});

    const auto mass_error = [&](const char* when) {
      const Lattice& fine = sim.fine();
      double mass = 0.0;
      double expected = 0.0;
      std::size_t nodes = 0;
      for (int z = 0; z < fine.nz(); ++z) {
        for (int y = 0; y < fine.ny(); ++y) {
          for (int x = 0; x < fine.nx(); ++x) {
            const std::size_t i = fine.idx(x, y, z);
            const NodeType t = fine.type(i);
            if (t != NodeType::Fluid && t != NodeType::Coupling) continue;
            double rho = 0.0;
            for (int q = 0; q < lbm::kQ; ++q) rho += fine.f(q, i);
            mass += rho;
            expected += coarse.interpolate_rho(fine.position(x, y, z));
            ++nodes;
          }
        }
      }
      ASSERT_GT(nodes, 0u) << when;
      const double rel = std::abs(mass - expected) / expected;
      EXPECT_LT(rel, 1e-6)
          << when << " (incremental=" << incremental
          << "): fine mass " << mass << " vs coarse-interpolated "
          << expected;
    };

    mass_error("after placement");
    // March the window up the pressure gradient; each move exposes fresh
    // slabs (incremental) or re-seeds everything (reference path), and
    // none of it may kick the mass off the coarse field.
    for (int m = 0; m < 3; ++m) {
      const Vec3 target = sim.window().center() + Vec3{0.0, 0.0, p.dx_coarse};
      if (incremental) {
        sim.relocate_window(target);
      } else {
        sim.place_window(target);
      }
      EXPECT_EQ(sim.last_relocation().incremental, incremental);
      mass_error("after relocation");
    }
  }
}

TEST_F(WindowRelocationTest, CtcTrajectoryInvariantToRelocationPath) {
  // The incremental shift must reproduce the physics of the full rebuild:
  // two copies of one developed state, one window moved by
  // relocate_window (shift), the other re-placed by place_window
  // (rebuild), must carry the CTC along trajectories that deviate by at
  // most a small fraction of the coarse spacing. (Exact equality is not
  // expected -- the rebuild discards the developed fine flow and re-seeds
  // the whole window from the coarse field, while the shift keeps it; the
  // coupling layer drives both to the same solution.)
  AprParams p = tiny_params();
  p.window.target_hematocrit = 0.0;  // CTC only: no RBC noise
  p.move.trigger_distance = 2.0e-6;
  const auto make = [&] {
    return std::make_unique<AprSimulation>(tube_domain(), tiny_rbc(),
                                           tiny_ctc(), p);
  };
  auto developed = make();
  developed->initialize_flow(Vec3{});
  developed->coarse().set_periodic(false, false, true);
  developed->set_body_force_density(Vec3{0.0, 0.0, 1e7});
  for (int s = 0; s < 300; ++s) developed->coarse().step();
  developed->place_window(Vec3{});
  developed->place_ctc(Vec3{});
  developed->run(5);
  const io::Checkpoint snapshot = developed->make_checkpoint();

  auto shifted = make();
  auto rebuilt = make();
  shifted->load_checkpoint(snapshot);
  rebuilt->load_checkpoint(snapshot);
  const Vec3 target =
      developed->window().center() + Vec3{0.0, 0.0, p.dx_coarse};
  shifted->relocate_window(target);
  rebuilt->place_window(target);
  EXPECT_TRUE(shifted->last_relocation().incremental);
  EXPECT_FALSE(rebuilt->last_relocation().incremental);

  shifted->run(10);
  rebuilt->run(10);
  EXPECT_EQ(shifted->window_move_count(), rebuilt->window_move_count());
  const std::vector<Vec3>& traj_inc = shifted->ctc_trajectory();
  const std::vector<Vec3>& traj_full = rebuilt->ctc_trajectory();
  ASSERT_EQ(traj_full.size(), traj_inc.size());
  const double dxc = p.dx_coarse;
  double max_dev = 0.0;
  for (std::size_t i = 0; i < traj_full.size(); ++i) {
    max_dev = std::max(max_dev, norm(traj_full[i] - traj_inc[i]));
  }
  EXPECT_LT(max_dev, 0.05 * dxc) << "max_dev = " << max_dev;
}

}  // namespace
}  // namespace apr::core
