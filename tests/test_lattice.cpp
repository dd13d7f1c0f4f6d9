#include "src/lbm/lattice.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "src/lbm/boundary.hpp"
#include "src/lbm/d3q19.hpp"
#include "src/lbm/solver.hpp"

namespace apr::lbm {
namespace {

// Post-collision populations of node i, written from the operator
// definitions in d3q19.hpp rather than through the lattice's kernels.
std::array<double, kQ> classic_collide(const Lattice& lat, std::size_t i) {
  std::array<double, kQ> f;
  double rho = 0.0;
  Vec3 mom{};
  for (int q = 0; q < kQ; ++q) {
    f[q] = lat.f(q, i);
    rho += f[q];
    mom.x += kC[q][0] * f[q];
    mom.y += kC[q][1] * f[q];
    mom.z += kC[q][2] * f[q];
  }
  const Vec3 force = lat.force(i);
  const Vec3 u = (mom + force * 0.5) / rho;
  std::array<double, kQ> feq;
  equilibria(rho, u, feq);
  const double tau = lat.tau(i);
  const double omega = 1.0 / tau;
  std::array<double, kQ> src;
  for (int q = 0; q < kQ; ++q) src[q] = guo_source_raw(q, u, force);

  std::array<double, kQ> post;
  switch (lat.collision_model()) {
    case CollisionModel::Bgk:
      for (int q = 0; q < kQ; ++q) {
        post[q] = f[q] - omega * (f[q] - feq[q]) +
                  guo_source(q, tau, u, force);
      }
      break;
    case CollisionModel::Trt: {
      const double omega_m = 1.0 / (lat.trt_magic() / (tau - 0.5) + 0.5);
      for (int q = 0; q < kQ; ++q) {
        const int qb = kOpp[q];
        const double neq_p = 0.5 * ((f[q] - feq[q]) + (f[qb] - feq[qb]));
        const double neq_m = 0.5 * ((f[q] - feq[q]) - (f[qb] - feq[qb]));
        post[q] = f[q] - omega * neq_p - omega_m * neq_m +
                  (1.0 - 0.5 * omega) * 0.5 * (src[q] + src[qb]) +
                  (1.0 - 0.5 * omega_m) * 0.5 * (src[q] - src[qb]);
      }
      break;
    }
    case CollisionModel::Mrt: {
      const MrtBasis& basis = mrt_basis();
      std::array<double, kQ> dm;
      for (int k = 0; k < kQ; ++k) {
        double m = 0.0;
        double meq = 0.0;
        double ms = 0.0;
        for (int q = 0; q < kQ; ++q) {
          m += basis.m[k][q] * f[q];
          meq += basis.m[k][q] * feq[q];
          ms += basis.m[k][q] * src[q];
        }
        const double s = kMrtViscous[k] ? omega : kMrtRates[k];
        dm[k] = s * (m - meq) - (1.0 - 0.5 * s) * ms;
      }
      for (int q = 0; q < kQ; ++q) {
        double acc = 0.0;
        for (int k = 0; k < kQ; ++k) acc += basis.minv[q][k] * dm[k];
        post[q] = f[q] - acc;
      }
      break;
    }
  }
  return post;
}

// The classic two-pass LBM step the fused push kernel replaces: collide
// every Fluid node, pull-stream with halfway bounce-back (moving-wall
// momentum from the wall node's prescribed velocity; the domain edge is
// a resting wall), then re-impose the Dirichlet nodes.
void classic_step(Lattice& lat) {
  const std::size_t n = lat.num_nodes();
  std::vector<std::array<double, kQ>> post(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (lat.type(i) == NodeType::Fluid) {
      post[i] = classic_collide(lat, i);
    } else {
      for (int q = 0; q < kQ; ++q) post[i][q] = lat.f(q, i);
    }
  }
  const int nx = lat.nx();
  const int ny = lat.ny();
  const int nz = lat.nz();
  for (int z = 0; z < nz; ++z) {
    for (int y = 0; y < ny; ++y) {
      for (int x = 0; x < nx; ++x) {
        const std::size_t a = lat.idx(x, y, z);
        const NodeType t = lat.type(a);
        if (t == NodeType::Exterior) continue;
        for (int q = 0; q < kQ; ++q) {
          double v = post[a][q];
          if (t == NodeType::Fluid) {
            int sx = x - kC[q][0];
            int sy = y - kC[q][1];
            int sz = z - kC[q][2];
            if (lat.periodic(0)) sx = (sx + nx) % nx;
            if (lat.periodic(1)) sy = (sy + ny) % ny;
            if (lat.periodic(2)) sz = (sz + nz) % nz;
            Vec3 uw{};
            bool bounce = true;
            if (lat.in_domain(sx, sy, sz)) {
              const std::size_t sa = lat.idx(sx, sy, sz);
              const NodeType st = lat.type(sa);
              if (is_stream_source(st)) {
                bounce = false;
                v = post[sa][q];
              } else if (st == NodeType::Wall) {
                uw = lat.boundary_velocity(sa);
              }
            }
            if (bounce) {
              const double cu =
                  kC[q][0] * uw.x + kC[q][1] * uw.y + kC[q][2] * uw.z;
              v = post[a][kOpp[q]] + 6.0 * kW[q] * cu;
            }
          }
          lat.set_f(q, a, v);
        }
      }
    }
  }
  apply_dirichlet(lat);
}

// Largest population difference over the nodes a step updates.
double max_population_diff(const Lattice& a, const Lattice& b) {
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.num_nodes(); ++i) {
    if (a.type(i) == NodeType::Exterior || a.type(i) == NodeType::Wall) {
      continue;
    }
    for (int q = 0; q < kQ; ++q) {
      max_diff = std::max(max_diff, std::abs(a.f(q, i) - b.f(q, i)));
    }
  }
  return max_diff;
}

TEST(Lattice, ConstructionValidation) {
  EXPECT_THROW(Lattice(0, 4, 4, Vec3{}, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Lattice(4, 4, 4, Vec3{}, -1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Lattice(4, 4, 4, Vec3{}, 1.0, 0.5), std::invalid_argument);
  const Lattice lat(3, 4, 5, Vec3{1.0, 2.0, 3.0}, 0.5, 1.0);
  EXPECT_EQ(lat.num_nodes(), 60u);
  EXPECT_EQ(lat.nx(), 3);
  EXPECT_EQ(lat.ny(), 4);
  EXPECT_EQ(lat.nz(), 5);
}

TEST(Lattice, IndexingAndPositions) {
  const Lattice lat(4, 5, 6, Vec3{1.0, 0.0, -1.0}, 0.25, 1.0);
  EXPECT_EQ(lat.idx(0, 0, 0), 0u);
  EXPECT_EQ(lat.idx(1, 0, 0), 1u);
  EXPECT_EQ(lat.idx(0, 1, 0), 4u);
  EXPECT_EQ(lat.idx(0, 0, 1), 20u);
  const Vec3 p = lat.position(2, 3, 4);
  EXPECT_DOUBLE_EQ(p.x, 1.5);
  EXPECT_DOUBLE_EQ(p.y, 0.75);
  EXPECT_DOUBLE_EQ(p.z, 0.0);
  const Vec3 lc = lat.to_lattice(p);
  EXPECT_NEAR(lc.x, 2.0, 1e-12);
  EXPECT_NEAR(lc.y, 3.0, 1e-12);
  EXPECT_NEAR(lc.z, 4.0, 1e-12);
}

TEST(Lattice, EquilibriumInitSetsMacroscopics) {
  Lattice lat(6, 6, 6, Vec3{}, 1.0, 1.0);
  const Vec3 u{0.02, -0.01, 0.005};
  lat.init_equilibrium(1.05, u);
  lat.update_macroscopic();
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    EXPECT_NEAR(lat.rho(i), 1.05, 1e-13);
    EXPECT_NEAR(lat.velocity(i).x, u.x, 1e-13);
  }
}

TEST(Lattice, PeriodicUniformFlowIsInvariant) {
  Lattice lat(8, 8, 8, Vec3{}, 1.0, 0.8);
  lat.set_periodic(true, true, true);
  const Vec3 u{0.03, 0.01, -0.02};
  lat.init_equilibrium(1.0, u);
  for (int s = 0; s < 20; ++s) lat.step();
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    EXPECT_NEAR(lat.rho(i), 1.0, 1e-12);
    EXPECT_NEAR(lat.velocity(i).x, u.x, 1e-12);
    EXPECT_NEAR(lat.velocity(i).y, u.y, 1e-12);
    EXPECT_NEAR(lat.velocity(i).z, u.z, 1e-12);
  }
}

TEST(Lattice, MassConservedWithWalls) {
  Lattice lat(10, 10, 10, Vec3{}, 1.0, 1.0);
  mark_box_walls(lat);
  // A non-equilibrium initial condition (local perturbation).
  lat.init_equilibrium(1.0, Vec3{});
  const std::size_t c = lat.idx(5, 5, 5);
  lat.init_node_equilibrium(c, 1.1, Vec3{0.05, 0.0, 0.0});
  auto total_mass = [&] {
    double m = 0.0;
    for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
      if (lat.type(i) != NodeType::Fluid) continue;
      for (int q = 0; q < kQ; ++q) m += lat.f(q, i);
    }
    return m;
  };
  const double m0 = total_mass();
  for (int s = 0; s < 50; ++s) lat.step();
  EXPECT_NEAR(total_mass(), m0, 1e-9 * m0);
}

TEST(Lattice, BodyForceAcceleratesPeriodicFluid) {
  Lattice lat(6, 6, 6, Vec3{}, 1.0, 1.0);
  lat.set_periodic(true, true, true);
  lat.init_equilibrium(1.0, Vec3{});
  const Vec3 g{1e-5, 0.0, 0.0};
  lat.set_body_force(g);
  const int steps = 100;
  for (int s = 0; s < steps; ++s) lat.step();
  // du/dt = g/rho: after N steps u ~ N g (unbounded periodic acceleration).
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    EXPECT_NEAR(lat.velocity(i).x, steps * g.x, g.x);
    EXPECT_NEAR(lat.velocity(i).y, 0.0, 1e-12);
  }
}

TEST(Lattice, SiteUpdateCounting) {
  Lattice lat(5, 5, 5, Vec3{}, 1.0, 1.0);
  lat.init_equilibrium(1.0, Vec3{});
  EXPECT_EQ(lat.site_updates(), 0u);
  lat.step();
  EXPECT_EQ(lat.site_updates(), 125u);
  mark_box_walls(lat);
  lat.step();
  EXPECT_EQ(lat.site_updates(), 125u + 27u);  // only the 3^3 interior
}

TEST(Lattice, InterpolateVelocityIsTrilinear) {
  Lattice lat(4, 4, 4, Vec3{}, 0.5, 1.0);
  // Impose a linear velocity field u_x = a + b*x + c*y + d*z on the cache.
  for (int z = 0; z < 4; ++z) {
    for (int y = 0; y < 4; ++y) {
      for (int x = 0; x < 4; ++x) {
        const Vec3 p = lat.position(x, y, z);
        lat.mutable_velocity(lat.idx(x, y, z)) =
            Vec3{0.1 + 0.2 * p.x + 0.3 * p.y - 0.1 * p.z, 0.0, 0.0};
      }
    }
  }
  // Trilinear interpolation reproduces linear fields exactly.
  const Vec3 p{0.62, 0.81, 0.33};
  const Vec3 u = lat.interpolate_velocity(p);
  EXPECT_NEAR(u.x, 0.1 + 0.2 * p.x + 0.3 * p.y - 0.1 * p.z, 1e-12);
}

TEST(Lattice, DirichletNodesHoldTheirVelocity) {
  Lattice lat(8, 8, 8, Vec3{}, 1.0, 1.0);
  mark_box_walls(lat);
  const Vec3 u{0.04, 0.0, 0.0};
  mark_face_velocity(lat, Face::YMax, u);
  lat.init_equilibrium(1.0, Vec3{});
  for (int s = 0; s < 10; ++s) lat.step();
  for (int z = 0; z < 8; ++z) {
    for (int x = 0; x < 8; ++x) {
      const std::size_t i = lat.idx(x, 7, z);
      EXPECT_EQ(lat.type(i), NodeType::Velocity);
      EXPECT_NEAR(lat.velocity(i).x, u.x, 1e-14);
    }
  }
}

TEST(Lattice, FusedKernelMatchesClassicKernels) {
  // The fused push kernel must agree with collide+stream in a mixed
  // setting: resting walls, a moving lid, a Dirichlet face and a
  // periodic axis.
  auto build = [] {
    Lattice lat(10, 10, 10, Vec3{}, 1.0, 0.85);
    lat.set_periodic(false, false, true);
    mark_face_wall(lat, Face::XMin);
    mark_face_wall(lat, Face::XMax);
    mark_face_wall(lat, Face::YMax, Vec3{0.03, 0.0, 0.0});
    mark_face_velocity(lat, Face::YMin, Vec3{0.01, 0.0, 0.0});
    lat.init_equilibrium(1.0, Vec3{});
    // Local perturbation so non-equilibrium parts are exercised.
    lat.init_node_equilibrium(lat.idx(5, 5, 5), 1.05,
                              Vec3{0.02, -0.01, 0.04});
    lat.set_body_force(Vec3{1e-6, 0.0, 0.0});
    return lat;
  };
  Lattice fused = build();
  Lattice classic = build();
  for (int s = 0; s < 25; ++s) {
    fused.step();
    classic_step(classic);
  }
  EXPECT_LT(max_population_diff(fused, classic), 1e-14);
}

TEST(Lattice, StepNoMacroSkipsCacheRefresh) {
  Lattice lat(8, 8, 8, Vec3{}, 1.0, 1.0);
  lat.set_periodic(true, true, true);
  lat.init_equilibrium(1.0, Vec3{0.02, 0.0, 0.0});
  const Vec3 before = lat.velocity(lat.idx(4, 4, 4));
  lat.init_node_equilibrium(lat.idx(4, 4, 4), 1.1, Vec3{});
  lat.step_no_macro();
  // Cache untouched by step_no_macro (still the init value)...
  EXPECT_EQ(lat.velocity(lat.idx(4, 4, 4)).x, 0.0);
  lat.update_macroscopic();
  // ...and refreshed on demand.
  EXPECT_NE(lat.velocity(lat.idx(4, 4, 4)).x, before.x);
}

TEST(Lattice, FusedKernelMatchesClassicWithTrt) {
  // The fused kernel must agree with collide+stream under TRT as well.
  auto build = [] {
    Lattice lat(9, 9, 9, Vec3{}, 1.0, 1.1);
    lat.set_collision_model(CollisionModel::Trt, 3.0 / 16.0);
    mark_box_walls(lat);
    lat.init_equilibrium(1.0, Vec3{});
    lat.init_node_equilibrium(lat.idx(4, 4, 4), 1.03, Vec3{0.02, 0.01, 0.0});
    lat.set_body_force(Vec3{0.0, 2e-6, 0.0});
    return lat;
  };
  Lattice fused = build();
  Lattice classic = build();
  for (int s = 0; s < 20; ++s) {
    fused.step();
    classic_step(classic);
  }
  for (std::size_t i = 0; i < fused.num_nodes(); ++i) {
    if (fused.type(i) != NodeType::Fluid) continue;
    for (int q = 0; q < kQ; ++q) {
      ASSERT_NEAR(fused.f(q, i), classic.f(q, i), 1e-14);
    }
  }
}

TEST(Lattice, FusedKernelMatchesClassicWithMrt) {
  // And under MRT, with a moving lid, a Dirichlet inlet, a periodic axis
  // and a non-uniform tau field.
  auto build = [] {
    Lattice lat(9, 9, 9, Vec3{}, 1.0, 0.7);
    lat.set_collision_model(CollisionModel::Mrt);
    lat.set_periodic(true, false, false);
    mark_face_wall(lat, Face::YMin);
    mark_face_wall(lat, Face::YMax, Vec3{0.0, 0.0, 0.02});
    mark_face_wall(lat, Face::ZMax);
    mark_face_velocity(lat, Face::ZMin, Vec3{0.0, 0.0, 0.01});
    lat.init_equilibrium(1.0, Vec3{});
    lat.init_node_equilibrium(lat.idx(4, 4, 4), 1.04,
                              Vec3{-0.01, 0.02, 0.03});
    for (int x = 0; x < 9; ++x) lat.set_tau(lat.idx(x, 3, 5), 0.9);
    lat.set_body_force(Vec3{3e-6, 0.0, -1e-6});
    return lat;
  };
  Lattice fused = build();
  Lattice classic = build();
  for (int s = 0; s < 20; ++s) {
    fused.step();
    classic_step(classic);
  }
  EXPECT_LT(max_population_diff(fused, classic), 1e-14);
}

}  // namespace
}  // namespace apr::lbm
