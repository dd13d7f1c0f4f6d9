#include "src/ibm/coupling.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <span>
#include <vector>

#include "src/common/rng.hpp"
#include "src/exec/exec.hpp"
#include "src/lbm/boundary.hpp"

namespace apr::ibm {
namespace {

lbm::Lattice linear_velocity_lattice() {
  lbm::Lattice lat(10, 10, 10, Vec3{}, 0.5, 1.0);
  for (int z = 0; z < 10; ++z) {
    for (int y = 0; y < 10; ++y) {
      for (int x = 0; x < 10; ++x) {
        const Vec3 p = lat.position(x, y, z);
        lat.mutable_velocity(lat.idx(x, y, z)) =
            Vec3{0.01 + 0.02 * p.x, 0.03 * p.y, -0.01 * p.z};
      }
    }
  }
  return lat;
}

TEST(IbmInterpolation, ReproducesLinearFieldExactlyWithPeskin3) {
  // The 3-point kernel satisfies the first-moment condition exactly, so
  // linear velocity fields interpolate exactly (away from the edge).
  const lbm::Lattice lat = linear_velocity_lattice();
  Rng rng(5);
  std::vector<Vec3> pos;
  for (int i = 0; i < 50; ++i) {
    pos.push_back(rng.point_in_box({1.0, 1.0, 1.0}, {3.5, 3.5, 3.5}));
  }
  std::vector<Vec3> vel;
  interpolate_velocities(lat, pos, vel, DeltaKernel::Peskin3);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    EXPECT_NEAR(vel[i].x, 0.01 + 0.02 * pos[i].x, 1e-10);
    EXPECT_NEAR(vel[i].y, 0.03 * pos[i].y, 1e-10);
    EXPECT_NEAR(vel[i].z, -0.01 * pos[i].z, 1e-10);
  }
}

TEST(IbmInterpolation, Cosine4LinearFieldErrorIsBounded) {
  // The cosine kernel's residual first moment bounds the linear-field
  // interpolation error at ~2% of the local gradient per spacing.
  const lbm::Lattice lat = linear_velocity_lattice();
  Rng rng(6);
  std::vector<Vec3> pos;
  for (int i = 0; i < 50; ++i) {
    pos.push_back(rng.point_in_box({1.0, 1.0, 1.0}, {3.5, 3.5, 3.5}));
  }
  std::vector<Vec3> vel;
  interpolate_velocities(lat, pos, vel, DeltaKernel::Cosine4);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    // gradient 0.02/m * dx 0.5 m * m1 bound 0.025 ~ 2.5e-4.
    EXPECT_NEAR(vel[i].x, 0.01 + 0.02 * pos[i].x, 5e-4);
    EXPECT_NEAR(vel[i].y, 0.03 * pos[i].y, 7e-4);
  }
}

TEST(IbmInterpolation, ConstantFieldAtAnyPosition) {
  lbm::Lattice lat(8, 8, 8, Vec3{-1.0, -1.0, -1.0}, 0.25, 1.0);
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    lat.mutable_velocity(i) = Vec3{0.07, -0.02, 0.01};
  }
  std::vector<Vec3> pos{{-0.3, -0.4, -0.5}, {0.1, 0.2, 0.0}};
  std::vector<Vec3> vel;
  interpolate_velocities(lat, pos, vel);
  for (const auto& v : vel) {
    EXPECT_NEAR(v.x, 0.07, 1e-12);
    EXPECT_NEAR(v.y, -0.02, 1e-12);
    EXPECT_NEAR(v.z, 0.01, 1e-12);
  }
}

TEST(IbmSpreading, ConservesTotalForce) {
  lbm::Lattice lat(12, 12, 12, Vec3{}, 1.0, 1.0);
  Rng rng(7);
  std::vector<Vec3> pos;
  std::vector<Vec3> forces;
  Vec3 total{};
  for (int i = 0; i < 30; ++i) {
    pos.push_back(rng.point_in_box({3, 3, 3}, {8, 8, 8}));
    forces.push_back(rng.unit_vector() * rng.uniform(0.1, 1.0));
    total += forces.back();
  }
  spread_forces(lat, pos, forces);
  Vec3 spread_total{};
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    spread_total += lat.force(i);
  }
  EXPECT_NEAR(spread_total.x, total.x, 1e-10);
  EXPECT_NEAR(spread_total.y, total.y, 1e-10);
  EXPECT_NEAR(spread_total.z, total.z, 1e-10);
}

TEST(IbmSpreading, LocalizedWithinKernelSupport) {
  lbm::Lattice lat(12, 12, 12, Vec3{}, 1.0, 1.0);
  const std::vector<Vec3> pos{{6.0, 6.0, 6.0}};
  const std::vector<Vec3> forces{{1.0, 0.0, 0.0}};
  spread_forces(lat, pos, forces);
  for (int z = 0; z < 12; ++z) {
    for (int y = 0; y < 12; ++y) {
      for (int x = 0; x < 12; ++x) {
        const double f = norm(lat.force(lat.idx(x, y, z)));
        const double d = std::max(
            {std::abs(x - 6.0), std::abs(y - 6.0), std::abs(z - 6.0)});
        if (d >= 2.0) {
          EXPECT_EQ(f, 0.0) << x << "," << y << "," << z;
        }
      }
    }
  }
}

TEST(IbmSpreading, SkipsWallAndExteriorNodes) {
  lbm::Lattice lat(8, 8, 8, Vec3{}, 1.0, 1.0);
  lbm::mark_box_walls(lat);
  const std::vector<Vec3> pos{{1.2, 4.0, 4.0}};  // near the x-min wall
  const std::vector<Vec3> forces{{1.0, 0.0, 0.0}};
  spread_forces(lat, pos, forces);
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    if (lat.type(i) != lbm::NodeType::Fluid) {
      EXPECT_EQ(norm(lat.force(i)), 0.0);
    }
  }
}

/// Large random vertex cloud (above the parallel-spread threshold) for the
/// determinism tests. Forces are O(1) with mixed signs so cancellation
/// would expose any ordering bug.
void make_spread_workload(std::vector<Vec3>& pos, std::vector<Vec3>& forces) {
  Rng rng(91);
  pos.clear();
  forces.clear();
  for (int i = 0; i < 2000; ++i) {
    pos.push_back(rng.point_in_box({2, 2, 2}, {14, 14, 14}));
    forces.push_back(rng.unit_vector() * rng.uniform(-1.0, 1.0));
  }
}

TEST(IbmSpreading, ParallelMatchesSerialReferenceAtOneWorker) {
  // With one worker the parallel path must reproduce the serial scatter
  // bit-for-bit: chunks run in ascending order and per-node sums see the
  // vertices in the same sequence.
  std::vector<Vec3> pos, forces;
  make_spread_workload(pos, forces);

  lbm::Lattice ref(16, 16, 16, Vec3{}, 1.0, 1.0);
  spread_forces_serial(ref, pos, forces);

  const int saved = exec::num_workers();
  exec::set_num_workers(1);
  lbm::Lattice lat(16, 16, 16, Vec3{}, 1.0, 1.0);
  spread_forces(lat, pos, forces);
  exec::set_num_workers(saved);

  for (std::size_t i = 0; i < ref.num_nodes(); ++i) {
    const Vec3 a = ref.force(i);
    const Vec3 b = lat.force(i);
    ASSERT_EQ(a.x, b.x) << "node " << i;
    ASSERT_EQ(a.y, b.y) << "node " << i;
    ASSERT_EQ(a.z, b.z) << "node " << i;
  }
}

TEST(IbmSpreading, ParallelIsDeterministicAndNearSerialAcrossWorkerCounts) {
  std::vector<Vec3> pos, forces;
  make_spread_workload(pos, forces);

  lbm::Lattice ref(16, 16, 16, Vec3{}, 1.0, 1.0);
  spread_forces_serial(ref, pos, forces);
  double fmax = 0.0;
  for (std::size_t i = 0; i < ref.num_nodes(); ++i) {
    fmax = std::max(fmax, norm(ref.force(i)));
  }
  ASSERT_GT(fmax, 0.0);

  const int saved = exec::num_workers();
  for (int workers : {2, 4}) {
    exec::set_num_workers(workers);
    lbm::Lattice a(16, 16, 16, Vec3{}, 1.0, 1.0);
    spread_forces(a, pos, forces);
    lbm::Lattice b(16, 16, 16, Vec3{}, 1.0, 1.0);
    spread_forces(b, pos, forces);
    for (std::size_t i = 0; i < ref.num_nodes(); ++i) {
      // Same worker count twice: bit-for-bit reproducible.
      ASSERT_EQ(a.force(i).x, b.force(i).x) << "node " << i;
      ASSERT_EQ(a.force(i).y, b.force(i).y) << "node " << i;
      ASSERT_EQ(a.force(i).z, b.force(i).z) << "node " << i;
      // Against the serial reference: only summation order differs, so
      // the deviation stays at rounding level (<= 1e-14 relative).
      EXPECT_NEAR(a.force(i).x, ref.force(i).x, 1e-14 * fmax);
      EXPECT_NEAR(a.force(i).y, ref.force(i).y, 1e-14 * fmax);
      EXPECT_NEAR(a.force(i).z, ref.force(i).z, 1e-14 * fmax);
    }
  }
  exec::set_num_workers(saved);
}

/// A 40 x 30 x 20 lattice: 3 x 2 x 2 tiles, one of them vacant (released
/// after its nodes are typed Exterior), a Wall slab crossing a tile face
/// and an Exterior pocket inside a resident tile. Every resident node
/// gets a distinct velocity.
lbm::Lattice multi_tile_lattice() {
  lbm::Lattice lat(40, 30, 20, Vec3{-0.3, 0.2, 0.1}, 0.5, 1.0);
  for (int z = 0; z < lat.nz(); ++z) {
    for (int y = 0; y < lat.ny(); ++y) {
      for (int x = 0; x < lat.nx(); ++x) {
        if (x >= 32 && y >= 16 && z >= 16) {
          lat.set_type(x, y, z, lbm::NodeType::Exterior);  // vacant tile
        } else if (y == 14 && x >= 10 && x < 30) {
          lat.set_type(x, y, z, lbm::NodeType::Wall);
        } else if (x < 4 && y < 4) {
          lat.set_type(x, y, z, lbm::NodeType::Exterior);
        }
      }
    }
  }
  lat.shrink_to_fit();
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    if (!lat.node_resident(i)) continue;
    const double t = static_cast<double>(i);
    lat.set_velocity(i, Vec3{std::sin(t), std::cos(0.7 * t), 0.01 * t});
  }
  return lat;
}

/// Vertices straddling the interior tile faces (16, 32) and the lattice
/// edges, in physical coordinates of `lat`.
void make_tile_crossing_workload(const lbm::Lattice& lat,
                                 std::vector<Vec3>& pos,
                                 std::vector<Vec3>& forces) {
  Rng rng(17);
  const int n[3] = {lat.nx(), lat.ny(), lat.nz()};
  const auto coord = [&](int axis) {
    const double faces[4] = {0.0, 16.0, 32.0, n[axis] - 1.0};
    if (rng.uniform(0.0, 1.0) < 0.6) {
      const double f = faces[static_cast<int>(rng.uniform(0.0, 4.0)) % 4];
      return f + rng.uniform(-2.5, 2.5);
    }
    return rng.uniform(-2.0, n[axis] + 1.0);
  };
  pos.clear();
  forces.clear();
  for (int i = 0; i < 3000; ++i) {
    const Vec3 lc{coord(0), coord(1), coord(2)};
    pos.push_back(lat.origin() + lc * lat.dx());
    forces.push_back(rng.unit_vector() * rng.uniform(-1.0, 1.0));
  }
}

/// Dense-index reference loops: the (kz, ky, kx) order the kernels must
/// keep, with every node addressed through idx().
template <class Fn>
void dense_stencil(const lbm::Lattice& lat, const Vec3& p, Fn&& fn) {
  const Vec3 lc = lat.to_lattice(p);
  int f[3];
  std::array<double, 4> w[3];
  int cnt[3];
  for (int a = 0; a < 3; ++a) {
    cnt[a] = delta_weights(DeltaKernel::Cosine4, lc[a], &f[a], w[a]);
  }
  for (int kz = 0; kz < cnt[2]; ++kz) {
    const int z = f[2] + kz;
    if (z < 0 || z >= lat.nz()) continue;
    for (int ky = 0; ky < cnt[1]; ++ky) {
      const int y = f[1] + ky;
      if (y < 0 || y >= lat.ny()) continue;
      const double wyz = w[1][ky] * w[2][kz];
      for (int kx = 0; kx < cnt[0]; ++kx) {
        const int x = f[0] + kx;
        if (x < 0 || x >= lat.nx()) continue;
        fn(lat.idx(x, y, z), w[0][kx] * wyz);
      }
    }
  }
}

void expect_forces_identical(const lbm::Lattice& a, const lbm::Lattice& b) {
  for (std::size_t i = 0; i < a.num_nodes(); ++i) {
    ASSERT_EQ(a.force(i).x, b.force(i).x) << "node " << i;
    ASSERT_EQ(a.force(i).y, b.force(i).y) << "node " << i;
    ASSERT_EQ(a.force(i).z, b.force(i).z) << "node " << i;
  }
}

TEST(IbmMultiTile, StencilsMatchDenseReferenceAcrossTileFaces) {
  const lbm::Lattice lat = multi_tile_lattice();
  ASSERT_EQ(lat.max_tiles(), 12u);
  ASSERT_EQ(lat.num_tiles(), 11u);
  std::vector<Vec3> pos, forces;
  make_tile_crossing_workload(lat, pos, forces);

  // Interpolation, bit for bit.
  std::vector<Vec3> vel;
  interpolate_velocities(lat, pos, vel);
  for (std::size_t v = 0; v < pos.size(); ++v) {
    Vec3 u{};
    dense_stencil(lat, pos[v], [&](std::size_t i, double w) {
      u += lat.velocity(i) * w;
    });
    ASSERT_EQ(vel[v].x, u.x) << "vertex " << v;
    ASSERT_EQ(vel[v].y, u.y) << "vertex " << v;
    ASSERT_EQ(vel[v].z, u.z) << "vertex " << v;
  }

  // Spreading: the serial kernel agrees bit for bit with the dense
  // reference.
  const auto receives = [](const lbm::Lattice& l, std::size_t i) {
    return l.type(i) != lbm::NodeType::Exterior &&
           l.type(i) != lbm::NodeType::Wall;
  };
  lbm::Lattice ref = multi_tile_lattice();
  for (std::size_t v = 0; v < pos.size(); ++v) {
    dense_stencil(ref, pos[v], [&](std::size_t i, double w) {
      if (receives(ref, i)) ref.add_force(i, forces[v] * w);
    });
  }
  double fmax = 0.0;
  for (std::size_t i = 0; i < ref.num_nodes(); ++i) {
    fmax = std::max(fmax, norm(ref.force(i)));
  }
  ASSERT_GT(fmax, 0.0);

  lbm::Lattice serial = multi_tile_lattice();
  spread_forces_serial(serial, pos, forces);
  expect_forces_identical(serial, ref);

  // The parallel kernel at three workers agrees bit for bit with a dense
  // reference summed in its order: each worker accumulates the vertices
  // of the chunks parallel_for_chunks hands it into its own field, and
  // each node adds the fields in ascending worker order.
  const int saved = exec::num_workers();
  exec::set_num_workers(3);
  std::vector<int> owner(pos.size(), -1);
  exec::parallel_for_chunks(pos.size(),
                            [&](std::size_t b, std::size_t e, int worker) {
                              for (std::size_t v = b; v < e; ++v) {
                                owner[v] = worker;
                              }
                            });
  std::vector<std::vector<Vec3>> fields(
      3, std::vector<Vec3>(ref.num_nodes(), Vec3{}));
  for (std::size_t v = 0; v < pos.size(); ++v) {
    ASSERT_GE(owner[v], 0);
    ASSERT_LT(owner[v], 3);
    auto& field = fields[static_cast<std::size_t>(owner[v])];
    dense_stencil(ref, pos[v], [&](std::size_t i, double w) {
      if (receives(ref, i)) field[i] += forces[v] * w;
    });
  }
  lbm::Lattice worker_ref = multi_tile_lattice();
  for (std::size_t i = 0; i < worker_ref.num_nodes(); ++i) {
    Vec3 sum{};
    for (const auto& field : fields) sum += field[i];
    if (receives(worker_ref, i)) worker_ref.add_force(i, sum);
  }

  lbm::Lattice a = multi_tile_lattice();
  spread_forces(a, pos, forces);
  lbm::Lattice b = multi_tile_lattice();
  spread_forces(b, pos, forces);
  exec::set_num_workers(saved);
  expect_forces_identical(a, worker_ref);
  expect_forces_identical(a, b);
  // Against the serial order only the summation order differs.
  for (std::size_t i = 0; i < ref.num_nodes(); ++i) {
    EXPECT_NEAR(a.force(i).x, ref.force(i).x, 1e-14 * fmax);
    EXPECT_NEAR(a.force(i).y, ref.force(i).y, 1e-14 * fmax);
    EXPECT_NEAR(a.force(i).z, ref.force(i).z, 1e-14 * fmax);
  }
  // No force lands on solid or vacant nodes.
  for (std::size_t i = 0; i < a.num_nodes(); ++i) {
    if (a.type(i) == lbm::NodeType::Fluid) continue;
    EXPECT_EQ(norm(a.force(i)), 0.0) << "node " << i;
  }
}

/// Dense-index reference spread of `forces` at `pos` in vertex order,
/// summed into per-worker fields by the chunks parallel_for_chunks hands
/// each worker at the current worker count and merged in ascending worker
/// order: the summation order of the parallel kernel (a single worker
/// gives the serial order).
void dense_spread_by_worker(lbm::Lattice& lat, const std::vector<Vec3>& pos,
                            const std::vector<Vec3>& forces) {
  const auto nw = static_cast<std::size_t>(exec::num_workers());
  std::vector<int> owner(pos.size(), -1);
  exec::parallel_for_chunks(pos.size(),
                            [&](std::size_t b, std::size_t e, int worker) {
                              for (std::size_t v = b; v < e; ++v) {
                                owner[v] = worker;
                              }
                            });
  const auto receives = [&](std::size_t i) {
    return lat.type(i) != lbm::NodeType::Exterior &&
           lat.type(i) != lbm::NodeType::Wall;
  };
  std::vector<std::vector<Vec3>> fields(
      nw, std::vector<Vec3>(lat.num_nodes(), Vec3{}));
  for (std::size_t v = 0; v < pos.size(); ++v) {
    auto& field = fields[static_cast<std::size_t>(owner[v])];
    dense_stencil(lat, pos[v], [&](std::size_t i, double w) {
      if (receives(i)) field[i] += forces[v] * w;
    });
  }
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    if (!receives(i)) continue;
    Vec3 sum{};
    for (const auto& field : fields) sum += field[i];
    lat.add_force(i, sum);
  }
}

TEST(IbmStencilRecord, EntriesAreTheDeltaWeightsAtEachPosition) {
  const lbm::Lattice lat = multi_tile_lattice();
  std::vector<Vec3> pos, forces;
  make_tile_crossing_workload(lat, pos, forces);
  StencilRecord rec;
  const std::span<const Vec3> x(pos);
  rec.build(lat, {&x, 1}, DeltaKernel::Cosine4);
  ASSERT_EQ(rec.size(), pos.size());
  ASSERT_TRUE(rec.matches(lat, {&x, 1}, DeltaKernel::Cosine4));
  for (std::size_t v = 0; v < pos.size(); ++v) {
    const Stencil& s = rec[v];
    const Vec3 lc = lat.to_lattice(pos[v]);
    for (int a = 0; a < 3; ++a) {
      int first = 0;
      std::array<double, 4> w{};
      const int n = delta_weights(DeltaKernel::Cosine4, lc[a], &first, w);
      ASSERT_EQ(s.count[a], n) << "vertex " << v << " axis " << a;
      ASSERT_EQ(s.first[a], first) << "vertex " << v << " axis " << a;
      for (int j = 0; j < n; ++j) ASSERT_EQ(s.w[a][j], w[j]);
    }
  }
}

TEST(IbmStencilRecord, MatchesOnlyTheLatticeKernelAndPositionsItWasBuiltFor) {
  const lbm::Lattice lat(12, 12, 12, Vec3{-1.0, 0.5, 0.0}, 0.5, 1.0);
  Rng rng(23);
  std::vector<Vec3> pos;
  for (int i = 0; i < 40; ++i) {
    pos.push_back(rng.point_in_box({-0.5, 1.0, 0.5}, {4.0, 5.0, 5.0}));
  }
  const std::span<const Vec3> all(pos);
  const Blocks<const Vec3> blocks{&all, 1};
  StencilRecord rec;
  EXPECT_FALSE(rec.matches(lat, blocks, DeltaKernel::Cosine4));
  rec.build(lat, blocks, DeltaKernel::Cosine4);
  EXPECT_TRUE(rec.matches(lat, blocks, DeltaKernel::Cosine4));

  // The same positions split over two blocks are the same vertex set.
  const std::span<const Vec3> halves[2] = {all.first(17), all.subspan(17)};
  EXPECT_TRUE(rec.matches(lat, halves, DeltaKernel::Cosine4));

  EXPECT_FALSE(rec.matches(lat, blocks, DeltaKernel::Peskin3));
  lbm::Lattice moved = lat;
  moved.set_origin(lat.origin() + Vec3{0.0, 0.0, 0.25});
  EXPECT_FALSE(rec.matches(moved, blocks, DeltaKernel::Cosine4));
  const lbm::Lattice finer(12, 12, 12, lat.origin(), 0.25, 1.0);
  EXPECT_FALSE(rec.matches(finer, blocks, DeltaKernel::Cosine4));
  const std::span<const Vec3> fewer = all.first(39);
  EXPECT_FALSE(rec.matches(lat, {&fewer, 1}, DeltaKernel::Cosine4));
  std::vector<Vec3> more = pos;
  more.push_back(pos.front());
  const std::span<const Vec3> more_span(more);
  EXPECT_FALSE(rec.matches(lat, {&more_span, 1}, DeltaKernel::Cosine4));
  std::vector<Vec3> nudged = pos;
  nudged[29].y = std::nextafter(nudged[29].y, 10.0);
  const std::span<const Vec3> nudged_span(nudged);
  EXPECT_FALSE(rec.matches(lat, {&nudged_span, 1}, DeltaKernel::Cosine4));
}

TEST(IbmStencilRecord, OneRecordServesSpreadAndInterpolationBitForBit) {
  // One record feeds the scatter and the gather, as in an FSI sub-step,
  // over two blocks split off-chunk. Both must equal the dense-index
  // references at one and at three workers.
  const lbm::Lattice lat = multi_tile_lattice();
  std::vector<Vec3> pos, forces;
  make_tile_crossing_workload(lat, pos, forces);
  const std::size_t split = 1237;
  const std::span<const Vec3> x[2] = {std::span<const Vec3>(pos).first(split),
                                      std::span<const Vec3>(pos).subspan(split)};
  const std::span<const Vec3> f[2] = {
      std::span<const Vec3>(forces).first(split),
      std::span<const Vec3>(forces).subspan(split)};

  const int saved = exec::num_workers();
  for (const int workers : {1, 3}) {
    exec::set_num_workers(workers);
    StencilRecord rec;
    rec.build(lat, x, DeltaKernel::Cosine4);

    std::vector<Vec3> vel(pos.size());
    const std::span<Vec3> u[2] = {std::span<Vec3>(vel).first(split),
                                  std::span<Vec3>(vel).subspan(split)};
    interpolate_velocities(lat, rec, u);
    for (std::size_t v = 0; v < pos.size(); ++v) {
      Vec3 ref{};
      dense_stencil(lat, pos[v], [&](std::size_t i, double w) {
        ref += lat.velocity(i) * w;
      });
      ASSERT_EQ(vel[v].x, ref.x) << workers << " workers, vertex " << v;
      ASSERT_EQ(vel[v].y, ref.y) << workers << " workers, vertex " << v;
      ASSERT_EQ(vel[v].z, ref.z) << workers << " workers, vertex " << v;
    }

    lbm::Lattice ref = multi_tile_lattice();
    dense_spread_by_worker(ref, pos, forces);
    lbm::Lattice spread = multi_tile_lattice();
    spread_forces(spread, rec, f);
    expect_forces_identical(spread, ref);

    lbm::Lattice serial_ref = multi_tile_lattice();
    {
      exec::set_num_workers(1);
      dense_spread_by_worker(serial_ref, pos, forces);
      exec::set_num_workers(workers);
    }
    lbm::Lattice serial = multi_tile_lattice();
    spread_forces_serial(serial, rec, f);
    expect_forces_identical(serial, serial_ref);
  }
  exec::set_num_workers(saved);
}

TEST(IbmStencilRecord, ScaleMultipliesEachForceBeforeItsWeights) {
  // spread_forces(..., scale) equals spreading the pre-scaled forces.
  const lbm::Lattice base = multi_tile_lattice();
  std::vector<Vec3> pos, forces;
  make_tile_crossing_workload(base, pos, forces);
  const double scale = 3.7e-3;
  std::vector<Vec3> scaled;
  for (const Vec3& g : forces) scaled.push_back(g * scale);
  StencilRecord rec;
  const std::span<const Vec3> x(pos);
  rec.build(base, {&x, 1}, DeltaKernel::Cosine4);
  const std::span<const Vec3> f(forces);
  const std::span<const Vec3> fs(scaled);
  lbm::Lattice a = multi_tile_lattice();
  spread_forces(a, rec, {&f, 1}, scale);
  lbm::Lattice b = multi_tile_lattice();
  spread_forces(b, rec, {&fs, 1});
  expect_forces_identical(a, b);
}

TEST(IbmKernelWeightSum, UnityInInteriorBelowOneAtEdge) {
  lbm::Lattice lat(8, 8, 8, Vec3{}, 1.0, 1.0);
  EXPECT_NEAR(kernel_weight_sum(lat, {4.0, 4.0, 4.0}), 1.0, 1e-12);
  EXPECT_NEAR(kernel_weight_sum(lat, {3.7, 4.2, 4.9}), 1.0, 1e-12);
  EXPECT_LT(kernel_weight_sum(lat, {0.0, 4.0, 4.0}), 1.0);
}

TEST(IbmRoundTrip, SpreadThenInterpolateRecoversStokeslet) {
  // Spread a force, run a few LBM steps, interpolate velocity at the
  // force location: must point along the force (a discrete Stokeslet).
  lbm::Lattice lat(16, 16, 16, Vec3{}, 1.0, 1.0);
  lbm::mark_box_walls(lat);
  lat.init_equilibrium(1.0, Vec3{});
  const std::vector<Vec3> pos{{8.0, 8.0, 8.0}};
  const std::vector<Vec3> force{{1e-3, 0.0, 0.0}};
  for (int s = 0; s < 20; ++s) {
    lat.clear_forces();
    spread_forces(lat, pos, force);
    lat.step();
  }
  std::vector<Vec3> vel;
  interpolate_velocities(lat, pos, vel);
  EXPECT_GT(vel[0].x, 0.0);
  EXPECT_NEAR(vel[0].y, 0.0, 1e-6);
  EXPECT_NEAR(vel[0].z, 0.0, 1e-6);
}

}  // namespace
}  // namespace apr::ibm
