/// \file test_sweep_plan.cpp
/// The cached-sweep-plan row-segment kernels vs the per-node scalar sweep.
/// The segmented path is an accelerator, not a discretization change, so
/// every test demands *bitwise* equality: two lattices stepped through
/// identical operations, one with the segmented kernels, one with the
/// scalar oracle, must agree in every byte of observable state -- for
/// BGK and TRT, with and without Guo forcing, across periodic wrap, and
/// after every operation that invalidates the plan (reclassification,
/// window shifts, tile materialize/release, checkpoint round-trips). The
/// oracle reads no node classification, so these tests also check the
/// plan's.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>

#include "src/exec/exec.hpp"
#include "src/geometry/voxelizer.hpp"
#include "src/io/checkpoint.hpp"
#include "src/lbm/lattice.hpp"

namespace apr::lbm {
namespace {

constexpr int kT = Lattice::kTileSide;  // 16

/// Deterministic, index-dependent distributions so a wrong source node or
/// direction in the segmented addressing cannot cancel out.
std::array<double, kQ> probe_f(std::size_t i) {
  std::array<double, kQ> f;
  for (int q = 0; q < kQ; ++q) {
    f[q] = 0.05 + 1e-3 * static_cast<double>((i * 7 + q * 13) % 101);
  }
  return f;
}

/// Carve an x-aligned square duct of Fluid wrapped in Wall, Exterior
/// elsewhere, and seed probe state. Covers several tiles per axis with
/// whole tiles left vacant (all-Exterior corners).
void make_duct(Lattice& lat, int half_width) {
  const int cy = lat.ny() / 2;
  const int cz = lat.nz() / 2;
  for (int z = 0; z < lat.nz(); ++z) {
    for (int y = 0; y < lat.ny(); ++y) {
      for (int x = 0; x < lat.nx(); ++x) {
        const int dy = std::abs(y - cy);
        const int dz = std::abs(z - cz);
        NodeType t = NodeType::Exterior;
        if (dy < half_width && dz < half_width) {
          t = NodeType::Fluid;
        } else if (dy <= half_width && dz <= half_width) {
          t = NodeType::Wall;
        }
        lat.set_type(x, y, z, t);
      }
    }
  }
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    if (lat.type(i) == NodeType::Fluid) lat.set_f_node(i, probe_f(i));
  }
  lat.update_macroscopic();
}

void expect_nodes_bitwise_equal(const Lattice& a, const Lattice& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (std::size_t i = 0; i < a.num_nodes(); ++i) {
    ASSERT_EQ(a.type(i), b.type(i)) << "node " << i;
    ASSERT_EQ(a.rho(i), b.rho(i)) << "node " << i;
    const Vec3 ua = a.velocity(i);
    const Vec3 ub = b.velocity(i);
    ASSERT_TRUE(ua.x == ub.x && ua.y == ub.y && ua.z == ub.z) << "node " << i;
    const auto fa = a.f_node(i);
    const auto fb = b.f_node(i);
    for (int q = 0; q < kQ; ++q) {
      ASSERT_EQ(fa[q], fb[q]) << "node " << i << " q " << q;
    }
  }
}

void expect_serialized_equal(const Lattice& a, const Lattice& b) {
  const auto ba = io::LatticeState::capture(a).serialize();
  const auto bb = io::LatticeState::capture(b).serialize();
  ASSERT_EQ(ba.size(), bb.size());
  EXPECT_EQ(std::memcmp(ba.data(), bb.data(), ba.size()), 0);
}

/// Segmented lattice + scalar-oracle twin with identical duct state.
struct Pair {
  Lattice seg;
  Lattice sca;

  Pair()
      : seg(3 * kT, 3 * kT, 3 * kT, Vec3{}, 1.0, 0.8),
        sca(3 * kT, 3 * kT, 3 * kT, Vec3{}, 1.0, 0.8) {
    seg.set_segmented_kernel(true);
    sca.set_segmented_kernel(false);
    for (Lattice* lat : {&seg, &sca}) {
      make_duct(*lat, 6);
      lat->shrink_to_fit();
      lat->set_periodic(true, false, false);
    }
  }

  void step(int n) {
    for (int s = 0; s < n; ++s) {
      seg.step();
      sca.step();
    }
  }

  void expect_equal() {
    expect_nodes_bitwise_equal(seg, sca);
    expect_serialized_equal(seg, sca);
  }
};

TEST(SweepPlan, BgkUnforcedBitwiseEqualsScalar) {
  Pair p;
  p.step(10);
  p.expect_equal();
  EXPECT_GT(p.seg.plan_rebuilds(), 0u);
  EXPECT_EQ(p.sca.plan_rebuilds(), 0u);
}

TEST(SweepPlan, BgkGuoForcedBitwiseEqualsScalar) {
  Pair p;
  p.seg.set_body_force(Vec3{1e-5, 2e-6, -3e-6});
  p.sca.set_body_force(Vec3{1e-5, 2e-6, -3e-6});
  p.step(10);
  p.expect_equal();
}

TEST(SweepPlan, TrtUnforcedBitwiseEqualsScalar) {
  Pair p;
  p.seg.set_collision_model(CollisionModel::Trt);
  p.sca.set_collision_model(CollisionModel::Trt);
  p.step(10);
  p.expect_equal();
}

TEST(SweepPlan, TrtGuoForcedBitwiseEqualsScalar) {
  Pair p;
  p.seg.set_collision_model(CollisionModel::Trt);
  p.sca.set_collision_model(CollisionModel::Trt);
  p.seg.set_body_force(Vec3{1e-5, 0.0, 2e-6});
  p.sca.set_body_force(Vec3{1e-5, 0.0, 2e-6});
  p.step(10);
  p.expect_equal();
}

TEST(SweepPlan, MrtUnforcedBitwiseEqualsScalar) {
  Pair p;
  p.seg.set_collision_model(CollisionModel::Mrt);
  p.sca.set_collision_model(CollisionModel::Mrt);
  p.step(10);
  p.expect_equal();
}

TEST(SweepPlan, MrtGuoForcedBitwiseEqualsScalar) {
  Pair p;
  p.seg.set_collision_model(CollisionModel::Mrt);
  p.sca.set_collision_model(CollisionModel::Mrt);
  p.seg.set_body_force(Vec3{1e-5, 0.0, 2e-6});
  p.sca.set_body_force(Vec3{1e-5, 0.0, 2e-6});
  p.step(10);
  p.expect_equal();
}

TEST(SweepPlan, MrtPerNodeTauBitwiseEqualsScalar) {
  // A non-uniform tau map (the Eq. (7) per-cell viscosity adjustment)
  // must ride through the MRT moment relaxation identically on both
  // paths: s_nu is per-lane, the ghost rates are constants.
  Pair p;
  p.seg.set_collision_model(CollisionModel::Mrt);
  p.sca.set_collision_model(CollisionModel::Mrt);
  for (Lattice* lat : {&p.seg, &p.sca}) {
    for (std::size_t i = 0; i < lat->num_nodes(); ++i) {
      if (lat->type(i) == NodeType::Fluid) {
        lat->set_tau(i, 0.6 + 0.4 * static_cast<double>(i % 7) / 7.0);
      }
    }
    lat->set_body_force(Vec3{1e-5, 0.0, 0.0});
  }
  p.step(10);
  p.expect_equal();
}

TEST(SweepPlan, MixedPerNodeForcesSplitSegmentsBitwise) {
  // Forces on a scattered subset of nodes, the fine-lattice IBM pattern:
  // segments span forced and unforced lanes, so the kernel must split
  // them (adding a zero Guo term is not bitwise neutral).
  for (const CollisionModel model :
       {CollisionModel::Bgk, CollisionModel::Trt, CollisionModel::Mrt}) {
    Pair p;
    p.seg.set_collision_model(model);
    p.sca.set_collision_model(model);
    for (int s = 0; s < 10; ++s) {
      for (Lattice* lat : {&p.seg, &p.sca}) {
        for (std::size_t i = 0; i < lat->num_nodes(); i += 3) {
          if (lat->type(i) == NodeType::Fluid) {
            lat->add_force(i, Vec3{1e-6, -2e-6, 5e-7});
          }
        }
        lat->step();
      }
    }
    p.expect_equal();
  }
}

TEST(SweepPlan, ConcaveWallBitwiseEqualsScalar) {
  // A wall rib along x inside the duct. The Fluid nodes diagonal to it
  // see Wall only through an edge pull source (q >= 7), which a convex
  // duct never produces: every duct node next to a wall edge also has a
  // wall face neighbour. The classification must still keep them off
  // the segments.
  Pair p;
  for (Lattice* lat : {&p.seg, &p.sca}) {
    const int cy = lat->ny() / 2;
    const int cz = lat->nz() / 2;
    for (int x = 0; x < lat->nx(); ++x) {
      lat->set_type(x, cy + 2, cz, NodeType::Wall);
    }
    lat->set_body_force(Vec3{1e-5, 0.0, 0.0});
  }
  p.step(10);
  p.expect_equal();
}

TEST(SweepPlan, InvalidatedByReclassifySolid) {
  Pair p;
  p.step(3);
  const std::uint64_t rebuilds = p.seg.plan_rebuilds();
  // Narrow the duct mid-run: reclassification changes node types (and
  // possibly residency), which must invalidate the plan.
  for (Lattice* lat : {&p.seg, &p.sca}) {
    const int cy = lat->ny() / 2;
    const int cz = lat->nz() / 2;
    for (int x = kT; x < 2 * kT; ++x) {
      lat->set_type(x, cy + 4, cz, NodeType::Wall);
    }
    geometry::reclassify_solid(*lat, 0, lat->nx(), 0, lat->ny(), 0,
                               lat->nz());
  }
  p.step(5);
  EXPECT_GT(p.seg.plan_rebuilds(), rebuilds);
  p.expect_equal();
}

TEST(SweepPlan, InvalidatedBySubTileShift) {
  Pair p;
  p.step(3);
  const std::size_t kept_s = p.seg.shift(3, -5, 7);
  const std::size_t kept_o = p.sca.shift(3, -5, 7);
  EXPECT_EQ(kept_s, kept_o);
  p.step(5);
  p.expect_equal();
}

TEST(SweepPlan, InvalidatedBySuperTileShift) {
  Pair p;
  p.step(3);
  const std::size_t kept_s = p.seg.shift(-17, 16, -20);
  const std::size_t kept_o = p.sca.shift(-17, 16, -20);
  EXPECT_EQ(kept_s, kept_o);
  p.step(5);
  p.expect_equal();
}

TEST(SweepPlan, InvalidatedByCheckpointLoad) {
  Pair p;
  p.seg.set_body_force(Vec3{2e-5, 0.0, 0.0});
  p.sca.set_body_force(Vec3{2e-5, 0.0, 0.0});
  p.step(5);
  // Round-trip the segmented lattice through the wire format into a fresh
  // lattice (segmented kernels on by default) and keep stepping both the
  // restored copy and the scalar oracle.
  const io::LatticeState st = io::LatticeState::capture(p.seg);
  Lattice restored(p.seg.nx(), p.seg.ny(), p.seg.nz(), p.seg.origin(),
                   p.seg.dx(), 1.0);
  st.apply(restored);
  restored.set_body_force(Vec3{2e-5, 0.0, 0.0});
  restored.set_periodic(true, false, false);
  for (int s = 0; s < 5; ++s) {
    restored.step();
    p.sca.step();
  }
  expect_nodes_bitwise_equal(restored, p.sca);
  expect_serialized_equal(restored, p.sca);
}

TEST(SweepPlan, InvalidatedByTileMaterializeAndRelease) {
  Pair p;
  p.step(2);
  // Block (0, 0, 0) lies wholly outside the duct, so it is vacant. A
  // tile that appears or disappears shifts the resident order the plan
  // is indexed by, even when no active node changes.
  const std::size_t i = p.seg.idx(5, 5, 5);
  const std::size_t tiles = p.seg.num_tiles();
  ASSERT_FALSE(p.seg.node_resident(i));
  const auto on_both = [&](const auto& op, std::size_t expect_tiles) {
    const std::uint64_t rebuilds = p.seg.plan_rebuilds();
    op(p.seg);
    op(p.sca);
    EXPECT_EQ(p.seg.num_tiles(), expect_tiles);
    EXPECT_EQ(p.sca.num_tiles(), expect_tiles);
    p.step(3);
    EXPECT_GT(p.seg.plan_rebuilds(), rebuilds);
    p.expect_equal();
  };

  // set_type materializes the block: an isolated Fluid node that bounces
  // back in every direction.
  on_both(
      [&](Lattice& lat) {
        lat.set_type(i, NodeType::Fluid);
        lat.set_f_node(i, probe_f(i));
      },
      tiles + 1);
  // Back to Exterior with default state: the tile is released again.
  on_both(
      [&](Lattice& lat) {
        lat.reset_node(i);
        lat.set_type(i, NodeType::Exterior);
      },
      tiles);
  // A per-node field write materializes it with no type change.
  on_both([&](Lattice& lat) { lat.set_f_node(i, probe_f(i)); }, tiles + 1);
}

TEST(SweepPlan, CopiedLatticeKeepsItsPlan) {
  // Copy-assignment restores a snapshot (the tree_bulk benchmark path):
  // the copy carries a plan valid for its own identical slot layout, so
  // stepping it must not rebuild, and must still match the oracle.
  Pair p;
  p.step(2);
  Lattice copy(kT, kT, kT, Vec3{}, 1.0, 0.8);
  copy = p.seg;
  const std::uint64_t rebuilds = copy.plan_rebuilds();
  EXPECT_EQ(rebuilds, p.seg.plan_rebuilds());
  for (int s = 0; s < 5; ++s) {
    copy.step();
    p.sca.step();
  }
  EXPECT_EQ(copy.plan_rebuilds(), rebuilds);
  expect_nodes_bitwise_equal(copy, p.sca);
  expect_serialized_equal(copy, p.sca);
}

TEST(SweepPlan, WorkerCountInvariance) {
  const int workers = exec::num_workers();
  Lattice one(3 * kT, 3 * kT, 3 * kT, Vec3{}, 1.0, 0.8);
  Lattice many(3 * kT, 3 * kT, 3 * kT, Vec3{}, 1.0, 0.8);
  for (Lattice* lat : {&one, &many}) {
    make_duct(*lat, 6);
    lat->shrink_to_fit();
    lat->set_periodic(true, false, false);
    lat->set_body_force(Vec3{1e-5, 0.0, 0.0});
  }
  exec::set_num_workers(1);
  for (int s = 0; s < 10; ++s) one.step();
  exec::set_num_workers(4);
  for (int s = 0; s < 10; ++s) many.step();
  exec::set_num_workers(workers);
  expect_nodes_bitwise_equal(one, many);
}

TEST(SweepPlan, PlanIsCachedAcrossSteadySteps) {
  Pair p;
  p.step(1);
  const std::uint64_t after_first = p.seg.plan_rebuilds();
  EXPECT_GT(after_first, 0u);
  p.step(9);
  // Steady stepping neither moves tiles nor reclassifies nodes: the plan
  // built on the first step must be reused, not rebuilt per step.
  EXPECT_EQ(p.seg.plan_rebuilds(), after_first);
  const SweepPlan& plan = p.seg.sweep_plan();
  EXPECT_GT(plan.num_rows(), 0u);
  EXPECT_GT(plan.num_segments(), 0u);
  EXPECT_GT(plan.segment_nodes(), 0u);
  // The duct interior dominates: most active nodes ride the segments.
  EXPECT_GT(plan.segment_nodes(), plan.scalar_nodes());
}

}  // namespace
}  // namespace apr::lbm
