/// \file test_tiled_lattice.cpp
/// Tiled sparse storage vs the dense reference mode. A lattice with
/// auto-release off and every block materialized stores the same state in
/// the same per-tile layout but never drops a tile, which makes it a
/// bit-exact stand-in for the flat dense arrays this storage replaced.
/// Every test here drives the tiled lattice and the dense twin through
/// identical operations and demands bitwise-equal observable state.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "src/geometry/voxelizer.hpp"
#include "src/io/checkpoint.hpp"
#include "src/lbm/lattice.hpp"

namespace apr::lbm {
namespace {

constexpr int kT = Lattice::kTileSide;  // 16

/// Deterministic, index-dependent distributions so a wrong source node or
/// direction in the tiled addressing cannot cancel out.
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

/// The same lattice in dense reference mode: every tile resident, no
/// release, but byte-for-byte the same logical state.
Lattice dense_twin_dims(const Lattice& like) {
  Lattice lat(like.nx(), like.ny(), like.nz(), like.origin(), like.dx(),
              like.default_tau());
  lat.set_auto_release(false);
  return lat;
}

void expect_nodes_bitwise_equal(const Lattice& a, const Lattice& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (std::size_t i = 0; i < a.num_nodes(); ++i) {
    ASSERT_EQ(a.type(i), b.type(i)) << "node " << i;
    ASSERT_EQ(a.tau(i), b.tau(i)) << "node " << i;
    ASSERT_EQ(a.rho(i), b.rho(i)) << "node " << i;
    const Vec3 ua = a.velocity(i);
    const Vec3 ub = b.velocity(i);
    ASSERT_TRUE(ua.x == ub.x && ua.y == ub.y && ua.z == ub.z)
        << "node " << i;
    const auto fa = a.f_node(i);
    const auto fb = b.f_node(i);
    for (int q = 0; q < kQ; ++q) {
      ASSERT_EQ(fa[q], fb[q]) << "node " << i << " q " << q;
    }
  }
}

TEST(TiledLattice, VacantTilesReadDefaultsAndSaveMemory) {
  Lattice lat(3 * kT, 3 * kT, 3 * kT, Vec3{}, 1.0, 0.9);
  // Fresh lattices are transiently dense (all-Fluid box).
  EXPECT_EQ(lat.num_tiles(), 27u);
  make_duct(lat, 6);
  lat.shrink_to_fit();
  // The duct spans x fully but only the middle tile row in y and z.
  EXPECT_LT(lat.num_tiles(), 27u);
  EXPECT_GT(lat.num_tiles(), 0u);
  EXPECT_LT(lat.tiled_bytes(), lat.dense_bytes());
  // A node in a vacant corner tile reads the defaults without allocating.
  const std::size_t tiles = lat.num_tiles();
  EXPECT_EQ(lat.type(1, 1, 1), NodeType::Exterior);
  EXPECT_EQ(lat.tau(lat.idx(1, 1, 1)), 0.9);
  EXPECT_EQ(lat.rho(lat.idx(1, 1, 1)), 1.0);
  EXPECT_EQ(lat.f(0, lat.idx(1, 1, 1)), 0.0);
  EXPECT_FALSE(lat.node_resident(lat.idx(1, 1, 1)));
  EXPECT_EQ(lat.num_tiles(), tiles);
}

TEST(TiledLattice, StepMatchesDenseReferenceBitwise) {
  Lattice tiled(3 * kT, 3 * kT, 3 * kT, Vec3{}, 1.0, 0.8);
  make_duct(tiled, 6);
  tiled.shrink_to_fit();
  Lattice dense = dense_twin_dims(tiled);
  make_duct(dense, 6);
  ASSERT_LT(tiled.num_tiles(), dense.num_tiles());

  tiled.set_body_force(Vec3{1e-5, 0.0, 0.0});
  dense.set_body_force(Vec3{1e-5, 0.0, 0.0});
  tiled.set_periodic(true, false, false);
  dense.set_periodic(true, false, false);
  for (int s = 0; s < 10; ++s) {
    tiled.step();
    dense.step();
  }
  expect_nodes_bitwise_equal(tiled, dense);

  // Same again with TRT collision.
  tiled.set_collision_model(CollisionModel::Trt);
  dense.set_collision_model(CollisionModel::Trt);
  for (int s = 0; s < 10; ++s) {
    tiled.step();
    dense.step();
  }
  expect_nodes_bitwise_equal(tiled, dense);
}

TEST(LatticeShift, SubTileSeamCarryMatchesDenseReference) {
  Lattice tiled(3 * kT, 3 * kT, 3 * kT, Vec3{}, 1.0, 1.0);
  make_duct(tiled, 6);
  tiled.shrink_to_fit();
  Lattice dense = dense_twin_dims(tiled);
  make_duct(dense, 6);

  // Sub-tile displacement crossing every tile seam obliquely.
  const std::size_t kept_t = tiled.shift(3, -5, 7);
  const std::size_t kept_d = dense.shift(3, -5, 7);
  EXPECT_EQ(kept_t, kept_d);
  EXPECT_GT(kept_t, 0u);
  expect_nodes_bitwise_equal(tiled, dense);
}

TEST(LatticeShift, SuperTileShiftMatchesDenseReference) {
  Lattice tiled(3 * kT, 3 * kT, 3 * kT, Vec3{}, 1.0, 1.0);
  make_duct(tiled, 6);
  tiled.shrink_to_fit();
  Lattice dense = dense_twin_dims(tiled);
  make_duct(dense, 6);

  // More than one whole tile per axis, mixed signs.
  const std::size_t kept_t = tiled.shift(-17, 16, -20);
  const std::size_t kept_d = dense.shift(-17, 16, -20);
  EXPECT_EQ(kept_t, kept_d);
  expect_nodes_bitwise_equal(tiled, dense);
}

TEST(LatticeShift, ShiftMigratesResidencyWithTheContent) {
  // A lone Wall-only tile at block (1,1,1); everything else vacant. Only
  // type is non-default on walls (tau/rho/u/f stay at their defaults),
  // so when the shift relocates the blob one whole tile in +x, the old
  // tile comes out all-default and must be released while the landing
  // tile materializes: residency follows the content.
  Lattice lat(3 * kT, 3 * kT, 3 * kT, Vec3{}, 1.0, 1.0);
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    lat.set_type(i, NodeType::Exterior);
  }
  lat.shrink_to_fit();
  for (int z = kT; z < 2 * kT; ++z) {
    for (int y = kT; y < 2 * kT; ++y) {
      for (int x = kT; x < 2 * kT; ++x) {
        lat.set_type(x, y, z, NodeType::Wall);
      }
    }
  }
  ASSERT_EQ(lat.num_tiles(), 1u);
  // shift(s): new[x] = old[x + s], so s = -16 moves the blob +16 in x.
  lat.shift(-kT, 0, 0);
  EXPECT_EQ(lat.num_tiles(), 1u);
  int x0 = 0, y0 = 0, z0 = 0;
  lat.tile_origin(0, x0, y0, z0);
  EXPECT_EQ(x0, 2 * kT);
  EXPECT_EQ(y0, kT);
  EXPECT_EQ(z0, kT);
  EXPECT_EQ(lat.type(2 * kT + 8, kT + 8, kT + 8), NodeType::Wall);
  EXPECT_EQ(lat.type(kT + 8, kT + 8, kT + 8), NodeType::Exterior);
  EXPECT_FALSE(lat.node_resident(lat.idx(kT + 8, kT + 8, kT + 8)));
}

TEST(TiledLattice, PeriodicWrapAcrossVacantTiles) {
  // Fluid only in the two extreme x tile layers; the middle tile layer is
  // vacant. Periodic x streaming must wrap edge-to-edge regardless of the
  // absent tiles in between.
  Lattice tiled(3 * kT, kT, kT, Vec3{}, 1.0, 1.0);
  Lattice dense(3 * kT, kT, kT, Vec3{}, 1.0, 1.0);
  dense.set_auto_release(false);
  for (Lattice* lat : {&tiled, &dense}) {
    for (int z = 0; z < lat->nz(); ++z) {
      for (int y = 0; y < lat->ny(); ++y) {
        for (int x = 0; x < lat->nx(); ++x) {
          const bool edge = x < kT || x >= 2 * kT;
          const bool rim = y == 0 || y == lat->ny() - 1 || z == 0 ||
                           z == lat->nz() - 1;
          lat->set_type(x, y, z, !edge ? NodeType::Exterior
                                : rim  ? NodeType::Wall
                                       : NodeType::Fluid);
        }
      }
    }
    for (std::size_t i = 0; i < lat->num_nodes(); ++i) {
      if (lat->type(i) == NodeType::Fluid) lat->set_f_node(i, probe_f(i));
    }
    lat->update_macroscopic();
    lat->set_periodic(true, false, false);
  }
  tiled.shrink_to_fit();
  ASSERT_EQ(tiled.num_tiles(), 2u);
  ASSERT_EQ(dense.num_tiles(), 3u);
  for (int s = 0; s < 4; ++s) {
    tiled.step();
    dense.step();
  }
  expect_nodes_bitwise_equal(tiled, dense);

  // The wrapped-in distributions really crossed the vacant gap: the x=0
  // fluid column pulled direction +x from x = nx-1, not from a wall.
  bool moved = false;
  for (std::size_t i = 0; i < tiled.num_nodes() && !moved; ++i) {
    if (tiled.type(i) == NodeType::Fluid && tiled.velocity(i).x != 0.0) {
      moved = true;
    }
  }
  EXPECT_TRUE(moved);
}

TEST(TiledLattice, ReclassifySolidReleasesEmptiedTile) {
  Lattice lat(3 * kT, 3 * kT, 3 * kT, Vec3{}, 1.0, 1.0);
  // Carve everything, then plant a lone Wall-only tile: a wall no fluid
  // can see, exactly what reclassify_solid demotes to Exterior.
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    lat.set_type(i, NodeType::Exterior);
  }
  lat.shrink_to_fit();
  ASSERT_EQ(lat.num_tiles(), 0u);
  for (int z = kT; z < 2 * kT; ++z) {
    for (int y = kT; y < 2 * kT; ++y) {
      for (int x = kT; x < 2 * kT; ++x) {
        lat.set_type(x, y, z, NodeType::Wall);
      }
    }
  }
  ASSERT_EQ(lat.num_tiles(), 1u);
  geometry::reclassify_solid(lat, 0, lat.nx(), 0, lat.ny(), 0, lat.nz());
  EXPECT_EQ(lat.num_tiles(), 0u);
  EXPECT_EQ(lat.type(kT + 3, kT + 3, kT + 3), NodeType::Exterior);
}

TEST(TiledLattice, SerializationIsIdenticalForTiledAndDenseModes) {
  // Block selection in the wire format is content-based, so a sparse
  // lattice and its dense twin produce byte-identical sections -- the
  // golden digests cannot depend on residency.
  Lattice tiled(3 * kT, 3 * kT, 3 * kT, Vec3{0.1, 0.2, 0.3}, 0.5, 0.8);
  make_duct(tiled, 6);
  tiled.shrink_to_fit();
  Lattice dense(3 * kT, 3 * kT, 3 * kT, Vec3{0.1, 0.2, 0.3}, 0.5, 0.8);
  dense.set_auto_release(false);
  make_duct(dense, 6);
  tiled.set_body_force(Vec3{1e-5, 0.0, 0.0});
  dense.set_body_force(Vec3{1e-5, 0.0, 0.0});
  for (int s = 0; s < 5; ++s) {
    tiled.step();
    dense.step();
  }
  const auto bytes_t = io::LatticeState::capture(tiled).serialize();
  const auto bytes_d = io::LatticeState::capture(dense).serialize();
  ASSERT_EQ(bytes_t.size(), bytes_d.size());
  EXPECT_EQ(std::memcmp(bytes_t.data(), bytes_d.data(), bytes_t.size()), 0);
}

}  // namespace
}  // namespace apr::lbm
