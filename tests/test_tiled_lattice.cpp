/// \file test_tiled_lattice.cpp
/// Tiled sparse storage vs the dense reference mode. A lattice with
/// auto-release off and every block materialized stores the same state in
/// the same per-tile layout but never drops a tile, which makes it a
/// bit-exact stand-in for the flat dense arrays this storage replaced.
/// Every test here drives the tiled lattice and the dense twin through
/// identical operations and demands bitwise-equal observable state. The
/// in-place shift is also held against a two-generation reference shift
/// that rebuilds the lattice node by node.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "src/exec/exec.hpp"
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

// --- the in-place shift against the two-generation reference ---------------

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_bits(const Vec3& a, const Vec3& b) {
  return same_bits(a.x, b.x) && same_bits(a.y, b.y) && same_bits(a.z, b.z);
}

std::vector<std::size_t> resident_blocks(const Lattice& lat) {
  std::vector<std::size_t> out;
  for (std::size_t t = 0; t < lat.num_tiles(); ++t) {
    out.push_back(lat.resident_block(t));
  }
  return out;
}

/// A 40x37x35 lattice (3x3x3 blocks, partial edge tiles on every axis):
/// the x-aligned duct, an isolated Wall blob in an otherwise vacant block
/// row, vacant corner blocks, and non-default tau, force, rho, ubc and u.
/// With `compact` the released slots go back to the allocator, so blocks
/// a shift lands in grow the pools; otherwise they reuse free slots.
Lattice make_shift_scene(bool compact) {
  Lattice lat(40, 37, 35, Vec3{0.5, -0.25, 1.0}, 0.5, 0.9);
  make_duct(lat, 6);
  for (int z = 30; z < 35; ++z) {
    for (int y = 33; y < 37; ++y) {
      for (int x = 20; x < 27; ++x) lat.set_type(x, y, z, NodeType::Wall);
    }
  }
  if (compact) lat.shrink_to_fit();
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    const double k = 1e-3 * static_cast<double>(i % 97);
    switch (lat.type(i)) {
      case NodeType::Fluid:
        if (i % 5 == 0) lat.set_tau(i, 0.7 + k);
        if (i % 3 == 0) lat.add_force(i, Vec3{1e-5 + k * 1e-4, 2e-6, 3e-6});
        if (i % 7 == 0) lat.set_rho(i, 1.0 + k);
        break;
      case NodeType::Wall:
        lat.set_f_node(i, probe_f(i + 11));  // dead storage, carried anyway
        if (i % 2 == 0) lat.set_boundary_velocity(i, Vec3{k, -k, 0.5 * k});
        if (i % 3 == 0) lat.set_velocity(i, Vec3{0.25 * k, k, 2e-4});
        break;
      default:
        break;
    }
  }
  // Velocity nodes on the duct inlet plane.
  for (int z = 14; z < 20; ++z) {
    for (int y = 15; y < 21; ++y) {
      const std::size_t i = lat.idx(0, y, z);
      lat.set_type(i, NodeType::Velocity);
      lat.set_boundary_velocity(i, Vec3{0.01 + 1e-4 * y, 0.0, 1e-4 * z});
    }
  }
  return lat;
}

/// Test-local copy of the two-generation shift, restated through the
/// public API: a second lattice is built from the old one, every node
/// taking f/type/u/ubc from its source node inside the overlap box and
/// keeping tau/force/rho (and, outside the box, everything) from its old
/// self. Scalar fields go in before the types, so a tile whose nodes all
/// end up Exterior with default tau/rho/u/ubc is released by its last
/// type write: the residency rule of the two-generation build.
Lattice reference_shift(const Lattice& old, int sx, int sy, int sz) {
  Lattice ref(old.nx(), old.ny(), old.nz(), old.origin(), old.dx(),
              old.default_tau());
  ref.set_collision_model(old.collision_model(), old.trt_magic());
  // The scene's body force is zero, so add_force stores each force as is.
  EXPECT_TRUE(same_bits(old.body_force(), Vec3{}));
  const auto source = [&](int x, int y, int z) {
    const bool inbox = x + sx >= 0 && x + sx < old.nx() && y + sy >= 0 &&
                       y + sy < old.ny() && z + sz >= 0 && z + sz < old.nz();
    return inbox ? old.idx(x + sx, y + sy, z + sz) : old.idx(x, y, z);
  };
  for (int z = 0; z < old.nz(); ++z) {
    for (int y = 0; y < old.ny(); ++y) {
      for (int x = 0; x < old.nx(); ++x) {
        const std::size_t i = old.idx(x, y, z);
        const std::size_t src = source(x, y, z);
        ref.set_tau(i, old.tau(i));
        ref.add_force(i, old.force(i));
        ref.set_rho(i, old.rho(i));
        ref.set_f_node(i, old.f_node(src));
        ref.set_velocity(i, old.velocity(src));
        ref.set_boundary_velocity(i, old.boundary_velocity(src));
      }
    }
  }
  ref.set_ubc_nonzero(old.ubc_nonzero());
  for (int z = 0; z < old.nz(); ++z) {
    for (int y = 0; y < old.ny(); ++y) {
      for (int x = 0; x < old.nx(); ++x) {
        ref.set_type(old.idx(x, y, z), old.type(source(x, y, z)));
      }
    }
  }
  return ref;
}

/// Every node's type, tau, force, rho, u and ubc bitwise, and f bitwise at
/// every node (`all_f`) or at stream sources only. A sweep never writes
/// the Wall/Exterior slots of its target buffer, so after a step f there
/// is whatever that buffer held: dead storage that checkpoints and
/// digests zero.
void expect_same_state(const Lattice& got, const Lattice& want, bool all_f) {
  EXPECT_EQ(resident_blocks(got), resident_blocks(want));
  for (std::size_t i = 0; i < want.num_nodes(); ++i) {
    ASSERT_EQ(got.type(i), want.type(i)) << "node " << i;
    ASSERT_TRUE(same_bits(got.tau(i), want.tau(i))) << "node " << i;
    ASSERT_TRUE(same_bits(got.force(i), want.force(i))) << "node " << i;
    ASSERT_TRUE(same_bits(got.rho(i), want.rho(i))) << "node " << i;
    ASSERT_TRUE(same_bits(got.velocity(i), want.velocity(i))) << "node " << i;
    ASSERT_TRUE(
        same_bits(got.boundary_velocity(i), want.boundary_velocity(i)))
        << "node " << i;
    if (!all_f && !is_stream_source(want.type(i))) continue;
    for (int q = 0; q < kQ; ++q) {
      ASSERT_TRUE(same_bits(got.f(q, i), want.f(q, i)))
          << "node " << i << " q " << q;
    }
  }
}

TEST(LatticeShift, MatchesTwoGenerationReferenceBitForBit) {
  struct Case {
    int sx, sy, sz;
  };
  // Sub-tile, super-tile (mixed signs), one that empties the blob's tile
  // and one that lands the blob in vacant blocks.
  const Case cases[] = {{3, -5, 7}, {-17, 16, -20}, {0, 0, -16}, {0, 0, 16}};
  bool dropped = false, landed = false;
  const int saved = exec::num_workers();
  for (const bool compact : {true, false}) {
    for (const Case& c : cases) {
      for (const int workers : {1, 3}) {
        SCOPED_TRACE(testing::Message()
                     << "compact " << compact << " shift (" << c.sx << ","
                     << c.sy << "," << c.sz << ") workers " << workers);
        exec::set_num_workers(workers);
        Lattice lat = make_shift_scene(compact);
        Lattice ref = reference_shift(lat, c.sx, c.sy, c.sz);
        const std::vector<std::size_t> before = resident_blocks(lat);
        EXPECT_EQ(lat.shift(c.sx, c.sy, c.sz),
                  static_cast<std::size_t>(40 - std::abs(c.sx)) *
                      (37 - std::abs(c.sy)) * (35 - std::abs(c.sz)));
        const std::vector<std::size_t> after = resident_blocks(lat);
        for (const std::size_t b : before) {
          dropped |= !std::binary_search(after.begin(), after.end(), b);
        }
        for (const std::size_t b : after) {
          landed |= !std::binary_search(before.begin(), before.end(), b);
        }
        expect_same_state(lat, ref, /*all_f=*/true);
        for (int s = 0; s < 3; ++s) {
          lat.step();
          ref.step();
        }
        expect_same_state(lat, ref, /*all_f=*/false);
      }
    }
  }
  exec::set_num_workers(saved);
  EXPECT_TRUE(dropped);
  EXPECT_TRUE(landed);
}

TEST(LatticeShift, KeptBlocksKeepTheirStorage) {
  // The duct spans x, so an x shift lands nothing in a vacant block: no
  // new slot is needed, and every kept block must keep its storage.
  Lattice lat(3 * kT, 3 * kT, 3 * kT, Vec3{}, 1.0, 0.8);
  make_duct(lat, 6);
  lat.shrink_to_fit();
  struct Storage {
    const NodeType* type;
    const double* tau;
    const double* rho;
    const Vec3* u;
  };
  const auto storage = [&] {
    std::vector<std::pair<std::size_t, Storage>> out;
    for (std::size_t t = 0; t < lat.num_tiles(); ++t) {
      out.push_back({lat.resident_block(t),
                     {lat.tile_types(t), lat.tile_tau(t), lat.tile_rho(t),
                      lat.tile_u(t)}});
    }
    return out;
  };
  const auto before = storage();
  const std::size_t bytes = lat.tiled_bytes();
  lat.shift(5, 0, 0);
  EXPECT_EQ(lat.tiled_bytes(), bytes);
  const auto after = storage();
  std::size_t kept = 0;
  for (const auto& [b, st] : after) {
    for (const auto& [ob, ost] : before) {
      if (ob != b) continue;
      ++kept;
      EXPECT_EQ(st.type, ost.type) << "block " << b;
      EXPECT_EQ(st.tau, ost.tau) << "block " << b;
      EXPECT_EQ(st.rho, ost.rho) << "block " << b;
      EXPECT_EQ(st.u, ost.u) << "block " << b;
    }
  }
  EXPECT_GT(kept, 0u);
}

}  // namespace
}  // namespace apr::lbm
