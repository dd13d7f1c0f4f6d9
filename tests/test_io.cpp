#include "src/io/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "src/common/rng.hpp"
#include "src/io/vtk.hpp"
#include "src/lbm/boundary.hpp"
#include "src/mesh/icosphere.hpp"

namespace apr::io {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Bitwise CRC-32 (reflected 0xEDB88320), one bit at a time: the
/// reference the table-driven io::crc32 must reproduce.
std::uint32_t crc32_bitwise(const unsigned char* p, std::size_t n,
                            std::uint32_t crc = 0) {
  crc = ~crc;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

TEST(IoCrc32, StandardCheckValue) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(IoCrc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(2024);
  std::vector<unsigned char> buf(4097 + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.next_u64());
  for (std::size_t n = 0; n <= 4097; ++n) {
    // Every length, cycling through the eight start offsets; short
    // buffers try all of them.
    const std::size_t offsets = n < 64 ? 8 : 1;
    for (std::size_t k = 0; k < offsets; ++k) {
      const unsigned char* p = buf.data() + (n + k) % 8;
      ASSERT_EQ(crc32(p, n), crc32_bitwise(p, n)) << n << " @ " << (n + k) % 8;
    }
  }
}

TEST(IoCrc32, ChainsAcrossSplitBuffers) {
  Rng rng(77);
  std::vector<unsigned char> buf(3001);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.next_u64());
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  ASSERT_EQ(whole, crc32_bitwise(buf.data(), buf.size()));
  for (const std::size_t cut : {0, 1, 7, 8, 9, 1000, 2999, 3001}) {
    const std::uint32_t a = crc32(buf.data(), cut);
    EXPECT_EQ(crc32(buf.data() + cut, buf.size() - cut, a), whole) << cut;
  }
}

class IoTest : public ::testing::Test {
 protected:
  IoTest()
      : model_(std::make_unique<fem::MembraneModel>(mesh::icosphere(1, 1.0),
                                                    fem::MembraneParams{})) {}
  std::unique_ptr<fem::MembraneModel> model_;
};

TEST_F(IoTest, LatticeCheckpointRoundTrips) {
  lbm::Lattice lat(8, 8, 8, Vec3{1.0, 2.0, 3.0}, 0.5, 0.9);
  lbm::mark_box_walls(lat);
  lbm::mark_face_wall(lat, lbm::Face::YMax, Vec3{0.03, 0.0, 0.0});
  lat.init_equilibrium(1.0, Vec3{});
  lat.init_node_equilibrium(lat.idx(4, 4, 4), 1.05, Vec3{0.02, 0.0, 0.01});
  for (int s = 0; s < 5; ++s) lat.step();

  const std::string path = temp_path("lattice.chk");
  save_lattice(path, lat);

  lbm::Lattice restored(8, 8, 8, Vec3{1.0, 2.0, 3.0}, 0.5, 1.0);
  load_lattice(path, restored);
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    ASSERT_EQ(restored.type(i), lat.type(i));
    ASSERT_EQ(restored.tau(i), lat.tau(i));
    ASSERT_EQ(restored.boundary_velocity(i), lat.boundary_velocity(i));
    // Wall/exterior f slots are canonicalized to zero by capture (they are
    // dead storage the solver never reads), so only live populations are
    // compared byte-for-byte.
    if (!lbm::is_stream_source(lat.type(i))) continue;
    for (int q = 0; q < lbm::kQ; ++q) {
      ASSERT_EQ(restored.f(q, i), lat.f(q, i));
    }
  }
  // Resumed runs produce identical trajectories (wall/exterior nodes hold
  // scratch data and are excluded -- they are never read by the solver).
  lat.step();
  restored.step();
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    if (!lbm::is_stream_source(lat.type(i))) continue;
    for (int q = 0; q < lbm::kQ; ++q) {
      ASSERT_EQ(restored.f(q, i), lat.f(q, i));
    }
  }
  std::remove(path.c_str());
}

TEST_F(IoTest, LatticeCheckpointRoundTripsCollisionModel) {
  // The collision byte and TRT magic travel with the state, so a resumed
  // run replays with the operator it was saved under -- for all three
  // models, including the MRT id added after the format was frozen.
  for (const lbm::CollisionModel model :
       {lbm::CollisionModel::Bgk, lbm::CollisionModel::Trt,
        lbm::CollisionModel::Mrt}) {
    lbm::Lattice lat(6, 6, 6, Vec3{}, 1.0, 0.8);
    lat.set_collision_model(model, 0.21);
    lat.init_equilibrium(1.0, Vec3{0.01, 0.0, 0.0});
    for (int s = 0; s < 3; ++s) lat.step();
    const std::string path = temp_path("lattice_collision.chk");
    save_lattice(path, lat);
    lbm::Lattice restored(6, 6, 6, Vec3{}, 1.0, 1.0);
    load_lattice(path, restored);
    EXPECT_EQ(restored.collision_model(), model);
    EXPECT_DOUBLE_EQ(restored.trt_magic(), 0.21);
    // The restored operator replays bit-identically.
    lat.step();
    restored.step();
    for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
      for (int q = 0; q < lbm::kQ; ++q) {
        ASSERT_EQ(restored.f(q, i), lat.f(q, i)) << "model "
                                                 << static_cast<int>(model);
      }
    }
    std::remove(path.c_str());
  }
}

TEST_F(IoTest, LatticeCheckpointRejectsUnknownCollisionId) {
  lbm::Lattice lat(5, 5, 5, Vec3{}, 1.0, 1.0);
  lat.init_equilibrium(1.0, Vec3{});
  LatticeState st = LatticeState::capture(lat);
  st.collision = 3;  // one past Mrt, the highest valid id
  EXPECT_THROW(st.validate_geometry(lat), CheckpointError);
}

TEST_F(IoTest, LatticeCheckpointRejectsGeometryMismatch) {
  lbm::Lattice lat(6, 6, 6, Vec3{}, 1.0, 1.0);
  lat.init_equilibrium(1.0, Vec3{});
  const std::string path = temp_path("lattice_geom.chk");
  save_lattice(path, lat);
  lbm::Lattice wrong(7, 6, 6, Vec3{}, 1.0, 1.0);
  EXPECT_THROW(load_lattice(path, wrong), std::runtime_error);
  lbm::Lattice wrong_dx(6, 6, 6, Vec3{}, 0.5, 1.0);
  EXPECT_THROW(load_lattice(path, wrong_dx), std::runtime_error);
  std::remove(path.c_str());
}

TEST_F(IoTest, LatticeCheckpointRejectsCorruptHeader) {
  const std::string path = temp_path("corrupt.chk");
  {
    std::ofstream os(path, std::ios::binary);
    os << "not a checkpoint";
  }
  lbm::Lattice lat(4, 4, 4, Vec3{}, 1.0, 1.0);
  EXPECT_THROW(load_lattice(path, lat), std::runtime_error);
  EXPECT_THROW(load_lattice("/nonexistent/file.chk", lat),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST_F(IoTest, CellCheckpointRoundTrips) {
  cells::CellPool pool(model_.get(), cells::CellKind::Rbc, 16);
  pool.add(3, cells::instantiate(*model_, Vec3{1, 2, 3}));
  pool.add(9, cells::instantiate(*model_, Vec3{-4, 0, 2}));
  const std::string path = temp_path("cells.chk");
  save_cells(path, pool);

  cells::CellPool restored(model_.get(), cells::CellKind::Rbc, 16);
  load_cells(path, restored);
  ASSERT_EQ(restored.size(), 2u);
  EXPECT_TRUE(restored.contains(3));
  EXPECT_TRUE(restored.contains(9));
  for (std::size_t s = 0; s < pool.size(); ++s) {
    const auto a = pool.positions(s);
    const auto b = restored.positions(restored.slot_of(pool.id(s)));
    for (std::size_t v = 0; v < a.size(); ++v) ASSERT_EQ(a[v], b[v]);
  }
  std::remove(path.c_str());
}

TEST_F(IoTest, CellCheckpointRejectsVertexMismatch) {
  cells::CellPool pool(model_.get(), cells::CellKind::Rbc, 4);
  pool.add(1, cells::instantiate(*model_, Vec3{}));
  const std::string path = temp_path("cells_nv.chk");
  save_cells(path, pool);
  auto other_model = std::make_unique<fem::MembraneModel>(
      mesh::icosphere(2, 1.0), fem::MembraneParams{});
  cells::CellPool other(other_model.get(), cells::CellKind::Rbc, 4);
  EXPECT_THROW(load_cells(path, other), std::runtime_error);
  std::remove(path.c_str());
}

TEST_F(IoTest, LatticeVtkHasExpectedStructure) {
  lbm::Lattice lat(4, 5, 6, Vec3{}, 1.0, 1.0);
  lat.init_equilibrium(1.0, Vec3{0.01, 0.0, 0.0});
  lat.update_macroscopic();
  const std::string path = temp_path("lattice.vtk");
  write_lattice_vtk(path, lat);
  const std::string text = slurp(path);
  EXPECT_NE(text.find("DATASET STRUCTURED_POINTS"), std::string::npos);
  EXPECT_NE(text.find("DIMENSIONS 4 5 6"), std::string::npos);
  EXPECT_NE(text.find("POINT_DATA 120"), std::string::npos);
  EXPECT_NE(text.find("VECTORS velocity double"), std::string::npos);
  EXPECT_NE(text.find("SCALARS density double 1"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(IoTest, CellsVtkListsAllCells) {
  cells::CellPool pool(model_.get(), cells::CellKind::Rbc, 4);
  pool.add(1, cells::instantiate(*model_, Vec3{}));
  pool.add(2, cells::instantiate(*model_, Vec3{5, 0, 0}));
  const std::string path = temp_path("cells.vtk");
  write_cells_vtk(path, pool);
  const std::string text = slurp(path);
  const int nv = pool.vertices_per_cell();
  const int nt = pool.model().num_triangles();
  EXPECT_NE(text.find("POINTS " + std::to_string(2 * nv)),
            std::string::npos);
  EXPECT_NE(text.find("POLYGONS " + std::to_string(2 * nt)),
            std::string::npos);
  EXPECT_NE(text.find("SCALARS force_magnitude"), std::string::npos);
  EXPECT_NE(text.find("SCALARS cell_id"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(IoTest, MeshVtkRoundStructure) {
  const mesh::TriMesh m = mesh::icosphere(1, 1.0);
  const std::string path = temp_path("mesh.vtk");
  write_mesh_vtk(path, m);
  const std::string text = slurp(path);
  EXPECT_NE(text.find("POINTS 42 double"), std::string::npos);
  EXPECT_NE(text.find("POLYGONS 80 320"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(IoTest, VtkWriterRejectsBadPaths) {
  lbm::Lattice lat(2, 2, 2, Vec3{}, 1.0, 1.0);
  EXPECT_THROW(write_lattice_vtk("/nonexistent/dir/x.vtk", lat),
               std::runtime_error);
}

}  // namespace
}  // namespace apr::io
