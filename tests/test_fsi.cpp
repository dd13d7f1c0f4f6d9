/// Targeted tests of the shared FSI free functions (paper §2.3 glue):
/// force assembly (membrane + contact + wall), SI->lattice spreading and
/// IBM advection, independent of the full simulation drivers.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/apr/simulation.hpp"
#include "src/mesh/icosphere.hpp"
#include "src/mesh/shapes.hpp"

namespace apr::core {
namespace {

std::unique_ptr<fem::MembraneModel> si_rbc() {
  fem::MembraneParams p;
  p.shear_modulus = 5e-6;
  p.bending_modulus = 2e-19;
  p.ka_global = 1e-6;
  p.kv_global = 1e-6;
  return std::make_unique<fem::MembraneModel>(mesh::rbc_biconcave(1, 1e-6),
                                              p);
}

TEST(ComputeCellForces, RestingCellHasNoNetForce) {
  auto model = si_rbc();
  cells::CellPool pool(model.get(), cells::CellKind::Rbc, 4);
  pool.add(1, cells::instantiate(*model, Vec3{0, 0, 0}));
  FsiParams fsi;  // no contact, no wall
  compute_cell_forces({&pool}, nullptr, fsi);
  for (const Vec3& f : pool.forces(0)) {
    EXPECT_NEAR(norm(f), 0.0, 1e-18);
  }
}

TEST(ComputeCellForces, DeformedCellForcesAreRestoring) {
  auto model = si_rbc();
  cells::CellPool pool(model.get(), cells::CellKind::Rbc, 4);
  auto verts = cells::instantiate(*model, Vec3{0, 0, 0});
  // Inflate by 10%: membrane + volume constraint must pull inward.
  for (auto& v : verts) v *= 1.1;
  pool.add(1, verts);
  FsiParams fsi;
  compute_cell_forces({&pool}, nullptr, fsi);
  double inward = 0.0;
  const auto x = pool.positions(0);
  const auto f = pool.forces(0);
  const Vec3 c = cells::centroid(x);
  for (std::size_t v = 0; v < x.size(); ++v) {
    inward += dot(f[v], normalized(x[v] - c));
  }
  EXPECT_LT(inward, 0.0);
}

TEST(ComputeCellForces, WallRepulsionPointsInward) {
  auto model = si_rbc();
  auto tube = std::make_unique<geometry::TubeDomain>(
      Vec3{0, 0, -20e-6}, Vec3{0, 0, 1}, 40e-6, 5e-6, /*capped=*/false);
  cells::CellPool pool(model.get(), cells::CellKind::Rbc, 4);
  // Cell centroid 0.5 um from the wall: within the repulsion range of its
  // outer vertices.
  pool.add(1, cells::instantiate(*model, Vec3{3.8e-6, 0, 0}));
  FsiParams fsi;
  fsi.wall_cutoff = 0.5e-6;
  fsi.wall_strength = 1e-12;
  compute_cell_forces({&pool}, tube.get(), fsi);
  Vec3 net{};
  for (const Vec3& f : pool.forces(0)) net += f;
  EXPECT_LT(net.x, 0.0);  // pushed toward the axis
}

TEST(ComputeCellForces, ContactPushesNeighborsApart) {
  auto model = si_rbc();
  cells::CellPool pool(model.get(), cells::CellKind::Rbc, 4);
  pool.add(1, cells::instantiate(*model, Vec3{0, 0, 0}));
  pool.add(2, cells::instantiate(*model, Vec3{2.1e-6, 0, 0}));
  FsiParams fsi;
  fsi.contact_cutoff = 0.5e-6;
  fsi.contact_strength = 1e-12;
  compute_cell_forces({&pool}, nullptr, fsi);
  Vec3 f1{}, f2{};
  for (const Vec3& f : pool.forces(0)) f1 += f;
  for (const Vec3& f : pool.forces(1)) f2 += f;
  EXPECT_LT(f1.x, 0.0);
  EXPECT_GT(f2.x, 0.0);
  EXPECT_NEAR(norm(f1 + f2), 0.0, 1e-9 * norm(f1));
}

std::vector<Vec3> all_forces(const cells::CellPool& pool) {
  std::vector<Vec3> out;
  for (std::size_t s = 0; s < pool.size(); ++s) {
    const auto f = pool.forces(s);
    out.insert(out.end(), f.begin(), f.end());
  }
  return out;
}

void expect_bit_identical(const std::vector<Vec3>& a,
                          const std::vector<Vec3>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t v = 0; v < a.size(); ++v) {
    ASSERT_EQ(a[v].x, b[v].x) << "vertex " << v;
    ASSERT_EQ(a[v].y, b[v].y) << "vertex " << v;
    ASSERT_EQ(a[v].z, b[v].z) << "vertex " << v;
  }
}

TEST(ComputeCellForces, ReusedContactGridIsBitIdenticalToAFreshOne) {
  auto model = si_rbc();
  cells::CellPool pool(model.get(), cells::CellKind::Rbc, 4);
  pool.add(1, cells::instantiate(*model, Vec3{0, 0, 0}));
  pool.add(2, cells::instantiate(*model, Vec3{2.1e-6, 0.3e-6, 0}));
  pool.add(3, cells::instantiate(*model, Vec3{1.0e-6, 2.4e-6, 0.2e-6}));
  // A spread-out population that re-dimensions the contact grid.
  cells::CellPool far(model.get(), cells::CellKind::Rbc, 4);
  far.add(7, cells::instantiate(*model, Vec3{-30e-6, 5e-6, 0}));
  far.add(8, cells::instantiate(*model, Vec3{40e-6, -20e-6, 9e-6}));
  FsiParams fsi;
  fsi.contact_cutoff = 0.5e-6;
  fsi.contact_strength = 1e-12;

  // The contact grid is per calling thread: a new thread starts with none.
  std::vector<Vec3> fresh, reused;
  std::thread([&] {
    compute_cell_forces({&pool}, nullptr, fsi);
    fresh = all_forces(pool);
    compute_cell_forces({&far}, nullptr, fsi);
    compute_cell_forces({&pool}, nullptr, fsi);
    reused = all_forces(pool);
  }).join();
  expect_bit_identical(fresh, reused);
}

TEST(ComputeCellForces, InPlaceMembraneAssemblyMatchesZeroedCopy) {
  auto model = si_rbc();
  cells::CellPool pool(model.get(), cells::CellKind::Rbc, 4);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    auto verts = cells::instantiate(
        *model, Vec3{6e-6 * static_cast<double>(id), 0, 0});
    // Distinct deformations so every force term is live.
    for (std::size_t v = 0; v < verts.size(); ++v) {
      verts[v].x *= 1.0 + 0.05 * static_cast<double>(id);
      verts[v].z += 1e-8 * std::sin(static_cast<double>(v));
    }
    pool.add(id, verts);
  }
  compute_cell_forces({&pool}, nullptr, FsiParams{});
  std::vector<Vec3> expected;
  for (std::size_t s = 0; s < pool.size(); ++s) {
    const auto xs = pool.positions(s);
    const std::vector<Vec3> x(xs.begin(), xs.end());
    std::vector<Vec3> f(x.size(), Vec3{});
    model->add_forces(x, f);
    expected.insert(expected.end(), f.begin(), f.end());
  }
  expect_bit_identical(all_forces(pool), expected);
}

TEST(SpreadCellForces, ConvertsAndConservesTotalForce) {
  auto model = si_rbc();
  lbm::Lattice lat(16, 16, 16, Vec3{-8e-6, -8e-6, -8e-6}, 1e-6, 1.0);
  const UnitConverter conv =
      UnitConverter::from_viscosity(1e-6, 1.2e-3 / 1060.0, 1.0, 1060.0);
  cells::CellPool pool(model.get(), cells::CellKind::Rbc, 4);
  pool.add(1, cells::instantiate(*model, Vec3{0, 0, 0}));
  // Assign a known SI force per vertex.
  Vec3 total_si{};
  for (auto& f : pool.forces(0)) {
    f = Vec3{2e-13, -1e-13, 5e-14};
    total_si += f;
  }
  lat.clear_forces();
  spread_cell_forces(lat, conv, {&pool}, ibm::DeltaKernel::Cosine4);
  Vec3 total_lat{};
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    total_lat += lat.force(i);
  }
  const double scale = conv.force_to_lattice(1.0);
  EXPECT_NEAR(total_lat.x, total_si.x * scale, 1e-6 * total_si.x * scale);
  EXPECT_NEAR(total_lat.y, total_si.y * scale, 1e-6 * std::abs(total_si.y) * scale);
}

TEST(AdvectCells, VerticesFollowUniformFlow) {
  auto model = si_rbc();
  lbm::Lattice lat(16, 16, 16, Vec3{-8e-6, -8e-6, -8e-6}, 1e-6, 1.0);
  lat.init_equilibrium(1.0, Vec3{0.02, 0.0, 0.0});
  lat.update_macroscopic();
  cells::CellPool pool(model.get(), cells::CellKind::Rbc, 4);
  pool.add(1, cells::instantiate(*model, Vec3{0, 0, 0}));
  const Vec3 before = pool.cell_centroid(0);
  advect_cells(lat, {&pool}, ibm::DeltaKernel::Cosine4);
  const Vec3 after = pool.cell_centroid(0);
  // One step at u = 0.02 lattice units moves everything 0.02 * dx.
  EXPECT_NEAR(after.x - before.x, 0.02 * 1e-6, 1e-12);
  EXPECT_NEAR(after.y - before.y, 0.0, 1e-12);
  // Velocities are cached on the pool for diagnostics.
  for (const Vec3& v : pool.velocities(0)) {
    EXPECT_NEAR(v.x, 0.02, 1e-9);
  }
}

TEST(AdvectCells, RigidBodyInLinearShearRotatesNotTranslates) {
  auto model = si_rbc();
  lbm::Lattice lat(16, 16, 16, Vec3{-8e-6, -8e-6, -8e-6}, 1e-6, 1.0);
  // u_x = gamma * y, zero at the cell center: centroid stays put while
  // opposite poles move opposite ways.
  for (int z = 0; z < 16; ++z) {
    for (int y = 0; y < 16; ++y) {
      for (int x = 0; x < 16; ++x) {
        const Vec3 p = lat.position(x, y, z);
        lat.mutable_velocity(lat.idx(x, y, z)) =
            Vec3{0.01 * p.y / 1e-6, 0.0, 0.0};
      }
    }
  }
  cells::CellPool pool(model.get(), cells::CellKind::Rbc, 4);
  pool.add(1, cells::instantiate(*model, Vec3{0, 0, 0}));
  advect_cells(lat, {&pool}, ibm::DeltaKernel::Peskin3);
  EXPECT_NEAR(pool.cell_centroid(0).x, 0.0, 2e-10);
  // Top vertices moved +x, bottom vertices -x.
  const auto x = pool.positions(0);
  const auto v = pool.velocities(0);
  for (std::size_t k = 0; k < x.size(); ++k) {
    if (x[k].y > 0.3e-6) {
      EXPECT_GT(v[k].x, 0.0);
    }
    if (x[k].y < -0.3e-6) {
      EXPECT_LT(v[k].x, 0.0);
    }
  }
}

/// A nonuniform lattice velocity field for the stencil-record tests.
void fill_velocity(lbm::Lattice& lat) {
  for (int z = 0; z < lat.nz(); ++z) {
    for (int y = 0; y < lat.ny(); ++y) {
      for (int x = 0; x < lat.nx(); ++x) {
        lat.mutable_velocity(lat.idx(x, y, z)) =
            Vec3{0.01 * std::sin(0.4 * y + 0.1 * z), 0.02 * std::cos(0.3 * x),
                 0.005 * std::sin(0.5 * x + 0.2 * y)};
      }
    }
  }
}

/// The FSI state of the stencil-record tests: a 16^3 lattice and two
/// pools (three RBCs, one more cell), so the record spans two blocks.
struct AdvectFixture {
  std::unique_ptr<fem::MembraneModel> model = si_rbc();
  lbm::Lattice lat{16, 16, 16, Vec3{-8e-6, -8e-6, -8e-6}, 1e-6, 1.0};
  cells::CellPool rbcs{model.get(), cells::CellKind::Rbc, 8};
  cells::CellPool other{model.get(), cells::CellKind::Ctc, 4};

  AdvectFixture() {
    fill_velocity(lat);
    rbcs.add(1, cells::instantiate(*model, Vec3{-2e-6, 0.3e-6, 0.1e-6}));
    rbcs.add(2, cells::instantiate(*model, Vec3{1.5e-6, -1e-6, 0.7e-6}));
    rbcs.add(3, cells::instantiate(*model, Vec3{0.2e-6, 2.2e-6, -1.9e-6}));
    other.add(9, cells::instantiate(*model, Vec3{2.9e-6, 2.5e-6, 2.1e-6}));
  }
  std::vector<cells::CellPool*> pools() { return {&rbcs, &other}; }
  void spread() {
    const UnitConverter conv =
        UnitConverter::from_viscosity(1e-6, 1.2e-3 / 1060.0, 1.0, 1060.0);
    for (cells::CellPool* pool : pools()) {
      for (std::size_t s = 0; s < pool->size(); ++s) {
        for (Vec3& f : pool->forces(s)) f = Vec3{1e-13, -2e-13, 5e-14};
      }
    }
    lat.clear_forces();
    spread_cell_forces(lat, conv, pools(), ibm::DeltaKernel::Cosine4);
  }
  /// Every vertex position, then every cached velocity, in pool order.
  std::vector<Vec3> state() {
    std::vector<Vec3> out;
    for (cells::CellPool* pool : pools()) {
      for (std::size_t s = 0; s < pool->size(); ++s) {
        const auto x = pool->positions(s);
        out.insert(out.end(), x.begin(), x.end());
      }
    }
    for (cells::CellPool* pool : pools()) {
      for (std::size_t s = 0; s < pool->size(); ++s) {
        const auto v = pool->velocities(s);
        out.insert(out.end(), v.begin(), v.end());
      }
    }
    return out;
  }
};

/// advect_cells on a thread that has built no stencil record yet: the
/// fresh path a reused or rebuilt record must reproduce.
void fresh_advect(AdvectFixture& fx, ibm::DeltaKernel kernel) {
  std::thread([&] { advect_cells(fx.lat, fx.pools(), kernel); }).join();
}

TEST(AdvectCells, StaleStencilRecordIsRebuilt) {
  // Between a spread and its advect, anything the record was built from
  // may change; advect_cells must then match the fresh path bit for bit.
  using Change = std::function<void(AdvectFixture&, ibm::DeltaKernel&)>;
  const std::vector<std::pair<const char*, Change>> changes = {
      {"nothing", [](AdvectFixture&, ibm::DeltaKernel&) {}},
      {"one vertex moved",
       [](AdvectFixture& fx, ibm::DeltaKernel&) {
         fx.rbcs.positions(1)[7].x += 0.05e-6;
       }},
      {"lattice origin moved",
       [](AdvectFixture& fx, ibm::DeltaKernel&) {
         fx.lat.set_origin(fx.lat.origin() + Vec3{0.3e-6, 0.0, 0.0});
       }},
      {"lattice spacing changed",
       [](AdvectFixture& fx, ibm::DeltaKernel&) {
         fx.lat = lbm::Lattice(16, 16, 16, fx.lat.origin(), 0.8e-6, 1.0);
         fill_velocity(fx.lat);
       }},
      {"cell added",
       [](AdvectFixture& fx, ibm::DeltaKernel&) {
         fx.other.add(10, cells::instantiate(*fx.model,
                                             Vec3{-3e-6, -2.5e-6, 2e-6}));
       }},
      {"cell removed",
       [](AdvectFixture& fx, ibm::DeltaKernel&) { fx.rbcs.remove(1); }},
      {"kernel changed",
       [](AdvectFixture&, ibm::DeltaKernel& kernel) {
         kernel = ibm::DeltaKernel::Peskin3;
       }},
  };
  for (const auto& [name, change] : changes) {
    SCOPED_TRACE(name);
    AdvectFixture fx;
    auto kernel = ibm::DeltaKernel::Cosine4;
    fx.spread();
    change(fx, kernel);
    advect_cells(fx.lat, fx.pools(), kernel);

    AdvectFixture ref;
    auto ref_kernel = ibm::DeltaKernel::Cosine4;
    change(ref, ref_kernel);
    fresh_advect(ref, ref_kernel);
    expect_bit_identical(fx.state(), ref.state());
  }
}

TEST(AdvectCells, RepeatedAdvectsAfterOneSpreadMatchTheFreshPath) {
  // The call order of step_bench's layer microbench: one spread, then
  // advects of vertices the previous advect already moved.
  AdvectFixture fx, ref;
  fx.spread();
  for (int k = 0; k < 3; ++k) {
    SCOPED_TRACE(k);
    advect_cells(fx.lat, fx.pools(), ibm::DeltaKernel::Cosine4);
    fresh_advect(ref, ibm::DeltaKernel::Cosine4);
    expect_bit_identical(fx.state(), ref.state());
  }
}

}  // namespace
}  // namespace apr::core
