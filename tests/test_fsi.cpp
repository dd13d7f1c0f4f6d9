/// Targeted tests of the shared FSI free functions (paper §2.3 glue):
/// force assembly (membrane + contact + wall), SI->lattice spreading and
/// IBM advection, independent of the full simulation drivers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/apr/simulation.hpp"
#include "src/cells/overlap.hpp"
#include "src/common/rng.hpp"
#include "src/exec/exec.hpp"
#include "src/geometry/vasculature.hpp"
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
  EXPECT_GT(compute_cell_forces({&pool}, nullptr, fsi), 0u);
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

TEST(ComputeCellForces, ContactIgnoresSameCell) {
  auto model = si_rbc();
  cells::CellPool pool(model.get(), cells::CellKind::Rbc, 2);
  pool.add(1, cells::instantiate(*model, Vec3{0, 0, 0}));
  compute_cell_forces({&pool}, nullptr, FsiParams{});
  const std::vector<Vec3> membrane = all_forces(pool);
  // A cutoff as wide as the cell puts its own vertices within range.
  FsiParams fsi;
  fsi.contact_cutoff = 1e-6;
  fsi.contact_strength = 1e-12;
  EXPECT_EQ(compute_cell_forces({&pool}, nullptr, fsi), 0u);
  expect_bit_identical(all_forces(pool), membrane);
}

/// The three-pass algorithm the fused pass replaced, kept as the oracle:
/// membrane assembly for every cell, then contact through a SubGrid over
/// every vertex walked per vertex, then wall repulsion per vertex. Returns
/// the number of contact pairs.
std::size_t three_pass_reference(const std::vector<cells::CellPool*>& pools,
                                 const geometry::Domain* domain,
                                 const FsiParams& p) {
  for (cells::CellPool* pool : pools) pool->clear_forces();
  for (cells::CellPool* pool : pools) {
    for (std::size_t s = 0; s < pool->size(); ++s) {
      pool->model().add_forces(pool->positions(s), pool->forces(s));
    }
  }
  std::size_t pairs = 0;
  if (p.contact_cutoff > 0.0 && p.contact_strength > 0.0) {
    Aabb all;
    for (cells::CellPool* pool : pools) {
      for (std::size_t s = 0; s < pool->size(); ++s) {
        const Vec3 c = pool->cell_centroid(s);
        if (std::isfinite(c.x) && std::isfinite(c.y) && std::isfinite(c.z)) {
          all.include(c);
        }
      }
    }
    const double rmax = pools.front()->model().max_radius();
    cells::SubGrid grid(all.inflated(2.0 * rmax + p.contact_cutoff),
                        std::max(p.contact_cutoff, rmax / 2.0));
    cells::fill_subgrid(grid, {pools.begin(), pools.end()});
    const double cutoff = p.contact_cutoff;
    const double c2 = cutoff * cutoff;
    for (cells::CellPool* pool : pools) {
      for (std::size_t s = 0; s < pool->size(); ++s) {
        const auto x = pool->positions(s);
        const auto f = pool->forces(s);
        const std::uint64_t id = pool->id(s);
        for (std::size_t v = 0; v < x.size(); ++v) {
          Vec3 acc{};
          grid.for_neighbors(x[v], cutoff, [&](const cells::SubGrid::Entry& e) {
            if (e.cell_id == id) return;
            const Vec3 d = x[v] - e.p;
            const double d2 = norm2(d);
            if (d2 >= c2 || d2 <= 0.0) return;
            const double dist = std::sqrt(d2);
            const double overlap = 1.0 - dist / cutoff;
            acc += d * (p.contact_strength * overlap * overlap / dist);
            ++pairs;
          });
          f[v] += acc;
        }
      }
    }
  }
  if (domain && p.wall_cutoff > 0.0 && p.wall_strength > 0.0) {
    const double eps = p.wall_cutoff / 4.0;
    for (cells::CellPool* pool : pools) {
      for (std::size_t s = 0; s < pool->size(); ++s) {
        const auto x = pool->positions(s);
        const auto f = pool->forces(s);
        for (std::size_t v = 0; v < x.size(); ++v) {
          const double d = domain->signed_distance(x[v]);
          if (d >= p.wall_cutoff) continue;
          const double pen = 1.0 - std::max(d, 0.0) / p.wall_cutoff;
          f[v] += domain->inward_normal(x[v], eps) *
                  (p.wall_strength * pen * pen);
        }
      }
    }
  }
  return pairs;
}

std::unique_ptr<fem::MembraneModel> si_ctc() {
  fem::MembraneParams p;
  p.shear_modulus = 2e-5;
  p.bending_modulus = 2e-18;
  p.ka_global = 1e-5;
  p.kv_global = 1e-5;
  return std::make_unique<fem::MembraneModel>(mesh::ctc_sphere(1, 1.6e-6),
                                              p);
}

/// `model`'s shape rotated at random and deformed by a few percent, so
/// every membrane term is live and no two cells align.
std::vector<Vec3> random_cell(const fem::MembraneModel& model,
                              const Vec3& centre, Rng& rng) {
  auto verts = cells::instantiate(model, centre, random_rotation(rng));
  for (Vec3& v : verts) {
    v = centre + (v - centre) * rng.uniform(0.95, 1.05);
  }
  return verts;
}

/// Up to `count` cell centres in the domain's box whose signed distance
/// lies in [lo, hi].
std::vector<Vec3> centres_at_depth(const geometry::Domain& domain, Rng& rng,
                                   int count, double lo, double hi) {
  const Aabb b = domain.bounds();
  std::vector<Vec3> out;
  for (int tries = 0; tries < 200000 && static_cast<int>(out.size()) < count;
       ++tries) {
    const Vec3 c = rng.point_in_box(b.lo, b.hi);
    const double d = domain.signed_distance(c);
    if (d >= lo && d <= hi) out.push_back(c);
  }
  return out;
}

/// Two cells whose closest vertices sit `gap` apart on either side of the
/// plane `axis` = `face`: the second is the first turned half a revolution
/// about a line in that plane through the midpoint of the two vertices.
void add_straddling_pair(cells::CellPool& pool, const fem::MembraneModel& model,
                         const Vec3& around, int axis, double face, double gap,
                         std::uint64_t id, Rng& rng) {
  std::vector<Vec3> a = random_cell(model, around, rng);
  std::size_t top = 0;
  for (std::size_t v = 1; v < a.size(); ++v) {
    if (a[v][axis] > a[top][axis]) top = v;
  }
  Vec3 shift{};
  shift[axis] = face - 0.5 * gap - a[top][axis];
  cells::translate(a, shift);
  Vec3 pivot = a[top];
  pivot[axis] = face;
  Vec3 w{};
  w[(axis + 1) % 3] = 1.0;
  std::vector<Vec3> b;
  for (const Vec3& v : a) {
    const Vec3 r = v - pivot;
    b.push_back(pivot + w * (2.0 * dot(r, w)) - r);
  }
  pool.add(id, a);
  pool.add(id + 1, b);
}

/// compute_cell_forces at 1 and at 3 workers equals the three-pass
/// reference bit for bit, contact pair count included.
void expect_matches_reference(const std::vector<cells::CellPool*>& pools,
                              const geometry::Domain* domain,
                              const FsiParams& fsi) {
  const auto forces_of = [&] {
    std::vector<Vec3> out;
    for (const cells::CellPool* pool : pools) {
      const auto f = all_forces(*pool);
      out.insert(out.end(), f.begin(), f.end());
    }
    return out;
  };
  const std::size_t want_pairs = three_pass_reference(pools, domain, fsi);
  const std::vector<Vec3> want = forces_of();
  const int saved = exec::num_workers();
  for (const int workers : {1, 3}) {
    SCOPED_TRACE(workers);
    exec::set_num_workers(workers);
    EXPECT_EQ(compute_cell_forces(pools, domain, fsi), want_pairs);
    expect_bit_identical(forces_of(), want);
  }
  exec::set_num_workers(saved);
}

/// Contact and wall both on, with a cutoff at the frame spacing.
FsiParams reference_params() {
  FsiParams fsi;
  fsi.contact_cutoff = 0.5e-6;
  fsi.contact_strength = 1e-12;
  fsi.wall_cutoff = 0.5e-6;
  fsi.wall_strength = 1e-12;
  return fsi;
}

TEST(ComputeCellForces, MatchesThreePassGridReferenceBitForBit) {
  auto rbc = si_rbc();
  auto ctc = si_ctc();
  const FsiParams fsi = reference_params();
  const double um = 1e-6;
  // A tapered branching vessel: the Vasculature's Lipschitz bound is > 1.
  const geometry::Vasculature vessel({
      {{0, 0, 0}, {0, 0, 30 * um}, 7 * um, 6 * um, -1, 0},
      {{0, 0, 30 * um}, {8 * um, 0, 50 * um}, 6 * um, 4 * um, 0, 1},
      {{0, 0, 30 * um}, {-8 * um, 2 * um, 50 * um}, 6 * um, 4.5 * um, 0, 1},
  });
  Rng rng(2207);
  cells::CellPool rbcs(rbc.get(), cells::CellKind::Rbc, 128);
  cells::CellPool ctcs(ctc.get(), cells::CellKind::Ctc, 8);
  std::uint64_t id = 1;
  // A dense random pack: most vertices have partners in several buckets.
  for (int i = 0; i < 60; ++i) {
    rbcs.add(id++, random_cell(*rbc,
                               rng.point_in_box({-3 * um, -3 * um, 10 * um},
                                                {3 * um, 3 * um, 20 * um}),
                               rng));
  }
  // Cells reaching into the wall cutoff, and a few just clear of it.
  for (const Vec3& c : centres_at_depth(vessel, rng, 12, 0.8 * um, 1.3 * um)) {
    rbcs.add(id++, random_cell(*rbc, c, rng));
  }
  for (const Vec3& c : centres_at_depth(vessel, rng, 6, 1.6 * um, 2.5 * um)) {
    rbcs.add(id++, random_cell(*rbc, c, rng));
  }
  // A far-flung cell that stretches the frame along z.
  rbcs.add(id++, random_cell(*rbc, {0, 0, 200 * um}, rng));
  // Pairs in contact across frame bucket faces, one pair per axis. The
  // frame is fixed by the cells above (the pairs' centroids lie inside
  // their centroid box): lo = box lo - (2 rmax + cutoff).
  Aabb centroids;
  for (std::size_t s = 0; s < rbcs.size(); ++s) {
    centroids.include(rbcs.cell_centroid(s));
  }
  const Vec3 lo =
      centroids.inflated(2.0 * rbc->max_radius() + fsi.contact_cutoff).lo;
  const double spacing = std::max(fsi.contact_cutoff, rbc->max_radius() / 2);
  const Vec3 around{0.5 * um, -0.5 * um, 15 * um};
  for (int axis = 0; axis < 3; ++axis) {
    const double face =
        lo[axis] + std::round((around[axis] - lo[axis]) / spacing) * spacing;
    add_straddling_pair(rbcs, *rbc, around, axis, face, 0.2 * um, id, rng);
    id += 2;
  }
  // CTCs in the pack: a second pool in the same search.
  for (int i = 0; i < 4; ++i) {
    ctcs.add(1000 + static_cast<std::uint64_t>(i),
             random_cell(*ctc,
                         rng.point_in_box({-3 * um, -3 * um, 10 * um},
                                          {3 * um, 3 * um, 20 * um}),
                         rng));
  }
  ASSERT_GE(rbcs.size(), 85u);

  // The wall term fires for some cells, so the cull is exercised both ways.
  FsiParams no_wall = fsi;
  no_wall.wall_cutoff = 0.0;
  three_pass_reference({&rbcs, &ctcs}, &vessel, no_wall);
  const std::vector<Vec3> without = all_forces(rbcs);
  EXPECT_GT(three_pass_reference({&rbcs, &ctcs}, &vessel, fsi), 1000u);
  EXPECT_NE(all_forces(rbcs), without);

  expect_matches_reference({&rbcs, &ctcs}, &vessel, fsi);
  expect_matches_reference({&ctcs, &rbcs}, &vessel, fsi);
}

TEST(ComputeCellForces, MatchesThreePassGridReferenceNearEveryDomainWall) {
  auto rbc = si_rbc();
  const FsiParams fsi = reference_params();
  const double um = 1e-6;
  std::vector<std::unique_ptr<geometry::Domain>> domains;
  domains.push_back(std::make_unique<geometry::BoxDomain>(
      Aabb{{-8 * um, -8 * um, -8 * um}, {8 * um, 8 * um, 8 * um}}));
  for (const bool capped : {true, false}) {
    domains.push_back(std::make_unique<geometry::TubeDomain>(
        Vec3{0, 0, -10 * um}, Vec3{0.2, 0.1, 1.0}, 20 * um, 6 * um, capped));
  }
  domains.push_back(std::make_unique<geometry::ExpandingChannelDomain>(
      Vec3{0, 0, 0}, 40 * um, 4 * um, 8 * um, 10 * um, 15 * um));
  // A steep cone (Lipschitz bound 1 + 15/16): a cull that took the bound
  // as 1 would drop wall forces of cells in the band just past R + cutoff.
  domains.push_back(std::make_unique<geometry::Vasculature>(
      std::vector<geometry::VesselSegment>{
          {{0, 0, 0}, {0, 0, 8 * um}, 8 * um, 0.5 * um, -1, 0}}));
  Rng rng(2208);
  for (const auto& domain : domains) {
    cells::CellPool pool(rbc.get(), cells::CellKind::Rbc, 64);
    std::uint64_t id = 1;
    // Deep cells, cells within the cutoff, and cells just clear of it.
    for (const auto& [lo, hi] : {std::pair{2.5 * um, 50 * um},
                                 std::pair{0.7 * um, 1.4 * um},
                                 std::pair{1.45 * um, 1.75 * um}}) {
      for (const Vec3& c : centres_at_depth(*domain, rng, 20, lo, hi)) {
        pool.add(id++, random_cell(*rbc, c, rng));
      }
    }
    ASSERT_EQ(pool.size(), 60u);
    FsiParams no_wall = fsi;
    no_wall.wall_cutoff = 0.0;
    three_pass_reference({&pool}, domain.get(), no_wall);
    const std::vector<Vec3> without = all_forces(pool);
    three_pass_reference({&pool}, domain.get(), fsi);
    EXPECT_NE(all_forces(pool), without);
    expect_matches_reference({&pool}, domain.get(), fsi);
  }
}

TEST(ComputeCellForces, PoisonedCellStaysOutOfTheContactSearch) {
  auto rbc = si_rbc();
  const FsiParams fsi = reference_params();
  const double um = 1e-6;
  const geometry::TubeDomain tube({0, 0, -10 * um}, {0, 0, 1}, 20 * um,
                                  4 * um);
  Rng rng(2209);
  std::vector<std::vector<Vec3>> healthy;
  for (int i = 0; i < 30; ++i) {
    healthy.push_back(random_cell(
        *rbc, rng.point_in_box({-2.5 * um, -2.5 * um, -4 * um},
                               {2.5 * um, 2.5 * um, 4 * um}),
        rng));
  }
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<Vec3> nan_cell = random_cell(*rbc, {0, 0, 0}, rng);
  nan_cell[3].y = kNaN;
  std::vector<Vec3> inf_cell = random_cell(*rbc, {0.5 * um, 0, 1 * um}, rng);
  inf_cell[7].x = kInf;

  cells::CellPool clean(rbc.get(), cells::CellKind::Rbc, 40);
  cells::CellPool poisoned(rbc.get(), cells::CellKind::Rbc, 40);
  for (std::size_t i = 0; i < healthy.size(); ++i) {
    clean.add(i + 1, healthy[i]);
    poisoned.add(i + 1, healthy[i]);
    if (i == 10) poisoned.add(100, nan_cell);
    if (i == 20) poisoned.add(101, inf_cell);
  }
  const std::size_t clean_pairs = compute_cell_forces({&clean}, &tube, fsi);
  EXPECT_GT(clean_pairs, 0u);
  EXPECT_EQ(compute_cell_forces({&poisoned}, &tube, fsi), clean_pairs);
  for (std::size_t i = 0; i < healthy.size(); ++i) {
    const auto want = clean.forces(clean.slot_of(i + 1));
    const auto got = poisoned.forces(poisoned.slot_of(i + 1));
    expect_bit_identical({got.begin(), got.end()}, {want.begin(), want.end()});
  }
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
