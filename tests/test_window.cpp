#include "src/apr/window.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "src/mesh/shapes.hpp"

namespace apr::core {
namespace {

/// Unit-scale RBC model (radius 1) so geometry is easy to reason about.
std::unique_ptr<fem::MembraneModel> unit_rbc() {
  return std::make_unique<fem::MembraneModel>(mesh::rbc_biconcave(2, 1.0),
                                              fem::MembraneParams{});
}

WindowConfig small_config() {
  WindowConfig cfg;
  cfg.proper_side = 8.0;
  cfg.onramp_width = 4.0;
  cfg.insertion_width = 4.0;
  cfg.target_hematocrit = 0.15;
  return cfg;
}

TEST(Window, RegionGeometryNests) {
  const WindowConfig cfg = small_config();
  EXPECT_DOUBLE_EQ(cfg.outer_side(), 24.0);
  EXPECT_DOUBLE_EQ(cfg.inner_side(), 16.0);
  const Window w({0, 0, 0}, cfg, nullptr);
  EXPECT_TRUE(w.outer_box().contains(w.inner_box()));
  EXPECT_TRUE(w.inner_box().contains(w.proper_box()));
}

TEST(Window, ClassifyIdentifiesAllRegions) {
  const Window w({0, 0, 0}, small_config(), nullptr);
  EXPECT_EQ(w.classify({0, 0, 0}), WindowRegion::Proper);
  EXPECT_EQ(w.classify({3.9, 0, 0}), WindowRegion::Proper);
  EXPECT_EQ(w.classify({6.0, 0, 0}), WindowRegion::OnRamp);
  EXPECT_EQ(w.classify({10.0, 0, 0}), WindowRegion::Insertion);
  EXPECT_EQ(w.classify({13.0, 0, 0}), WindowRegion::Outside);
}

TEST(Window, SubregionsTileTheInsertionShell) {
  const Window w({0, 0, 0}, small_config(), nullptr);
  // Outer box 24^3 tiled by 4-cubes: 6^3 = 216 total, inner 4^3 = 64
  // excluded -> 152 shell subregions.
  EXPECT_EQ(w.subregions().size(), 152u);
  double vol = 0.0;
  for (std::size_t s = 0; s < w.subregions().size(); ++s) {
    const Aabb& box = w.subregions()[s];
    vol += box.volume();
    // Center in the insertion shell.
    EXPECT_EQ(w.classify(box.center()), WindowRegion::Insertion);
    EXPECT_DOUBLE_EQ(w.subregion_fill(s), 1.0);  // no domain
  }
  const double shell = w.outer_box().volume() - w.inner_box().volume();
  EXPECT_NEAR(vol, shell, 1e-9);
}

TEST(Window, SnapCenterAlignsLowerCorner) {
  const WindowConfig cfg = small_config();
  const double dxc = 0.75;
  const Vec3 origin{0.1, 0.2, 0.3};
  const Vec3 snapped = Window::snap_center({5.3, -2.7, 9.9}, cfg, origin, dxc);
  const Vec3 lo = snapped - Vec3{12.0, 12.0, 12.0};
  const Vec3 rel = (lo - origin) / dxc;
  EXPECT_NEAR(rel.x, std::round(rel.x), 1e-9);
  EXPECT_NEAR(rel.y, std::round(rel.y), 1e-9);
  EXPECT_NEAR(rel.z, std::round(rel.z), 1e-9);
  // Snapping moves the center by at most half a coarse spacing per axis.
  EXPECT_LT(std::abs(snapped.x - 5.3), dxc);
}

TEST(Window, PopulateReachesTargetHematocrit) {
  const auto rbc = unit_rbc();
  const WindowConfig cfg = small_config();
  const Window w({0, 0, 0}, cfg, nullptr);
  cells::CellPool pool(rbc.get(), cells::CellKind::Rbc, 2500);
  Rng tile_rng(1);
  const cells::RbcTile tile =
      cells::RbcTile::generate(*rbc, 6.0, cfg.target_hematocrit * 1.3,
                               tile_rng);
  Rng rng(2);
  std::uint64_t next_id = 1;
  const PopulationReport rep = w.populate(pool, tile, rng, next_id);
  EXPECT_GT(rep.added, 0);
  EXPECT_EQ(pool.size(), static_cast<std::size_t>(rep.added));
  EXPECT_NEAR(w.hematocrit(pool), cfg.target_hematocrit,
              0.5 * cfg.target_hematocrit);
}

TEST(Window, PopulateAvoidsCtcClearance) {
  const auto rbc = unit_rbc();
  const auto ctc = std::make_unique<fem::MembraneModel>(
      mesh::ctc_sphere(2, 2.0), fem::MembraneParams{});
  const WindowConfig cfg = small_config();
  const Window w({0, 0, 0}, cfg, nullptr);
  cells::CellPool pool(rbc.get(), cells::CellKind::Rbc, 2500);
  const auto ctc_verts = cells::instantiate(*ctc, Vec3{0, 0, 0});
  Rng tile_rng(1);
  const cells::RbcTile tile =
      cells::RbcTile::generate(*rbc, 6.0, 0.2, tile_rng);
  Rng rng(3);
  std::uint64_t next_id = 1;
  w.populate(pool, tile, rng, next_id, ctc_verts);
  // No RBC centroid may sit inside the CTC.
  for (std::size_t s = 0; s < pool.size(); ++s) {
    EXPECT_GT(norm(pool.cell_centroid(s)), 1.0);
  }
}

TEST(Window, RemoveExitedCellsByCentroid) {
  const auto rbc = unit_rbc();
  const Window w({0, 0, 0}, small_config(), nullptr);
  cells::CellPool pool(rbc.get(), cells::CellKind::Rbc, 8);
  pool.add(1, cells::instantiate(*rbc, Vec3{0, 0, 0}));        // inside
  pool.add(2, cells::instantiate(*rbc, Vec3{11.5, 0, 0}));     // insertion
  pool.add(3, cells::instantiate(*rbc, Vec3{14.0, 0, 0}));     // outside
  pool.add(4, cells::instantiate(*rbc, Vec3{0, -20.0, 0}));    // outside
  EXPECT_EQ(w.remove_exited_cells(pool), 2);
  EXPECT_TRUE(pool.contains(1));
  EXPECT_TRUE(pool.contains(2));
  EXPECT_FALSE(pool.contains(3));
  EXPECT_FALSE(pool.contains(4));
}

TEST(Window, MaintainRefillsDepletedSubregions) {
  const auto rbc = unit_rbc();
  const WindowConfig cfg = small_config();
  const Window w({0, 0, 0}, cfg, nullptr);
  cells::CellPool pool(rbc.get(), cells::CellKind::Rbc, 2500);
  Rng tile_rng(1);
  const cells::RbcTile tile =
      cells::RbcTile::generate(*rbc, 6.0, cfg.target_hematocrit * 1.3,
                               tile_rng);
  Rng rng(5);
  std::uint64_t next_id = 1;
  // Empty window: every subregion is below threshold.
  const PopulationReport rep = w.maintain(pool, tile, rng, next_id);
  EXPECT_EQ(rep.subregions_refilled,
            static_cast<int>(w.subregions().size()));
  EXPECT_GT(rep.added, 0);

  // A second maintain right away must be mostly idle (density present).
  const PopulationReport rep2 = w.maintain(pool, tile, rng, next_id);
  EXPECT_LT(rep2.subregions_refilled, rep.subregions_refilled / 3);
}

TEST(Window, MaintainOnlyTouchesInsertionShell) {
  const auto rbc = unit_rbc();
  const WindowConfig cfg = small_config();
  const Window w({0, 0, 0}, cfg, nullptr);
  cells::CellPool pool(rbc.get(), cells::CellKind::Rbc, 2500);
  Rng tile_rng(1);
  const cells::RbcTile tile =
      cells::RbcTile::generate(*rbc, 6.0, 0.25, tile_rng);
  Rng rng(7);
  std::uint64_t next_id = 1;
  w.maintain(pool, tile, rng, next_id);
  for (std::size_t s = 0; s < pool.size(); ++s) {
    EXPECT_EQ(w.classify(pool.cell_centroid(s)), WindowRegion::Insertion);
  }
}

TEST(Window, MaintainedCellsNeverOverlapExisting) {
  const auto rbc = unit_rbc();
  const WindowConfig cfg = small_config();
  const Window w({0, 0, 0}, cfg, nullptr);
  cells::CellPool pool(rbc.get(), cells::CellKind::Rbc, 2500);
  Rng tile_rng(1);
  const cells::RbcTile tile =
      cells::RbcTile::generate(*rbc, 6.0, 0.3, tile_rng, 0.3);
  Rng rng(9);
  std::uint64_t next_id = 1;
  w.maintain(pool, tile, rng, next_id);
  // Verify pairwise clearance (min distance used by stamping: 0.15 rmax).
  cells::SubGrid grid(w.outer_box().inflated(3.0), 1.0);
  for (std::size_t s = 0; s < pool.size(); ++s) {
    EXPECT_FALSE(
        cells::overlaps_existing(pool.positions(s), pool.id(s), grid, 0.1));
    const auto x = pool.positions(s);
    for (std::size_t v = 0; v < x.size(); ++v) {
      grid.insert(x[v], pool.id(s), static_cast<int>(v));
    }
  }
}

/// maintain() with every subregion reading recomputing cells::bounds of
/// every cell, and the refills it made: subregion and first added slot.
/// `rescued` counts the subregions skipped only because of cells added
/// earlier in the pass. No domain, so every fill is 1 and no stamped cell
/// meets a wall.
struct ReferencePass {
  PopulationReport report;
  std::vector<std::size_t> refilled;
  std::vector<std::size_t> first_slot;
  int rescued = 0;
};

ReferencePass reference_maintain(const Window& w, cells::CellPool& rbcs,
                                 const cells::RbcTile& tile, Rng& rng,
                                 std::uint64_t& next_id) {
  ReferencePass out;
  out.report.removed_outside = w.remove_exited_cells(rbcs);
  const WindowConfig& cfg = w.config();
  const double floor_ht = cfg.repopulation_threshold * cfg.target_hematocrit;
  const double rmax = rbcs.model().max_radius();
  const double nv = static_cast<double>(rbcs.vertices_per_cell());
  // Hematocrit of the measure box of subregion `s` over slots [0, end).
  const auto reading = [&](std::size_t s, std::size_t end) {
    const Aabb box = w.subregions()[s].inflated(rmax).intersect(w.outer_box());
    double cell_volume = 0.0;
    for (std::size_t slot = 0; slot < end; ++slot) {
      const auto x = rbcs.positions(slot);
      if (!box.overlaps(cells::bounds(x))) continue;
      int inside = 0;
      for (const Vec3& v : x) inside += box.contains(v) ? 1 : 0;
      if (inside > 0) cell_volume += rbcs.model().ref_volume() * (inside / nv);
    }
    return cell_volume / box.volume();
  };
  std::optional<cells::SubGrid> grid;
  for (std::size_t s = 0; s < w.subregions().size(); ++s) {
    const Aabb& sub = w.subregions()[s];
    if (reading(s, rbcs.size()) >= floor_ht) {
      if (!out.first_slot.empty() &&
          reading(s, out.first_slot.front()) < floor_ht) {
        ++out.rescued;
      }
      continue;
    }
    ++out.report.subregions_refilled;
    out.refilled.push_back(s);
    out.first_slot.push_back(rbcs.size());
    if (!grid) grid.emplace(w.insertion_grid(rbcs));
    const Mat3 rot = random_rotation(rng);
    const double jitter = tile.side() * 0.1;
    const Vec3 center =
        sub.center() + Vec3{rng.uniform(-jitter, jitter),
                            rng.uniform(-jitter, jitter),
                            rng.uniform(-jitter, jitter)};
    std::vector<cells::Candidate> candidates;
    for (auto& verts : tile.instantiate_at(rbcs.model(), center, rot)) {
      if (!sub.contains(cells::centroid(verts))) continue;
      candidates.push_back({next_id++, std::move(verts)});
    }
    const int stamped = static_cast<int>(candidates.size());
    const int added = w.insert_cells(std::move(candidates), *grid, rbcs);
    out.report.rejected_overlap += stamped - added;
    out.report.added += added;
  }
  return out;
}

TEST(Window, MaintainSeesCellsStampedEarlierInThePass) {
  // A populated window with the cells of two neighbouring subregions
  // removed: one maintain pass refills both, and the cells stamped for the
  // first reach into the second's measure box. The pass reuses one box
  // per cell, extended as refills append cells; it must match the
  // reference that recomputes every box for every subregion, bit for bit.
  const auto rbc = unit_rbc();
  const WindowConfig cfg = small_config();
  const Window w({0, 0, 0}, cfg, nullptr);
  Rng tile_rng(1);
  const cells::RbcTile tile =
      cells::RbcTile::generate(*rbc, 6.0, cfg.target_hematocrit * 1.3,
                               tile_rng);
  const double rmax = rbc->max_radius();
  const auto depleted_window = [&](cells::CellPool& pool,
                                   std::uint64_t& next_id) {
    Rng rng(13);
    w.populate(pool, tile, rng, next_id);
    std::vector<std::uint64_t> doomed;
    for (std::size_t slot = 0; slot < pool.size(); ++slot) {
      const Vec3 c = pool.cell_centroid(slot);
      if (w.subregions()[0].contains(c) || w.subregions()[1].contains(c)) {
        doomed.push_back(pool.id(slot));
      }
    }
    for (const auto id : doomed) pool.remove(id);
  };

  cells::CellPool pool(rbc.get(), cells::CellKind::Rbc, 2500);
  std::uint64_t next_id = 1;
  depleted_window(pool, next_id);
  cells::CellPool ref_pool(rbc.get(), cells::CellKind::Rbc, 2500);
  std::uint64_t ref_next_id = 1;
  depleted_window(ref_pool, ref_next_id);
  ASSERT_EQ(pool.size(), ref_pool.size());

  Rng rng(17);
  const PopulationReport rep = w.maintain(pool, tile, rng, next_id);
  Rng ref_rng(17);
  const ReferencePass ref =
      reference_maintain(w, ref_pool, tile, ref_rng, ref_next_id);

  // The scenario: subregions 0 and 1 refill in that order, and a cell
  // added for 0 overlaps 1's measure box.
  ASSERT_GE(ref.refilled.size(), 2u);
  EXPECT_EQ(ref.refilled[0], 0u);
  EXPECT_EQ(ref.refilled[1], 1u);
  const Aabb measure1 =
      w.subregions()[1].inflated(rmax).intersect(w.outer_box());
  bool reaches = false;
  for (std::size_t slot = ref.first_slot[0]; slot < ref.first_slot[1];
       ++slot) {
    reaches |= measure1.overlaps(cells::bounds(ref_pool.positions(slot)));
  }
  EXPECT_TRUE(reaches);
  // And some subregion reads above the floor only with the cells stamped
  // earlier in the pass, so a pass blind to them would refill it.
  EXPECT_GT(ref.rescued, 0);

  EXPECT_EQ(rep.added, ref.report.added);
  EXPECT_EQ(rep.rejected_overlap, ref.report.rejected_overlap);
  EXPECT_EQ(rep.rejected_wall, ref.report.rejected_wall);
  EXPECT_EQ(rep.removed_outside, ref.report.removed_outside);
  EXPECT_EQ(rep.subregions_refilled, ref.report.subregions_refilled);
  EXPECT_EQ(next_id, ref_next_id);
  ASSERT_EQ(pool.size(), ref_pool.size());
  std::size_t differing = 0;
  for (std::size_t slot = 0; slot < pool.size(); ++slot) {
    EXPECT_EQ(pool.id(slot), ref_pool.id(slot));
    const auto x = pool.positions(slot);
    const auto y = ref_pool.positions(slot);
    for (std::size_t v = 0; v < x.size(); ++v) {
      differing += std::bit_cast<std::uint64_t>(x[v].x) !=
                       std::bit_cast<std::uint64_t>(y[v].x) ||
                   std::bit_cast<std::uint64_t>(x[v].y) !=
                       std::bit_cast<std::uint64_t>(y[v].y) ||
                   std::bit_cast<std::uint64_t>(x[v].z) !=
                       std::bit_cast<std::uint64_t>(y[v].z);
    }
  }
  EXPECT_EQ(differing, 0u);
}

TEST(Window, DomainRestrictsInsertion) {
  // Window partially outside a tube: cells only placed in the flow.
  const auto rbc = unit_rbc();
  auto tube = std::make_unique<geometry::TubeDomain>(
      Vec3{0, 0, -50.0}, Vec3{0, 0, 1.0}, 100.0, 10.0);
  WindowConfig cfg = small_config();
  const Window w({8.0, 0, 0}, cfg, tube.get());  // grazes the tube wall
  cells::CellPool pool(rbc.get(), cells::CellKind::Rbc, 2500);
  Rng tile_rng(1);
  const cells::RbcTile tile =
      cells::RbcTile::generate(*rbc, 6.0, 0.25, tile_rng);
  Rng rng(11);
  std::uint64_t next_id = 1;
  const PopulationReport rep = w.populate(pool, tile, rng, next_id);
  EXPECT_GT(rep.rejected_wall, 0);
  for (std::size_t s = 0; s < pool.size(); ++s) {
    const auto x = pool.positions(s);
    for (const auto& v : x) EXPECT_TRUE(tube->inside(v));
  }
}

TEST(Window, HematocritCountsOnlyWindowCells) {
  const auto rbc = unit_rbc();
  const Window w({0, 0, 0}, small_config(), nullptr);
  cells::CellPool pool(rbc.get(), cells::CellKind::Rbc, 8);
  EXPECT_DOUBLE_EQ(w.hematocrit(pool), 0.0);
  pool.add(1, cells::instantiate(*rbc, Vec3{0, 0, 0}));
  pool.add(2, cells::instantiate(*rbc, Vec3{100.0, 0, 0}));  // far away
  const double expected = rbc->ref_volume() / w.outer_box().volume();
  EXPECT_NEAR(w.hematocrit(pool), expected, 1e-12);
}

TEST(Window, InvalidConfigRejected) {
  WindowConfig bad = small_config();
  bad.proper_side = -1.0;
  EXPECT_THROW(Window({0, 0, 0}, bad, nullptr), std::invalid_argument);
}

TEST(Window, MisTilingConfigRejected) {
  // outer = 8 + 2*(4 + 5) = 26; 26 / 5 is not integral, so the insertion
  // shell cannot be tiled by insertion-width cubes. Both the constructor
  // and validate() itself must refuse.
  WindowConfig bad = small_config();
  bad.insertion_width = 5.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  EXPECT_THROW(Window({0, 0, 0}, bad, nullptr), std::invalid_argument);
  try {
    bad.validate();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("insertion_width"),
              std::string::npos);
  }

  // Fractional-but-exact tilings are fine (outer 22 = 4 x 5.5).
  WindowConfig ok;
  ok.proper_side = 6.0;
  ok.onramp_width = 2.5;
  ok.insertion_width = 5.5;
  EXPECT_NO_THROW(ok.validate());
}

/// Test double counting every signed_distance evaluation: proves the
/// whole-box fill is cached, not re-sampled per hematocrit() call.
class CountingBoxDomain final : public geometry::Domain {
 public:
  explicit CountingBoxDomain(const Aabb& box) : box_(box) {}
  double signed_distance(const Vec3& p) const override {
    ++calls;
    const Vec3 lo = p - box_.lo;
    const Vec3 hi = box_.hi - p;
    return std::min({lo.x, lo.y, lo.z, hi.x, hi.y, hi.z});
  }
  Aabb bounds() const override { return box_; }
  mutable long calls = 0;

 private:
  Aabb box_;
};

TEST(Window, HematocritFillIsCachedNotResampled) {
  const auto rbc = unit_rbc();
  CountingBoxDomain domain(Aabb({-20, -20, -20}, {20, 20, 20}));
  const Window w({0, 0, 0}, small_config(), &domain);
  cells::CellPool pool(rbc.get(), cells::CellKind::Rbc, 8);
  pool.add(1, cells::instantiate(*rbc, Vec3{0, 0, 0}));

  // Construction samples the domain (per-subregion fills + the whole-box
  // fill); everything after that must run off the caches.
  const long after_build = domain.calls;
  EXPECT_GT(after_build, 0);
  const double ht0 = w.hematocrit(pool);
  EXPECT_GT(ht0, 0.0);
  EXPECT_EQ(domain.calls, after_build)
      << "hematocrit() re-sampled the domain";
  // Repeated calls -- one per maintenance pass in a long run -- stay flat.
  for (int k = 0; k < 50; ++k) {
    EXPECT_DOUBLE_EQ(w.hematocrit(pool), ht0);
  }
  EXPECT_EQ(domain.calls, after_build);
  // The window is fully inside the flow here, so the cached fill is 1.
  EXPECT_DOUBLE_EQ(w.outer_fill(), 1.0);
}

}  // namespace
}  // namespace apr::core
