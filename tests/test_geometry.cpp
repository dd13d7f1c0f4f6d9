#include "src/geometry/domain.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

#include "src/common/rng.hpp"
#include "src/geometry/vasculature.hpp"
#include "src/geometry/voxelizer.hpp"

namespace apr::geometry {
namespace {

TEST(BoxDomain, SignedDistanceAndContainment) {
  const BoxDomain box(Aabb({0, 0, 0}, {2, 4, 6}));
  EXPECT_TRUE(box.inside({1, 2, 3}));
  EXPECT_FALSE(box.inside({3, 2, 3}));
  EXPECT_DOUBLE_EQ(box.signed_distance({1, 2, 3}), 1.0);
  EXPECT_DOUBLE_EQ(box.signed_distance({0.25, 2, 3}), 0.25);
  EXPECT_LT(box.signed_distance({-1, 2, 3}), 0.0);
}

TEST(BoxDomain, InwardNormalPointsInward) {
  const BoxDomain box(Aabb({0, 0, 0}, {10, 10, 10}));
  const Vec3 n = box.inward_normal({0.5, 5, 5}, 0.1);
  EXPECT_GT(n.x, 0.9);
  const Vec3 n2 = box.inward_normal({5, 9.5, 5}, 0.1);
  EXPECT_LT(n2.y, -0.9);
}

TEST(TubeDomain, RadialAndAxialDistances) {
  const TubeDomain tube({0, 0, 0}, {0, 0, 1}, 10.0, 2.0);
  EXPECT_TRUE(tube.inside({0, 0, 5}));
  EXPECT_FALSE(tube.inside({3, 0, 5}));
  EXPECT_FALSE(tube.inside({0, 0, -1}));
  EXPECT_DOUBLE_EQ(tube.signed_distance({0, 0, 5}), 2.0);  // radial limit
  EXPECT_DOUBLE_EQ(tube.signed_distance({0, 0, 1}), 1.0);  // axial limit
  EXPECT_DOUBLE_EQ(tube.radial_distance({1.5, 0, 5}), 1.5);
}

TEST(TubeDomain, WorksAlongArbitraryAxis) {
  const Vec3 axis = normalized(Vec3{1, 1, 0});
  const TubeDomain tube({0, 0, 0}, axis, 10.0, 1.0);
  EXPECT_TRUE(tube.inside(axis * 5.0));
  EXPECT_FALSE(tube.inside(axis * 5.0 + Vec3{0, 0, 2.0}));
}

TEST(TubeDomain, RejectsBadParameters) {
  EXPECT_THROW(TubeDomain({0, 0, 0}, {0, 0, 1}, 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(TubeDomain({0, 0, 0}, {0, 0, 1}, 1.0, -1.0),
               std::invalid_argument);
}

TEST(ExpandingChannel, RadiusProfile) {
  // 200 um -> 400 um expansion at z = 400 um over 100 um (paper-like).
  const ExpandingChannelDomain ch({0, 0, 0}, 2000e-6, 100e-6, 200e-6, 400e-6,
                                  100e-6);
  EXPECT_DOUBLE_EQ(ch.radius_at(0.0), 100e-6);
  EXPECT_DOUBLE_EQ(ch.radius_at(400e-6), 100e-6);
  EXPECT_DOUBLE_EQ(ch.radius_at(450e-6), 150e-6);  // mid-transition
  EXPECT_DOUBLE_EQ(ch.radius_at(500e-6), 200e-6);
  EXPECT_DOUBLE_EQ(ch.radius_at(1500e-6), 200e-6);
}

TEST(ExpandingChannel, InsideRespectsLocalRadius) {
  const ExpandingChannelDomain ch({0, 0, 0}, 2000e-6, 100e-6, 200e-6, 400e-6,
                                  100e-6);
  EXPECT_TRUE(ch.inside({0, 0, 200e-6}));
  EXPECT_FALSE(ch.inside({150e-6, 0, 200e-6}));   // beyond inlet radius
  EXPECT_TRUE(ch.inside({150e-6, 0, 1000e-6}));   // fits after expansion
  EXPECT_FALSE(ch.inside({0, 0, 2100e-6}));       // past the end
}

TEST(ExpandingChannel, ValidatesGeometry) {
  EXPECT_THROW(ExpandingChannelDomain({0, 0, 0}, 10.0, 1.0, 2.0, 8.0, 4.0),
               std::invalid_argument);
  EXPECT_THROW(ExpandingChannelDomain({0, 0, 0}, -1.0, 1.0, 2.0, 0.0, 0.0),
               std::invalid_argument);
}

TEST(Voxelizer, FluidFractionMatchesTubeCrossSection) {
  const TubeDomain tube({0, 0, 0}, {0, 0, 1}, 20.0, 5.0);
  lbm::Lattice lat = make_lattice_for(tube, 1.0, 1.0);
  const lbm::WallStats stats = voxelize(lat, tube);
  EXPECT_GT(stats.fluid, 0u);
  EXPECT_GT(stats.wall, 0u);
  EXPECT_GT(stats.exterior, 0u);
  // Fluid volume between the strict-interior staircase estimate
  // pi (r-1/2)^2 (L-1) and the continuum pi r^2 L.
  const double upper = std::numbers::pi * 25.0 * 20.0;
  const double lower = std::numbers::pi * 4.5 * 4.5 * 19.0;
  EXPECT_GT(static_cast<double>(stats.fluid), 0.95 * lower);
  EXPECT_LT(static_cast<double>(stats.fluid), 1.05 * upper);
}

TEST(Voxelizer, LatticeCoversDomainWithMargin) {
  const BoxDomain box(Aabb({0, 0, 0}, {5, 5, 5}));
  const lbm::Lattice lat = make_lattice_for(box, 1.0, 1.0, 2);
  EXPECT_TRUE(lat.bounds().contains(box.bounds()));
  EXPECT_LE(lat.origin().x, -2.0 + 1e-12);
}

TEST(Voxelizer, MarkInletOnlyInsideDomain) {
  // Uncapped tube: the lattice face (one margin spacing before the
  // nominal base) still cuts through the vessel interior.
  const TubeDomain tube({10, 10, 0}, {0, 0, 1}, 20.0, 4.0,
                        /*capped=*/false);
  lbm::Lattice lat = make_lattice_for(tube, 1.0, 1.0);
  voxelize(lat, tube);
  mark_inlet(lat, tube, lbm::Face::ZMin,
             [](const Vec3&) { return Vec3{0.0, 0.0, 0.01}; });
  int inlets = 0;
  for (int y = 0; y < lat.ny(); ++y) {
    for (int x = 0; x < lat.nx(); ++x) {
      const std::size_t i = lat.idx(x, y, 0);
      if (lat.type(i) == lbm::NodeType::Velocity) {
        ++inlets;
        EXPECT_TRUE(tube.inside(lat.position(x, y, 0)));
      }
    }
  }
  EXPECT_GT(inlets, 0);
}

TEST(DomainNormal, TubeNormalPointsToAxis) {
  const TubeDomain tube({0, 0, 0}, {0, 0, 1}, 100.0, 5.0);
  const Vec3 n = tube.inward_normal({4.5, 0, 50.0}, 0.01);
  EXPECT_LT(n.x, -0.9);  // toward the axis
  EXPECT_NEAR(n.z, 0.0, 0.05);
}


TEST(ExpandingChannel, UncappedIgnoresAxialEnds) {
  const ExpandingChannelDomain open(Vec3{0, 0, 0}, 100e-6, 10e-6, 20e-6,
                                    30e-6, 10e-6, /*capped=*/false);
  EXPECT_TRUE(open.inside({0, 0, -50e-6}));   // beyond the nominal inlet
  EXPECT_TRUE(open.inside({0, 0, 500e-6}));   // beyond the nominal outlet
  EXPECT_FALSE(open.inside({15e-6, 0, 10e-6}));  // still radius-limited
}

TEST(TubeDomain, UncappedIgnoresAxialEnds) {
  const TubeDomain open({0, 0, 0}, {0, 0, 1}, 10.0, 2.0, /*capped=*/false);
  EXPECT_TRUE(open.inside({0, 0, -5.0}));
  EXPECT_TRUE(open.inside({0, 0, 50.0}));
  EXPECT_FALSE(open.inside({3.0, 0, 5.0}));
}

/// Checks sd(p) >= sd(q) - L |p - q| for each q and a seeded p within
/// `step` of it, up to rounding, and returns the worst ratio
/// (sd(q) - sd(p)) / |p - q| seen.
double worst_lipschitz_ratio(const Domain& d, const std::vector<Vec3>& qs,
                             double step, Rng& rng) {
  const double lip = d.distance_lipschitz();
  const double scale = d.bounds().magnitude();
  double worst = 0.0;
  for (const Vec3& q : qs) {
    const Vec3 p = q + rng.unit_vector() * rng.uniform(1e-3 * step, step);
    const double dist = distance(p, q);
    const double sp = d.signed_distance(p);
    const double sq = d.signed_distance(q);
    EXPECT_GE(sp, sq - lip * dist - 1e-12 * scale) << p << " " << q;
    worst = std::max(worst, (sq - sp) / dist);
  }
  return worst;
}

/// Points in the domain's box within `band` of its wall.
std::vector<Vec3> near_wall(const Domain& d, double band, Rng& rng) {
  const Aabb b = d.bounds().inflated(band);
  std::vector<Vec3> out;
  while (out.size() < 4000) {
    const Vec3 q = rng.point_in_box(b.lo, b.hi);
    if (std::abs(d.signed_distance(q)) < band) out.push_back(q);
  }
  return out;
}

/// Points near the tapered walls of a vessel tree: a random segment, axis
/// position and direction, at 0.8-1.2 times the local radius.
std::vector<Vec3> near_vessel_walls(const Vasculature& v, Rng& rng) {
  std::vector<Vec3> out;
  const auto& segs = v.segments();
  for (int i = 0; i < 4000; ++i) {
    const VesselSegment& s =
        segs[static_cast<std::size_t>(rng.uniform() * segs.size()) %
             segs.size()];
    const double t = rng.uniform();
    const Vec3 axis = s.a + (s.b - s.a) * t;
    const Vec3 dir = normalized(s.b - s.a);
    Vec3 u = rng.unit_vector();
    u = normalized(u - dir * dot(u, dir));
    const double r = s.ra + t * (s.rb - s.ra);
    out.push_back(axis + u * (r * rng.uniform(0.8, 1.2)));
  }
  return out;
}

TEST(Domain, SignedDistanceLipschitzBoundHolds) {
  Rng rng(2211);
  const BoxDomain box(Aabb{{-1.0, -2.0, 0.0}, {3.0, 1.0, 2.5}});
  EXPECT_EQ(box.distance_lipschitz(), 1.0);
  EXPECT_LE(worst_lipschitz_ratio(box, near_wall(box, 0.3, rng), 0.5, rng),
            1.0 + 1e-12);
  for (const bool capped : {true, false}) {
    const TubeDomain tube({0.5, 0.0, -1.0}, {0.3, 0.2, 1.0}, 6.0, 1.5,
                          capped);
    EXPECT_EQ(tube.distance_lipschitz(), 1.0);
    EXPECT_LE(
        worst_lipschitz_ratio(tube, near_wall(tube, 0.3, rng), 0.5, rng),
        1.0 + 1e-12);
  }
  const ExpandingChannelDomain channel({0, 0, 0}, 10.0, 1.0, 2.0, 3.0, 2.0);
  EXPECT_DOUBLE_EQ(channel.distance_lipschitz(), 1.5);
  const double channel_worst = worst_lipschitz_ratio(
      channel, near_wall(channel, 0.3, rng), 0.5, rng);
  EXPECT_LE(channel_worst, 1.5);
  EXPECT_GT(channel_worst, 1.0);  // the taper is felt

  for (const bool cerebral : {true, false}) {
    Rng tree_rng(cerebral ? 23 : 29);
    const Vasculature v = cerebral ? Vasculature::cerebral_like(tree_rng)
                                   : Vasculature::upper_body_like(tree_rng);
    const double lip = v.distance_lipschitz();
    EXPECT_GT(lip, 1.0);
    EXPECT_LT(lip, 1.1);
    double rmin = std::numeric_limits<double>::max();
    for (const auto& s : v.segments()) rmin = std::min({rmin, s.ra, s.rb});
    EXPECT_LE(worst_lipschitz_ratio(v, near_vessel_walls(v, rng), rmin, rng),
              lip);
  }
}

TEST(Domain, LipschitzBoundIsInfiniteWithoutAPromise) {
  // A zero-length transition is a step in the radius.
  const ExpandingChannelDomain step({0, 0, 0}, 10.0, 1.0, 2.0, 3.0, 0.0);
  EXPECT_EQ(step.distance_lipschitz(),
            std::numeric_limits<double>::infinity());
  struct Ball final : Domain {
    double signed_distance(const Vec3& p) const override {
      return 1.0 - norm(p);
    }
    Aabb bounds() const override { return Aabb::cube({}, 2.0); }
  };
  EXPECT_EQ(Ball{}.distance_lipschitz(),
            std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace apr::geometry
