#include "src/geometry/vasculature.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

namespace apr::geometry {
namespace {

VasculatureParams small_params() {
  VasculatureParams p;
  p.root_radius = 100e-6;
  p.root_length = 1e-3;
  p.levels = 3;
  return p;
}

TEST(VesselSegment, FrustumVolume) {
  VesselSegment s;
  s.a = {0, 0, 0};
  s.b = {0, 0, 2.0};
  s.ra = 1.0;
  s.rb = 1.0;
  EXPECT_NEAR(s.volume(), std::numbers::pi * 2.0, 1e-12);  // cylinder
  s.rb = 0.5;
  EXPECT_NEAR(s.volume(),
              std::numbers::pi / 3.0 * 2.0 * (1.0 + 0.5 + 0.25), 1e-12);
}

TEST(Vasculature, TreeHasExpectedSegmentCount) {
  Rng rng(3);
  const Vasculature v = Vasculature::branching_tree(small_params(), rng);
  // Root + bifurcations through `levels` generations:
  // 1 + 2 + 4 + ... + 2^levels = 2^{levels+1} - 1.
  EXPECT_EQ(v.segments().size(), 15u);
}

TEST(Vasculature, DaughtersFollowMurrayRatio) {
  Rng rng(5);
  VasculatureParams p = small_params();
  const Vasculature v = Vasculature::branching_tree(p, rng);
  for (const auto& s : v.segments()) {
    if (s.parent < 0) continue;
    const auto& parent = v.segments()[s.parent];
    EXPECT_NEAR(s.ra, parent.rb * p.radius_ratio, 1e-12);
    // Daughters start at the parent tip.
    EXPECT_NEAR(norm(s.a - parent.b), 0.0, 1e-12);
  }
}

TEST(Vasculature, RootCenterlineIsInside) {
  Rng rng(7);
  const Vasculature v = Vasculature::branching_tree(small_params(), rng);
  const auto& root = v.segments().front();
  for (double t = 0.05; t < 1.0; t += 0.1) {
    EXPECT_TRUE(v.inside(root.a + (root.b - root.a) * t));
  }
  // Far away is outside.
  EXPECT_FALSE(v.inside(root.a + Vec3{1.0, 1.0, 1.0}));
}

TEST(Vasculature, MainPathRunsRootToLeafInsideTheVessels) {
  Rng rng(11);
  const Vasculature v = Vasculature::branching_tree(small_params(), rng);
  const auto path = v.main_path(50e-6);
  ASSERT_GT(path.size(), 10u);
  // Starts at the root inlet.
  EXPECT_NEAR(norm(path.front() - v.segments().front().a), 0.0, 1e-12);
  // Every sample lies inside the network.
  for (const auto& p : path) {
    EXPECT_GE(v.signed_distance(p), 0.0);
  }
  // Path length exceeds the root length (goes into daughters).
  double len = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    len += norm(path[i] - path[i - 1]);
  }
  EXPECT_GT(len, small_params().root_length * 1.5);
}

TEST(Vasculature, TotalVolumeMatchesSegmentSum) {
  Rng rng(13);
  const Vasculature v = Vasculature::branching_tree(small_params(), rng);
  double sum = 0.0;
  for (const auto& s : v.segments()) sum += s.volume();
  EXPECT_NEAR(v.total_volume(), sum, 1e-18);
  EXPECT_GT(v.total_volume(), 0.0);
}

TEST(Vasculature, BoundsContainAllSegments) {
  Rng rng(19);
  const Vasculature v = Vasculature::branching_tree(small_params(), rng);
  const Aabb b = v.bounds();
  for (const auto& s : v.segments()) {
    EXPECT_TRUE(b.contains(s.a));
    EXPECT_TRUE(b.contains(s.b));
  }
}

TEST(Vasculature, CerebralPresetHasMicrovascularScale) {
  Rng rng(23);
  const Vasculature v = Vasculature::cerebral_like(rng);
  EXPECT_GT(v.segments().size(), 30u);
  // Leaf radii shrink below 100 um (cerebral penetrating vessels).
  double min_r = 1.0;
  for (const auto& s : v.segments()) min_r = std::min(min_r, s.rb);
  EXPECT_LT(min_r, 100e-6);
  EXPECT_GT(min_r, 1e-6);
}

TEST(Vasculature, UpperBodyPresetIsCentimeterScale) {
  Rng rng(29);
  const Vasculature v = Vasculature::upper_body_like(rng);
  const Vec3 e = v.bounds().extent();
  EXPECT_GT(std::max({e.x, e.y, e.z}), 0.1);  // decimeter extent
  // Total volume tens of mL, same order as the paper's 41 mL bulk.
  EXPECT_GT(v.total_volume(), 5e-6);
  EXPECT_LT(v.total_volume(), 500e-6);
}

TEST(Vasculature, RejectsEmptySegmentList) {
  EXPECT_THROW(Vasculature({}), std::invalid_argument);
}


TEST(Vasculature, ClipBoundsShrinksReportedBoxOnly) {
  Rng rng(31);
  Vasculature v = Vasculature::branching_tree(small_params(), rng);
  const Aabb raw = v.bounds();
  Aabb clip = raw;
  clip.lo.z = raw.lo.z + 0.3 * raw.extent().z;
  v.clip_bounds(clip);
  EXPECT_NEAR(v.bounds().lo.z, clip.lo.z, 1e-12);
  // Geometry unchanged: points below the clip are still inside vessels.
  const auto& root = v.segments().front();
  const Vec3 below = root.a + (root.b - root.a) * 0.05;
  if (below.z < clip.lo.z) {
    EXPECT_TRUE(v.inside(below));
  }
}

/// The linear reference: the max of every segment's capsule distance, in
/// segment order, as signed_distance computed it before the BVH.
class LinearVasculature final : public Domain {
 public:
  explicit LinearVasculature(std::vector<VesselSegment> segments)
      : segments_(std::move(segments)) {}

  double signed_distance(const Vec3& p) const override {
    double best = -std::numeric_limits<double>::max();
    for (const auto& s : segments_) {
      const Vec3 ab = s.b - s.a;
      const double len2 = norm2(ab);
      double t = len2 > 0.0 ? dot(p - s.a, ab) / len2 : 0.0;
      t = std::clamp(t, 0.0, 1.0);
      const Vec3 closest = s.a + ab * t;
      const double r = s.ra + t * (s.rb - s.ra);
      best = std::max(best, r - distance(p, closest));
    }
    return best;
  }
  Aabb bounds() const override { return {}; }

 private:
  std::vector<VesselSegment> segments_;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Seeded queries around `v`: points inside a vessel, on its wall, in the
/// far field, far-field points scaled by 1e6, and non-finite or huge
/// coordinates.
std::vector<Vec3> query_points(const Vasculature& v, std::size_t count,
                               std::uint64_t seed) {
  Rng rng(seed);
  const auto& segs = v.segments();
  const Aabb box = v.bounds();
  const Vec3 e = box.extent();
  const double span = std::max({e.x, e.y, e.z});
  const auto random_dir = [&rng] {
    const Vec3 d{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                 rng.uniform(-1.0, 1.0)};
    return norm(d) > 1e-3 ? normalized(d) : Vec3{0.0, 0.0, 1.0};
  };
  const auto far_point = [&] {
    return box.center() + Vec3{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0),
                               rng.uniform(-5.0, 5.0)} * span;
  };
  std::vector<Vec3> pts;
  pts.reserve(count + 64);
  for (std::size_t k = 0; k < count; ++k) {
    const VesselSegment& s =
        segs[static_cast<std::size_t>(rng.uniform(0.0, 1.0) * segs.size()) %
             segs.size()];
    const double t = rng.uniform(-0.1, 1.1);
    const Vec3 axis = s.a + (s.b - s.a) * t;
    const double r = s.ra + std::clamp(t, 0.0, 1.0) * (s.rb - s.ra);
    switch (k % 4) {
      case 0:  // interior
        pts.push_back(axis + random_dir() * (r * rng.uniform(0.0, 1.0)));
        break;
      case 1:  // on the wall (to rounding)
        pts.push_back(axis + random_dir() * r);
        break;
      case 2:
        pts.push_back(far_point());
        break;
      default:
        pts.push_back(far_point() * 1e6);
        break;
    }
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const Vec3 c = segs.front().a;
  for (const double bad : {1e300, -1e300, kInf, -kInf, kNan}) {
    pts.push_back({bad, bad, bad});
    pts.push_back({bad, c.y, c.z});
    pts.push_back({c.x, bad, c.z});
    pts.push_back({c.x, c.y, bad});
  }
  pts.push_back({kInf, -kInf, kNan});
  pts.push_back({1e300, -1e300, 0.0});
  return pts;
}

/// Counts the points where the BVH and the linear scan disagree in any bit,
/// of the distance and (every 16th point) of the inward normal.
void expect_matches_linear_scan(const Vasculature& v, std::uint64_t seed) {
  const LinearVasculature linear(v.segments());
  const auto pts = query_points(v, 100000, seed);
  const double eps = 0.25 * v.segments().back().rb;
  std::size_t mismatches = 0;
  std::string first;
  for (std::size_t k = 0; k < pts.size(); ++k) {
    const Vec3& p = pts[k];
    bool same = same_bits(v.signed_distance(p), linear.signed_distance(p));
    if (same && (k % 16 == 0 || k + 64 >= pts.size())) {
      const Vec3 n = v.inward_normal(p, eps);
      const Vec3 m = linear.inward_normal(p, eps);
      same = same_bits(n.x, m.x) && same_bits(n.y, m.y) && same_bits(n.z, m.z);
    }
    if (!same && mismatches++ == 0) {
      first = "point " + std::to_string(k) + " (" + std::to_string(p.x) +
              ", " + std::to_string(p.y) + ", " + std::to_string(p.z) + ")";
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first mismatch at " << first;
}

TEST(Vasculature, BvhMatchesLinearScanBitForBitOnCerebralTree) {
  Rng rng(37);
  const Vasculature v = Vasculature::cerebral_like(rng, 0.15);
  ASSERT_EQ(v.segments().size(), 63u);
  expect_matches_linear_scan(v, 41);
}

TEST(Vasculature, BvhMatchesLinearScanBitForBitOnUpperBodyTree) {
  Rng rng(43);
  const Vasculature v = Vasculature::upper_body_like(rng);
  ASSERT_EQ(v.segments().size(), 127u);
  expect_matches_linear_scan(v, 47);
}

TEST(Vasculature, BvhMatchesLinearScanBitForBitOnOneSegment) {
  VesselSegment s;
  s.a = {1e-4, -2e-4, 3e-4};
  s.b = {4e-4, 1e-4, 9e-4};
  s.ra = 60e-6;
  s.rb = 45e-6;
  const Vasculature v({s});
  expect_matches_linear_scan(v, 53);
}

TEST(Vasculature, NonFiniteQueriesReturnTheScanFloor) {
  // Every segment yields NaN or -inf, which the max never takes.
  Rng rng(59);
  const Vasculature v = Vasculature::cerebral_like(rng, 0.15);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const Vec3 p : {Vec3{kInf, 0.0, 0.0}, Vec3{0.0, -kInf, 0.0},
                       Vec3{0.0, 0.0, std::nan("")},
                       Vec3{1e300, 1e300, 1e300}}) {
    EXPECT_EQ(v.signed_distance(p), -std::numeric_limits<double>::max());
    EXPECT_FALSE(v.inside(p));
  }
}

}  // namespace
}  // namespace apr::geometry
