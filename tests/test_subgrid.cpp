#include "src/cells/subgrid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "src/common/rng.hpp"

namespace apr::cells {
namespace {

TEST(SubGrid, ConstructionValidation) {
  EXPECT_THROW(SubGrid(Aabb{}, 1.0), std::invalid_argument);
  EXPECT_THROW(SubGrid(Aabb({0, 0, 0}, {1, 1, 1}), 0.0),
               std::invalid_argument);
  const SubGrid g(Aabb({0, 0, 0}, {1, 1, 1}), 0.25);
  EXPECT_EQ(g.size(), 0u);
}

TEST(SubGrid, InsertAndCount) {
  SubGrid g(Aabb({0, 0, 0}, {10, 10, 10}), 1.0);
  g.insert({1.0, 1.0, 1.0}, 7, 0);
  g.insert({5.0, 5.0, 5.0}, 8, 1);
  EXPECT_EQ(g.size(), 2u);
}

TEST(SubGrid, NeighborQueryFindsAllWithinRadius) {
  // Property test: compare against brute force on random points.
  Rng rng(13);
  const Aabb box({0, 0, 0}, {8, 8, 8});
  SubGrid g(box, 1.0);
  std::vector<Vec3> pts;
  for (int i = 0; i < 500; ++i) {
    pts.push_back(rng.point_in_box(box.lo, box.hi));
    g.insert(pts.back(), i, 0);
  }
  for (int trial = 0; trial < 30; ++trial) {
    const Vec3 q = rng.point_in_box(box.lo, box.hi);
    const double r = rng.uniform(0.2, 1.5);
    std::set<std::uint64_t> brute;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (norm(pts[i] - q) <= r) brute.insert(i);
    }
    std::set<std::uint64_t> found;
    g.for_neighbors(q, r, [&](const SubGrid::Entry& e) {
      if (norm(e.p - q) <= r) found.insert(e.cell_id);
    });
    EXPECT_EQ(found, brute) << "radius " << r;
  }
}

TEST(SubGrid, QueryVisitsSupersetOfBall) {
  // for_neighbors visits bucket contents; everything in the ball must be
  // visited (may include extras outside the ball).
  SubGrid g(Aabb({0, 0, 0}, {4, 4, 4}), 0.5);
  g.insert({1.0, 1.0, 1.0}, 1, 0);
  g.insert({1.2, 1.0, 1.0}, 2, 0);
  g.insert({3.5, 3.5, 3.5}, 3, 0);
  int visited = 0;
  bool saw1 = false, saw2 = false, saw3 = false;
  g.for_neighbors({1.1, 1.0, 1.0}, 0.3, [&](const SubGrid::Entry& e) {
    ++visited;
    saw1 |= e.cell_id == 1;
    saw2 |= e.cell_id == 2;
    saw3 |= e.cell_id == 3;
  });
  EXPECT_TRUE(saw1);
  EXPECT_TRUE(saw2);
  EXPECT_FALSE(saw3);
}

TEST(SubGrid, OutOfBoundsInsertsClampSafely) {
  SubGrid g(Aabb({0, 0, 0}, {2, 2, 2}), 1.0);
  EXPECT_NO_THROW(g.insert({-5.0, 1.0, 1.0}, 1, 0));
  EXPECT_NO_THROW(g.insert({10.0, 10.0, 10.0}, 2, 0));
  // Clamped entries are still discoverable near the edges.
  bool found = false;
  g.for_neighbors({0.0, 1.0, 1.0}, 1.0, [&](const SubGrid::Entry& e) {
    found |= e.cell_id == 1;
  });
  EXPECT_TRUE(found);
}

TEST(SubGrid, VertexIndexRoundTrips) {
  SubGrid g(Aabb({0, 0, 0}, {2, 2, 2}), 1.0);
  g.insert({1.0, 1.0, 1.0}, 42, 17);
  g.for_neighbors({1.0, 1.0, 1.0}, 0.1, [&](const SubGrid::Entry& e) {
    EXPECT_EQ(e.cell_id, 42u);
    EXPECT_EQ(e.vertex, 17);
  });
}

TEST(SubGrid, OutOfIntRangeCoordinatesClampToEdgeBuckets) {
  // Finite but huge coordinates must clamp in floating point, never reach
  // an int cast (UB; -fsanitize=float-cast-overflow flags it).
  SubGrid g(Aabb({0, 0, 0}, {4, 4, 4}), 1.0);
  g.insert({1e300, 2.0, 2.0}, 1, 0);
  g.insert({-1e300, 2.0, 2.0}, 2, 0);
  g.insert({2.0, 1e300, -1e300}, 3, 0);
  EXPECT_EQ(g.size(), 3u);
  const auto ids_near = [&](const Vec3& p) {
    std::vector<std::uint64_t> ids;
    g.for_neighbors(p, 0.1, [&](const SubGrid::Entry& e) {
      ids.push_back(e.cell_id);
    });
    return ids;
  };
  EXPECT_EQ(ids_near({3.9, 2.0, 2.0}), std::vector<std::uint64_t>{1});
  EXPECT_EQ(ids_near({0.1, 2.0, 2.0}), std::vector<std::uint64_t>{2});
  EXPECT_EQ(ids_near({2.0, 3.9, 0.1}), std::vector<std::uint64_t>{3});
  // Queries centred at huge coordinates clamp the same way.
  EXPECT_EQ(ids_near({1e300, 2.0, 2.0}), std::vector<std::uint64_t>{1});
  EXPECT_EQ(ids_near({-1e300, 2.0, 2.0}), std::vector<std::uint64_t>{2});
  // A box stretched to a huge coordinate fails cleanly.
  EXPECT_THROW(SubGrid(Aabb({0, 0, 0}, {1e300, 1, 1}), 1.0),
               std::invalid_argument);
}

/// Entries a query should visit, in the contracted order: buckets in
/// (z, y, x) order, insertion order within a bucket.
std::vector<int> expected_visits(const std::vector<Vec3>& pts, const Aabb& box,
                                 double spacing, const Vec3& q, double r) {
  const Vec3 e = box.extent();
  const int n[3] = {static_cast<int>(std::ceil(e.x / spacing)),
                    static_cast<int>(std::ceil(e.y / spacing)),
                    static_cast<int>(std::ceil(e.z / spacing))};
  const auto bucket = [&](double v, double lo, int axis) {
    return std::clamp(static_cast<int>(std::floor((v - lo) / spacing)), 0,
                      n[axis] - 1);
  };
  const auto key = [&](const Vec3& p) {
    return (bucket(p.z, box.lo.z, 2) * n[1] + bucket(p.y, box.lo.y, 1)) *
               n[0] +
           bucket(p.x, box.lo.x, 0);
  };
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(pts.size()); ++i) {
    const Vec3& p = pts[static_cast<std::size_t>(i)];
    bool in = true;
    for (int a = 0; a < 3; ++a) {
      const double lo = box.lo[a];
      const int b = bucket(p[a], lo, a);
      in = in && b >= bucket(q[a] - r, lo, a) && b <= bucket(q[a] + r, lo, a);
    }
    if (in) out.push_back(i);
  }
  std::stable_sort(out.begin(), out.end(), [&](int a, int b) {
    return key(pts[static_cast<std::size_t>(a)]) <
           key(pts[static_cast<std::size_t>(b)]);
  });
  return out;
}

TEST(SubGrid, VisitsBucketsInZyxOrderAndEntriesInInsertionOrder) {
  Rng rng(29);
  const Aabb box({0, 0, 0}, {5, 4, 3});
  const double spacing = 1.0;
  SubGrid g(box, spacing);
  std::vector<Vec3> pts;
  for (int i = 0; i < 400; ++i) {
    pts.push_back(rng.point_in_box(box.lo, box.hi));
    g.insert(pts.back(), static_cast<std::uint64_t>(i), i);
  }
  for (int trial = 0; trial < 40; ++trial) {
    const Vec3 q = rng.point_in_box(box.lo, box.hi);
    const double r = rng.uniform(0.1, 1.6);
    std::vector<int> visited;
    g.for_neighbors(q, r, [&](const SubGrid::Entry& e) {
      visited.push_back(e.vertex);
    });
    EXPECT_EQ(visited, expected_visits(pts, box, spacing, q, r)) << trial;
  }
}

}  // namespace
}  // namespace apr::cells
