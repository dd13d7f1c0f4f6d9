#include "src/cells/overlap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/mesh/icosphere.hpp"

namespace apr::cells {
namespace {

class OverlapTest : public ::testing::Test {
 protected:
  OverlapTest()
      : model_(std::make_unique<fem::MembraneModel>(mesh::icosphere(1, 1.0),
                                                    fem::MembraneParams{})) {}

  Candidate candidate(std::uint64_t id, const Vec3& center) const {
    return {id, instantiate(*model_, center)};
  }

  std::unique_ptr<fem::MembraneModel> model_;
  const Aabb region_ = Aabb({-10, -10, -10}, {20, 20, 20});
};

TEST_F(OverlapTest, DetectsCloseVertices) {
  SubGrid grid(region_, 1.0);
  const auto a = instantiate(*model_, Vec3{0, 0, 0});
  for (std::size_t v = 0; v < a.size(); ++v) grid.insert(a[v], 1, v);

  // A sphere 1.0 away overlaps (unit radii): vertices nearly touch.
  const auto b = instantiate(*model_, Vec3{1.0, 0, 0});
  EXPECT_TRUE(overlaps_existing(b, 2, grid, 0.5));
  // A sphere 4 radii away does not.
  const auto c = instantiate(*model_, Vec3{4.0, 0, 0});
  EXPECT_FALSE(overlaps_existing(c, 3, grid, 0.5));
}

TEST_F(OverlapTest, IgnoresOwnVertices) {
  SubGrid grid(region_, 1.0);
  const auto a = instantiate(*model_, Vec3{0, 0, 0});
  for (std::size_t v = 0; v < a.size(); ++v) grid.insert(a[v], 5, v);
  EXPECT_FALSE(overlaps_existing(a, 5, grid, 0.5));
}

TEST_F(OverlapTest, ResolutionDropsHigherIds) {
  // Two overlapping candidates: the larger global ID must be dropped
  // (paper: "preferentially removing overlapping cells based on global
  // IDs").
  SubGrid empty(region_, 1.0);
  std::vector<Candidate> cands;
  cands.push_back(candidate(10, {0, 0, 0}));
  cands.push_back(candidate(20, {0.5, 0, 0}));  // overlaps 10
  cands.push_back(candidate(30, {6.0, 0, 0}));  // free
  const auto dropped = resolve_overlaps(cands, empty, region_, 0.5);
  EXPECT_EQ(dropped, (std::vector<std::uint64_t>{20}));
}

TEST_F(OverlapTest, ResolutionIsOrderIndependent) {
  // The same candidate set in any order must produce the same dropped set
  // -- this is what makes the paper's algorithm consistent across MPI
  // task counts.
  SubGrid empty(region_, 1.0);
  std::vector<Candidate> base;
  base.push_back(candidate(1, {0, 0, 0}));
  base.push_back(candidate(2, {0.8, 0, 0}));
  base.push_back(candidate(3, {1.6, 0, 0}));
  base.push_back(candidate(4, {8.0, 0, 0}));
  base.push_back(candidate(5, {8.5, 0, 0}));

  const auto ref = resolve_overlaps(base, empty, region_, 0.5);
  for (int perm = 0; perm < 8; ++perm) {
    std::vector<Candidate> shuffled;
    for (std::size_t i = 0; i < base.size(); ++i) {
      const std::size_t j = (i * 3 + perm) % base.size();
      shuffled.push_back(base[j]);
    }
    EXPECT_EQ(resolve_overlaps(shuffled, empty, region_, 0.5), ref)
        << "permutation " << perm;
  }
}

TEST_F(OverlapTest, ResolutionMatchesAcrossSimulatedTaskSplits) {
  // Candidates partitioned across "tasks" and resolved against the same
  // existing background must drop the same global set: union of per-task
  // results with the full set of candidates == single-task result.
  // (Each task sees all candidates near its boundary in the real code;
  // here the candidate set is identical, only discovery order differs.)
  SubGrid empty(region_, 1.0);
  std::vector<Candidate> all;
  for (int i = 0; i < 12; ++i) {
    all.push_back(candidate(100 + i, {i * 0.9, 0.0, 0.0}));
  }
  const auto single = resolve_overlaps(all, empty, region_, 0.5);
  // Two-task split: even/odd interleave (order differs, content same).
  std::vector<Candidate> interleaved;
  for (int i = 0; i < 12; i += 2) interleaved.push_back(all[i]);
  for (int i = 1; i < 12; i += 2) interleaved.push_back(all[i]);
  EXPECT_EQ(resolve_overlaps(interleaved, empty, region_, 0.5), single);
}

TEST_F(OverlapTest, ExistingCellsAreNeverDropped) {
  SubGrid existing(region_, 1.0);
  const auto fixed = instantiate(*model_, Vec3{0, 0, 0});
  for (std::size_t v = 0; v < fixed.size(); ++v) {
    existing.insert(fixed[v], 999, v);
  }
  std::vector<Candidate> cands;
  cands.push_back(candidate(1, {0.5, 0, 0}));  // overlaps the fixed cell
  const auto dropped = resolve_overlaps(cands, existing, region_, 0.5);
  EXPECT_EQ(dropped, (std::vector<std::uint64_t>{1}));
}

TEST_F(OverlapTest, AddNonoverlappingAddsSurvivorsInIdOrderAndGrowsGrid) {
  // Survivors land in the pool in global-ID order and in the caller's
  // grid, so a later batch resolves against them.
  CellPool pool(model_.get(), CellKind::Rbc, 8);
  SubGrid grid(region_, 1.0);
  std::vector<Candidate> first;
  first.push_back(candidate(30, {6.0, 0, 0}));
  first.push_back(candidate(20, {0.5, 0, 0}));  // overlaps 10
  first.push_back(candidate(10, {0, 0, 0}));
  EXPECT_EQ(add_nonoverlapping(first, grid, region_, 0.5, pool), 2);
  ASSERT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.id(0), 10u);
  EXPECT_EQ(pool.id(1), 30u);
  EXPECT_EQ(grid.size(), 2u * 42u);

  // Beyond the grid bounds the bucket indices clamp, so the verdict still
  // depends on vertex distances alone.
  std::vector<Candidate> second;
  second.push_back(candidate(40, {6.5, 0, 0}));   // overlaps survivor 30
  second.push_back(candidate(50, {-6.0, 0, 0}));  // free
  second.push_back(candidate(60, {25.0, 0, 0}));  // outside the grid, free
  second.push_back(candidate(70, {25.5, 0, 0}));  // overlaps 60
  EXPECT_EQ(add_nonoverlapping(second, grid, region_, 0.5, pool), 2);
  ASSERT_EQ(pool.size(), 4u);
  EXPECT_EQ(pool.id(2), 50u);
  EXPECT_EQ(pool.id(3), 60u);
  EXPECT_EQ(grid.size(), 4u * 42u);
}

TEST_F(OverlapTest, FillSubgridCountsAllVertices) {
  CellPool pool(model_.get(), CellKind::Rbc, 3);
  pool.add(1, instantiate(*model_, Vec3{0, 0, 0}));
  pool.add(2, instantiate(*model_, Vec3{5, 0, 0}));
  SubGrid grid(region_, 1.0);
  fill_subgrid(grid, {&pool});
  EXPECT_EQ(grid.size(), 2u * 42u);
}

}  // namespace
}  // namespace apr::cells
