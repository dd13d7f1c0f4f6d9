#include "src/exec/exec.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

namespace apr::exec {
namespace {

/// Restores the ambient worker count on scope exit so tests that vary it
/// cannot leak configuration into the rest of the suite.
struct WorkerGuard {
  int saved = num_workers();
  ~WorkerGuard() { set_num_workers(saved); }
};

TEST(Exec, ThreadedMatchesBuildConfig) {
#ifdef _OPENMP
  EXPECT_TRUE(threaded());
#else
  EXPECT_FALSE(threaded());
  EXPECT_EQ(num_workers(), 1);
#endif
  EXPECT_GE(num_workers(), 1);
}

TEST(Exec, SetNumWorkersClampsToOne) {
  WorkerGuard guard;
  set_num_workers(0);
  EXPECT_GE(num_workers(), 1);
  set_num_workers(-3);
  EXPECT_GE(num_workers(), 1);
  set_num_workers(2);
  if (threaded()) {
    EXPECT_EQ(num_workers(), 2);
  }
}

TEST(Exec, ResolveGrainAlwaysPositive) {
  EXPECT_GE(detail::resolve_grain(1, 0), 1u);
  EXPECT_GE(detail::resolve_grain(1000000, 0), 1u);
  EXPECT_EQ(detail::resolve_grain(100, 7), 7u);
}

TEST(Exec, ChunkCountCoversRange) {
  EXPECT_EQ(detail::chunk_count(0, 10), 0u);
  EXPECT_EQ(detail::chunk_count(10, 10), 1u);
  EXPECT_EQ(detail::chunk_count(11, 10), 2u);
  EXPECT_EQ(detail::chunk_count(100, 1), 100u);
}

TEST(Exec, ParallelForVisitsEveryIndexOnce) {
  const std::size_t n = 10007;  // prime, so chunking never divides evenly
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(Exec, ParallelForEmptyAndSingle) {
  int calls = 0;
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> acalls{0};
  parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++acalls;
  });
  EXPECT_EQ(acalls.load(), 1);
}

TEST(Exec, ChunksPartitionTheRange) {
  const std::size_t n = 1234;
  const std::size_t grain = 100;
  std::vector<std::atomic<int>> hits(n);
  std::atomic<int> bad_worker{0};
  parallel_for_chunks(
      n,
      [&](std::size_t b, std::size_t e, int w) {
        if (w < 0 || w >= num_workers()) ++bad_worker;
        EXPECT_LT(b, e);
        EXPECT_LE(e, n);
        EXPECT_EQ(b % grain, 0u);  // static chunk boundaries
        for (std::size_t i = b; i < e; ++i) ++hits[i];
      },
      grain);
  EXPECT_EQ(bad_worker.load(), 0);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(Exec, ReduceMatchesSerialSum) {
  const std::size_t n = 5000;
  const std::uint64_t expect = n * (n - 1) / 2;
  const std::uint64_t got = parallel_reduce<std::uint64_t>(
      n, 0,
      [](std::size_t b, std::size_t e) {
        std::uint64_t s = 0;
        for (std::size_t i = b; i < e; ++i) s += i;
        return s;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(got, expect);
}

TEST(Exec, ReduceFixedGrainIsWorkerCountInvariant) {
  WorkerGuard guard;
  // Floating-point sum: with a fixed grain, chunk boundaries and combine
  // order are identical for any worker count, so the result is bit-exact.
  std::vector<double> xs(4099);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = 1.0 / (1.0 + static_cast<double>(i) * 0.37);
  }
  auto sum_with = [&](int workers) {
    set_num_workers(workers);
    return parallel_reduce<double>(
        xs.size(), 0.0,
        [&](std::size_t b, std::size_t e) {
          double s = 0.0;
          for (std::size_t i = b; i < e; ++i) s += xs[i];
          return s;
        },
        [](double a, double b) { return a + b; }, 128);
  };
  const double s1 = sum_with(1);
  const double s2 = sum_with(2);
  const double s4 = sum_with(4);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1, s4);
}

TEST(Exec, ReduceIsIndependentOfChunkAssignment) {
  WorkerGuard guard;
  // The first chunk costs ~1000x the others, so which worker takes which
  // chunk changes from run to run; every chunk still runs exactly once and
  // the partials still combine in chunk order, so the sum is bit-exact.
  constexpr std::size_t kGrain = 64;
  std::vector<double> xs(4099);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = 1.0 / (1.0 + static_cast<double>(i) * 0.37);
  }
  std::vector<std::atomic<int>> calls((xs.size() + kGrain - 1) / kGrain);
  auto sum_with = [&](int workers) {
    set_num_workers(workers);
    return parallel_reduce<double>(
        xs.size(), 0.0,
        [&](std::size_t b, std::size_t e) {
          ++calls[b / kGrain];
          volatile double sink = 0.0;
          double s = 0.0;
          for (int rep = 0; rep < (b == 0 ? 1000 : 1); ++rep) {
            s = 0.0;
            for (std::size_t i = b; i < e; ++i) s += xs[i];
            sink = s;
          }
          return sink;
        },
        [](double a, double b) { return a + b; }, kGrain);
  };
  const double s1 = sum_with(1);
  constexpr int kRuns = 10;
  for (int run = 0; run < kRuns; ++run) EXPECT_EQ(sum_with(3), s1);
  for (const auto& c : calls) EXPECT_EQ(c.load(), 1 + kRuns);
}

TEST(Exec, ReduceEmptyReturnsIdentity) {
  const int got = parallel_reduce<int>(
      0, 42, [](std::size_t, std::size_t) { return 0; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(got, 42);
}

TEST(Exec, WorkerLocalHasSlotPerWorker) {
  WorkerLocal<std::vector<int>> scratch;
  scratch.prepare();
  ASSERT_GE(scratch.size(), static_cast<std::size_t>(num_workers()));
  parallel_for_chunks(1000, [&](std::size_t b, std::size_t e, int w) {
    auto& slot = scratch[static_cast<std::size_t>(w)];
    for (std::size_t i = b; i < e; ++i) slot.push_back(static_cast<int>(i));
  });
  std::size_t total = 0;
  for (auto& slot : scratch) total += slot.size();
  EXPECT_EQ(total, 1000u);
}

TEST(Exec, WorkerLocalSlotsPersistAcrossPrepare) {
  WorkerLocal<std::vector<int>> scratch;
  scratch[0].push_back(7);
  scratch.prepare();
  ASSERT_FALSE(scratch[0].empty());
  EXPECT_EQ(scratch[0][0], 7);
}

}  // namespace
}  // namespace apr::exec
