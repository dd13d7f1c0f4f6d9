#include "src/perf/step_profiler.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/common/csv.hpp"
#include "src/obs/trace.hpp"

namespace apr::perf {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(StepProfiler, PhaseNamesAreStable) {
  EXPECT_STREQ(to_string(StepPhase::CoarseCollideStream),
               "coarse_collide_stream");
  EXPECT_STREQ(to_string(StepPhase::Coupling), "coupling");
  EXPECT_STREQ(to_string(StepPhase::Forces), "forces");
  EXPECT_STREQ(to_string(StepPhase::Spread), "spread");
  EXPECT_STREQ(to_string(StepPhase::FineCollideStream), "fine_collide_stream");
  EXPECT_STREQ(to_string(StepPhase::Advect), "advect");
  EXPECT_STREQ(to_string(StepPhase::Maintenance), "maintenance");
  EXPECT_STREQ(to_string(StepPhase::WindowMove), "window_move");
  EXPECT_STREQ(to_string(StepPhase::Health), "health");
}

TEST(StepProfiler, ScopeAccumulatesTimeAndCalls) {
  StepProfiler prof;
  {
    auto s = prof.scope(StepPhase::Forces);
    // Do a little work so the elapsed time is measurable but tiny.
    volatile double x = 0.0;
    for (int i = 0; i < 1000; ++i) x = x + i;
    (void)x;
  }
  { auto s = prof.scope(StepPhase::Forces); }
  EXPECT_EQ(prof.stats(StepPhase::Forces).calls, 2u);
  EXPECT_GE(prof.stats(StepPhase::Forces).seconds, 0.0);
  EXPECT_EQ(prof.stats(StepPhase::Spread).calls, 0u);
}

TEST(StepProfiler, TotalsAreMonotoneUnderAccumulation) {
  StepProfiler prof;
  double prev = prof.total_seconds();
  EXPECT_EQ(prev, 0.0);
  for (int i = 0; i < 5; ++i) {
    prof.add_seconds(StepPhase::Coupling, 0.25);
    const double now = prof.total_seconds();
    EXPECT_GT(now, prev);
    prev = now;
  }
  EXPECT_DOUBLE_EQ(prev, 1.25);
}

TEST(StepProfiler, SiteUpdatesSumAcrossPhases) {
  StepProfiler prof;
  prof.add_site_updates(StepPhase::CoarseCollideStream, 100);
  prof.add_site_updates(StepPhase::FineCollideStream, 250);
  EXPECT_EQ(prof.stats(StepPhase::CoarseCollideStream).site_updates, 100u);
  EXPECT_EQ(prof.total_site_updates(), 350u);
}

TEST(StepProfiler, MergeAddsCounters) {
  StepProfiler a;
  StepProfiler b;
  a.add_seconds(StepPhase::Spread, 1.0);
  a.add_site_updates(StepPhase::Spread, 5);
  b.add_seconds(StepPhase::Spread, 2.0);
  b.add_seconds(StepPhase::Forces, 3.0);
  b.add_site_updates(StepPhase::Forces, 40);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.stats(StepPhase::Spread).seconds, 3.0);
  EXPECT_DOUBLE_EQ(a.stats(StepPhase::Forces).seconds, 3.0);
  EXPECT_EQ(a.stats(StepPhase::Spread).site_updates, 5u);
  EXPECT_EQ(a.stats(StepPhase::Forces).site_updates, 40u);
}

TEST(StepProfiler, ResetClearsEverything) {
  StepProfiler prof;
  prof.add_seconds(StepPhase::Forces, 1.0);
  prof.add_site_updates(StepPhase::Forces, 7);
  prof.reset();
  EXPECT_EQ(prof.total_seconds(), 0.0);
  EXPECT_EQ(prof.total_site_updates(), 0u);
  EXPECT_EQ(prof.stats(StepPhase::Forces).calls, 0u);
}

TEST(StepProfiler, ReportCoversEveryPhaseInOrder) {
  StepProfiler prof;
  const auto rows = prof.report();
  ASSERT_EQ(rows.size(), static_cast<std::size_t>(kNumStepPhases));
  EXPECT_EQ(rows.front().first, "coarse_collide_stream");
  EXPECT_EQ(rows.back().first, "health");
  const std::string table = prof.format_report();
  for (const auto& [name, stats] : rows) {
    EXPECT_NE(table.find(name), std::string::npos) << name;
  }
}

TEST(StepProfiler, ScopeAlsoFeedsEnabledTracer) {
  // With the tracer on, a Scope both records its phase and emits a span
  // named after it, so a trace shows the step's phase structure.
  obs::Tracer& t = obs::Tracer::instance();
  t.set_enabled(true);
  t.clear();
  const std::size_t before = t.event_count();
  StepProfiler prof;
  { auto s = prof.scope(StepPhase::Health); }
  t.set_enabled(false);
  EXPECT_EQ(prof.stats(StepPhase::Health).calls, 1u);
  EXPECT_EQ(t.event_count(), before + 1);
  const std::string json = t.to_chrome_json();
  EXPECT_NE(json.find("\"health\""), std::string::npos);
  t.clear();
}

TEST(StepProfiler, CsvRoundTripsThroughReader) {
  StepProfiler prof;
  prof.add_seconds(StepPhase::CoarseCollideStream, 1.5);
  prof.add_site_updates(StepPhase::CoarseCollideStream, 1000);
  prof.add_seconds(StepPhase::FineCollideStream, 2.5);
  prof.add_site_updates(StepPhase::FineCollideStream, 4000);

  const std::string path = temp_path("step_profile.csv");
  prof.write_csv(path);

  const CsvData data = read_csv(path);
  ASSERT_EQ(data.header.size(), 6u);
  EXPECT_EQ(data.header[0], "phase");
  EXPECT_EQ(data.header[1], "seconds");
  EXPECT_EQ(data.header[2], "calls");
  EXPECT_EQ(data.header[3], "site_updates");
  EXPECT_EQ(data.header[4], "ms_per_call");
  EXPECT_EQ(data.header[5], "mlups");
  ASSERT_EQ(data.rows.size(), static_cast<std::size_t>(kNumStepPhases));

  const auto& coarse = data.rows[0];
  EXPECT_DOUBLE_EQ(coarse[0], 0.0);  // enum index
  EXPECT_DOUBLE_EQ(coarse[1], 1.5);
  EXPECT_DOUBLE_EQ(coarse[3], 1000.0);
  EXPECT_DOUBLE_EQ(coarse[4], 1500.0);  // 1.5 s over 1 call, in ms
  EXPECT_NEAR(coarse[5], 1000.0 / 1.5 / 1e6, 1e-12);
  // Phases that never ran report zero per-call cost, not a division blowup.
  const auto& advect = data.rows[static_cast<int>(StepPhase::Advect)];
  EXPECT_DOUBLE_EQ(advect[2], 0.0);
  EXPECT_DOUBLE_EQ(advect[4], 0.0);
  EXPECT_DOUBLE_EQ(advect[5], 0.0);
  const auto& fine =
      data.rows[static_cast<int>(StepPhase::FineCollideStream)];
  EXPECT_DOUBLE_EQ(fine[1], 2.5);
  EXPECT_DOUBLE_EQ(fine[3], 4000.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace apr::perf
