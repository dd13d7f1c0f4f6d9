/// Observability layer tests: the strict JSON parser, the tracer's span
/// balance / Chrome output / disabled-mode overhead contract, metrics
/// registry determinism, run manifests, and the AprSimulation wiring
/// (fail-fast sinks, worker-count-invariant reductions, JSONL sampling).
///
/// The tracer is process-global, so every tracer test restores the
/// disabled state and uses event-count deltas rather than absolute counts.

#include "src/obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/apr/simulation.hpp"
#include "src/common/log.hpp"
#include "src/common/rng.hpp"
#include "src/exec/exec.hpp"
#include "src/lbm/lattice.hpp"
#include "src/mesh/shapes.hpp"
#include "src/obs/json.hpp"
#include "src/obs/manifest.hpp"
#include "src/obs/metrics.hpp"
#include "src/perf/step_profiler.hpp"
#include "src/rheology/blood.hpp"

namespace apr::obs {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// Re-disables the global tracer, resets its rank identity, and drops its
/// events on scope exit so a tracer test cannot leak state into the rest
/// of the suite.
struct TracerGuard {
  ~TracerGuard() {
    Tracer::instance().set_enabled(false);
    Tracer::instance().set_rank(0, 1);
    Tracer::instance().clear();
  }
};

// --- JSON parser ----------------------------------------------------------

TEST(ObsJson, ParsesScalarsArraysObjects) {
  const JsonValue v = json_parse(
      R"({"a": 1.5, "b": [true, false, null], "s": "x\n\"y\"", "o": {}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.at("a").number, 1.5);
  ASSERT_TRUE(v.at("b").is_array());
  ASSERT_EQ(v.at("b").array.size(), 3u);
  EXPECT_TRUE(v.at("b").array[0].boolean);
  EXPECT_EQ(v.at("s").string, "x\n\"y\"");
  EXPECT_TRUE(v.at("o").is_object());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), JsonError);
}

TEST(ObsJson, RejectsMalformedInput) {
  EXPECT_THROW(json_parse(""), JsonError);
  EXPECT_THROW(json_parse("{"), JsonError);
  EXPECT_THROW(json_parse("{} trailing"), JsonError);
  EXPECT_THROW(json_parse("{'a': 1}"), JsonError);
  EXPECT_THROW(json_parse("[1,]"), JsonError);
}

TEST(ObsJson, RejectsTruncatedEscapes) {
  // A backslash or \u sequence cut off by end-of-input must throw, not
  // read past the buffer (this suite runs under ASan/UBSan in CI).
  EXPECT_THROW(json_parse(R"("abc\)"), JsonError);
  EXPECT_THROW(json_parse("\"abc\\u12"), JsonError);
  EXPECT_THROW(json_parse("\"abc\\u12G4\""), JsonError);
  EXPECT_THROW(json_parse(R"("abc\q")"), JsonError);
  EXPECT_THROW(json_parse("\"unterminated"), JsonError);
}

TEST(ObsJson, RejectsDeepNesting) {
  // The parser is recursive descent; unbounded depth would overflow the
  // call stack. 256 levels is far beyond any document we write.
  std::string deep_ok(200, '[');
  deep_ok += std::string(200, ']');
  EXPECT_NO_THROW(json_parse(deep_ok));
  std::string deep_bad(10000, '[');
  deep_bad += std::string(10000, ']');
  EXPECT_THROW(json_parse(deep_bad), JsonError);
  std::string objs;
  for (int i = 0; i < 10000; ++i) objs += "{\"k\":";
  objs += "1";
  for (int i = 0; i < 10000; ++i) objs += "}";
  EXPECT_THROW(json_parse(objs), JsonError);
}

TEST(ObsJson, RejectsDuplicateKeys) {
  // find() returns the first match, so a duplicate would shadow the rest
  // of the object; a hand-edited baseline must fail loudly instead.
  EXPECT_THROW(json_parse(R"({"a": 1, "a": 2})"), JsonError);
  EXPECT_NO_THROW(json_parse(R"({"a": {"b": 1}, "c": {"b": 1}})"));
}

TEST(ObsJson, RejectsOversizedNumbers) {
  // strtod maps 1e999 to +inf silently; gates and manifests expect
  // finite values, so overflow is a parse error.
  EXPECT_THROW(json_parse("1e999"), JsonError);
  EXPECT_THROW(json_parse("-1e999"), JsonError);
  EXPECT_THROW(json_parse(R"({"v": 1e999})"), JsonError);
  EXPECT_NO_THROW(json_parse("1e308"));
  EXPECT_NO_THROW(json_parse("1e-999"));  // underflow to 0 is fine
}

TEST(ObsJson, NumberFormatRoundTrips) {
  // %.17g is enough to reproduce any double exactly.
  const double x = 0.1 + 0.2;
  const JsonValue v = json_parse(json_number(x));
  EXPECT_EQ(v.number, x);
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

// --- Tracer ---------------------------------------------------------------

TEST(ObsTrace, SpansBalancedUnderExceptions) {
  TracerGuard guard;
  Tracer& t = Tracer::instance();
  t.set_enabled(true);
  t.clear();
  const std::size_t before = t.event_count();
  try {
    OBS_SPAN("test", "throwing_scope");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  // The span closed during unwinding: exactly one complete event.
  EXPECT_EQ(t.event_count(), before + 1);
}

TEST(ObsTrace, ChromeJsonEnvelopeParses) {
  TracerGuard guard;
  Tracer& t = Tracer::instance();
  t.set_enabled(true);
  t.clear();
  {
    OBS_SPAN("test", "outer");
    OBS_SPAN("test", "inner");
  }
  t.record_instant("test", "marker", "\"k\":42");
  t.set_enabled(false);

  const JsonValue doc = json_parse(t.to_chrome_json());
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.array.size(), 3u);
  double last_ts = -1.0;
  bool saw_instant = false;
  for (const JsonValue& e : events.array) {
    EXPECT_TRUE(e.at("name").is_string());
    EXPECT_TRUE(e.at("cat").is_string());
    EXPECT_TRUE(e.at("ts").is_number());
    EXPECT_GE(e.at("ts").number, last_ts);
    last_ts = e.at("ts").number;
    const std::string ph = e.at("ph").string;
    if (ph == "X") {
      EXPECT_GE(e.at("dur").number, 0.0);
    } else {
      ASSERT_EQ(ph, "i");
      EXPECT_EQ(e.at("s").string, "t");
      EXPECT_EQ(e.at("args").at("k").number, 42.0);
      saw_instant = true;
    }
  }
  EXPECT_TRUE(saw_instant);
}

TEST(ObsTrace, DisabledModeRecordsAndAllocatesNothing) {
  TracerGuard guard;
  Tracer& t = Tracer::instance();
  t.set_enabled(false);
  const std::size_t events_before = t.event_count();
  const std::size_t buffers_before = t.buffers_registered();
  for (int i = 0; i < 1000; ++i) {
    OBS_SPAN("test", "disabled");
  }
  t.record_instant("test", "disabled_instant");
  // Nothing recorded, and no thread buffer was registered (registration
  // is the only allocation a span can cause).
  EXPECT_EQ(t.event_count(), events_before);
  EXPECT_EQ(t.buffers_registered(), buffers_before);
}

TEST(ObsTrace, DisabledSpanOverheadIsTiny) {
  TracerGuard guard;
  Tracer& t = Tracer::instance();
  t.set_enabled(false);
  constexpr int kIters = 200000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    OBS_SPAN("test", "overhead_probe");
  }
  const double ns_per_span =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - t0)
          .count() /
      kIters;
  // One relaxed atomic load; the bound is two orders of magnitude above
  // the expected cost to stay robust on loaded CI machines.
  EXPECT_LT(ns_per_span, 250.0);
}

TEST(ObsTrace, DisableMidScopeStillClosesSpan) {
  TracerGuard guard;
  Tracer& t = Tracer::instance();
  t.set_enabled(true);
  t.clear();
  const std::size_t before = t.event_count();
  {
    OBS_SPAN("test", "straddler");
    t.set_enabled(false);
  }
  EXPECT_EQ(t.event_count(), before + 1);

  // The mirror case: enabling mid-scope must not record a half-open span.
  {
    OBS_SPAN("test", "late_enable");
    t.set_enabled(true);
  }
  EXPECT_EQ(t.event_count(), before + 1);
}

TEST(ObsTrace, WriteThrowsOnUnwritablePath) {
  TracerGuard guard;
  try {
    Tracer::instance().write_chrome_json("/nonexistent-dir/trace.json");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent-dir/trace.json"),
              std::string::npos);
  }
}

TEST(ObsJson, RenderRoundTripsValuesInSourceOrder) {
  const std::string src =
      R"({"b":[1,2.5,"x",true,null],"a":{"nested":{"k":-0.5}}})";
  const std::string rendered = json_render(json_parse(src));
  EXPECT_EQ(rendered, src);  // compact, member order preserved
  EXPECT_EQ(json_render(json_parse(rendered)), rendered);
}

// --- Rank identity --------------------------------------------------------

TEST(ObsTrace, RankTracePathRoundTrips) {
  EXPECT_EQ(rank_trace_path("out/trace.json", 3), "out/trace.rank3.json");
  EXPECT_EQ(rank_trace_path("trace", 0), "trace.rank0");
  EXPECT_EQ(rank_trace_path("a.dir/plain", 1), "a.dir/plain.rank1");
  EXPECT_EQ(rank_from_trace_path("out/trace.rank3.json"), 3);
  EXPECT_EQ(rank_from_trace_path("trace.rank12"), 12);
  EXPECT_EQ(rank_from_trace_path("out/trace.json"), -1);
  EXPECT_EQ(rank_from_trace_path("trace.rankX.json"), -1);
}

TEST(ObsTrace, SetRankValidatesIdentity) {
  TracerGuard guard;
  Tracer& tracer = Tracer::instance();
  EXPECT_THROW(tracer.set_rank(-1, 2), std::invalid_argument);
  EXPECT_THROW(tracer.set_rank(2, 2), std::invalid_argument);
  EXPECT_THROW(tracer.set_rank(0, 0), std::invalid_argument);
  tracer.set_rank(1, 4);
  EXPECT_EQ(tracer.rank(), 1);
  EXPECT_EQ(tracer.world_size(), 4);
}

TEST(ObsTrace, RankLanesRenderInChromeJson) {
  TracerGuard guard;
  Tracer& tracer = Tracer::instance();
  tracer.set_rank(1, 2);
  tracer.set_enabled(true);
  { OBS_SPAN("test", "ranked_span"); }
  tracer.set_enabled(false);
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("rank 1/2"), std::string::npos);  // lane metadata
  EXPECT_NE(json.find("process_sort_index"), std::string::npos);
  const JsonValue v = json_parse(json);
  ASSERT_TRUE(v.at("traceEvents").is_array());
  // Every event (metadata and span alike) sits in this rank's pid lane.
  for (const JsonValue& ev : v.at("traceEvents").array) {
    EXPECT_DOUBLE_EQ(ev.at("pid").number, 1.0);
  }
}

TEST(ObsTrace, DisabledModeWithRankPlumbingAllocatesNothing) {
  TracerGuard guard;
  Tracer& tracer = Tracer::instance();
  tracer.set_rank(3, 8);  // identity alone must not arm recording
  const std::size_t buffers = tracer.buffers_registered();
  const std::size_t events = tracer.event_count();
  { OBS_SPAN("test", "never_recorded"); }
  tracer.record_instant("test", "never_either");
  EXPECT_EQ(tracer.buffers_registered(), buffers);
  EXPECT_EQ(tracer.event_count(), events);
}

// --- Metrics registry -----------------------------------------------------

TEST(ObsMetrics, RegistryBasics) {
  Metrics m;
  m.set_gauge("mass", 2.5);
  m.add_counter("moves");
  m.add_counter("moves", 2);
  m.observe("lat_ms", 1.0);
  m.observe("lat_ms", 3.0);
  EXPECT_DOUBLE_EQ(m.gauge("mass"), 2.5);
  EXPECT_EQ(m.counter("moves"), 3u);
  EXPECT_EQ(m.histogram("lat_ms").count, 2u);
  EXPECT_DOUBLE_EQ(m.histogram("lat_ms").sum, 4.0);
  EXPECT_DOUBLE_EQ(m.histogram("lat_ms").min, 1.0);
  EXPECT_DOUBLE_EQ(m.histogram("lat_ms").max, 3.0);
  EXPECT_EQ(m.gauge("untouched"), 0.0);
  EXPECT_EQ(m.size(), 3u);
  m.clear();
  EXPECT_EQ(m.size(), 0u);
}

TEST(ObsMetrics, ToJsonIsSortedAndStable) {
  Metrics m;
  m.set_gauge("zeta", 1.0 / 3.0);
  m.set_gauge("alpha", 0.1);
  m.add_counter("mid", 7);
  const std::string a = m.to_json();
  const std::string b = m.to_json();
  EXPECT_EQ(a, b);  // byte-identical on repeat render
  EXPECT_LT(a.find("\"alpha\""), a.find("\"mid\""));
  EXPECT_LT(a.find("\"mid\""), a.find("\"zeta\""));
  // Values survive a parse round-trip exactly.
  const JsonValue v = json_parse(a);
  EXPECT_EQ(v.at("zeta").number, 1.0 / 3.0);
  EXPECT_EQ(v.at("mid").number, 7.0);
}

TEST(ObsMetrics, WriterAppendsLinesAndFailsFast) {
  const std::string path = temp_path("obs_metrics.jsonl");
  {
    MetricsWriter w(path);
    Metrics m;
    m.set_gauge("step", 1.0);
    w.write_line(m.to_json());
    m.set_gauge("step", 2.0);
    w.write_line(m.to_json());
    EXPECT_EQ(w.lines_written(), 2u);
  }
  std::ifstream is(path);
  std::string line;
  int n = 0;
  while (std::getline(is, line)) {
    const JsonValue v = json_parse(line);
    EXPECT_DOUBLE_EQ(v.at("step").number, ++n);
  }
  EXPECT_EQ(n, 2);

  try {
    MetricsWriter bad("/nonexistent-dir/metrics.jsonl");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent-dir/metrics.jsonl"),
              std::string::npos);
  }
}

TEST(ObsMetrics, HistogramPercentilesAreNearestRank) {
  Metrics m;
  for (int i = 100; i >= 1; --i) m.observe("lat", static_cast<double>(i));
  const HistogramStats s = m.histogram("lat");
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
  // A single sample collapses every quantile onto it.
  Metrics one;
  one.observe("x", 7.5);
  EXPECT_DOUBLE_EQ(one.histogram("x").p50, 7.5);
  EXPECT_DOUBLE_EQ(one.histogram("x").p99, 7.5);
}

TEST(ObsMetrics, HistogramJsonGoldenFormat) {
  // Byte-exact rendering contract: sorted keys, fixed sub-object key
  // order, %.17g numbers. Downstream golden comparisons depend on it.
  Metrics m;
  m.observe("h", 2.0);
  m.observe("h", 1.0);
  m.observe("h", 4.0);
  EXPECT_EQ(m.to_json(),
            "{\"h\":{\"count\":3,\"sum\":7,\"min\":1,\"max\":4,"
            "\"p50\":2,\"p95\":4,\"p99\":4}}");
}

TEST(ObsMetrics, SetRankRendersAndValidates) {
  Metrics m;
  m.set_rank(1, 4);
  EXPECT_DOUBLE_EQ(m.gauge("rank"), 1.0);
  EXPECT_DOUBLE_EQ(m.gauge("world.size"), 4.0);
  EXPECT_THROW(m.set_rank(-1, 4), std::invalid_argument);
  EXPECT_THROW(m.set_rank(4, 4), std::invalid_argument);
  EXPECT_THROW(m.set_rank(0, 0), std::invalid_argument);
}

TEST(ObsMetrics, SerializeRoundTripsByteIdentically) {
  Metrics m;
  m.set_rank(2, 8);
  m.set_gauge("zeta", 1.0 / 3.0);
  m.add_counter("msgs", 42);
  for (int i = 0; i < 10; ++i) m.observe("lat", 0.1 * i);
  const std::vector<char> bytes = m.serialize();
  const Metrics back = Metrics::deserialize(bytes, "rank 2");
  EXPECT_EQ(back.to_json(), m.to_json());
  EXPECT_DOUBLE_EQ(back.gauge("rank"), 2.0);
  EXPECT_EQ(back.counter("msgs"), 42u);

  const std::vector<char> truncated(bytes.begin(), bytes.end() - 3);
  try {
    Metrics::deserialize(truncated, "rank 2");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 2"), std::string::npos);
  }
}

/// Raw bytes of `v`, appended to a hand-built snapshot payload.
template <typename T>
void put_raw(std::vector<char>& p, const T& v) {
  const char* c = reinterpret_cast<const char*>(&v);
  p.insert(p.end(), c, c + sizeof(T));
}

void put_name(std::vector<char>& p, const std::string& name) {
  put_raw<std::uint64_t>(p, name.size());
  p.insert(p.end(), name.begin(), name.end());
}

/// A snapshot payload with the given gauge and counter names (values 1)
/// and one sample-free histogram per `hists` name.
std::vector<char> snapshot_with(const std::vector<std::string>& gauges,
                                const std::vector<std::string>& counters,
                                const std::vector<std::string>& hists) {
  const std::vector<char> empty = Metrics{}.serialize();
  std::vector<char> p(empty.begin(), empty.begin() + 4);  // the version
  put_raw<std::uint64_t>(p, gauges.size());
  for (const auto& n : gauges) {
    put_name(p, n);
    put_raw(p, 1.0);
  }
  put_raw<std::uint64_t>(p, counters.size());
  for (const auto& n : counters) {
    put_name(p, n);
    put_raw<std::uint64_t>(p, 1);
  }
  put_raw<std::uint64_t>(p, hists.size());
  for (const auto& n : hists) {
    put_name(p, n);
    for (int k = 0; k < 5; ++k) put_raw<std::uint64_t>(p, 0);
  }
  return p;
}

/// Expects deserialize to reject `payload` with an error naming "rank 3".
void expect_rejected(const std::vector<char>& payload) {
  try {
    Metrics::deserialize(payload, "rank 3");
    ADD_FAILURE() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 3"), std::string::npos)
        << e.what();
  }
}

TEST(ObsMetrics, DeserializeRejectsNameRepeatedWithinKind) {
  // The hand-built layout is what serialize() writes.
  const Metrics ok =
      Metrics::deserialize(snapshot_with({"a", "b"}, {"c"}, {"d"}), "rank 3");
  EXPECT_EQ(ok.size(), 4u);
  expect_rejected(snapshot_with({"a", "a"}, {}, {}));
  expect_rejected(snapshot_with({}, {"c", "c"}, {}));
  expect_rejected(snapshot_with({}, {}, {"d", "d"}));
}

TEST(ObsMetrics, DeserializeRejectsNameReusedAcrossKinds) {
  // A name that is both a gauge and a counter would make to_json() write
  // the key twice, which json_parse rejects.
  expect_rejected(snapshot_with({"x"}, {"x"}, {}));
  expect_rejected(snapshot_with({"x"}, {}, {"x"}));
  expect_rejected(snapshot_with({}, {"x"}, {"x"}));
}

TEST(ObsMetrics, SettersRejectNameUsedInAnotherKind) {
  const auto expect_held_by = [](const std::function<void()>& set,
                                 const std::string& kind) {
    try {
      set();
      ADD_FAILURE() << "expected std::logic_error";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("already a " + kind),
                std::string::npos)
          << e.what();
    }
  };
  Metrics m;
  m.set_gauge("g", 1.0);
  m.add_counter("c", 2);
  m.observe("h", 3.0);
  expect_held_by([&] { m.add_counter("g"); }, "gauge");
  expect_held_by([&] { m.set_counter("g", 1); }, "gauge");
  expect_held_by([&] { m.observe("g", 1.0); }, "gauge");
  expect_held_by([&] { m.set_gauge("c", 1.0); }, "counter");
  expect_held_by([&] { m.observe("c", 1.0); }, "counter");
  expect_held_by([&] { m.set_gauge("h", 1.0); }, "histogram");
  expect_held_by([&] { m.add_counter("h"); }, "histogram");
  expect_held_by([&] { m.set_counter("h", 1); }, "histogram");
  // The same kind may keep writing its name, and nothing was changed by
  // the rejected calls: the line still parses with one key per name.
  m.set_gauge("g", 4.0);
  m.set_counter("c", 5);
  m.add_counter("c");
  m.observe("h", 6.0);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_DOUBLE_EQ(m.gauge("g"), 4.0);
  EXPECT_EQ(m.counter("c"), 6u);
  EXPECT_EQ(m.histogram("h").count, 2u);
  EXPECT_NO_THROW(json_parse(m.to_json()));
}

// --- Seeded mutations -----------------------------------------------------

/// One seeded text mutation: a byte flip, a byte replaced by a JSON
/// structural character, a truncation, random bytes inserted, or a slice
/// deleted or repeated in place.
void mutate_text(std::string& t, Rng& rng) {
  static const char kStructural[] = "{}[]\",:\\-+.eE0123456789tfnu ";
  const std::size_t at = rng.uniform_index(t.size());
  switch (rng.uniform_index(6)) {
    case 0:
      t[at] ^= static_cast<char>(1 + rng.uniform_index(255));
      break;
    case 1:
      t[at] = kStructural[rng.uniform_index(sizeof(kStructural) - 1)];
      break;
    case 2:
      t.resize(at);
      break;
    case 3: {
      std::string extra;
      const std::size_t n = 1 + rng.uniform_index(8);
      for (std::size_t k = 0; k < n; ++k) {
        extra.push_back(static_cast<char>(rng.next_u64()));
      }
      t.insert(at, extra);
      break;
    }
    case 4:
      t.erase(at, 1 + rng.uniform_index(32));
      break;
    default:
      t.insert(at, t.substr(at, 1 + rng.uniform_index(64)));
      break;
  }
}

TEST(ObsJson, SeededMutationsFailClosed) {
  // Mutated metrics lines and trace envelopes must either parse or throw
  // JsonError: no other exception (bad_alloc included), no crash, no hang.
  Metrics m;
  m.set_rank(1, 4);
  m.set_gauge("coarse.mass", 1.0 / 3.0);
  m.set_gauge("ctc.x", -2.5e-6);
  m.add_counter("window.moves", 7);
  for (int i = 0; i < 20; ++i) m.observe("step.ms", 0.5 + 0.1 * i);
  const std::string line = m.to_json();

  TracerGuard guard;
  Tracer& t = Tracer::instance();
  t.set_enabled(true);
  t.clear();
  {
    OBS_SPAN("test", "outer");
    OBS_SPAN("test", "inner \"quoted\"\n");
  }
  t.record_instant("test", "marker", "\"k\":42,\"s\":\"v\"");
  t.set_enabled(false);
  const std::string envelope = t.to_chrome_json();
  ASSERT_NO_THROW(json_parse(line));
  ASSERT_NO_THROW(json_parse(envelope));

  Rng rng(0x0B5F022);
  int rejected = 0;
  int parsed = 0;
  for (int i = 0; i < 4000 && !HasFailure(); ++i) {
    std::string text = i % 2 == 0 ? line : envelope;
    const int rounds = 1 + static_cast<int>(rng.uniform_index(3));
    for (int r = 0; r < rounds && !text.empty(); ++r) mutate_text(text, rng);
    try {
      json_parse(text);
      ++parsed;
    } catch (const JsonError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << i << " escaped as " << e.what();
    }
  }
  // Both outcomes occur, so neither branch is vacuous.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(parsed, 0);
}

TEST(ObsMetrics, SeededSnapshotMutationsFailClosed) {
  // Mutated serialize() payloads must either deserialize or throw
  // std::runtime_error; an accepted snapshot must render a line that
  // json_parse accepts (so no key is written twice).
  Metrics m;
  m.set_rank(2, 8);
  m.set_gauge("gauge.aa", 1.0 / 3.0);
  m.set_gauge("gauge.bb", 2.0);
  m.add_counter("count.aa", 42);
  m.add_counter("count.bb", 1);
  for (int i = 0; i < 10; ++i) m.observe("hist.aa", 0.1 * i);
  const std::vector<char> bytes = m.serialize();
  const std::string names[] = {"gauge.aa", "gauge.bb", "count.aa",
                               "count.bb", "hist.aa"};
  std::vector<std::size_t> name_at;
  for (const std::string& n : names) {
    const auto it = std::search(bytes.begin(), bytes.end(), n.begin(), n.end());
    ASSERT_NE(it, bytes.end()) << n;
    name_at.push_back(static_cast<std::size_t>(it - bytes.begin()));
  }
  // u64 fields: the gauge count, each name's length (just before its
  // bytes), and the histogram's sample count (after count/sum/min/max).
  std::vector<std::size_t> fields = {4};
  for (const std::size_t at : name_at) fields.push_back(at - 8);
  fields.push_back(name_at.back() + std::string("hist.aa").size() + 32);

  Rng rng(0x5EED0B5);
  int rejected = 0;
  int accepted = 0;
  for (int i = 0; i < 4000 && !HasFailure(); ++i) {
    std::vector<char> p = bytes;
    switch (rng.uniform_index(5)) {
      case 0:
        p[rng.uniform_index(p.size())] ^=
            static_cast<char>(1 + rng.uniform_index(255));
        break;
      case 1:
        p.resize(rng.uniform_index(p.size()));
        break;
      case 2: {
        const std::size_t extra = 1 + rng.uniform_index(16);
        for (std::size_t k = 0; k < extra; ++k) {
          p.push_back(static_cast<char>(rng.next_u64()));
        }
        break;
      }
      case 3: {
        // One 8-byte gauge or counter name copied over another: a repeat
        // within a kind or across kinds.
        const std::size_t a = rng.uniform_index(4);
        const std::size_t b = rng.uniform_index(4);
        std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(name_at[a]),
                    8, p.begin() + static_cast<std::ptrdiff_t>(name_at[b]));
        break;
      }
      default: {
        const std::size_t f = fields[rng.uniform_index(fields.size())];
        std::uint64_t old = 0;
        std::memcpy(&old, p.data() + f, 8);
        const std::uint64_t values[] = {0,
                                        1,
                                        old - 1,
                                        old + 1,
                                        2 * old,
                                        Metrics::kMaxSamples,
                                        Metrics::kMaxSamples + 1,
                                        (1ull << 20) + 1,
                                        0x80000000ull,
                                        ~0ull,
                                        rng.next_u64()};
        const std::uint64_t v =
            values[rng.uniform_index(sizeof(values) / sizeof(values[0]))];
        std::memcpy(p.data() + f, &v, 8);
        break;
      }
    }
    try {
      const Metrics back = Metrics::deserialize(p, "rank 2");
      ++accepted;
      EXPECT_NO_THROW(json_parse(back.to_json())) << "mutation " << i;
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << i << " escaped as " << e.what();
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted, 0);
}

// --- Run manifest ---------------------------------------------------------

TEST(ObsManifest, RendersRankIdentity) {
  RunManifest m;
  m.tool = "t";
  m.rank = 2;
  m.world_size = 4;
  const std::string json = run_manifest_json(m);
  EXPECT_NE(json.find("\"rank\":2"), std::string::npos);
  EXPECT_NE(json.find("\"world_size\":4"), std::string::npos);
  const JsonValue v = json_parse(json);
  EXPECT_DOUBLE_EQ(v.at("rank").number, 2.0);
  EXPECT_DOUBLE_EQ(v.at("world_size").number, 4.0);
}

TEST(ObsManifest, CaptureAndRoundTrip) {
  RunManifest m;
  m.tool = "test_tool";
  m.command_line = "test_tool --flag";
  capture_environment(m);
  EXPECT_GE(m.num_workers, 1);
  EXPECT_FALSE(m.start_time.empty());
  EXPECT_FALSE(m.build.empty());
  m.params_digest = "deadbeef00000000";
  m.config = {{"apr_n", "4"}};
  m.extra = {{"seed", "11"}};

  const JsonValue v = json_parse(run_manifest_json(m));
  EXPECT_EQ(v.at("tool").string, "test_tool");
  EXPECT_EQ(v.at("params_digest").string, "deadbeef00000000");
  EXPECT_EQ(v.at("config").at("apr_n").string, "4");
  EXPECT_EQ(v.at("extra").at("seed").string, "11");
  // ISO-8601 UTC shape: 2026-01-02T03:04:05Z
  EXPECT_EQ(m.start_time.size(), 20u);
  EXPECT_EQ(m.start_time[10], 'T');
  EXPECT_EQ(m.start_time.back(), 'Z');

  const std::string path = temp_path("run_manifest.json");
  write_run_manifest(m, path);
  std::ifstream is(path);
  std::string body((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(json_parse(body).at("tool").string, "test_tool");

  EXPECT_THROW(write_run_manifest(m, "/nonexistent-dir/m.json"),
               std::runtime_error);
}

// --- Worker-count-invariant reductions ------------------------------------

/// Restores the ambient worker count on scope exit (same idiom as
/// test_exec.cpp).
struct WorkerGuard {
  int saved = exec::num_workers();
  ~WorkerGuard() { exec::set_num_workers(saved); }
};

TEST(ObsDeterminism, LatticeReductionsAreWorkerCountInvariant) {
  // A lattice with irregular per-node state: any order-dependent sum
  // would differ in the last bits across worker counts.
  lbm::Lattice lat(12, 11, 10, Vec3{}, 1.0, 1.0);
  lat.init_equilibrium(1.0, Vec3{0.02, 0.0, 0.0});
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    auto f = lat.f_node(i);
    for (std::size_t q = 0; q < f.size(); ++q) {
      f[q] *= 1.0 + 1e-3 * std::sin(static_cast<double>(i * 19 + q));
    }
    lat.set_f_node(i, f);
    if (i % 7 == 0) lat.set_type(i, lbm::NodeType::Wall);
  }

  WorkerGuard guard;
  exec::set_num_workers(1);
  const double mass1 = core::lattice_total_mass(lat);
  const double mach1 = core::lattice_max_mach(lat);
  for (int w : {2, 3, 4}) {
    exec::set_num_workers(w);
    // Bit-exact equality, not tolerance: fixed-grain chunking and ordered
    // combination make the reduction independent of the worker count.
    EXPECT_EQ(core::lattice_total_mass(lat), mass1) << "workers=" << w;
    EXPECT_EQ(core::lattice_max_mach(lat), mach1) << "workers=" << w;
  }
  EXPECT_GT(mass1, 0.0);
  EXPECT_GE(mach1, 0.0);
}

// --- AprSimulation wiring -------------------------------------------------

std::shared_ptr<fem::MembraneModel> tiny_rbc() {
  fem::MembraneParams p;
  p.shear_modulus = rheology::kRbcShearModulus;
  p.bending_modulus = rheology::kRbcBendingModulus;
  p.ka_global = 1e-6;
  p.kv_global = 1e-6;
  return std::make_shared<fem::MembraneModel>(mesh::rbc_biconcave(1, 1e-6),
                                              p);
}

std::shared_ptr<fem::MembraneModel> tiny_ctc() {
  fem::MembraneParams p;
  p.shear_modulus = rheology::kCtcShearModulus;
  p.bending_modulus = 10.0 * rheology::kRbcBendingModulus;
  p.ka_global = 1e-5;
  p.kv_global = 1e-5;
  return std::make_shared<fem::MembraneModel>(mesh::ctc_sphere(1, 1.6e-6), p);
}

core::AprParams tiny_params() {
  core::AprParams p;
  p.dx_coarse = 2.0e-6;
  p.n = 2;
  p.tau_coarse = 1.0;
  p.nu_bulk = rheology::kWholeBloodKinematicViscosity;
  p.lambda = rheology::kPlasmaViscosity / rheology::kWholeBloodViscosity;
  p.window.proper_side = 6.0e-6;
  p.window.onramp_width = 2.5e-6;
  p.window.insertion_width = 5.5e-6;  // outer = 22 um = 11 dx_coarse
  p.window.target_hematocrit = 0.10;
  p.move.trigger_distance = 1.5e-6;
  p.fsi.contact_cutoff = 0.4e-6;
  p.fsi.contact_strength = 2e-12;
  p.fsi.wall_cutoff = 0.5e-6;
  p.fsi.wall_strength = 5e-12;
  p.maintain_interval = 3;
  p.rbc_capacity = 1500;
  p.seed = 7;
  return p;
}

std::shared_ptr<geometry::TubeDomain> tube_domain() {
  return std::make_shared<geometry::TubeDomain>(
      Vec3{0.0, 0.0, -30e-6}, Vec3{0.0, 0.0, 1.0}, 60e-6, 16e-6,
      /*capped=*/false);
}

class ObsSimulationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::Error); }
};

TEST_F(ObsSimulationTest, HealthParamsDoNotChangeParamsFingerprint) {
  // Run manifests and checkpoints carry this digest: watchdog settings
  // leave it alone, a trajectory-shaping field moves it.
  const core::AprParams a = tiny_params();
  core::AprParams b = tiny_params();
  b.health.enabled = true;
  b.health.interval = 50;
  b.health.policy = core::HealthPolicy::Recover;
  EXPECT_EQ(core::params_fingerprint(a), core::params_fingerprint(b));
  b.seed = a.seed + 1;
  EXPECT_NE(core::params_fingerprint(a), core::params_fingerprint(b));
  b = a;
  b.window.repopulation_threshold = 0.5;
  EXPECT_NE(core::params_fingerprint(a), core::params_fingerprint(b));
}

TEST_F(ObsSimulationTest, StepSamplesMetricsIntoJsonlSink) {
  const std::string path = temp_path("obs_sim_metrics.jsonl");
  core::AprSimulation sim(tube_domain(), tiny_rbc(), tiny_ctc(),
                          tiny_params());
  sim.initialize_flow(Vec3{});
  sim.coarse().set_periodic(false, false, true);
  sim.place_window(Vec3{});
  sim.place_ctc(Vec3{});
  sim.run(2);  // no sink yet: nothing sampled
  {
    MetricsWriter sink(path);
    sim.attach_metrics_sink(&sink);
    sim.run(3);
    sim.attach_metrics_sink(nullptr);
    sim.run(1);  // detached again
  }

  // One sample per coarse step while attached: steps 3, 4, 5.
  std::ifstream is(path);
  std::string line;
  std::vector<double> steps;
  while (std::getline(is, line)) {
    const JsonValue v = json_parse(line);
    steps.push_back(v.at("step").number);
    EXPECT_TRUE(v.at("time").is_number());
    EXPECT_GT(v.at("coarse.mass").number, 0.0);
    EXPECT_GT(v.at("fine.mass").number, 0.0);
    EXPECT_TRUE(v.find("window.hematocrit") != nullptr);
    EXPECT_TRUE(v.find("rbc.count") != nullptr);
    EXPECT_TRUE(v.find("fine.max_mach") != nullptr);
    EXPECT_TRUE(v.find("phase.forces.ms") != nullptr);
  }
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_DOUBLE_EQ(steps[0], 3.0);
  EXPECT_DOUBLE_EQ(steps[2], 5.0);

  // The registry mirrors the last line.
  EXPECT_DOUBLE_EQ(sim.metrics().gauge("step"), 5.0);
  EXPECT_EQ(sim.metrics().counter("health.scans"), sim.health_scans());
  std::remove(path.c_str());
}

TEST_F(ObsSimulationTest, TracedRunEmitsAllStepPhaseSpans) {
  TracerGuard guard;
  Tracer& t = Tracer::instance();
  t.set_enabled(true);
  t.clear();
  core::AprParams p = tiny_params();
  p.health.enabled = true;  // the Health phase only runs when scans do
  p.health.interval = 1;
  p.health.policy = core::HealthPolicy::Log;
  core::AprSimulation sim(tube_domain(), tiny_rbc(), tiny_ctc(), p);
  sim.initialize_flow(Vec3{});
  sim.coarse().set_periodic(false, false, true);
  sim.place_window(Vec3{});
  sim.place_ctc(Vec3{});
  sim.run(3);
  // Drag the CTC to within trigger_distance of the window proper boundary
  // so the WindowMove phase fires too (an undriven 3-step run never
  // relocates on its own). Offsets are relative to the actual (snapped)
  // window center.
  sim.place_ctc(sim.window().center() +
                Vec3{0.0, 0.0, p.window.proper_side / 2.0 - 0.5e-6});
  sim.step();
  t.set_enabled(false);

  const JsonValue doc = json_parse(t.to_chrome_json());
  const JsonValue& events = doc.at("traceEvents");
  for (int i = 0; i < perf::kNumStepPhases; ++i) {
    const std::string want =
        perf::to_string(static_cast<perf::StepPhase>(i));
    bool found = false;
    for (const JsonValue& e : events.array) {
      if (e.at("ph").string == "X" && e.at("cat").string == "step" &&
          e.at("name").string == want) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "missing step phase span " << want;
  }
}

}  // namespace
}  // namespace apr::obs
