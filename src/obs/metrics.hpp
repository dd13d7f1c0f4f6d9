#pragma once

/// \file metrics.hpp
/// Named metrics registry + JSONL sink for the APR stack.
///
/// Three metric kinds:
///  - gauge: a sampled double ("coarse.mass", "window.hematocrit")
///  - counter: a monotonic integer ("window.moves", "health.violations")
///  - histogram: running count/sum/min/max plus nearest-rank p50/p95/p99
///    over retained samples ("relocation.ms")
///
/// A registry renders as one flat JSON object with keys in sorted order
/// and doubles at %.17g, so identical values produce byte-identical
/// lines -- the determinism tests compare samples across worker counts
/// textually. AprSimulation samples its registry every coarse step into
/// the MetricsWriter a driver attaches (attach_metrics_sink), one JSON
/// object per line (JSONL), which tools/trace_summary --check validates.
///
/// For distributed runs a registry also round-trips through
/// serialize()/deserialize() (host-byte-order payload, wrapped in
/// io::Checkpoint framing by parallel::gather_metrics) so forked ranks
/// can ship their snapshots to rank 0 for a deterministic merge.

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace apr::obs {

/// Summary of observations fed to Metrics::observe. Percentiles are
/// nearest-rank over the retained samples (see Metrics::kMaxSamples), so
/// every reported quantile is an actual observed value -- bit-stable
/// across identical runs, no interpolation.
struct HistogramStats {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

class Metrics {
 public:
  /// Histograms retain at most this many samples for the percentile
  /// fields; count/sum/min/max keep accumulating afterwards, so only the
  /// quantiles saturate to the first window. Generous for per-step
  /// observations (tens of thousands of steps) without unbounded growth.
  static constexpr std::size_t kMaxSamples = 65536;

  /// Each name belongs to one kind: a setter given a name that another
  /// kind already holds throws std::logic_error naming that kind (to_json
  /// would otherwise write the key twice).
  void set_gauge(const std::string& name, double value);
  void add_counter(const std::string& name, std::uint64_t delta = 1);
  void set_counter(const std::string& name, std::uint64_t value);
  void observe(const std::string& name, double value);

  /// Record rank identity as the "rank" / "world.size" gauges so every
  /// rendered line and every shipped snapshot is self-identifying.
  void set_rank(int rank, int world_size);

  /// Current value, or 0 / empty stats when the metric was never touched.
  double gauge(const std::string& name) const;
  std::uint64_t counter(const std::string& name) const;
  HistogramStats histogram(const std::string& name) const;

  std::size_t size() const {
    return gauges_.size() + counters_.size() + histograms_.size();
  }

  void clear();

  /// One flat JSON object: gauges as numbers, counters as integers,
  /// histograms as {"count","sum","min","max","p50","p95","p99"}
  /// sub-objects. Keys sorted (std::map order); byte-stable for
  /// identical values.
  std::string to_json() const;

  /// Snapshot the registry (including retained histogram samples, so a
  /// deserialized copy renders byte-identical JSON) into a flat byte
  /// payload. Host byte order, like the checkpoint layer.
  std::vector<char> serialize() const;

  /// Rebuild a registry from serialize() output. Throws
  /// std::runtime_error naming `what` on truncated or malformed bytes and
  /// on a name that appears twice, within one kind or across kinds.
  static Metrics deserialize(const std::vector<char>& payload,
                             const std::string& what);

 private:
  struct Hist {
    HistogramStats stats;
    std::vector<double> samples;  ///< first kMaxSamples observations
  };

  static HistogramStats finalize(const Hist& h);
  /// "gauge", "counter" or "histogram" when a kind holds `name`, else null.
  const char* kind_of(const std::string& name) const;
  void require_kind(const std::string& name, const char* kind) const;

  std::map<std::string, double> gauges_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, Hist> histograms_;
};

/// Line-oriented JSONL sink. Opens eagerly: an unwritable path fails the
/// run at construction with a clear error instead of silently truncating
/// output at the end.
class MetricsWriter {
 public:
  /// Throws std::runtime_error naming `path` when it cannot be opened.
  explicit MetricsWriter(const std::string& path);

  /// Append one line (the caller passes a rendered JSON object). Flushes
  /// so a crashed run keeps every completed sample. Throws
  /// std::runtime_error when the write fails.
  void write_line(const std::string& json);

  const std::string& path() const { return path_; }
  std::uint64_t lines_written() const { return lines_; }

 private:
  std::string path_;
  std::ofstream os_;
  std::uint64_t lines_ = 0;
};

}  // namespace apr::obs
