#include "src/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "src/obs/json.hpp"

namespace apr::obs {

const char* Metrics::kind_of(const std::string& name) const {
  if (gauges_.count(name)) return "gauge";
  if (counters_.count(name)) return "counter";
  if (histograms_.count(name)) return "histogram";
  return nullptr;
}

void Metrics::require_kind(const std::string& name, const char* kind) const {
  const char* held = kind_of(name);
  if (held && std::strcmp(held, kind) != 0) {
    throw std::logic_error("obs: metric '" + name + "' is already a " + held +
                           ", not a " + kind);
  }
}

void Metrics::set_gauge(const std::string& name, double value) {
  require_kind(name, "gauge");
  gauges_[name] = value;
}

void Metrics::add_counter(const std::string& name, std::uint64_t delta) {
  require_kind(name, "counter");
  counters_[name] += delta;
}

void Metrics::set_counter(const std::string& name, std::uint64_t value) {
  require_kind(name, "counter");
  counters_[name] = value;
}

void Metrics::observe(const std::string& name, double value) {
  require_kind(name, "histogram");
  auto [it, inserted] = histograms_.try_emplace(name);
  Hist& h = it->second;
  HistogramStats& s = h.stats;
  if (inserted || s.count == 0) {
    s.min = value;
    s.max = value;
  } else {
    s.min = std::min(s.min, value);
    s.max = std::max(s.max, value);
  }
  ++s.count;
  s.sum += value;
  if (h.samples.size() < kMaxSamples) h.samples.push_back(value);
}

void Metrics::set_rank(int rank, int world_size) {
  if (rank < 0 || world_size < 1 || rank >= world_size) {
    throw std::invalid_argument("obs: Metrics::set_rank(" +
                                std::to_string(rank) + ", " +
                                std::to_string(world_size) +
                                ") is not a valid rank identity");
  }
  set_gauge("rank", static_cast<double>(rank));
  set_gauge("world.size", static_cast<double>(world_size));
}

double Metrics::gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

std::uint64_t Metrics::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

HistogramStats Metrics::finalize(const Hist& h) {
  HistogramStats out = h.stats;
  if (h.samples.empty()) return out;
  std::vector<double> sorted = h.samples;
  std::sort(sorted.begin(), sorted.end());
  // Nearest-rank: index ceil(p * n) - 1 over the retained window, so the
  // quantile is always an actual sample and renders bit-stably.
  const auto pick = [&](double p) {
    const std::size_t n = sorted.size();
    std::size_t idx = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(n)));
    if (idx > 0) --idx;
    if (idx >= n) idx = n - 1;
    return sorted[idx];
  };
  out.p50 = pick(0.50);
  out.p95 = pick(0.95);
  out.p99 = pick(0.99);
  return out;
}

HistogramStats Metrics::histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? HistogramStats{} : finalize(it->second);
}

void Metrics::clear() {
  gauges_.clear();
  counters_.clear();
  histograms_.clear();
}

std::string Metrics::to_json() const {
  // Merge the three sorted maps into one sorted key sequence so the
  // output is a single flat object regardless of metric kind.
  std::ostringstream os;
  os << "{";
  bool first = true;
  auto emit_key = [&](const std::string& name) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":";
  };
  auto g = gauges_.begin();
  auto c = counters_.begin();
  auto h = histograms_.begin();
  while (g != gauges_.end() || c != counters_.end() ||
         h != histograms_.end()) {
    // Pick the lexicographically smallest remaining key.
    const std::string* best = nullptr;
    if (g != gauges_.end()) best = &g->first;
    if (c != counters_.end() && (!best || c->first < *best)) best = &c->first;
    if (h != histograms_.end() && (!best || h->first < *best)) {
      best = &h->first;
    }
    if (g != gauges_.end() && &g->first == best) {
      emit_key(g->first);
      os << json_number(g->second);
      ++g;
    } else if (c != counters_.end() && &c->first == best) {
      emit_key(c->first);
      os << c->second;
      ++c;
    } else {
      const HistogramStats s = finalize(h->second);
      emit_key(h->first);
      os << "{\"count\":" << s.count << ",\"sum\":" << json_number(s.sum)
         << ",\"min\":" << json_number(s.min)
         << ",\"max\":" << json_number(s.max)
         << ",\"p50\":" << json_number(s.p50)
         << ",\"p95\":" << json_number(s.p95)
         << ",\"p99\":" << json_number(s.p99) << "}";
      ++h;
    }
  }
  os << "}";
  return os.str();
}

namespace {

// Tiny flat serializer; host byte order like the checkpoint layer. Kept
// local so obs does not depend on io (the transport wraps this payload in
// io::Checkpoint framing for the wire).
constexpr std::uint32_t kMetricsFormatVersion = 1;

void put_pod(std::vector<char>& buf, const void* p, std::size_t n) {
  const auto* c = static_cast<const char*>(p);
  buf.insert(buf.end(), c, c + n);
}

void put_u32(std::vector<char>& buf, std::uint32_t v) {
  put_pod(buf, &v, sizeof(v));
}

void put_u64(std::vector<char>& buf, std::uint64_t v) {
  put_pod(buf, &v, sizeof(v));
}

void put_f64(std::vector<char>& buf, double v) { put_pod(buf, &v, sizeof(v)); }

void put_str(std::vector<char>& buf, const std::string& s) {
  put_u64(buf, s.size());
  put_pod(buf, s.data(), s.size());
}

class Cursor {
 public:
  Cursor(const std::vector<char>& buf, const std::string& what)
      : p_(buf.data()), end_(buf.data() + buf.size()), what_(what) {}

  std::uint32_t u32() { return pod<std::uint32_t>(); }
  std::uint64_t u64() { return pod<std::uint64_t>(); }
  double f64() { return pod<double>(); }

  std::string str() {
    const std::uint64_t n = u64();
    need(n, "string");
    std::string s(p_, p_ + n);
    p_ += n;
    return s;
  }

  void expect_end() const {
    if (p_ != end_) {
      throw std::runtime_error("obs: trailing bytes in metrics payload from " +
                               what_);
    }
  }

 private:
  template <typename T>
  T pod() {
    need(sizeof(T), "value");
    T v;
    std::memcpy(&v, p_, sizeof(T));
    p_ += sizeof(T);
    return v;
  }

  void need(std::uint64_t n, const char* field) {
    if (static_cast<std::uint64_t>(end_ - p_) < n) {
      throw std::runtime_error("obs: truncated metrics payload from " + what_ +
                               " (reading " + field + ")");
    }
  }

  const char* p_;
  const char* end_;
  std::string what_;
};

}  // namespace

std::vector<char> Metrics::serialize() const {
  std::vector<char> buf;
  put_u32(buf, kMetricsFormatVersion);
  put_u64(buf, gauges_.size());
  for (const auto& [name, value] : gauges_) {
    put_str(buf, name);
    put_f64(buf, value);
  }
  put_u64(buf, counters_.size());
  for (const auto& [name, value] : counters_) {
    put_str(buf, name);
    put_u64(buf, value);
  }
  put_u64(buf, histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    put_str(buf, name);
    put_u64(buf, hist.stats.count);
    put_f64(buf, hist.stats.sum);
    put_f64(buf, hist.stats.min);
    put_f64(buf, hist.stats.max);
    put_u64(buf, hist.samples.size());
    for (const double s : hist.samples) put_f64(buf, s);
  }
  return buf;
}

Metrics Metrics::deserialize(const std::vector<char>& payload,
                             const std::string& what) {
  Cursor cur(payload, what);
  const std::uint32_t version = cur.u32();
  if (version != kMetricsFormatVersion) {
    throw std::runtime_error("obs: unsupported metrics payload version " +
                             std::to_string(version) + " from " + what);
  }
  // A snapshot never plausibly exceeds this many entries of any kind;
  // reject corrupt length fields before they drive allocations.
  constexpr std::uint64_t kMaxEntries = 1u << 20;
  Metrics m;
  // Each name once across all kinds: a repeat within a kind would
  // silently overwrite the first value, and one across kinds would make
  // to_json() write the key twice, which json_parse rejects.
  const auto claim = [&](std::string name) {
    if (m.kind_of(name)) {
      throw std::runtime_error("obs: repeated metric name '" + name +
                               "' in metrics from " + what);
    }
    return name;
  };
  const std::uint64_t n_gauges = cur.u64();
  if (n_gauges > kMaxEntries) {
    throw std::runtime_error("obs: implausible gauge count in metrics from " +
                             what);
  }
  for (std::uint64_t i = 0; i < n_gauges; ++i) {
    std::string name = claim(cur.str());
    m.gauges_[std::move(name)] = cur.f64();
  }
  const std::uint64_t n_counters = cur.u64();
  if (n_counters > kMaxEntries) {
    throw std::runtime_error(
        "obs: implausible counter count in metrics from " + what);
  }
  for (std::uint64_t i = 0; i < n_counters; ++i) {
    std::string name = claim(cur.str());
    m.counters_[std::move(name)] = cur.u64();
  }
  const std::uint64_t n_hists = cur.u64();
  if (n_hists > kMaxEntries) {
    throw std::runtime_error(
        "obs: implausible histogram count in metrics from " + what);
  }
  for (std::uint64_t i = 0; i < n_hists; ++i) {
    std::string name = claim(cur.str());
    Hist h;
    h.stats.count = cur.u64();
    h.stats.sum = cur.f64();
    h.stats.min = cur.f64();
    h.stats.max = cur.f64();
    const std::uint64_t n_samples = cur.u64();
    if (n_samples > kMaxSamples) {
      throw std::runtime_error(
          "obs: implausible sample count in metrics from " + what);
    }
    h.samples.reserve(n_samples);
    for (std::uint64_t s = 0; s < n_samples; ++s) {
      h.samples.push_back(cur.f64());
    }
    m.histograms_[std::move(name)] = std::move(h);
  }
  cur.expect_end();
  return m;
}

MetricsWriter::MetricsWriter(const std::string& path) : path_(path) {
  os_.open(path_);
  if (!os_) {
    throw std::runtime_error("obs: cannot open metrics file '" + path_ +
                             "' for writing");
  }
}

void MetricsWriter::write_line(const std::string& json) {
  os_ << json << "\n";
  os_.flush();
  if (!os_) {
    throw std::runtime_error("obs: write failed for metrics file '" + path_ +
                             "'");
  }
  ++lines_;
}

}  // namespace apr::obs
