/// \file step_bench_compare.cpp
/// Compare two step_bench run sets (written by `run.py --collect`):
///
///   step_bench_compare [--benchmark BENCHMARK.json] old.json new.json
///
/// For every workload in both sets and every end-to-end metric that
/// BENCHMARK.json names, prints the old and new median and quartiles
/// (Python's statistics.quantiles, as run.py computes them), the change,
/// the metric's bound and a verdict:
///   REGRESSION  worse by more than the bound
///   unresolved  a run-to-run spread wider than the bound, and neither side
///               wins every pairing
///   better / worse / same  relative to the old set's own spread
/// Then the traced runs' phase-share deltas (where the time moved) and the
/// timing ratios normalized by each set's STREAM-triad calibration, so a
/// change of machine speed can be told apart from a change of code.
///
/// Refuses (exit 2) to compare sets measured at different worker counts.
/// Flags every seed whose end-state digest changed. Exit 1 when a metric
/// regressed past its bound or a new run failed, else 0.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/json.hpp"
#include "src/perf/step_profiler.hpp"

namespace {

using apr::obs::JsonValue;

JsonValue load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return apr::obs::json_parse(ss.str());
}

struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
  double spread() const { return median != 0.0 ? (q3 - q1) / median : 0.0; }
};

/// statistics.quantiles(values, n=4) (the 'exclusive' method); a single
/// value is its own quartiles.
Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld == 1) {
    q.q1 = q.median = q.q3 = v[0];
    return q;
  }
  double out[3];
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * (ld + 1) / 4, 1L, ld - 1);
    const long delta = i * (ld + 1) - j * 4;
    out[i - 1] = (v[j - 1] * (4 - delta) + v[j] * delta) / 4.0;
  }
  q.q1 = out[0];
  q.median = out[1];
  q.q3 = out[2];
  return q;
}

const JsonValue& runs_of(const JsonValue& workload) {
  return workload.at("runs");
}

std::vector<double> metric_values(const JsonValue& workload,
                                  const std::string& name) {
  std::vector<double> v;
  for (const JsonValue& run : runs_of(workload).array) {
    v.push_back(run.at("metrics").at(name).number);
  }
  return v;
}

/// Every run's worker count (and the machine record's) must be `workers`.
int set_workers(const JsonValue& set) {
  int workers = static_cast<int>(set.at("machine").at("workers").number);
  for (const auto& [name, w] : set.at("workloads").object) {
    for (const JsonValue& run : runs_of(w).array) {
      if (static_cast<int>(run.at("workers").number) != workers) {
        throw std::runtime_error("run set mixes worker counts (" + name +
                                 ")");
      }
    }
  }
  return workers;
}

const JsonValue* layer_metric(const JsonValue& workload,
                              const std::string& name) {
  const JsonValue* layers = workload.find("layers");
  return layers ? layers->at("metrics").find(name) : nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: step_bench_compare [--benchmark BENCHMARK.json] "
               "old.json new.json\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  std::string bench_path = "BENCHMARK.json";
  std::vector<std::string> files;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--benchmark" && a + 1 < argc) {
      bench_path = argv[++a];
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) return usage();

  const JsonValue bench = load(bench_path);
  const JsonValue old_set = load(files[0]);
  const JsonValue new_set = load(files[1]);
  const int old_workers = set_workers(old_set);
  const int new_workers = set_workers(new_set);
  if (old_workers != new_workers) {
    std::fprintf(stderr,
                 "step_bench_compare: refusing to compare %d-worker runs "
                 "with %d-worker runs\n",
                 old_workers, new_workers);
    return 2;
  }

  bool regression = false;
  int digest_changes = 0;
  for (const JsonValue& wl : bench.at("workloads").array) {
    const std::string& name = wl.at("name").string;
    const JsonValue* ow = old_set.at("workloads").find(name);
    const JsonValue* nw = new_set.at("workloads").find(name);
    if (!ow || !nw || runs_of(*ow).array.empty() ||
        runs_of(*nw).array.empty()) {
      continue;
    }
    std::printf("\n== %s (%zu old runs, %zu new runs, %d workers)\n",
                name.c_str(), runs_of(*ow).array.size(),
                runs_of(*nw).array.size(), new_workers);
    std::printf("%-14s %10s %21s %10s %21s %8s %6s  %s\n", "metric", "old",
                "[q1, q3]", "new", "[q1, q3]", "delta", "bound", "verdict");

    for (const JsonValue& metric : bench.at("end_to_end").array) {
      const std::string& mname = metric.at("name").string;
      const bool lower_better = metric.at("better").string == "lower";
      const double bound = metric.at("bound").number;
      const std::vector<double> ov = metric_values(*ow, mname);
      const std::vector<double> nv = metric_values(*nw, mname);
      const Quartiles o = quartiles(ov);
      const Quartiles n = quartiles(nv);
      const double delta = o.median != 0.0 ? n.median / o.median - 1.0 : 0.0;
      const double worse = lower_better ? delta : -delta;
      // Every new run better than every old run settles a noisy metric.
      const auto [omin, omax] = std::minmax_element(ov.begin(), ov.end());
      const auto [nmin, nmax] = std::minmax_element(nv.begin(), nv.end());
      const bool all_better =
          lower_better ? *nmax < *omin : *nmin > *omax;
      const char* verdict = "same";
      if (worse > bound) {
        verdict = "REGRESSION";
        regression = true;
      } else if (all_better) {
        verdict = "better";
      } else if (o.spread() > bound || n.spread() > bound) {
        verdict = "unresolved";
      } else if (-worse > o.spread()) {
        verdict = "better";
      } else if (worse > o.spread()) {
        verdict = "worse";
      }
      std::printf("%-14s %10.4g [%9.4g, %9.4g] %10.4g [%9.4g, %9.4g] "
                  "%+7.1f%% %5.0f%%  %s\n",
                  mname.c_str(), o.median, o.q1, o.q3, n.median, n.q1, n.q3,
                  100.0 * delta, 100.0 * bound, verdict);
    }

    // Correctness of the new runs, and physics drift between the sets.
    std::map<long, std::string> old_digest;
    for (const JsonValue& run : runs_of(*ow).array) {
      old_digest[static_cast<long>(run.at("seed").number)] =
          run.at("digest").string;
    }
    for (const JsonValue& run : runs_of(*nw).array) {
      const long seed = static_cast<long>(run.at("seed").number);
      if (!run.at("correct").boolean || run.at("failed").number > 0) {
        std::printf("FAILED RUN: seed %ld (%g of %g steps failed)\n", seed,
                    run.at("failed").number, run.at("attempted").number);
        regression = true;
      }
      const auto it = old_digest.find(seed);
      if (it != old_digest.end() && it->second != run.at("digest").string) {
        std::printf("DIGEST CHANGED: seed %ld %s -> %s\n", seed,
                    it->second.c_str(), run.at("digest").string.c_str());
        ++digest_changes;
      }
    }

    // Attribution: where the step time moved, from the traced runs.
    if (ow->find("layers") && nw->find("layers")) {
      std::printf("  phase shares (traced run):\n");
      for (int i = 0; i < apr::perf::kNumStepPhases; ++i) {
        const std::string p =
            std::string("phase.") +
            apr::perf::to_string(static_cast<apr::perf::StepPhase>(i));
        const JsonValue* os = layer_metric(*ow, p + ".share");
        const JsonValue* ns = layer_metric(*nw, p + ".share");
        const JsonValue* oms = layer_metric(*ow, p + ".ms_per_step");
        const JsonValue* nms = layer_metric(*nw, p + ".ms_per_step");
        if (!os || !ns || !oms || !nms) continue;
        if (os->number == 0.0 && ns->number == 0.0) continue;
        std::printf("    %-32s %6.1f%% -> %6.1f%% (%+5.1f pp)  "
                    "%9.3f -> %9.3f ms/step\n",
                    p.c_str(), 100.0 * os->number, 100.0 * ns->number,
                    100.0 * (ns->number - os->number), oms->number,
                    nms->number);
      }
      const JsonValue* ot = layer_metric(*ow, "calib.triad_gbs");
      const JsonValue* nt = layer_metric(*nw, "calib.triad_gbs");
      if (ot && nt && ot->number > 0.0 && nt->number > 0.0) {
        // Time x bandwidth: a machine with 10% more triad bandwidth is
        // expected to run a memory-bound step 10% faster.
        const double calib = nt->number / ot->number;
        std::printf("  calibration: triad %.2f -> %.2f GB/s (x%.3f)\n",
                    ot->number, nt->number, calib);
        for (const char* m : {"step_ms_p50", "step_ms_mean"}) {
          const double r = quartiles(metric_values(*nw, m)).median /
                           quartiles(metric_values(*ow, m)).median;
          std::printf("    %-14s new/old %.3f, calibration-normalized %.3f\n",
                      m, r, r * calib);
        }
      }
    }
  }

  if (digest_changes > 0) {
    std::printf("\n%d end-state digest(s) changed: the physics differs "
                "between the two sets\n",
                digest_changes);
  }
  std::printf("\n%s\n", regression ? "FAIL: regression past a bound"
                                   : "ok: no metric regressed past its bound");
  return regression ? 1 : 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "step_bench_compare: %s\n", e.what());
  return 2;
}
