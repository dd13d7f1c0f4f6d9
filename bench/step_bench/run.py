#!/usr/bin/env python3
"""Build and run the APR step benchmark from a checkout of the repository.

One workload, one process (the mode BENCHMARK.json names):

    python3 bench/step_bench/run.py --workload channel_apr --seed 1 \
        --seconds 10 --trace 0

builds bench/step_bench into .bench_build (CMake; the library is compiled
from src/), runs step_bench for that workload at 3 workers and prints, as
the last stdout line, {"correct", "attempted", "failed", "metrics"} with
the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics from a traced --layers run (--trace 1, Chrome trace written to
out/step_bench/<workload>.trace.json).

Other modes:

    run.py --all [--seed S] [--seconds T]      every workload, one process
                                               each, end-to-end metrics
    run.py --collect FILE [--runs N]           a run set for
                                               step_bench_compare: N seeds
                                               per workload plus one traced
                                               --layers run each
    run.py --baseline FILE [--runs N]          two run sets of this commit,
                                               merged into one baseline file

The exit code is 0 only when the build succeeded and every run passed its
correctness checks (episode digests, end-state health, restore digest).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure (once) and build the bench binaries; output to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def bench_binary(name):
    return os.path.join(BUILD, name)


def run_step_bench(workload, seed, seconds, layers):
    """Run one step_bench process; its human-readable lines go to stderr.
    Returns the parsed result object (the last stdout line)."""
    cmd = [bench_binary("step_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if layers:
        os.makedirs(os.path.join(ROOT, "out", "step_bench"), exist_ok=True)
        cmd += ["--layers", "--trace",
                os.path.join("out", "step_bench", workload + ".trace.json")]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    if not lines:
        raise RuntimeError(f"step_bench {workload}: no output "
                           f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    if proc.returncode != 0 and result.get("correct", False):
        raise RuntimeError(f"step_bench {workload}: exit {proc.returncode}")
    return result


def result_line(result, specs):
    """The four-key result line, restricted to the metrics BENCHMARK.json
    lists in `specs` (each reported with the unit listed there)."""
    metrics = result["metrics"]
    wrong = [s["name"] for s in specs
             if metrics.get(s["name"], {}).get("unit") != s["unit"]]
    if wrong:
        raise RuntimeError("step_bench did not report (with the listed "
                           "unit): " + ", ".join(wrong))
    correct = bool(result["correct"]) and (
        not result["layers"] or bool(result["restore_digest_ok"]))
    return {"correct": correct,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {s["name"]: metrics[s["name"]] for s in specs}}


def summarize(values):
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def run_record(result, names=None):
    """One run of a run set: its checks and the values of `names` (all of
    its metrics when None)."""
    metrics = result["metrics"]
    return {key: result[key] for key in
            ("seed", "digest", "params_fingerprint", "workers", "attempted",
             "failed", "correct")} | {
        "metrics": {n: metrics[n]["value"] for n in (names or metrics)}}


def run_set(results, bench):
    """Group step_bench results into the run-set layout step_bench_compare
    reads: per workload the untraced runs with BENCHMARK.json's end-to-end
    metrics, their per-metric median and quartiles, and the traced --layers
    run with all of its metrics."""
    e2e = [m["name"] for m in bench["end_to_end"]]
    workloads = {}
    for r in results:
        w = workloads.setdefault(r["workload"], {"runs": []})
        if r["layers"]:
            w["layers"] = run_record(r)
        else:
            w["runs"].append(run_record(r, e2e))
    for w in workloads.values():
        w["summary"] = {
            m["name"]: summarize([run["metrics"][m["name"]]
                                  for run in w["runs"]])
            for m in bench["end_to_end"] if w["runs"]}
    return {"machine": results[0]["machine"], "workloads": workloads}


def collect(bench, runs, seconds):
    results = []
    ok = True
    for w in bench["workloads"]:
        for seed in range(1, runs + 1):
            r = run_step_bench(w["name"], seed, seconds, layers=False)
            ok &= bool(r["correct"])
            results.append(r)
        r = run_step_bench(w["name"], 1, seconds, layers=True)
        ok &= bool(r["correct"]) and bool(r["restore_digest_ok"])
        results.append(r)
    return run_set(results, bench), ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--collect")
    ap.add_argument("--baseline")
    ap.add_argument("--runs", type=int, default=5)
    args = ap.parse_args()

    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.workload is not None and args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; one of {names}")
    if not (args.workload or args.all or args.collect or args.baseline):
        ap.error("give --workload, --all, --collect or --baseline")

    try:
        build()
        if args.collect or args.baseline:
            sets = []
            ok = True
            for _ in range(2 if args.baseline else 1):
                s, s_ok = collect(bench, args.runs, seconds)
                sets.append(s)
                ok &= s_ok
            out = sets[0]
            if args.baseline:
                out["second_set"] = {"workloads": sets[1]["workloads"]}
                # Second-set median over first-set median, minus one.
                out["agreement"] = {
                    w: {m: sets[1]["workloads"][w]["summary"][m]["median"] /
                        s["median"] - 1.0
                        for m, s in data["summary"].items()}
                    for w, data in sets[0]["workloads"].items()}
            path = args.baseline or args.collect
            with open(path, "w") as f:
                json.dump(out, f, indent=1, sort_keys=True)
                f.write("\n")
            log(f"run set written to {path}")
            return 0 if ok else 1

        if args.all:
            ok = True
            for w in names:
                r = run_step_bench(w, args.seed, seconds, layers=False)
                line = result_line(r, bench["end_to_end"])
                print(json.dumps({"workload": w} | line), flush=True)
                ok &= line["correct"]
            return 0 if ok else 1

        metric_set = "per_layer" if args.trace else "end_to_end"
        r = run_step_bench(args.workload, args.seed, seconds,
                           layers=bool(args.trace))
        log(json.dumps({k: r[k] for k in
                        ("workload", "seed", "digest", "params_fingerprint",
                         "workers", "error")}))
        line = result_line(r, bench[metric_set])
        print(json.dumps(line), flush=True)
        return 0 if line["correct"] else 1
    except (OSError, ValueError, RuntimeError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
