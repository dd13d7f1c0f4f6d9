#!/usr/bin/env python3
"""CTest smoke test of the step benchmark (label `fast`).

Runs channel_apr for three 4-step episodes with --layers and a trace, then
checks that the result line parses, that it reports every metric of
BENCHMARK.json with its unit, that the restore-digest check passed and that
the trace holds the bench's layer spans. Finally step_bench_compare must
accept the run set against itself (exit 0) and flag a copy whose
step_ms_p50 is worse by twice its bound (exit 1).
"""

import argparse
import copy
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own runner: run_set, ROOT)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build-dir", required=True)
    ap.add_argument("--scratch", required=True)
    args = ap.parse_args()
    os.makedirs(args.scratch, exist_ok=True)
    bench_json = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(bench_json) as f:
        bench = json.load(f)

    trace = os.path.join(args.scratch, "trace.json")
    proc = subprocess.run(
        [os.path.join(args.build_dir, "step_bench"), "--workload",
         "channel_apr", "--steps", "4", "--seconds", "0", "--layers",
         "--trace", trace],
        cwd=args.scratch, stdout=subprocess.PIPE, text=True, timeout=240)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0, result.get("error")
    assert result["correct"] and result["restore_digest_ok"], result["error"]
    assert result["workers"] == 3
    # Raises unless every listed metric is reported with its listed unit.
    run.result_line(result, bench["end_to_end"] + bench["per_layer"])

    with open(trace) as f:
        events = json.load(f)["traceEvents"]
    bench_spans = {e["name"] for e in events if e.get("cat") == "bench"}
    for span in ("fem.forces", "ibm.spread", "apr.maintain", "lbm.fine_step"):
        assert span in bench_spans, f"no bench span {span} in the trace"

    untraced = dict(result, layers=False)
    old = run.run_set([untraced, result], bench)
    new = copy.deepcopy(old)
    bound = next(m["bound"] for m in bench["end_to_end"]
                 if m["name"] == "step_ms_p50")
    for r in new["workloads"]["channel_apr"]["runs"]:
        r["metrics"]["step_ms_p50"] *= 1.0 + 2.0 * bound
    paths = {}
    for name, data in (("old", old), ("new", new)):
        paths[name] = os.path.join(args.scratch, name + ".json")
        with open(paths[name], "w") as f:
            json.dump(data, f)

    compare = os.path.join(args.build_dir, "step_bench_compare")

    def exit_code(a, b):
        return subprocess.run([compare, "--benchmark", bench_json, a, b],
                              stdout=subprocess.DEVNULL).returncode

    assert exit_code(paths["old"], paths["old"]) == 0, "self-compare failed"
    assert exit_code(paths["old"], paths["new"]) == 1, \
        "a step_ms_p50 past its bound was not flagged"
    print("step_bench smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
