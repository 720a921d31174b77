#!/usr/bin/env python3
"""A/A steadiness check: two sets of benchmark runs of the same build.

    python3 perfbench/aa.py

Run from the root of a checkout.  For each workload of BENCHMARK.json it
makes 10 runs of run_seconds each, with seeds 1..10 (set A), then the
same again (set B), and reports for every end-to-end metric:

  - the spread of each set: the distance between the first and third
    quartile (statistics.quantiles(values, n=4)) as a share of the median;
  - how much worse set B's median is than set A's, as a share of A's;
  - the bound the metric has in BENCHMARK.json.

The record is written as JSON to perfbench/steadiness.json and as a
table to standard output.
"""
import json
import os
import statistics
import subprocess
import sys

RUNS = 10
OUT = "perfbench/steadiness.json"


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        raise SystemExit("run failed: %s seed %d (exit %d)"
                         % (workload, seed, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def worse_by(metric, a, b):
    """How much worse median b is than median a, as a share of a."""
    ma, mb = statistics.median(a), statistics.median(b)
    change = (mb - ma) / ma
    return change if metric["better"] == "lower" else -change


def main():
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    record = {"runs_per_set": RUNS, "seconds": seconds, "workloads": {}}
    for w in [w["name"] for w in bench["workloads"]]:
        sets = []
        for _ in range(2):
            results = [run_once(w, seed, seconds)
                       for seed in range(1, RUNS + 1)]
            sets.append(results)
        rows = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in sets[0]]
            b = [r["metrics"][name]["value"] for r in sets[1]]
            rows[name] = {
                "bound": metric["bound"],
                "values_a": a,
                "values_b": b,
                "median_a": statistics.median(a),
                "median_b": statistics.median(b),
                "spread_a": spread(a),
                "spread_b": spread(b),
                "b_worse_by": worse_by(metric, a, b),
            }
        failed = sum(r["failed"] for s in sets for r in s)
        record["workloads"][w] = {"failed": failed, "metrics": rows}
        print("%s (failed operations: %d)" % (w, failed))
        print("  %-14s %12s %12s %8s %8s %9s %6s"
              % ("metric", "median A", "median B", "spread A", "spread B",
                 "B worse", "bound"))
        for name, r in rows.items():
            print("  %-14s %12.6g %12.6g %8.3f %8.3f %9.3f %6.2f"
                  % (name, r["median_a"], r["median_b"], r["spread_a"],
                     r["spread_b"], r["b_worse_by"], r["bound"]))
        sys.stdout.flush()
    with open(OUT, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
