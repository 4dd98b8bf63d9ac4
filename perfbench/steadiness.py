#!/usr/bin/env python3
"""Steadiness evidence: runs every workload of BENCHMARK.json ten times
untraced, with seeds FIRST .. FIRST+9, and prints every end-to-end
metric's median, quartiles and spread (IQR over median) next to its bound,
plus the share of failed operations.

    python3 perfbench/steadiness.py [--first-seed FIRST]

Run from the root of a checkout; each run goes through run.py. Two sets
with different first seeds show whether the medians agree within the
bounds (perfbench/README.md records the sets it was run with).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in (w["name"] for w in bench["workloads"]):
        values = {name: [] for name in bounds}
        shares = set()
        for i in range(RUNS):
            seed = args.first_seed + i
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            if out.returncode != 0:
                print("%s seed %d: run failed (exit %d)"
                      % (workload, seed, out.returncode))
                return 1
            result = json.loads(out.stdout.strip().split("\n")[-1])
            shares.add(result["failed"] / result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("%s: %d runs, failed share %s" % (workload, RUNS,
                                                sorted(shares)))
        for name, bound in bounds.items():
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print("  %-12s median %-14.6g q1 %-14.6g q3 %-14.6g "
                  "spread %6.2f%%  bound %4.0f%%"
                  % (name, med, q1, q3, 100 * spread, 100 * bound))
            print("  %-12s runs: %s" % ("", " ".join(
                "%.4g" % v for v in values[name])), flush=True)
    print("largest spread / bound (setup_s excluded): %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
