#!/usr/bin/env python3
"""Builds the whole-stack benchmark from source and runs one workload.

    python3 perfbench/run.py --workload interactive|bi|analytics|htap \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the root of a checkout. The build is a Release CMake tree of
its own in $CARGO_TARGET_DIR (default .bench_build); build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result. flexbench reports each metric's value and sample count; this
script names the metrics' units from BENCHMARK.json, the one place the
metric lists are declared: the end-to-end list untraced, the per-layer
list traced, where a layer the workload skips reports 0 with 0 samples.
--self-test runs the tests of the correctness checks.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TARGETS = ["flexbench", "perfbench_checks_test"]


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target"] + TARGETS
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return build_dir


def result_line(raw, traced):
    """Turns flexbench's result (value and sample count per metric) into
    the benchmark's result, in BENCHMARK.json's order and units. Returns
    None when a metric is missing or undeclared."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if traced else "end_to_end"]
    got = raw["metrics"]
    unknown = sorted(set(got) - {m["name"] for m in declared})
    if unknown:
        print("perfbench: metrics not in BENCHMARK.json: %s"
              % ", ".join(unknown), file=sys.stderr)
        return None
    metrics = {}
    for m in declared:
        sample = got.get(m["name"], {"value": 0, "samples": 0})
        if not traced and sample["samples"] == 0:
            print("perfbench: no value for %s" % m["name"], file=sys.stderr)
            return None
        if traced:
            print("layer %-34s %16.4f %-9s (%d samples)"
                  % (m["name"], sample["value"], m["unit"],
                     sample["samples"]))
        metrics[m["name"]] = {"value": sample["value"], "unit": m["unit"]}
    return json.dumps({"correct": raw["correct"],
                       "attempted": raw["attempted"],
                       "failed": raw["failed"], "metrics": metrics})


def main():
    build_dir = build()
    if build_dir is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if sys.argv[1:] == ["--self-test"]:
        return subprocess.run(
            [os.path.join(build_dir, "perfbench_checks_test")]).returncode
    run = subprocess.run([os.path.join(build_dir, "flexbench")]
                         + sys.argv[1:], stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        return run.returncode or 1
    line = result_line(raw, "--trace" in sys.argv
                       and sys.argv[sys.argv.index("--trace") + 1] == "1")
    if line is None:
        return 1
    print(line)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
