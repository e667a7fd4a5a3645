#!/usr/bin/env python3
"""Builds bench_e2e from this checkout and runs one workload.

    python3 bench_e2e/run.py --workload NAME [--seed N] [--seconds S]
                             [--ops N] [--trace 0|1]

Run from anywhere inside a clflow checkout. The first call configures and
builds the benchmark package (bench_e2e/CMakeLists.txt, Release) under
.bench_build/ at the checkout root; later calls only re-check the build.
Build output goes to stderr. The binary's snapshot and trace land in
.bench_build/results/.

The last stdout line is the binary's result object. Before printing it,
this script checks it against BENCHMARK.json: every end-to-end metric
(--trace 0) or per-layer metric (--trace 1) present with the listed unit
and a finite value, and nothing else. It exits non-zero without printing a
result when the build, the run or that check fails.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "bench_e2e")
RESULTS = os.path.join(ROOT, ".bench_build", "results")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "bench_e2e",
                    "-j", jobs], stdout=sys.stderr, check=True)


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def check(result, traced):
    """Returns what is wrong with the result object, or None."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    want = expected_metrics(traced)
    got = result["metrics"]
    if set(got) != set(want):
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)))
    for name, unit in want.items():
        value = got[name].get("value")
        if got[name].get("unit") != unit:
            return "%s has unit %s, BENCHMARK.json says %s" % (
                name, got[name].get("unit"), unit)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return "%s is not a finite number: %r" % (name, value)
    if not result["correct"] or result["failed"] != 0:
        return "the run failed its correctness checks"
    return None


def main(argv):
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("bench_e2e: build failed: %s" % e, file=sys.stderr)
        return 1
    os.makedirs(RESULTS, exist_ok=True)
    proc = subprocess.run(
        [os.path.join(BUILD, "bench_e2e")] + argv + ["--out", RESULTS],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        print("bench_e2e: exited %d" % proc.returncode, file=sys.stderr)
        return proc.returncode
    traced = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    try:
        problem = check(json.loads(lines[-1]), traced)
    except (ValueError, AttributeError, KeyError) as e:
        problem = "unreadable result line: %s" % e
    if problem:
        print("bench_e2e: %s" % problem, file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
