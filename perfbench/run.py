#!/usr/bin/env python3
"""Builds and runs the repository benchmark (BENCHMARK.json at the root).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

The first run configures and builds the reach library and the benchmark
binary (perfbench/reach_perfbench.cc) with CMake into .bench_build/perfbench;
later runs only rebuild what changed. Build output goes to stderr. The
binary generates its inputs from --seed, measures for --seconds, checks its
answers, and prints one JSON result line; this script checks that line
against the metric names BENCHMARK.json declares and prints it as the last
line of stdout. It exits non-zero, printing no result, if the build fails,
the run fails or times out, or the result is malformed.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "reach_perfbench"
WORKLOADS = ("serve-read", "serve-churn", "index-cyclic")
# A run must end within 180 s; the binary gets what the build left of it.
RUN_LIMIT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "reach_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(step))


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    expected = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics {got} do not match BENCHMARK.json {expected}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    started = time.monotonic()
    build()
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - started))
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                             cwd=ROOT, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout:.0f} s")
    if run.returncode != 0:
        fail(f"benchmark exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as error:
        fail(f"malformed result line: {error}")
    check_result(result, args.trace == 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
