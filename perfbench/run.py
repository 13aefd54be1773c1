#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload point_embedded --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/ (which compiles ../src) in Release mode under
.bench_build/perfbench, runs one workload, checks that the metrics it
prints are the ones BENCHMARK.json declares (end-to-end ones positive
and finite), and passes its output through: notes, the fail ratio, a
host line, and as the last line the result JSON. With
--trace 1 the spans are written to .bench_out/. Exits non-zero, without a
result line, when the build fails, the run fails or an output check
fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    # Configuring an existing tree takes a fraction of a second, and
    # always doing it means a failed configure is never mistaken for one.
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
              "-j", jobs]]
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def declared_metrics(trace):
    """Name -> unit of the declared metrics, in BENCHMARK.json's order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def complete(result, trace):
    """Checks the result line against BENCHMARK.json and puts its metrics
    in the declared order. A traced run reports every per-layer metric:
    one the workload does not measure reads 0. Returns the problems found,
    or an empty list."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys: %s" % sorted(result)]
    problems = []
    declared = declared_metrics(trace)
    got = result["metrics"]
    for name, metric in got.items():
        if name not in declared:
            problems.append("undeclared metric " + name)
        elif metric.get("unit") != declared[name]:
            problems.append("unit of %s: %s" % (name, metric.get("unit")))
    if trace:
        result["metrics"] = {
            name: got.get(name, {"value": 0, "unit": unit})
            for name, unit in declared.items()}
        return problems
    missing = set(declared) - set(got)
    if missing:
        problems.append("declared metrics missing: %s" % sorted(missing))
    # End-to-end metrics are times, rates and ratios: never 0.
    for name, metric in got.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not value > 0 or \
                not math.isfinite(value):
            problems.append("%s is %r" % (name, value))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACE_DIR, "trace_%s_seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit("run.py: perfbench exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    problems = complete(result, args.trace == "1")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if problems:
        sys.exit("run.py: " + "; ".join(problems))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
