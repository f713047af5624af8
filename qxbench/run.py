#!/usr/bin/env python3
"""Runs one qxbench workload and prints its metrics.

Usage, from the repository root:

    python3 qxbench/run.py --workload exact_table1 --seed 1 --seconds 10 --trace 0

Every call configures and builds the benchmark (the qxmap library plus
qxbench/src) with CMake into .bench_build/qxbench; after the first call
that only checks that the build is up to date. The workload runs in its
own process. Its
report is passed through, and the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones (the run then adds one traced pass). Exits non-zero, without
a result line, when the build or the workload's set-up fails, and with a
result line marked incorrect when any output check failed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "qxbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(ROOT / "qxbench"), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "qxbench"],
    ]
    for step in steps:
        # Build output goes to stderr so that stdout ends with the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit(f"qxbench: build step failed: {' '.join(step)}")
    return BUILD / "qxbench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = declared_metrics(args.trace == 1)
    binary = build()
    env = {k: v for k, v in os.environ.items() if k != "QXMAP_TRACE"}
    done = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--baseline", str(ROOT / "BENCH_table1.json")],
        stdout=subprocess.PIPE, text=True, env=env, timeout=RUN_TIMEOUT_S, check=False)
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        sys.exit(f"qxbench: workload {args.workload} produced no result "
                 f"(exit code {done.returncode})")
    print("\n".join(lines[:-1]))
    run = json.loads(lines[-1])

    produced = {**run["end_to_end"], **run["per_layer"]}
    missing = [n for n in names if n not in produced]
    if missing:
        sys.exit(f"qxbench: workload did not report {', '.join(missing)}")
    correct = bool(run["correct"]) and done.returncode == 0
    result = {
        "correct": correct,
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "metrics": {n: {"value": produced[n]["value"], "unit": produced[n]["unit"]}
                    for n in names},
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
