#!/usr/bin/env python3
"""Builds bench_e2e from this source tree and measures one workload.

usage: python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the source tree. The build goes to $CARGO_TARGET_DIR
(default .bench_build). The benchmark's own report goes to stderr; the last
line of stdout is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics (from a traced run that alternates traced and
untraced reps). Exits non-zero, printing no result, when the build or the
benchmark fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout):
    """Runs cmd with its output on stderr; waits for it even on timeout."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: timed out: {' '.join(cmd)}", file=sys.stderr)
        return 1


def metric_names(key):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[key]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    jobs = str(min(4, os.cpu_count() or 1))
    # Configure every time: cheap once configured, and cmake refuses a build
    # directory configured from another source tree instead of silently
    # building that tree.
    if run(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
           BUILD_TIMEOUT_S) != 0:
        return 1
    if run(["cmake", "--build", build, "--target", "bench_e2e", "-j", jobs],
           BUILD_TIMEOUT_S) != 0:
        return 1

    tag = f"{args.workload}-{args.seed}-{args.trace}"
    result_path = os.path.join(build, f"result-{tag}.json")
    cmd = [os.path.join(build, "bench_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--json", result_path,
           "--work-dir", os.path.join(build, f"work-{tag}")]
    if args.trace:
        cmd += ["--trace", os.path.join(build, f"trace-{tag}.jsonl")]
    if os.path.exists(result_path):
        os.remove(result_path)
    code = run(cmd, RUN_TIMEOUT_S)
    if not os.path.exists(result_path):
        return code or 1
    with open(result_path) as f:
        (workload,) = json.load(f)["workloads"]

    section = "layers" if args.trace else "e2e"
    names = metric_names("per_layer" if args.trace else "end_to_end")
    metrics = {n: workload[section][n] for n in names}
    print(json.dumps({"correct": workload["correct"] and code == 0,
                      "attempted": workload["attempted"],
                      "failed": workload["failed"],
                      "metrics": metrics}))
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
