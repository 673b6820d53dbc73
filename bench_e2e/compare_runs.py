#!/usr/bin/env python3
"""Compares two sets of bench_e2e --json outputs against BENCHMARK.json.

usage: python3 bench_e2e/compare_runs.py --base A1.json A2.json ... \
                                         --change B1.json B2.json ...

Prints one row per workload and end-to-end metric: each side's median and
quartiles (statistics.quantiles, n=4) and a verdict:

  within      the change's median is no worse than the base's by more than
              the metric's bound;
  regressed   it is worse by more than the bound;
  unresolved  the base's own spread (quartile distance over median) is wider
              than the bound, and not every change run beats every base run.

The deterministic counters (core.comparisons, persist.wal_bytes,
serve.wire_bytes_per_round, engine_mem_peak_mb, ...) repeat exactly for a
given workload, seed and --seconds, so every base/change pair of runs with the
same seed must agree on them. Exits 1 on a regression or a counter mismatch.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(paths):
    """{workload: [(seed, workload_record), ...]} over every file."""
    runs = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for w in doc["workloads"]:
            runs.setdefault(w["name"], []).append((doc["seed"], w))
    return runs


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(metric, base, change):
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    b_q1, b_med, b_q3 = summary(base)
    c_med = summary(change)[1]
    worse = (c_med - b_med) / b_med if lower else (b_med - c_med) / b_med
    all_better = (max(change) < min(base)) if lower else (min(change) > max(base))
    if (b_q3 - b_q1) / b_med > bound and not all_better:
        return "unresolved", worse
    return ("regressed" if worse > bound else "within"), worse


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--benchmark",
                        default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    base, change = load(args.base), load(args.change)

    failed = False
    print(f"{'workload':16s} {'metric':22s} {'base q1/med/q3':>34s} "
          f"{'change q1/med/q3':>34s} {'worse':>8s}  verdict")
    for name in sorted(set(base) & set(change)):
        for m in metrics:
            b = [w["e2e"][m["name"]]["value"] for _, w in base[name]]
            c = [w["e2e"][m["name"]]["value"] for _, w in change[name]]
            v, worse = verdict(m, b, c)
            failed |= v == "regressed"
            fmt = lambda s: "/".join(f"{x:.4g}" for x in summary(s))
            print(f"{name:16s} {m['name']:22s} {fmt(b):>34s} {fmt(c):>34s} "
                  f"{100 * worse:7.2f}%  {v}")
        by_seed = {seed: w for seed, w in base[name]}
        for seed, w in change[name]:
            if seed not in by_seed:
                continue
            for counter, value in w["counters"].items():
                expected = by_seed[seed]["counters"][counter]["value"]
                if value["value"] != expected:
                    failed = True
                    print(f"{name:16s} counter {counter} differs at seed "
                          f"{seed}: {expected} -> {value['value']}")
    for name in sorted(set(base) ^ set(change)):
        print(f"{name:16s} present on one side only")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
