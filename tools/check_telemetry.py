#!/usr/bin/env python3
"""Validate SCUBA telemetry JSONL output (docs/ARCHITECTURE.md §9).

Checks a --metrics-out / --trace-out pair produced by scuba_cli or the
benches against the v4 schema: every line must parse, carry only known
keys, and keep the per-round invariants (monotone rounds, monotone counter
totals, finite non-negative timings, well-formed span trees). With
--schema FILE (the output of `scuba_cli metrics-schema`: one JSON line per
metric with its name, kind and help) every metric name must be one the
program registers, with the registered kind; window health gauges match by
their scuba_shard_health_ prefix. Optionally gates the telemetry overhead
measured by bench_parallel_scaling and writes a machine-readable summary
(BENCH_telemetry.json).

The schema's version history lives in src/obs/telemetry.h. Files from
older engines fail only on their schema_version field; names this build no
longer emits (the handoff / ghost / rebalance-recommendation counters, the
"handoff", "classify", "apply" and per-task "shard" spans) fail as unknown.

Exit code 0 = all checks passed, 1 = validation failure.
"""

import argparse
import json
import math
import sys

SCHEMA_VERSION = 4

META_KEYS = {"schema_version", "kind", "stream", "engine"}
ROUND_METRICS_KEYS = {"schema_version", "kind", "round", "metrics"}
EXPOSITION_KEYS = {"schema_version", "kind", "prometheus"}
ROUND_TRACE_KEYS = {"schema_version", "kind", "round", "spans", "join"}

COUNTER_KEYS = {"name", "kind", "delta", "total"}
GAUGE_KEYS = {"name", "kind", "value"}
HISTOGRAM_KEYS = {"name", "kind", "delta_count", "delta_sum", "total_count",
                  "total_sum"}
SPAN_KEYS = {"id", "name", "parent", "wall_seconds", "count", "index",
             "worker_seconds"}
SPAN_REQUIRED = {"id", "name", "parent", "wall_seconds", "count"}
JOIN_KEYS = {"shards", "imbalance"}

# The complete span-name universe the engine emits. "engine_shard" is one
# join window's scan; "recovery" covers online window recovery.
KNOWN_SPAN_NAMES = {
    "round", "ingest", "join", "between", "within", "engine_shard",
    "postjoin", "tighten", "shed", "expire", "translate", "recovery",
    "checkpoint", "wal", "snapshot",
}
# Per-window spans must be indexed (the window id) so consumers can attribute
# load; their parent must be the phase span named here.
INDEXED_SPAN_PARENT = {"engine_shard": "join"}
# Window supervision counters: any of these present => the scuba_shards
# gauge must appear too, so per-window rates can be normalized.
SHARD_COUNTER_NAMES = {
    "scuba_shard_failures_total", "scuba_shard_recoveries_total",
    "scuba_shard_evictions_total", "scuba_degraded_rounds_total",
}
# Per-window health gauge values (ShardHealth in src/shard).
SHARD_HEALTH_PREFIX = "scuba_shard_health_"
SHARD_HEALTH_VALUES = {0, 1, 2, 3}


class CheckFailure(Exception):
    pass


def fail(path, line_no, message):
    raise CheckFailure(f"{path}:{line_no}: {message}")


def check_keys(path, line_no, obj, allowed, what):
    unknown = set(obj) - allowed
    if unknown:
        fail(path, line_no, f"unknown {what} key(s): {sorted(unknown)}")


def check_finite(path, line_no, value, what):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        fail(path, line_no, f"{what} is not a number: {value!r}")
    if not math.isfinite(value):
        fail(path, line_no, f"{what} is not finite: {value!r}")


def check_timing(path, line_no, value, what):
    check_finite(path, line_no, value, what)
    if value < 0:
        fail(path, line_no, f"{what} is negative: {value!r}")


def load_lines(path):
    lines = []
    with open(path, encoding="utf-8") as f:
        for i, raw in enumerate(f, start=1):
            raw = raw.strip()
            if not raw:
                fail(path, i, "blank line")
            try:
                lines.append((i, json.loads(raw)))
            except json.JSONDecodeError as e:
                fail(path, i, f"invalid JSON: {e}")
    if not lines:
        fail(path, 0, "file is empty")
    return lines


def check_meta(path, line_no, obj, stream):
    check_keys(path, line_no, obj, META_KEYS, "meta")
    if obj.get("schema_version") != SCHEMA_VERSION:
        fail(path, line_no,
             f"schema_version {obj.get('schema_version')} != {SCHEMA_VERSION}")
    if obj.get("stream") != stream:
        fail(path, line_no, f"stream {obj.get('stream')!r} != {stream!r}")
    if not isinstance(obj.get("engine"), str):
        fail(path, line_no, "meta line is missing the engine name")


def load_schema(path):
    """name -> kind from `scuba_cli metrics-schema` output."""
    schema = {}
    for line_no, obj in load_lines(path):
        name, kind = obj.get("name"), obj.get("kind")
        if not isinstance(name, str) or kind not in ("counter", "gauge",
                                                     "histogram"):
            fail(path, line_no, f"bad schema line: {obj!r}")
        schema[name] = kind
    return schema


def schema_kind(schema, name):
    """The registered kind of `name` (None if unknown). Window health gauges
    are one family, matched by prefix."""
    if name.startswith(SHARD_HEALTH_PREFIX):
        name = next((k for k in schema if k.startswith(SHARD_HEALTH_PREFIX)),
                    name)
    return schema.get(name)


def check_metrics_file(path, schema=None):
    lines = load_lines(path)
    line_no, meta = lines[0]
    if meta.get("kind") != "meta":
        fail(path, line_no, "first line must be the meta line")
    check_meta(path, line_no, meta, "metrics")

    line_no, last = lines[-1]
    if last.get("kind") != "exposition":
        fail(path, line_no, "last line must be the prometheus exposition")
    check_keys(path, line_no, last, EXPOSITION_KEYS, "exposition")
    if "scuba_rounds_total" not in last.get("prometheus", ""):
        fail(path, line_no, "exposition is missing scuba_rounds_total")

    rounds = 0
    counter_totals = {}
    histogram_totals = {}
    metric_names = set()
    for line_no, obj in lines[1:-1]:
        if obj.get("kind") != "round":
            fail(path, line_no, f"unexpected kind {obj.get('kind')!r}")
        check_keys(path, line_no, obj, ROUND_METRICS_KEYS, "round")
        rounds += 1
        if obj.get("round") != rounds:
            fail(path, line_no,
                 f"round {obj.get('round')} out of order (want {rounds})")
        if not isinstance(obj.get("metrics"), list):
            fail(path, line_no, "round line has no metrics array")
        for entry in obj["metrics"]:
            name = entry.get("name")
            if not isinstance(name, str) or not name:
                fail(path, line_no, f"metric entry has no name: {entry!r}")
            metric_names.add(name)
            kind = entry.get("kind")
            if schema is not None:
                want = schema_kind(schema, name)
                if want is None:
                    fail(path, line_no, f"{name}: not in the metric schema")
                if kind != want:
                    fail(path, line_no,
                         f"{name}: kind {kind!r}, schema says {want!r}")
            if kind == "counter":
                check_keys(path, line_no, entry, COUNTER_KEYS, "counter")
                delta, total = entry.get("delta"), entry.get("total")
                if not isinstance(delta, int) or delta < 1:
                    fail(path, line_no,
                         f"{name}: counter delta must be a positive integer "
                         f"(zero-delta entries are omitted), got {delta!r}")
                prev = counter_totals.get(name, 0)
                if not isinstance(total, int) or total != prev + delta:
                    fail(path, line_no,
                         f"{name}: total {total!r} != previous {prev} + "
                         f"delta {delta}")
                counter_totals[name] = total
            elif kind == "gauge":
                check_keys(path, line_no, entry, GAUGE_KEYS, "gauge")
                check_finite(path, line_no, entry.get("value"),
                             f"{name}: gauge value")
                if name == "scuba_shards":
                    value = entry.get("value")
                    if value != int(value) or value < 1:
                        fail(path, line_no,
                             f"scuba_shards must be a positive integer, "
                             f"got {value!r}")
                if name.startswith(SHARD_HEALTH_PREFIX):
                    value = entry.get("value")
                    if value not in SHARD_HEALTH_VALUES:
                        fail(path, line_no,
                             f"{name} must be a health-state code "
                             f"{sorted(SHARD_HEALTH_VALUES)}, got {value!r}")
            elif kind == "histogram":
                check_keys(path, line_no, entry, HISTOGRAM_KEYS, "histogram")
                delta_count = entry.get("delta_count")
                if not isinstance(delta_count, int) or delta_count < 1:
                    fail(path, line_no,
                         f"{name}: histogram delta_count must be positive, "
                         f"got {delta_count!r}")
                check_timing(path, line_no, entry.get("delta_sum"),
                             f"{name}: delta_sum")
                check_timing(path, line_no, entry.get("total_sum"),
                             f"{name}: total_sum")
                prev = histogram_totals.get(name, 0)
                total_count = entry.get("total_count")
                if total_count != prev + delta_count:
                    fail(path, line_no,
                         f"{name}: total_count {total_count!r} != previous "
                         f"{prev} + delta_count {delta_count}")
                histogram_totals[name] = total_count
            else:
                fail(path, line_no, f"{name}: unknown metric kind {kind!r}")
    if rounds == 0:
        fail(path, 0, "metrics file contains no round lines")
    shard_counters = metric_names & SHARD_COUNTER_NAMES
    if shard_counters and "scuba_shards" not in metric_names:
        fail(path, 0,
             f"shard counters {sorted(shard_counters)} present but the "
             "scuba_shards gauge never appeared")
    return {"rounds": rounds, "metric_names": sorted(metric_names)}


def check_trace_file(path):
    lines = load_lines(path)
    line_no, meta = lines[0]
    if meta.get("kind") != "meta":
        fail(path, line_no, "first line must be the meta line")
    check_meta(path, line_no, meta, "trace")

    rounds = 0
    span_names = set()
    for line_no, obj in lines[1:]:
        if obj.get("kind") != "round":
            fail(path, line_no, f"unexpected kind {obj.get('kind')!r}")
        check_keys(path, line_no, obj, ROUND_TRACE_KEYS, "round")
        rounds += 1
        spans = obj.get("spans")
        if not isinstance(spans, list) or not spans:
            fail(path, line_no, "round line has no spans")
        for pos, span in enumerate(spans):
            check_keys(path, line_no, span, SPAN_KEYS, "span")
            missing = SPAN_REQUIRED - set(span)
            if missing:
                fail(path, line_no, f"span missing key(s): {sorted(missing)}")
            if span["id"] != pos:
                fail(path, line_no,
                     f"span id {span['id']} != position {pos}")
            name = span["name"]
            if name not in KNOWN_SPAN_NAMES:
                fail(path, line_no, f"unknown span name {name!r}")
            parent = span["parent"]
            if pos == 0:
                if name != "round" or parent != -1:
                    fail(path, line_no, "first span must be the 'round' root")
            elif not 0 <= parent < pos:
                fail(path, line_no,
                     f"span {name!r} parent {parent} must precede it")
            if name in INDEXED_SPAN_PARENT:
                if "index" not in span or not isinstance(span["index"], int) \
                        or span["index"] < 0:
                    fail(path, line_no,
                         f"per-window span {name!r} must carry a non-negative "
                         "integer index")
                want_parent = INDEXED_SPAN_PARENT[name]
                if spans[parent]["name"] != want_parent:
                    fail(path, line_no,
                         f"span {name!r} parent is "
                         f"{spans[parent]['name']!r}, want {want_parent!r}")
            check_timing(path, line_no, span["wall_seconds"],
                         f"span {span['name']!r} wall_seconds")
            if "worker_seconds" in span:
                check_timing(path, line_no, span["worker_seconds"],
                             f"span {span['name']!r} worker_seconds")
            if not isinstance(span["count"], int) or span["count"] < 1:
                fail(path, line_no,
                     f"span {span['name']!r} count {span['count']!r} < 1")
            span_names.add(span["name"])
        if "join" in obj:
            check_keys(path, line_no, obj["join"], JOIN_KEYS, "join summary")
            if obj["join"].get("shards", 0) < 1:
                fail(path, line_no, "join summary with no shards")
            imbalance = obj["join"].get("imbalance")
            check_finite(path, line_no, imbalance, "join imbalance")
            if imbalance < 1.0:
                fail(path, line_no,
                     f"join imbalance {imbalance} < 1.0 (max/mean)")
    if rounds == 0:
        fail(path, 0, "trace file contains no round lines")
    return {"rounds": rounds, "span_names": sorted(span_names)}


def check_overhead(bench_path, max_overhead):
    with open(bench_path, encoding="utf-8") as f:
        bench = json.load(f)
    telemetry = bench.get("telemetry")
    if not isinstance(telemetry, dict):
        raise CheckFailure(f"{bench_path}: no telemetry section "
                           "(rerun bench_parallel_scaling)")
    overhead = telemetry.get("overhead_fraction")
    if not isinstance(overhead, (int, float)) or not math.isfinite(overhead):
        raise CheckFailure(f"{bench_path}: bad overhead_fraction {overhead!r}")
    if overhead > max_overhead:
        raise CheckFailure(
            f"{bench_path}: telemetry overhead {overhead:.2%} exceeds the "
            f"{max_overhead:.0%} budget")
    return telemetry


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--metrics", help="metrics JSONL to validate")
    parser.add_argument("--trace", help="trace JSONL to validate")
    parser.add_argument("--schema",
                        help="`scuba_cli metrics-schema` output; metric "
                             "names outside it fail")
    parser.add_argument("--bench",
                        help="BENCH_parallel.json with a telemetry section "
                             "to gate overhead against")
    parser.add_argument("--max-overhead", type=float, default=0.05,
                        help="fail when overhead_fraction exceeds this "
                             "(default 0.05)")
    parser.add_argument("--out", help="write a JSON summary here")
    args = parser.parse_args()
    if not (args.metrics or args.trace or args.bench):
        parser.error("nothing to check: pass --metrics, --trace or --bench")

    summary = {"schema_version": SCHEMA_VERSION, "status": "ok"}
    try:
        if args.metrics:
            schema = load_schema(args.schema) if args.schema else None
            summary["metrics"] = check_metrics_file(args.metrics, schema)
            print(f"ok: {args.metrics} "
                  f"({summary['metrics']['rounds']} rounds, "
                  f"{len(summary['metrics']['metric_names'])} metrics)")
        if args.trace:
            summary["trace"] = check_trace_file(args.trace)
            print(f"ok: {args.trace} "
                  f"({summary['trace']['rounds']} rounds, spans: "
                  f"{', '.join(summary['trace']['span_names'])})")
        if args.bench:
            summary["overhead"] = check_overhead(args.bench,
                                                 args.max_overhead)
            print(f"ok: {args.bench} telemetry overhead "
                  f"{summary['overhead']['overhead_fraction']:.2%} "
                  f"<= {args.max_overhead:.0%}")
    except (CheckFailure, OSError) as e:
        print(f"FAIL: {e}", file=sys.stderr)
        summary["status"] = "fail"
        summary["error"] = str(e)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as f:
                json.dump(summary, f, indent=2)
                f.write("\n")
        return 1

    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
