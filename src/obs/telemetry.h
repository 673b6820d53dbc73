// Round telemetry: JSONL emission of per-round metric deltas and trace-span
// trees, plus a final Prometheus-style exposition dump
// (docs/ARCHITECTURE.md §9).
//
// Output schema (schema_version 4). Every line is one JSON object with
// "schema_version" and "kind":
//
//  metrics file (--metrics-out):
//   {"schema_version":4,"kind":"meta","stream":"metrics","engine":...}
//   {"schema_version":4,"kind":"round","round":N,"metrics":[
//      {"name":..,"kind":"counter","delta":D,"total":T},
//      {"name":..,"kind":"gauge","value":V},
//      {"name":..,"kind":"histogram","delta_count":C,"delta_sum":S,
//       "total_count":TC,"total_sum":TS}]}
//   {"schema_version":4,"kind":"exposition","prometheus":"..."}
//
//  trace file (--trace-out):
//   {"schema_version":4,"kind":"meta","stream":"trace","engine":...}
//   {"schema_version":4,"kind":"round","round":N,"spans":[
//      {"id":0,"name":"round","parent":-1,"wall_seconds":W,"count":1},
//      {"id":..,"name":..,"parent":..,"wall_seconds":..,"count":..,
//       ("index":I,)? ("worker_seconds":S)?}...],
//    ("join":{"shards":K,"imbalance":X})?}
//
// kTelemetrySchemaVersion is the version emitted. "engine_shard" spans are
// one per join window (indexed by window), and the round's "join" summary is
// the max/mean imbalance of their busy times.
//
// Counters with a zero round delta and histograms with no new observations
// are omitted from the round line; gauges are always present. Content is
// deterministic for a fixed workload and thread count except timing fields
// (wall/worker seconds, histogram sums) — determinism digests must exclude
// those.

#ifndef SCUBA_OBS_TELEMETRY_H_
#define SCUBA_OBS_TELEMETRY_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"

namespace scuba {

inline constexpr int kTelemetrySchemaVersion = 4;

/// `s` as the body of a JSON string literal: quotes, backslashes and control
/// characters escaped. Shared by every JSON emitter in the tree.
std::string JsonEscape(std::string_view s);

/// ScubaOptions::telemetry. Purely observational: never changes what the
/// engine computes, and is excluded from the snapshot options fingerprint.
struct TelemetryOptions {
  /// Collect metrics/spans even with no output file (programmatic access via
  /// ScubaEngine::telemetry()). Implied by either output path.
  bool enabled = false;
  /// JSONL path for per-round metric deltas + final exposition ("" = off).
  std::string metrics_out;
  /// JSONL path for per-round span trees ("" = off).
  std::string trace_out;

  bool Enabled() const {
    return enabled || !metrics_out.empty() || !trace_out.empty();
  }
};

/// Appends one JSON line per round to the configured files. Not thread-safe;
/// driven from the engine thread between rounds.
class RoundTelemetryEmitter {
 public:
  /// Opens (truncates) the configured files and writes the meta lines.
  static Result<std::unique_ptr<RoundTelemetryEmitter>> Open(
      const TelemetryOptions& options, std::string_view engine_name);

  /// Emits the round lines: metric deltas against the previous emit, and the
  /// collector's span tree (when a trace file is open and `trace` is active).
  Status EmitRound(uint64_t round, const std::vector<MetricSnapshot>& metrics,
                   const TraceCollector* trace);

  /// Writes the final exposition line and flushes/closes both files.
  Status Finish(const MetricsRegistry& registry);

 private:
  RoundTelemetryEmitter() = default;

  struct HistogramBaseline {
    uint64_t count = 0;
    double sum = 0.0;
  };

  std::ofstream metrics_file_;
  std::ofstream trace_file_;
  bool metrics_open_ = false;
  bool trace_open_ = false;
  std::unordered_map<std::string, uint64_t> prev_counters_;
  std::unordered_map<std::string, HistogramBaseline> prev_histograms_;
};

/// Everything the engine holds when ScubaOptions::telemetry is enabled: the
/// registry, the per-round trace collector, the emitter, and the round
/// lifecycle that flushes a completed round the moment the next one starts
/// (so post-Evaluate checkpoint spans still land in the round they belong
/// to). IO errors are sticky and surfaced by Flush().
class EngineTelemetry {
 public:
  static Result<std::unique_ptr<EngineTelemetry>> Create(
      const TelemetryOptions& options, std::string_view engine_name);

  MetricsRegistry& registry() { return registry_; }
  TraceCollector& trace() { return trace_; }

  /// Invoked just before each round is emitted; the engine uses it to push
  /// cumulative-counter deltas into the registry.
  void SetRoundHook(std::function<void()> hook) { round_hook_ = std::move(hook); }

  /// Declares that activity for `round` is starting (or continuing). The
  /// first call for a new round flushes the previous one.
  void EnsureRound(uint64_t round);

  /// Flushes the in-flight round and the final exposition. Returns the first
  /// IO error encountered anywhere, OK otherwise. Idempotent.
  Status Flush();

 private:
  EngineTelemetry() = default;

  void FlushCurrentRound();

  MetricsRegistry registry_;
  TraceCollector trace_;
  std::unique_ptr<RoundTelemetryEmitter> emitter_;  ///< Null = collect only.
  std::function<void()> round_hook_;
  uint64_t current_round_ = 0;  ///< 0 = no round in flight.
  bool finished_ = false;
  Status status_ = Status::OK();
};

}  // namespace scuba

#endif  // SCUBA_OBS_TELEMETRY_H_
