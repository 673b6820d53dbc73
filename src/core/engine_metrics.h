// EngineMetrics: the one table that copies an engine's counts into its
// metrics registry (docs/ARCHITECTURE.md §9.1).
//
// Every engine count lives once, in EngineSnapshotStats. Each row of
// EngineMetricTable() names one registry metric and reads its value from a
// snapshot. The table drives both registration and the per-round push:
// ScubaEngine calls Register() at Create time and Push() from its pre-flush
// round hook, and no other engine code writes these metrics. Counters are
// pushed as the delta since the previous push, gauges as the current value,
// and the phase wall-time histograms as one observation of the round's
// seconds.

#ifndef SCUBA_CORE_ENGINE_METRICS_H_
#define SCUBA_CORE_ENGINE_METRICS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/engine_snapshot.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"

namespace scuba {

/// One registry metric and where its value comes from.
struct EngineMetricRow {
  const char* name;
  const char* help;
  MetricKind kind;
  /// kCounter: the cumulative count. Null for the other kinds.
  uint64_t (*count)(const EngineSnapshotStats&);
  /// kGauge: the current value. kHistogram: cumulative seconds, observed as
  /// the growth since the previous push. Null for counters.
  double (*value)(const EngineSnapshotStats&);
};

/// Every engine metric fed from EngineSnapshotStats, in registration order.
std::span<const EngineMetricRow> EngineMetricTable();

class EngineMetrics {
 public:
  /// Registers every row of EngineMetricTable() on `registry`.
  void Register(MetricsRegistry* registry);

  /// Copies `now` into the registered metrics (see the file comment).
  void Push(const EngineSnapshotStats& now);

 private:
  /// The registered handles of one row; only the row's kind is attached.
  struct Handles {
    Counter counter;
    Gauge gauge;
    HistogramMetric histogram;
  };
  std::vector<Handles> handles_;  ///< Parallel to EngineMetricTable().
  /// The snapshot of the previous push; counters add only the delta.
  EngineSnapshotStats pushed_;
};

/// Wall-time split of one post-join maintenance pass (telemetry only): the
/// postjoin span's tighten / shed / expire / translate children.
struct PostJoinTimings {
  double tighten_seconds = 0.0;
  double shed_seconds = 0.0;
  double expire_seconds = 0.0;
  double translate_seconds = 0.0;

  PostJoinTimings& operator+=(const PostJoinTimings& other);
  /// Adds each sub-step to its child span under `postjoin_span`.
  void AccumulateSpans(TraceCollector& trace, int32_t postjoin_span) const;
};

}  // namespace scuba

#endif  // SCUBA_CORE_ENGINE_METRICS_H_
