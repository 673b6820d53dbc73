// EngineMetrics: the one metric set every SCUBA engine exposes
// (docs/ARCHITECTURE.md §9).
//
// ScubaEngine registers this set on its telemetry registry and calls Push()
// from its pre-flush round hook; the counters are views of the engine's
// EngineSnapshotStats, pushed as per-round deltas of the cumulative values.
// The window-supervision family stays with the engine, which owns it.

#ifndef SCUBA_CORE_ENGINE_METRICS_H_
#define SCUBA_CORE_ENGINE_METRICS_H_

#include "core/engine_snapshot.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"

namespace scuba {

class EngineMetrics {
 public:
  /// Detached: every handle is a no-op until Register().
  EngineMetrics() = default;

  /// Registers every scuba_* engine counter, the cluster gauge and the three
  /// phase wall-time histograms on `registry`.
  void Register(MetricsRegistry* registry);

  /// Pushes the delta of every cumulative counter since the previous Push,
  /// observes the round's phase wall times and refreshes the cluster gauge.
  void Push(const EngineSnapshotStats& now);

 private:
  Counter rounds_;
  Counter results_;
  Counter join_comparisons_;
  Counter join_bounds_checks_;
  Counter join_pairs_tested_;
  Counter join_pairs_overlapping_;
  Counter join_within_single_;
  Counter join_within_pair_;
  Counter clusters_created_;
  Counter members_absorbed_;
  Counter members_refreshed_;
  Counter members_departed_;
  Counter clusters_dissolved_empty_;
  Counter members_shed_ingest_;
  Counter clusters_dissolved_expired_;
  Counter members_shed_maintenance_;
  Counter clusters_split_;
  Counter updates_quarantined_;
  Counter invariant_audits_;
  Counter invariant_violations_;
  Counter invariant_repairs_;
  Counter wal_records_;
  Counter wal_bytes_;
  Counter wal_fsyncs_;
  Counter checkpoints_;
  Gauge clusters_;
  HistogramMetric join_wall_seconds_;
  HistogramMetric ingest_wall_seconds_;
  HistogramMetric postjoin_wall_seconds_;
  /// Cumulative values already pushed; Push adds only the delta.
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
