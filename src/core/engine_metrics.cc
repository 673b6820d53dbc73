#include "core/engine_metrics.h"

#include <iterator>
#include <vector>

namespace scuba {

namespace {

using Snap = EngineSnapshotStats;

constexpr EngineMetricRow CounterRow(const char* name, const char* help,
                                     uint64_t (*count)(const Snap&)) {
  return {name, help, MetricKind::kCounter, count, nullptr};
}

constexpr EngineMetricRow GaugeRow(const char* name, const char* help,
                                   double (*value)(const Snap&)) {
  return {name, help, MetricKind::kGauge, nullptr, value};
}

constexpr EngineMetricRow SecondsRow(const char* name, const char* help,
                                     double (*total)(const Snap&)) {
  return {name, help, MetricKind::kHistogram, nullptr, total};
}

constexpr EngineMetricRow kTable[] = {
    CounterRow("scuba_rounds_total", "Completed evaluation rounds",
               [](const Snap& s) { return s.eval.evaluations; }),
    CounterRow("scuba_results_total", "Query-object matches produced",
               [](const Snap& s) { return s.eval.total_results; }),
    CounterRow("scuba_join_comparisons_total",
               "Member-level predicate evaluations",
               [](const Snap& s) { return s.join.comparisons; }),
    CounterRow("scuba_join_bounds_checks_total",
               "Per-query fine-filter pre-checks",
               [](const Snap& s) { return s.join.bounds_checks; }),
    CounterRow("scuba_join_pairs_tested_total",
               "Join-between cluster-pair tests",
               [](const Snap& s) { return s.join.pairs_tested; }),
    CounterRow("scuba_join_pairs_overlapping_total", "Join-between positives",
               [](const Snap& s) { return s.join.pairs_overlapping; }),
    CounterRow("scuba_join_within_single_total",
               "Same-cluster join-within runs",
               [](const Snap& s) { return s.join.within_joins_single; }),
    CounterRow("scuba_join_within_pair_total", "Cross-cluster join-within runs",
               [](const Snap& s) { return s.join.within_joins_pair; }),
    CounterRow("scuba_clusters_created_total", "Moving clusters created",
               [](const Snap& s) { return s.clusterer.clusters_created; }),
    CounterRow("scuba_members_absorbed_total", "Members absorbed into clusters",
               [](const Snap& s) { return s.clusterer.members_absorbed; }),
    CounterRow("scuba_members_refreshed_total", "Members refreshed in place",
               [](const Snap& s) { return s.clusterer.members_refreshed; }),
    CounterRow("scuba_members_departed_total",
               "Members that left their cluster",
               [](const Snap& s) { return s.clusterer.members_departed; }),
    CounterRow(
        "scuba_clusters_dissolved_empty_total", "Clusters dissolved empty",
        [](const Snap& s) { return s.clusterer.clusters_dissolved_empty; }),
    CounterRow("scuba_members_shed_ingest_total", "Positions shed at ingest",
               [](const Snap& s) { return s.clusterer.members_shed; }),
    CounterRow(
        "scuba_clusters_dissolved_expired_total",
        "Clusters dissolved at their destination",
        [](const Snap& s) { return s.phase.clusters_dissolved_expired; }),
    CounterRow("scuba_members_shed_maintenance_total",
               "Positions shed in maintenance",
               [](const Snap& s) { return s.phase.members_shed_maintenance; }),
    CounterRow("scuba_clusters_split_total", "Oversized clusters split",
               [](const Snap& s) { return s.phase.clusters_split; }),
    CounterRow("scuba_invariant_audits_total", "Invariant audit passes",
               [](const Snap& s) { return s.eval.invariant_audits; }),
    CounterRow("scuba_invariant_violations_total",
               "Invariant violations found",
               [](const Snap& s) { return s.eval.invariant_violations; }),
    CounterRow("scuba_invariant_repairs_total",
               "Grid rebuilds that healed an audit",
               [](const Snap& s) { return s.eval.invariant_repairs; }),
    CounterRow("scuba_wal_records_total", "WAL records appended",
               [](const Snap& s) { return s.eval.wal_records_appended; }),
    CounterRow("scuba_wal_bytes_total", "WAL bytes appended",
               [](const Snap& s) { return s.eval.wal_bytes_appended; }),
    CounterRow("scuba_wal_fsyncs_total", "WAL fsync calls",
               [](const Snap& s) { return s.eval.wal_fsyncs; }),
    CounterRow("scuba_checkpoints_total", "Snapshot checkpoints written",
               [](const Snap& s) { return s.eval.checkpoints_written; }),
    GaugeRow("scuba_clusters", "Live moving clusters",
             [](const Snap& s) { return static_cast<double>(s.clusters); }),
    SecondsRow("scuba_join_wall_seconds", "Join phase wall time per round",
               [](const Snap& s) { return s.eval.total_join_seconds; }),
    SecondsRow("scuba_ingest_wall_seconds",
               "Pre-join ingest wall time per round",
               [](const Snap& s) { return s.eval.total_ingest_seconds; }),
    SecondsRow("scuba_postjoin_wall_seconds",
               "Post-join maintenance wall time per round",
               [](const Snap& s) { return s.eval.total_postjoin_seconds; }),
    GaugeRow("scuba_shed_eta",
             "Current nucleus fraction eta = Theta_N / Theta_D",
             [](const Snap& s) { return s.shedder.eta; }),
    GaugeRow("scuba_shed_nucleus_radius", "Current nucleus radius Theta_N",
             [](const Snap& s) { return s.shedder.nucleus_radius; }),
    CounterRow("scuba_shed_adjustments_total", "Adaptive eta adjustments",
               [](const Snap& s) { return s.shedder.adjustments; }),
    CounterRow(
        "scuba_shard_failures_total",
        "Supervised join windows that failed (thrown, stalled, or audit)",
        [](const Snap& s) { return s.supervision.shard_failures; }),
    CounterRow("scuba_shard_recoveries_total",
               "Online window recoveries that verified clean",
               [](const Snap& s) { return s.supervision.shard_recoveries; }),
    CounterRow("scuba_shard_evictions_total",
               "Join windows evicted after exhausting their recovery attempts",
               [](const Snap& s) { return s.supervision.shard_evictions; }),
    CounterRow("scuba_degraded_rounds_total",
               "Rounds answered with at least one stale window slice",
               [](const Snap& s) { return s.supervision.degraded_rounds; }),
    GaugeRow("scuba_shards", "Join windows (row ranges)",
             [](const Snap& s) { return static_cast<double>(s.windows); }),
};

}  // namespace

std::span<const EngineMetricRow> EngineMetricTable() { return kTable; }

void EngineMetrics::Register(MetricsRegistry* registry) {
  const std::vector<double> kTimeBuckets = {1e-5, 1e-4, 1e-3, 1e-2,
                                            1e-1, 1.0,  10.0};
  handles_.assign(std::size(kTable), Handles{});
  for (size_t i = 0; i < handles_.size(); ++i) {
    const EngineMetricRow& row = kTable[i];
    Handles& h = handles_[i];
    switch (row.kind) {
      case MetricKind::kCounter:
        h.counter = registry->RegisterCounter(row.name, row.help);
        break;
      case MetricKind::kGauge:
        h.gauge = registry->RegisterGauge(row.name, row.help);
        break;
      case MetricKind::kHistogram:
        if (Result<HistogramMetric> hist =
                registry->RegisterHistogram(row.name, row.help, kTimeBuckets);
            hist.ok()) {
          h.histogram = *hist;
        }
        break;
    }
  }
}

void EngineMetrics::Push(const EngineSnapshotStats& now) {
  for (size_t i = 0; i < handles_.size(); ++i) {
    const EngineMetricRow& row = kTable[i];
    Handles& h = handles_[i];
    switch (row.kind) {
      case MetricKind::kCounter:
        if (row.count(now) > row.count(pushed_)) {
          h.counter.Increment(row.count(now) - row.count(pushed_));
        }
        break;
      case MetricKind::kGauge:
        h.gauge.Set(row.value(now));
        break;
      case MetricKind::kHistogram:
        if (row.value(now) > row.value(pushed_)) {
          h.histogram.Observe(row.value(now) - row.value(pushed_));
        }
        break;
    }
  }
  pushed_ = now;
}

PostJoinTimings& PostJoinTimings::operator+=(const PostJoinTimings& other) {
  tighten_seconds += other.tighten_seconds;
  shed_seconds += other.shed_seconds;
  expire_seconds += other.expire_seconds;
  translate_seconds += other.translate_seconds;
  return *this;
}

void PostJoinTimings::AccumulateSpans(TraceCollector& trace,
                                      int32_t postjoin_span) const {
  trace.Accumulate(trace.EnsureSpan(postjoin_span, "tighten"), tighten_seconds);
  trace.Accumulate(trace.EnsureSpan(postjoin_span, "shed"), shed_seconds);
  trace.Accumulate(trace.EnsureSpan(postjoin_span, "expire"), expire_seconds);
  trace.Accumulate(trace.EnsureSpan(postjoin_span, "translate"),
                   translate_seconds);
}

}  // namespace scuba
