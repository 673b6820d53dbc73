#include "core/engine_metrics.h"

#include <vector>

namespace scuba {

void EngineMetrics::Register(MetricsRegistry* registry) {
  MetricsRegistry& reg = *registry;
  rounds_ =
      reg.RegisterCounter("scuba_rounds_total", "Completed evaluation rounds");
  results_ = reg.RegisterCounter("scuba_results_total",
                                 "Query-object matches produced");
  join_comparisons_ = reg.RegisterCounter(
      "scuba_join_comparisons_total", "Member-level predicate evaluations");
  join_bounds_checks_ = reg.RegisterCounter(
      "scuba_join_bounds_checks_total", "Per-query fine-filter pre-checks");
  join_pairs_tested_ = reg.RegisterCounter(
      "scuba_join_pairs_tested_total", "Join-between cluster-pair tests");
  join_pairs_overlapping_ = reg.RegisterCounter(
      "scuba_join_pairs_overlapping_total", "Join-between positives");
  join_within_single_ = reg.RegisterCounter(
      "scuba_join_within_single_total", "Same-cluster join-within runs");
  join_within_pair_ = reg.RegisterCounter(
      "scuba_join_within_pair_total", "Cross-cluster join-within runs");
  clusters_created_ = reg.RegisterCounter("scuba_clusters_created_total",
                                          "Moving clusters created");
  members_absorbed_ = reg.RegisterCounter("scuba_members_absorbed_total",
                                          "Members absorbed into clusters");
  members_refreshed_ = reg.RegisterCounter("scuba_members_refreshed_total",
                                           "Members refreshed in place");
  members_departed_ = reg.RegisterCounter("scuba_members_departed_total",
                                          "Members that left their cluster");
  clusters_dissolved_empty_ = reg.RegisterCounter(
      "scuba_clusters_dissolved_empty_total", "Clusters dissolved empty");
  members_shed_ingest_ = reg.RegisterCounter("scuba_members_shed_ingest_total",
                                             "Positions shed at ingest");
  clusters_dissolved_expired_ =
      reg.RegisterCounter("scuba_clusters_dissolved_expired_total",
                          "Clusters dissolved at their destination");
  members_shed_maintenance_ = reg.RegisterCounter(
      "scuba_members_shed_maintenance_total", "Positions shed in maintenance");
  clusters_split_ = reg.RegisterCounter("scuba_clusters_split_total",
                                        "Oversized clusters split");
  updates_quarantined_ = reg.RegisterCounter(
      "scuba_updates_quarantined_total", "Updates dropped by validation");
  invariant_audits_ = reg.RegisterCounter("scuba_invariant_audits_total",
                                          "Invariant audit passes");
  invariant_violations_ = reg.RegisterCounter(
      "scuba_invariant_violations_total", "Invariant violations found");
  invariant_repairs_ = reg.RegisterCounter(
      "scuba_invariant_repairs_total", "Grid rebuilds that healed an audit");
  wal_records_ =
      reg.RegisterCounter("scuba_wal_records_total", "WAL records appended");
  wal_bytes_ = reg.RegisterCounter("scuba_wal_bytes_total", "WAL bytes appended");
  wal_fsyncs_ = reg.RegisterCounter("scuba_wal_fsyncs_total", "WAL fsync calls");
  checkpoints_ = reg.RegisterCounter("scuba_checkpoints_total",
                                     "Snapshot checkpoints written");
  clusters_ = reg.RegisterGauge("scuba_clusters", "Live moving clusters");
  const std::vector<double> kTimeBuckets = {1e-5, 1e-4, 1e-3, 1e-2,
                                            1e-1, 1.0,  10.0};
  if (Result<HistogramMetric> h = reg.RegisterHistogram(
          "scuba_join_wall_seconds", "Join phase wall time per round",
          kTimeBuckets);
      h.ok()) {
    join_wall_seconds_ = *h;
  }
  if (Result<HistogramMetric> h = reg.RegisterHistogram(
          "scuba_ingest_wall_seconds", "Pre-join ingest wall time per round",
          kTimeBuckets);
      h.ok()) {
    ingest_wall_seconds_ = *h;
  }
  if (Result<HistogramMetric> h = reg.RegisterHistogram(
          "scuba_postjoin_wall_seconds",
          "Post-join maintenance wall time per round", kTimeBuckets);
      h.ok()) {
    postjoin_wall_seconds_ = *h;
  }
}

void EngineMetrics::Push(const EngineSnapshotStats& now) {
  const EvalStats& e = now.eval;
  const EvalStats& pe = pushed_.eval;
  const ClusterJoinExecutor::Counters& j = now.join;
  const ClusterJoinExecutor::Counters& pj = pushed_.join;
  const ClustererStats& c = now.clusterer;
  const ClustererStats& pc = pushed_.clusterer;
  rounds_.Increment(e.evaluations - pe.evaluations);
  results_.Increment(e.total_results - pe.total_results);
  join_comparisons_.Increment(j.comparisons - pj.comparisons);
  join_bounds_checks_.Increment(j.bounds_checks - pj.bounds_checks);
  join_pairs_tested_.Increment(j.pairs_tested - pj.pairs_tested);
  join_pairs_overlapping_.Increment(j.pairs_overlapping - pj.pairs_overlapping);
  join_within_single_.Increment(j.within_joins_single - pj.within_joins_single);
  join_within_pair_.Increment(j.within_joins_pair - pj.within_joins_pair);
  clusters_created_.Increment(c.clusters_created - pc.clusters_created);
  members_absorbed_.Increment(c.members_absorbed - pc.members_absorbed);
  members_refreshed_.Increment(c.members_refreshed - pc.members_refreshed);
  members_departed_.Increment(c.members_departed - pc.members_departed);
  clusters_dissolved_empty_.Increment(c.clusters_dissolved_empty -
                                      pc.clusters_dissolved_empty);
  members_shed_ingest_.Increment(c.members_shed - pc.members_shed);
  clusters_dissolved_expired_.Increment(
      now.phase.clusters_dissolved_expired -
      pushed_.phase.clusters_dissolved_expired);
  members_shed_maintenance_.Increment(now.phase.members_shed_maintenance -
                                      pushed_.phase.members_shed_maintenance);
  clusters_split_.Increment(now.phase.clusters_split -
                            pushed_.phase.clusters_split);
  updates_quarantined_.Increment(e.updates_quarantined -
                                 pe.updates_quarantined);
  invariant_audits_.Increment(e.invariant_audits - pe.invariant_audits);
  invariant_violations_.Increment(e.invariant_violations -
                                  pe.invariant_violations);
  invariant_repairs_.Increment(e.invariant_repairs - pe.invariant_repairs);
  wal_records_.Increment(e.wal_records_appended - pe.wal_records_appended);
  wal_bytes_.Increment(e.wal_bytes_appended - pe.wal_bytes_appended);
  wal_fsyncs_.Increment(e.wal_fsyncs - pe.wal_fsyncs);
  checkpoints_.Increment(e.checkpoints_written - pe.checkpoints_written);
  clusters_.Set(static_cast<double>(now.clusters));
  if (e.total_join_seconds > pe.total_join_seconds) {
    join_wall_seconds_.Observe(e.total_join_seconds - pe.total_join_seconds);
  }
  if (e.total_ingest_seconds > pe.total_ingest_seconds) {
    ingest_wall_seconds_.Observe(e.total_ingest_seconds -
                                 pe.total_ingest_seconds);
  }
  if (e.total_postjoin_seconds > pe.total_postjoin_seconds) {
    postjoin_wall_seconds_.Observe(e.total_postjoin_seconds -
                                   pe.total_postjoin_seconds);
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
