#include "core/engine_snapshot.h"

#include <cstdio>

namespace scuba {

std::string EngineSnapshotStats::Format(std::string_view engine_name) const {
  char buf[512];
  int n = std::snprintf(
      buf, sizeof(buf),
      "%-14.*s evals=%llu join=%.4fs maint=%.4fs results=%llu "
      "comparisons=%llu pairs=%llu/%llu",
      static_cast<int>(engine_name.size()), engine_name.data(),
      static_cast<unsigned long long>(eval.evaluations),
      eval.total_join_seconds, eval.total_maintenance_seconds,
      static_cast<unsigned long long>(eval.total_results),
      static_cast<unsigned long long>(eval.comparisons),
      static_cast<unsigned long long>(eval.cluster_pairs_overlapping),
      static_cast<unsigned long long>(eval.cluster_pairs_tested));
  if (eval.join_threads > 1 && n > 0 && static_cast<size_t>(n) < sizeof(buf)) {
    n += std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                       " threads=%u speedup=%.2fx", eval.join_threads,
                       JoinParallelSpeedup());
  }
  // Hardening counters appear only when something actually happened, so
  // clean serial runs keep the historical one-line format byte for byte.
  if (eval.updates_quarantined > 0 && n > 0 &&
      static_cast<size_t>(n) < sizeof(buf)) {
    n += std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                       " quarantined=%llu",
                       static_cast<unsigned long long>(
                           eval.updates_quarantined));
  }
  if (eval.invariant_audits > 0 && n > 0 &&
      static_cast<size_t>(n) < sizeof(buf)) {
    n += std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                       " audits=%llu violations=%llu repairs=%llu",
                       static_cast<unsigned long long>(eval.invariant_audits),
                       static_cast<unsigned long long>(
                           eval.invariant_violations),
                       static_cast<unsigned long long>(
                           eval.invariant_repairs));
  }
  // Durability counters appear only once a WAL record or snapshot exists, so
  // non-durable runs keep the historical format byte for byte.
  if ((eval.wal_records_appended > 0 || eval.checkpoints_written > 0) &&
      n > 0 && static_cast<size_t>(n) < sizeof(buf)) {
    n += std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                       " wal-records=%llu wal-bytes=%llu checkpoints=%llu",
                       static_cast<unsigned long long>(
                           eval.wal_records_appended),
                       static_cast<unsigned long long>(
                           eval.wal_bytes_appended),
                       static_cast<unsigned long long>(
                           eval.checkpoints_written));
  }
  if (eval.recovery_replay_rounds > 0 && n > 0 &&
      static_cast<size_t>(n) < sizeof(buf)) {
    std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                  " replayed-rounds=%llu",
                  static_cast<unsigned long long>(
                      eval.recovery_replay_rounds));
  }
  return buf;
}

double EngineSnapshotStats::AvgJoinSeconds() const {
  if (eval.evaluations == 0) return 0.0;
  return eval.total_join_seconds / static_cast<double>(eval.evaluations);
}

double EngineSnapshotStats::AvgMaintenanceSeconds() const {
  if (eval.evaluations == 0) return 0.0;
  return eval.total_maintenance_seconds /
         static_cast<double>(eval.evaluations);
}

double EngineSnapshotStats::JoinBetweenSelectivity() const {
  if (eval.cluster_pairs_tested == 0) return 0.0;
  return static_cast<double>(eval.cluster_pairs_overlapping) /
         static_cast<double>(eval.cluster_pairs_tested);
}

double EngineSnapshotStats::JoinParallelSpeedup() const {
  if (eval.total_join_seconds <= 0.0) return 0.0;
  return eval.total_join_worker_seconds / eval.total_join_seconds;
}

double EngineSnapshotStats::JoinParallelEfficiency() const {
  if (eval.join_threads == 0) return 0.0;
  return JoinParallelSpeedup() / static_cast<double>(eval.join_threads);
}

double EngineSnapshotStats::PostJoinParallelSpeedup() const {
  if (eval.total_postjoin_seconds <= 0.0) return 0.0;
  return eval.total_postjoin_worker_seconds / eval.total_postjoin_seconds;
}

}  // namespace scuba
