// QueryProcessor: the interface shared by every continuous-query engine in
// this repository (SCUBA, the regular grid operator, the naive oracle).
//
// Contract: updates stream in via Ingest*Update (the paper's pre-join phase);
// every Delta ticks the driver calls Evaluate, which computes the current
// (query, object) matches and performs any engine-internal maintenance.

#ifndef SCUBA_CORE_QUERY_PROCESSOR_H_
#define SCUBA_CORE_QUERY_PROCESSOR_H_

#include <cstdint>
#include <span>
#include <string_view>

#include "common/status.h"
#include "common/types.h"
#include "core/result_set.h"
#include "gen/update.h"

namespace scuba {

/// Uniform per-engine counters the harness reads after a run. Engines fill
/// what applies; cluster-specific fields stay zero elsewhere.
struct EvalStats {
  uint64_t evaluations = 0;
  double total_join_seconds = 0.0;         ///< Time inside the join phase.
  double total_maintenance_seconds = 0.0;  ///< Pre/post-join cluster upkeep.
  double last_join_seconds = 0.0;
  double last_maintenance_seconds = 0.0;
  uint64_t total_results = 0;
  uint64_t last_result_count = 0;
  /// Individual object x query predicate evaluations (join-within work).
  uint64_t comparisons = 0;
  /// Cheap per-query cluster-bounds pre-checks (fine filter), counted apart
  /// from `comparisons` so the member-level predicate work maps cleanly onto
  /// the paper's Fig. 11 cost model.
  uint64_t bounds_checks = 0;
  /// SCUBA only: join-between tests and how many reported overlap.
  uint64_t cluster_pairs_tested = 0;
  uint64_t cluster_pairs_overlapping = 0;
  /// Parallel join: worker tasks the join phase fans out to (1 = serial),
  /// and the summed per-worker busy time. worker/wall is the parallel
  /// speedup actually realized; dividing by join_threads gives efficiency.
  uint32_t join_threads = 1;
  double last_join_worker_seconds = 0.0;
  double total_join_worker_seconds = 0.0;
  /// Maintenance split: the maintenance total above is the sum of the
  /// (serial) ingest and post-join wall components below. Post-join upkeep
  /// fans out to join_threads tasks; *_worker_seconds is their summed busy
  /// time, mirroring the join accounting.
  double last_ingest_seconds = 0.0;
  double total_ingest_seconds = 0.0;
  double last_postjoin_seconds = 0.0;
  double total_postjoin_seconds = 0.0;
  double last_postjoin_worker_seconds = 0.0;
  double total_postjoin_worker_seconds = 0.0;
  /// Stream hardening (docs/ARCHITECTURE.md §7). Updates dropped by the
  /// engine's own ingest screening under BadUpdatePolicy::kQuarantine/kRepair
  /// (tuples an upstream UpdateValidator already removed are not counted
  /// here).
  uint64_t updates_quarantined = 0;
  /// Invariant-audit lifecycle: audits run, violations detected across them,
  /// and grid rebuilds performed to heal a detected divergence.
  uint64_t invariant_audits = 0;
  uint64_t invariant_violations = 0;
  uint64_t invariant_repairs = 0;
  /// Durability (docs/ARCHITECTURE.md §8): checkpoints written, the
  /// size/latency of the last one, WAL append/fsync accounting, and — after a
  /// recovery — how many evaluation rounds the WAL replay re-executed.
  /// After a recovery the counters resume from the snapshot's values, so they
  /// are lower bounds on the lifetime totals (work between the snapshot and
  /// the crash that the WAL does not re-execute is not re-counted).
  uint64_t checkpoints_written = 0;
  uint64_t last_checkpoint_bytes = 0;
  double last_checkpoint_seconds = 0.0;
  double total_checkpoint_seconds = 0.0;
  uint64_t wal_records_appended = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t wal_bytes_appended = 0;
  uint64_t recovery_replay_rounds = 0;
};

class QueryProcessor {
 public:
  virtual ~QueryProcessor() = default;

  QueryProcessor() = default;
  QueryProcessor(const QueryProcessor&) = delete;
  QueryProcessor& operator=(const QueryProcessor&) = delete;

  /// Short engine name for reports ("scuba", "regular-grid", "naive").
  virtual std::string_view name() const = 0;

  /// Absorbs one location update from a moving object / query.
  virtual Status IngestObjectUpdate(const LocationUpdate& update) = 0;
  virtual Status IngestQueryUpdate(const QueryUpdate& update) = 0;

  /// Absorbs one tick's worth of updates at once — all objects, then all
  /// queries, semantically equivalent to the per-update calls in that order.
  /// Engines with a parallel ingest path override this; the default just
  /// loops.
  virtual Status IngestBatch(std::span<const LocationUpdate> objects,
                             std::span<const QueryUpdate> queries) {
    for (const LocationUpdate& u : objects) {
      SCUBA_RETURN_IF_ERROR(IngestObjectUpdate(u));
    }
    for (const QueryUpdate& u : queries) {
      SCUBA_RETURN_IF_ERROR(IngestQueryUpdate(u));
    }
    return Status::OK();
  }

  /// Runs one evaluation round at time `now`: fills `results` with the current
  /// matches (normalized) and performs post-round maintenance.
  virtual Status Evaluate(Timestamp now, ResultSet* results) = 0;

  /// Analytic heap footprint of all engine state.
  virtual size_t EstimateMemoryUsage() const = 0;

  virtual const EvalStats& stats() const = 0;
};

}  // namespace scuba

#endif  // SCUBA_CORE_QUERY_PROCESSOR_H_
