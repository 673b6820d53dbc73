// ScubaEngine: the paper's core contribution (§4, Algorithms 1-3).
//
// Execution has three phases per evaluation interval Delta:
//  1. *Cluster pre-join maintenance*: Ingest*Update routes every arriving
//     location update through the incremental Leader-Follower clusterer,
//     growing/creating/dissolving moving clusters (§3.2).
//  2. *Cluster-based joining* (Evaluate): delegated to ClusterJoinExecutor —
//     the two-step join-between / join-within over the ClusterGrid.
//  3. *Cluster post-join maintenance*: radii are tightened, load shedding is
//     applied, expiring clusters (those passing their destination before the
//     next round) are dissolved, and survivors are relocated along their
//     velocity vectors to their expected position at time T + Delta.
//
// With no load shedding and a 100% per-tick update rate, Evaluate returns
// exactly the same matches as a naive nested-loop join over the latest
// updates (enforced by integration tests).

#ifndef SCUBA_CORE_SCUBA_ENGINE_H_
#define SCUBA_CORE_SCUBA_ENGINE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster_store.h"
#include "cluster/leader_follower.h"
#include "common/thread_pool.h"
#include "core/cluster_join.h"
#include "core/engine_metrics.h"
#include "core/engine_snapshot.h"
#include "core/load_shedder.h"
#include "core/query_processor.h"
#include "core/scuba_options.h"
#include "index/grid_index.h"
#include "obs/telemetry.h"

namespace scuba {

/// Outcome of one ScubaEngine::AuditInvariants() pass: what was checked and
/// every divergence found (messages capped at kMaxViolationMessages;
/// violations_total keeps counting past the cap).
struct InvariantAuditReport {
  static constexpr size_t kMaxViolationMessages = 32;

  size_t clusters_checked = 0;
  size_t members_checked = 0;
  size_t grid_keys_checked = 0;
  uint64_t violations_total = 0;
  std::vector<std::string> violations;

  bool clean() const { return violations_total == 0; }
  /// "clean (N clusters, M members)" or the violation list, one per line.
  std::string ToString() const;
};

class ScubaEngine : public QueryProcessor {
 public:
  /// Validates options and builds an engine. The engine is returned by
  /// pointer because internal components hold stable cross-references.
  static Result<std::unique_ptr<ScubaEngine>> Create(const ScubaOptions& options);

  std::string_view name() const override { return "scuba"; }
  Status IngestObjectUpdate(const LocationUpdate& update) override;
  Status IngestQueryUpdate(const QueryUpdate& update) override;
  /// Batched ingest: classification runs on ingest_threads worker tasks, all
  /// store/grid mutations are applied in a deterministic merge, so the
  /// resulting engine state is bit-identical to the per-update calls (all
  /// objects, then all queries) at any thread count. Unlike the per-update
  /// path, the whole batch is validated up front: an invalid update rejects
  /// the batch before anything is ingested.
  Status IngestBatch(std::span<const LocationUpdate> objects,
                     std::span<const QueryUpdate> queries) override;
  Status Evaluate(Timestamp now, ResultSet* results) override;
  size_t EstimateMemoryUsage() const override;

  /// The unified stats surface: one immutable aggregate of every counter the
  /// engine and its subsystems maintain (eval + phase + clusterer + join +
  /// shedder + durability/validator counters inside eval). Cheap to call —
  /// a handful of struct copies.
  EngineSnapshotStats StatsSnapshot() const;

  const ClusterStore& store() const { return store_; }
  const GridIndex& cluster_grid() const { return grid_; }
  const LoadShedder& shedder() const { return shedder_; }
  const ScubaOptions& options() const { return options_; }

  /// Current number of moving clusters.
  size_t ClusterCount() const { return store_.ClusterCount(); }

  /// Cross-checks the engine's redundant structures against each other:
  /// store membership vs home table, per-cluster id->index maps, cluster
  /// radii vs reconstructed member positions, and grid-index occupancy vs
  /// each cluster's registered bounds (both directions: every cluster
  /// registered under covering cells, no orphan grid keys). Read-only.
  InvariantAuditReport AuditInvariants() const;

  /// Recovery path: drops the whole cluster grid and re-registers every
  /// stored cluster from scratch (fresh padded bounds). Heals any grid-side
  /// divergence AuditInvariants can detect; store-side corruption (member
  /// maps, home table) is not repairable and keeps failing the audit.
  Status RebuildGridFromStore();

  /// Observability (docs/ARCHITECTURE.md §9): non-null iff
  /// options.telemetry.Enabled().
  EngineTelemetry* telemetry() { return telemetry_.get(); }

  /// Flushes the in-flight telemetry round and the final exposition dump;
  /// returns the first telemetry IO error. OK (no-op) when telemetry is off.
  Status FlushTelemetry();

 private:
  friend class ScubaEngineAuditPeer;  ///< Test back door: deliberate desync.
  ScubaEngine(const ScubaOptions& options, GridIndex grid);

  /// QueryProcessor's polymorphic stats surface (the experiment harness reads
  /// engines through the base interface). Private on the concrete type:
  /// direct ScubaEngine callers use StatsSnapshot() — the deprecated public
  /// forwarding shims (stats/phase_stats/clusterer_stats/join_counters) are
  /// gone after their one release of grace.
  const EvalStats& stats() const override { return stats_; }

  /// Phase 3 (see class comment). Per-cluster upkeep (tighten, shed, expiry,
  /// translate) is sharded over ingest_threads tasks; dissolutions and grid
  /// re-registrations are planned per task and applied serially in ascending
  /// cid order, so the outcome matches the serial loop exactly.
  /// `*worker_seconds` receives the summed per-task busy time; `*timings`
  /// (nullable) the per-sub-step wall split — null skips all extra clock
  /// reads, keeping the telemetry-off path cost-free.
  Status PostJoinMaintenance(Timestamp now, double* worker_seconds,
                             PostJoinTimings* timings);

  /// Splits clusters whose radius deteriorated past the configured bound
  /// (runs inside phase 3 when enable_cluster_splitting is set).
  Status SplitOversizedClusters();

  /// Periodic audit hook (audit_every_n_rounds): audits, and on violations
  /// rebuilds the grid and audits again. Corruption if still dirty — the
  /// divergence is in the store itself and cannot be healed.
  Status AuditAndHeal();

  /// Shared worker pool for batched ingest and post-join maintenance,
  /// created lazily on first parallel use; nullptr while ingest_threads
  /// resolves to 1 (the serial paths never construct a pool).
  ThreadPool* IngestPool();

  /// Telemetry setup (Create-time): registers the engine's metrics and the
  /// pre-flush hook that pushes cumulative-counter deltas.
  void InstallTelemetry(std::unique_ptr<EngineTelemetry> telemetry);

  /// Opens the telemetry round for the next activity; no-op when off.
  void TelemetryEnsureRound() {
    if (telemetry_ != nullptr) telemetry_->EnsureRound(stats_.evaluations + 1);
  }

  ScubaOptions options_;
  GridIndex grid_;
  ClusterStore store_;
  LeaderFollowerClusterer clusterer_;
  LoadShedder shedder_;
  ClusterJoinExecutor join_executor_;
  EvalStats stats_;
  ScubaPhaseStats phase_stats_;
  uint32_t resolved_ingest_threads_ = 1;
  std::unique_ptr<ThreadPool> ingest_pool_;
  /// Pre-join (ingest) wall / summed-worker time accumulated since the last
  /// Evaluate.
  double pending_prejoin_seconds_ = 0.0;
  double pending_prejoin_worker_seconds_ = 0.0;

  /// Observability (null unless options.telemetry.Enabled()). The handles
  /// are no-op value types, so instrumentation sites stay unconditional.
  std::unique_ptr<EngineTelemetry> telemetry_;
  EngineMetrics metrics_;
};

}  // namespace scuba

#endif  // SCUBA_CORE_SCUBA_ENGINE_H_
