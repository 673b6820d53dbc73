// ScubaEngine: the paper's core contribution (§4, Algorithms 1-3), and the
// one SCUBA engine — MakeEngine builds it for every configuration.
//
// Execution has three phases per evaluation interval Delta, over one
// ClusterStore, one ClusterGrid, one clusterer and one load shedder:
//  1. *Cluster pre-join maintenance*: Ingest*Update routes every arriving
//     location update through the incremental Leader-Follower clusterer,
//     growing/creating/dissolving moving clusters (§3.2). Serial, in
//     delivery order (a batch: all objects, then all queries).
//  2. *Cluster-based joining* (Evaluate): ClusterJoinExecutor builds the
//     round's views and grid snapshot once, then scans the join windows in
//     order. A window is the cell range [cell_begin, cell_end) of
//     options.shards-many whole grid rows (ShardRouter); each is one
//     (optionally supervised) scan spread over join_threads tasks. The
//     owner-cell rule gives every pair to exactly one window, so the
//     normalized slices merge into the round's ResultSet and the work does
//     not depend on the window count.
//  3. *Cluster post-join maintenance*: radii are tightened, load shedding is
//     applied, expiring clusters (those passing their destination before the
//     next round) are dissolved, and survivors are relocated along their
//     velocity vectors to their expected position at time T + Delta.
//
// Determinism contract: for identical input streams, per-round ResultSets,
// counters, shedder trajectories and EngineStateHash values are
// bit-identical at every (shards, join_threads) — adaptive shedding
// included. With no load shedding and a 100% per-tick update rate, Evaluate
// returns exactly the matches of a naive nested-loop join over the latest
// updates (enforced by integration tests).
//
// Supervision (docs/ARCHITECTURE.md §13): with options.supervision enabled,
// each window's scan runs behind a failure barrier that first audits the
// window. A failed window serves its last published slice (marked degraded),
// and online recovery runs between rounds; a window that exhausts its
// attempts is evicted in place, or (kReassign) its rows go to the remaining
// windows.

#ifndef SCUBA_CORE_SCUBA_ENGINE_H_
#define SCUBA_CORE_SCUBA_ENGINE_H_

#include <functional>
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
#include "shard/shard_router.h"
#include "shard/shard_supervisor.h"

namespace scuba {

/// Outcome of one audit pass (ScubaEngine::AuditInvariants or a window's
/// AuditShardStripe): what was checked and every divergence found (messages
/// capped at kMaxViolationMessages; violations_total keeps counting past the
/// cap).
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
  /// Validates options and builds an engine with options.shards join
  /// windows. The engine is returned by pointer because internal components
  /// hold stable cross-references.
  static Result<std::unique_ptr<ScubaEngine>> Create(const ScubaOptions& options);

  std::string_view name() const override { return "scuba"; }
  Status IngestObjectUpdate(const LocationUpdate& update) override;
  Status IngestQueryUpdate(const QueryUpdate& update) override;
  /// Batched ingest: the whole batch is validated up front (strict rejects
  /// it before anything is ingested, quarantine drops exactly the tuples the
  /// per-update path would skip), then every update runs the per-update path
  /// in delivery order — all objects, then all queries — so the result is
  /// bit-identical to the per-update calls.
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

  /// The join windows: window w is cells [router().CellBegin(w),
  /// router().CellEnd(w)).
  const ShardRouter& router() const { return router_; }
  /// Number of join windows (options.shards, minus reassign evictions).
  uint32_t shard_count() const { return router_.shard_count(); }

  /// Always 0: one store means no cluster ever changes owner and no window
  /// reads another's copy. Kept for callers that still report them.
  uint64_t handoffs() const { return 0; }
  uint64_t ghosts_published() const { return 0; }

  /// Cross-checks the engine's redundant structures against each other over
  /// every cell: AuditShardStripe's checks with the whole map as the window.
  /// Read-only.
  InvariantAuditReport AuditInvariants() const;
  /// Window-scoped audit of the one store and grid. Covers the per-cluster
  /// store checks (member index, radius coverage, registration, registered
  /// bounds) for clusters whose lowest registered cell lies in the window;
  /// checks that every cell of the window holds exactly the keys whose
  /// placement includes it, with each cluster's placement inside the window
  /// equal to the cells its registered circle covers there; and flags
  /// orphan keys placed in the window. The window holding cell 0 also checks
  /// the store-wide home table. Damage confined to a window's cells is seen
  /// only by that window's audit. Read-only; safe during the join phase.
  InvariantAuditReport AuditShardStripe(uint32_t window) const;

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

  /// Writes one complete manifest-committed checkpoint into `dir` (snapshot
  /// first, manifest last). Stand-alone convenience; runs with a durable
  /// directory use ShardedDurabilityManager instead. Defined in
  /// src/shard/shard_durability.cc (link scuba_shard).
  Status Checkpoint(const std::string& dir);
  /// Restores from the NEWEST manifest in `dir` only — no silent fallback to
  /// older generations (RecoverShardedEngine implements the explicit-fallback
  /// policy). A directory in a retired layout is kFailedPrecondition.
  Status Restore(const std::string& dir);

  // --- Window supervision (docs/ARCHITECTURE.md §13) ---

  /// Non-null iff options.supervision.Enabled() at Create time.
  ShardSupervisor* supervisor() { return supervisor_.get(); }
  const ShardSupervisor* supervisor() const { return supervisor_.get(); }

  /// Online recovery hook, wired by callers owning a durable directory (the
  /// engine factory wires RecoverShardStripe). Recovery probes run without
  /// it; only a window whose audit stays dirty needs the rebuild — absent
  /// the hook such a window fails its attempts and is evicted.
  using StripeRecoveryFn = std::function<Status(ScubaEngine*, uint32_t)>;
  void set_stripe_recovery(StripeRecoveryFn fn) {
    stripe_recovery_ = std::move(fn);
  }

 private:
  friend struct PersistAccess;
  friend class ScubaEngineAuditPeer;  ///< Test back door: deliberate desync.
  ScubaEngine(const ScubaOptions& options, GridIndex grid, ShardRouter router);

  /// One join window's slice of the round.
  struct Window {
    ResultSet results;
    /// Last successfully published slice. Maintained only under
    /// supervision: a degraded round serves this copy for a quarantined
    /// window, marked via ResultSet::MarkDegraded.
    ResultSet last_good_results;
  };

  /// QueryProcessor's polymorphic stats surface (the experiment harness reads
  /// engines through the base interface). Private on the concrete type:
  /// direct ScubaEngine callers use StatsSnapshot().
  const EvalStats& stats() const override { return stats_; }

  /// Validation + timing shared by both per-update ingest calls.
  template <typename Update>
  Status IngestOne(const Update& update);

  /// Phase 2: prepares the join, scans every window (supervised when a
  /// supervisor exists) and merges the slices into `results`.
  Status JoinWindows(ResultSet* results);

  /// Phase 3 (see class comment). Per-cluster upkeep (tighten, shed, expiry,
  /// translate) runs on join_threads tasks (inline at one); dissolutions and
  /// grid re-registrations are planned per task and applied serially in
  /// ascending cid order, so the outcome is the same at any task count.
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

  /// The audit over cells [cell_begin, cell_end); see AuditShardStripe.
  InvariantAuditReport AuditCells(uint32_t cell_begin, uint32_t cell_end,
                                  const std::string& prefix) const;

  /// Serial, pre-join: applies this round's kCorruptState injections by
  /// dropping each victim window's lowest-cid border cluster from that
  /// window's own cells (caught by the window's audit; post-join decisions
  /// are unchanged).
  void ApplyInjectedCorruption();
  /// End-of-round: runs every due recovery attempt. A window that exhausts
  /// its attempt budget is evicted — under kReassign by recomputing one
  /// fewer window, otherwise in place.
  Status RunScheduledRecoveries();
  /// One recovery attempt: injected-failure check, audit probe, then (only
  /// if the audit is dirty) the durable rebuild hook plus a verify audit.
  Status AttemptWindowRecovery(uint32_t window);
  /// Reassign eviction: recomputes shard_count()-1 windows, re-registers
  /// every cluster under its registered bounds (healing whatever damage got
  /// the window evicted) and resets supervision state.
  Status EvictWindow();

  /// Worker pool for post-join upkeep, created lazily on first parallel use;
  /// nullptr while join_threads resolves to 1.
  ThreadPool* PostJoinPool();

  /// Telemetry setup (Create-time): registers the engine's metric table,
  /// the window health gauges and the pre-flush hook that pushes them.
  void InstallTelemetry(std::unique_ptr<EngineTelemetry> telemetry);
  void PushTelemetryDeltas();

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
  ShardRouter router_;
  std::vector<Window> windows_;
  EvalStats stats_;
  ScubaPhaseStats phase_stats_;
  uint32_t resolved_threads_ = 1;
  std::unique_ptr<ThreadPool> postjoin_pool_;
  /// Pre-join (ingest) wall time accumulated since the last Evaluate.
  double pending_prejoin_seconds_ = 0.0;

  /// Null unless options.supervision.Enabled() at Create time.
  std::unique_ptr<ShardSupervisor> supervisor_;
  StripeRecoveryFn stripe_recovery_;

  /// Observability (null unless options.telemetry.Enabled()). The handles
  /// are no-op value types, so instrumentation sites stay unconditional.
  std::unique_ptr<EngineTelemetry> telemetry_;
  EngineMetrics metrics_;
  /// One health gauge per window of the ORIGINAL layout: 0 healthy,
  /// 1 degraded, 2 recovering, 3 evicted. Indices beyond the current layout
  /// (after a reassign eviction) report 3 — that window identity is gone.
  std::vector<Gauge> window_health_;
};

}  // namespace scuba

#endif  // SCUBA_CORE_SCUBA_ENGINE_H_
