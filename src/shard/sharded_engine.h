// ShardedEngine: the production SCUBA engine — the paper's three-phase round
// executed over N >= 1 spatial row stripes (docs/ARCHITECTURE.md §11).
// MakeEngine builds it for every shard count; shards == 1 is the one-stripe
// deployment, not a separate engine.
//
// The map is carved into N contiguous row stripes (ShardRouter); each stripe
// is an EngineShard with its own ClusterStore slice, GridIndex mirror, load
// shedder and join executor. A round runs the paper's three phases:
//
//  1. *Ingest* replays the Leader-Follower procedure serially at the
//     coordinator, with every grid operation mirrored into the shard grids a
//     cluster's registered circle touches (the mirror invariant in
//     engine_shard.h) and cluster ownership assigned by stripe.
//  2. *Join* runs one independent task per shard: the shard publishes
//     read-only ghosts of border-crossing clusters owned by neighbors
//     (serializer round trip — bit-exact), then scans only its own cell
//     window. No cross-shard locking anywhere on this path; the only barrier
//     is the fork/join around the task set. The per-shard ResultSets are
//     normalized slices, disjoint under the owner-cell dedup discipline (each
//     pair's MinCommonCell lies in exactly one stripe); the coordinator
//     merges them.
//  3. *Post-join* computes per-cluster upkeep as one task per shard and
//     applies dissolutions/re-registrations serially in globally ascending
//     cid order; ownership migration (handoff) then walks the same global
//     cid order serially, moving each cluster to the stripe owning its
//     registered center.
//
// Determinism contract: for identical input streams, a ShardedEngine at any
// (shards, join_threads) produces per-round ResultSets, join counters and
// state hashes bit-identical to the in-process reference ScubaEngine — with
// one documented exception: kAdaptive load shedding feeds each shard's
// shedder shard-local memory estimates, so adaptive eta trajectories
// legitimately diverge. kNone/kFixed shedding stay bit-identical.

#ifndef SCUBA_SHARD_SHARDED_ENGINE_H_
#define SCUBA_SHARD_SHARDED_ENGINE_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster_store.h"
#include "cluster/leader_follower.h"
#include "common/thread_pool.h"
#include "core/engine_metrics.h"
#include "core/engine_snapshot.h"
#include "core/query_processor.h"
#include "core/scuba_engine.h"
#include "core/scuba_options.h"
#include "obs/telemetry.h"
#include "shard/engine_shard.h"
#include "shard/shard_router.h"
#include "shard/shard_supervisor.h"

namespace scuba {

class ShardedEngine : public QueryProcessor {
 public:
  /// Validates options and builds a coordinator with options.shards stripes
  /// (shards == 1: one stripe owning the whole map).
  static Result<std::unique_ptr<ShardedEngine>> Create(
      const ScubaOptions& options);

  std::string_view name() const override { return "scuba"; }
  Status IngestObjectUpdate(const LocationUpdate& update) override;
  Status IngestQueryUpdate(const QueryUpdate& update) override;
  /// Batched ingest: the whole batch is validated up front (strict rejects
  /// it, quarantine drops the bad tuples), then replayed serially in delivery
  /// order — bit-identical to the per-update calls by construction.
  Status IngestBatch(std::span<const LocationUpdate> objects,
                     std::span<const QueryUpdate> queries) override;
  Status Evaluate(Timestamp now, ResultSet* results) override;
  size_t EstimateMemoryUsage() const override;

  /// Unified stats aggregate: join counters are the sum over shards, shedder
  /// state is shard 0's.
  EngineSnapshotStats StatsSnapshot() const;

  const ScubaOptions& options() const { return options_; }
  const ShardRouter& router() const { return router_; }
  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }
  const EngineShard& shard(uint32_t s) const { return *shards_[s]; }
  /// Coordinator store: cluster-id allocator + the paper's Objects/Queries
  /// attr tables. Holds no clusters — those live in the shard stores.
  const ClusterStore& meta_store() const { return meta_; }

  /// Total clusters across all shard stores.
  size_t ClusterCount() const;
  /// All cluster ids across all shard stores, ascending (the global
  /// enumeration the serial phases walk).
  std::vector<ClusterId> GlobalSortedClusterIds() const;

  /// Ownership migrations performed by the post-join handoff step so far.
  uint64_t handoffs() const { return handoffs_; }
  /// Ghost copies published across all shards so far.
  uint64_t ghosts_published() const { return ghosts_published_; }
  /// --rebalance=observe: recommendations issued so far, and the latest one
  /// ("" when none yet).
  uint64_t rebalance_recommendations() const { return recommendations_; }
  const std::string& last_recommendation() const {
    return last_recommendation_;
  }

  /// Observability; non-null iff options.telemetry.Enabled().
  EngineTelemetry* telemetry() { return telemetry_.get(); }
  Status FlushTelemetry();

  /// Writes one complete manifest-committed checkpoint of the sharded state
  /// into `dir` (per-shard snapshots first, manifest last). Stand-alone
  /// convenience; runs with a durable directory should use
  /// ShardedDurabilityManager instead. Declared here, defined in
  /// shard_durability.cc.
  Status Checkpoint(const std::string& dir);
  /// Restores from the NEWEST manifest in `dir` only — no silent fallback to
  /// older generations (RecoverShardedEngine implements the explicit-fallback
  /// policy). A checkpoint taken at any shard count restores into this
  /// engine's layout; a directory in the retired single-engine layout is
  /// kFailedPrecondition.
  Status Restore(const std::string& dir);

  // --- Shard supervision (docs/ARCHITECTURE.md §13) ---

  /// Non-null iff options.supervision.Enabled() at Create time. Supervised
  /// rounds wrap each shard's join task in a failure barrier, serve degraded
  /// results for quarantined stripes, and run online recovery between rounds.
  ShardSupervisor* supervisor() { return supervisor_.get(); }
  const ShardSupervisor* supervisor() const { return supervisor_.get(); }

  /// Full-engine invariant audit: the union of AuditShardStripe over every
  /// stripe (counters summed, violations concatenated up to the report cap).
  /// Evaluate runs it every options.audit_every_n_rounds rounds and heals a
  /// dirty result by rebuilding every stripe grid from the stores.
  InvariantAuditReport AuditInvariants() const;
  /// Scoped audit of one stripe: the per-cluster store checks (member index,
  /// radius coverage, registered bounds) over the stripe's own clusters, plus the
  /// stripe's grid mirror — every registered cluster (any owner) whose
  /// circle touches the stripe must appear in its grid under the full global
  /// cell list, no cluster that touches it nowhere may, and no key may be an
  /// orphan. Self-blaming: damage to stripe s's grid is reported by
  /// AuditShardStripe(s) regardless of which stripe owns the damaged
  /// cluster. Read-only; safe from worker tasks during the join phase.
  InvariantAuditReport AuditShardStripe(uint32_t shard) const;

  /// Online per-stripe recovery hook, wired by callers owning a durable
  /// directory (the CLI wires RecoverShardStripe). Recovery probes run
  /// without it; only a stripe whose audit stays dirty needs the rebuild —
  /// absent the hook such a stripe fails its attempts and is evicted.
  using StripeRecoveryFn = std::function<Status(ShardedEngine*, uint32_t)>;
  void set_stripe_recovery(StripeRecoveryFn fn) {
    stripe_recovery_ = std::move(fn);
  }
  /// Invoked after a reassign eviction reshards the engine, so the
  /// durability manager can realign its WAL chains and force a checkpoint
  /// under the new layout.
  using LayoutChangedFn = std::function<Status()>;
  void set_on_layout_changed(LayoutChangedFn fn) {
    on_layout_changed_ = std::move(fn);
  }

 private:
  friend struct PersistAccess;
  friend class ShardedEngineAuditPeer;  ///< Test back door: deliberate desync.
  ShardedEngine(const ScubaOptions& options, ShardRouter router);

  const EvalStats& stats() const override { return stats_; }

  /// Mirror of LeaderFollowerClusterer::ProcessUpdate over the shard set:
  /// same decision sequence, same counters, with HomeOf/GetCluster resolved
  /// across shard stores and grid syncs fanned out to every touched stripe.
  Status ReplayUpdate(EntityKind kind, const LocationUpdate* obj,
                      const QueryUpdate* qry);

  /// Lowest compatible cid near `position` (mirror of the clusterer's
  /// FindCompatibleCluster; identical choice because stripe-local cell entry
  /// sets equal the single grid's). `*owner_out` receives the owning shard.
  ClusterId FindCompatibleCluster(Point position, double speed, NodeId dest,
                                  EngineShard** owner_out);

  /// HomeOf across all shard stores (at most one shard knows any entity).
  ClusterId HomeOfAnywhere(EntityRef ref, EngineShard** owner_out);
  MovingCluster* GetClusterAnywhere(ClusterId cid, EngineShard** owner_out);
  const MovingCluster* GetClusterAnywhere(ClusterId cid) const;
  bool AnyGridContains(ClusterId cid) const;

  /// Mirror of SyncClusterGrid against the union of shard grids: plans with
  /// the exact single-engine float semantics, then registers the padded
  /// circle in every stripe it touches and removes it from the rest.
  Status SyncAllGrids(MovingCluster* cluster);
  /// Applies a planned registration: Insert/Update in touched stripes,
  /// Remove elsewhere.
  Status ApplyRegistration(ClusterId cid, const Circle& padded);
  Status RemoveFromAllGrids(ClusterId cid);

  /// The shard owning a fresh/migrated cluster: the stripe containing its
  /// registered circle's center (always one of its registered cells).
  EngineShard* OwnerShardFor(const MovingCluster& cluster) {
    return shards_[router_.ShardOfPoint(cluster.registered_bounds().center)]
        .get();
  }

  /// One shard's join task: rebuild ghosts, run the scoped join over the
  /// stripe's cell window. Reads neighbor stores (immutable during the join
  /// phase), writes only shard-local state.
  Status RunShardJoin(EngineShard& shard);

  /// Phase 3 across shards: per-shard parallel upkeep compute, serial
  /// cid-ordered apply, serial cid-ordered ownership handoff, per-shard
  /// shedder feedback. `*timings` (nullable) receives the per-sub-step split
  /// summed over shards; null skips every extra clock read.
  Status PostJoinMaintenance(Timestamp now, double* worker_seconds,
                             PostJoinTimings* timings);
  Status SplitOversizedClusters();
  Status MigrateOwnership();

  /// Periodic audit hook (audit_every_n_rounds): audits every stripe and, on
  /// violations, rebuilds every grid from the stores and audits again.
  /// kCorruption if still dirty — the divergence is in a store itself.
  Status AuditAndHeal();
  /// Clears every stripe grid and re-registers each stored cluster from
  /// scratch (fresh padded bounds, global cid order). Heals grid-side
  /// divergence; store-side damage keeps failing the audit.
  Status RebuildGridsFromStores();

  /// --rebalance=observe: compares per-shard load (join comparisons, falling
  /// back to cluster counts) and logs a recommended stripe split when the
  /// max/mean imbalance exceeds the threshold.
  void ObserveBalance();

  /// Serial, pre-join: applies this round's kCorruptState injections by
  /// dropping a border cluster from the victim stripe's grid mirror (caught
  /// by the supervised task's stripe audit; post-join runs unmodified).
  void ApplyInjectedCorruption();
  /// End-of-round: runs every due recovery attempt. A stripe that exhausts
  /// its attempt budget is evicted — under kReassign by resharding the
  /// engine to one fewer stripe, otherwise in place.
  Status RunScheduledRecoveries();
  /// One recovery attempt: injected-failure check, audit probe, then (only
  /// if the audit is dirty) the durable rebuild hook plus a verify audit.
  Status AttemptStripeRecovery(uint32_t shard);
  /// Reassign eviction: restripes the whole engine to shard_count()-1
  /// stripes through the shard-snapshot serializer (the same N->M routing
  /// the reshard-on-restore path uses), then resets supervision state and
  /// fires the layout-changed hook.
  Status EvictShard(uint32_t victim);

  ThreadPool* JoinPool();
  void InstallTelemetry(std::unique_ptr<EngineTelemetry> telemetry);
  /// Points every stripe's join executor and shedder at the registry (again
  /// after a reshard builds fresh stripes).
  void AttachShardTelemetry();
  void PushTelemetryDeltas();
  void TelemetryEnsureRound() {
    if (telemetry_ != nullptr) telemetry_->EnsureRound(stats_.evaluations + 1);
  }

  ScubaOptions options_;
  ShardRouter router_;
  std::vector<std::unique_ptr<EngineShard>> shards_;
  /// Id allocator + attr tables only; never holds clusters.
  ClusterStore meta_;
  EvalStats stats_;
  ScubaPhaseStats phase_stats_;
  ClustererStats clusterer_stats_;
  uint32_t resolved_join_threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;
  double pending_prejoin_seconds_ = 0.0;
  double pending_prejoin_worker_seconds_ = 0.0;
  double last_handoff_seconds_ = 0.0;
  uint64_t handoffs_ = 0;
  uint64_t ghosts_published_ = 0;
  uint64_t recommendations_ = 0;
  std::string last_recommendation_;

  /// Null unless options.supervision.Enabled() at Create time.
  std::unique_ptr<ShardSupervisor> supervisor_;
  StripeRecoveryFn stripe_recovery_;
  LayoutChangedFn on_layout_changed_;

  /// Scratch buffers reused across grid mirror operations.
  std::vector<uint32_t> scratch_cells_;
  std::vector<char> scratch_touched_;

  std::unique_ptr<EngineTelemetry> telemetry_;
  EngineMetrics engine_metrics_;
  struct ShardMetrics {
    Counter handoffs;
    Counter ghosts;
    Counter recommendations;
    Counter shard_failures;
    Counter shard_recoveries;
    Counter shard_evictions;
    Counter degraded_rounds;
    Gauge shards;
    /// One per stripe of the ORIGINAL layout: 0 healthy, 1 degraded,
    /// 2 recovering, 3 evicted. Indices beyond the current layout (after a
    /// reassign reshard) report 3 — that stripe identity is gone.
    std::vector<Gauge> shard_health;
  } metrics_;
  struct TelemetryBaseline {
    uint64_t handoffs = 0;
    uint64_t ghosts = 0;
    uint64_t recommendations = 0;
    uint64_t shard_failures = 0;
    uint64_t shard_recoveries = 0;
    uint64_t shard_evictions = 0;
    uint64_t degraded_rounds = 0;
  } pushed_;
};

/// EngineStateHash for the production engine (persist/snapshot.h),
/// assembled from the meta store and the per-shard stores/grids. Equal
/// hashes across shard counts — and with the reference ScubaEngine — are the
/// determinism matrix's acceptance bar.
uint64_t EngineStateHash(const ShardedEngine& engine);

}  // namespace scuba

#endif  // SCUBA_SHARD_SHARDED_ENGINE_H_
