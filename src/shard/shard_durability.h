// Sharded durability: manifest-committed checkpoints, one WAL and
// crash-consistent recovery for ShardedEngine (docs/ARCHITECTURE.md §12).
//
// Directory layout under one durable root:
//
//   manifest-<generation>.scubamf      committed checkpoint generations
//   wal/ wal-<first_seq>.log           the root's one WAL
//   shard-0000/ snapshot-<gen>.scuba   that shard's state at each generation
//   shard-0001/ ...
//
// Logging: each admitted batch is appended whole to the one WAL as a single
// record, in delivery order, with one fsync — stripes partition the engine's
// work, not its history, so the shard count never reaches the log.
//
// Checkpointing is two-phase: every shard's snapshot is written and fsynced
// first, the manifest renames into place last. The manifest is the commit
// point — recovery only trusts artifacts a readable manifest references
// (checked by CRC and by the per-shard payload hash recorded in the
// manifest), falling back generation by generation past torn ones.
//
// Re-partition on recovery: a checkpoint taken at N shards restores into an
// M-shard engine — clusters route to the recovering layout's stripes, and
// the WAL replays unchanged. On the next Open, a layout change forces an
// immediate checkpoint so a new manifest commits the M-shard layout before
// any new batch is logged.

#ifndef SCUBA_SHARD_SHARD_DURABILITY_H_
#define SCUBA_SHARD_SHARD_DURABILITY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "persist/crash.h"
#include "persist/manifest.h"
#include "persist/wal.h"
#include "shard/sharded_engine.h"
#include "stream/pipeline.h"
#include "stream/update_validator.h"

namespace scuba {

/// The engine's durability sink: one durable root, one WAL,
/// manifest-committed checkpoints per CheckpointPolicy. With engine telemetry
/// on, appends land in the round's checkpoint.wal span and checkpoints in
/// checkpoint.snapshot.
class ShardedDurabilityManager : public DurabilitySink {
 public:
  /// Opens (creating if needed) the durable root for `engine`: the WAL
  /// resumes after its last intact record (a torn tail is truncated away)
  /// and, when the newest committed manifest's shard layout differs from the
  /// engine's, an immediate checkpoint commits the new layout before any
  /// append is accepted. A retired layout is kFailedPrecondition. All
  /// pointers are unowned and must outlive the manager; `validator` / `rng`
  /// (nullable) join every checkpoint's coordinator state; `crash`
  /// (nullable) arms injection across the append and checkpoint paths.
  static Result<std::unique_ptr<ShardedDurabilityManager>> Open(
      const std::string& dir, const CheckpointPolicy& policy,
      ShardedEngine* engine, UpdateValidator* validator, Rng* rng,
      CrashInjector* crash);

  /// DurabilitySink: appends the batch as one fsynced WAL record, then
  /// mirrors the WAL counters into the engine's EvalStats.
  Status LogBatch(Timestamp batch_time, bool evaluate_after,
                  std::span<const LocationUpdate> objects,
                  std::span<const QueryUpdate> queries) override;

  /// DurabilitySink: counts the round and checkpoints on the policy cadence.
  Status OnRoundComplete() override;

  /// Writes a checkpoint generation right now: per-shard snapshots, then the
  /// manifest, then prune (retention counts manifest GENERATIONS; no shard
  /// snapshot or WAL segment a retained manifest references is ever deleted).
  Status ForceCheckpoint();

  /// The engine resharded in place (a reassign eviction dropped a stripe):
  /// forces a checkpoint so a manifest commits the new layout before any
  /// further append. Online stripe recovery rebuilds a stripe from a twin
  /// recovered at the live layout, and a restore across layouts keeps only
  /// summed per-stripe counters. Wired as
  /// ShardedEngine::set_on_layout_changed.
  Status OnLayoutChanged();

  /// Sequence number the next LogBatch stamps on its record.
  uint64_t next_seq() const { return wal_->next_seq(); }
  const std::string& dir() const { return dir_; }
  /// Generation the next checkpoint will commit.
  uint64_t next_generation() const { return next_generation_; }

 private:
  ShardedDurabilityManager(std::string dir, const CheckpointPolicy& policy,
                           ShardedEngine* engine, UpdateValidator* validator,
                           Rng* rng, CrashInjector* crash)
      : dir_(std::move(dir)),
        policy_(policy),
        engine_(engine),
        validator_(validator),
        rng_(rng),
        crash_(crash) {}

  /// Deletes manifests beyond keep_last_k generations, then every shard
  /// snapshot no retained manifest references (extinct layouts' shard
  /// directories included), orphaned temp files, and the WAL segments
  /// wholly below every retained manifest's wal_next_seq.
  Status Prune();

  std::string dir_;
  CheckpointPolicy policy_;
  ShardedEngine* engine_;
  UpdateValidator* validator_;  ///< Nullable.
  Rng* rng_;                    ///< Nullable.
  CrashInjector* crash_;        ///< Nullable.
  std::unique_ptr<WalWriter> wal_;
  uint64_t next_generation_ = 1;
  /// Engine WAL counters at Open time; the writer's counters add onto these.
  uint64_t base_wal_records_ = 0;
  uint64_t base_wal_fsyncs_ = 0;
  uint64_t base_wal_bytes_ = 0;
  uint32_t rounds_since_checkpoint_ = 0;
};

/// What RecoverShardedEngine reconstructed and from where.
struct ShardedRecoveryReport {
  std::string manifest_path;  ///< Empty when no manifest was usable.
  uint64_t generation = 0;    ///< Generation recovered from (0 = none).
  uint64_t manifest_shards = 0;  ///< Shard layout the checkpoint was taken at.
  uint64_t engine_shards = 0;    ///< Layout restored into.
  uint64_t base_seq = 0;         ///< Checkpoint's wal_next_seq.
  uint64_t snapshot_rounds = 0;
  uint64_t batches_replayed = 0;  ///< WAL records re-ingested.
  uint64_t rounds_replayed = 0;
  /// First global sequence number NOT applied: a trace resumes here.
  uint64_t next_seq = 0;
  /// Manifest generations skipped as unreadable before one committed cleanly.
  uint64_t generations_skipped = 0;
  /// True when the WAL ended in a torn frame (crash mid-append); the torn
  /// batch was never acknowledged and is not replayed.
  bool any_torn_tail = false;
  /// Damage tolerated along the way (torn manifests, hash-mismatched shard
  /// snapshots, a torn WAL tail).
  std::vector<std::string> data_loss;

  std::string ToString() const;
  /// One JSON object (stable key order) for `scuba_cli recover --json`.
  std::string ToJson() const;
};

/// Rebuilds `engine` (and optionally `validator` / `rng`) from a sharded
/// durable root: picks the newest manifest whose every referenced artifact
/// verifies (CRC + recorded payload hash), falling back generation by
/// generation past kDataLoss; routes the chosen generation's clusters into
/// the engine's CURRENT shard layout; then replays every WAL record at or
/// past the checkpoint's sequence, re-evaluating at the recorded round
/// boundaries and feeding `sink` (nullable). The engine must be freshly
/// created with the SAME semantic options as the original run
/// (kFailedPrecondition on fingerprint mismatch). A WAL whose records skip
/// past the checkpoint's sequence is kDataLoss; a retired layout is
/// kFailedPrecondition.
Result<ShardedRecoveryReport> RecoverShardedEngine(
    const std::string& dir, ShardedEngine* engine, UpdateValidator* validator,
    Rng* rng, const ResultSink& sink = nullptr);

/// Online per-stripe recovery (docs/ARCHITECTURE.md §13): rebuilds stripe
/// `shard` of the LIVE `engine` from the durable root, between rounds,
/// without touching the other stripes' stores. Recovers a pristine twin
/// engine from `dir` (same semantic options; supervision and telemetry
/// stripped), checks that the twin caught up to the live engine's round count
/// (kFailedPrecondition when the durable root lags — e.g. rounds ran without
/// being logged), then transplants the twin's stripe via
/// PersistAccess::ReplaceShardStripe. `validator_config` (nullable) must echo
/// the run's screening config when the root's checkpoints carry validator
/// state (LoadShardedCoordinatorState rejects a validator-bearing payload
/// otherwise). Wired as ShardedEngine::set_stripe_recovery by callers owning
/// a durable directory.
Status RecoverShardStripe(const std::string& dir, ShardedEngine* engine,
                          uint32_t shard,
                          const ValidatorConfig* validator_config);

}  // namespace scuba

#endif  // SCUBA_SHARD_SHARD_DURABILITY_H_
