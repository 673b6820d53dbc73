// Durability for the ScubaEngine: manifest-committed checkpoints, one WAL
// and crash-consistent recovery (docs/ARCHITECTURE.md §12).
//
// Directory layout under one durable root:
//
//   manifest-<generation>.scubamf      committed checkpoint generations
//   wal/ wal-<first_seq>.log           the root's one WAL
//   shard-0000/ snapshot-<gen>.scuba   the engine's state at each generation
//
// Logging: each admitted batch is appended whole to the one WAL as a single
// record, in delivery order, with one fsync — join windows split the
// engine's work, not its history, so the window count never reaches the log.
//
// Checkpointing is two-phase: the snapshot is written and fsynced first, the
// manifest renames into place last. The manifest is the commit point —
// recovery only trusts artifacts a readable manifest references (checked by
// CRC and by the payload hash recorded in the manifest), falling back
// generation by generation past torn ones.
//
// Older builds wrote one snapshot entry per shard (shard-0000/ ...
// shard-NNNN/) under the same manifest and payload formats. Recovery still
// reads them: every entry's clusters join the one store. Windows are
// recomputed from the options, so any window count recovers any generation.

#ifndef SCUBA_SHARD_SHARD_DURABILITY_H_
#define SCUBA_SHARD_SHARD_DURABILITY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/scuba_engine.h"
#include "persist/crash.h"
#include "persist/manifest.h"
#include "persist/wal.h"
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
  /// resumes after its last intact record (a torn tail is truncated away).
  /// A retired layout is kFailedPrecondition. All pointers are unowned and
  /// must outlive the manager; `validator` / `rng` (nullable) join every
  /// checkpoint's coordinator state; `crash` (nullable) arms injection
  /// across the append and checkpoint paths.
  static Result<std::unique_ptr<ShardedDurabilityManager>> Open(
      const std::string& dir, const CheckpointPolicy& policy,
      ScubaEngine* engine, UpdateValidator* validator, Rng* rng,
      CrashInjector* crash);

  /// DurabilitySink: appends the batch as one fsynced WAL record and, once
  /// it is durable, counts the record, its fsync and its bytes in the
  /// engine's EvalStats.
  Status LogBatch(Timestamp batch_time, bool evaluate_after,
                  std::span<const LocationUpdate> objects,
                  std::span<const QueryUpdate> queries) override;

  /// DurabilitySink: counts the round and checkpoints on the policy cadence.
  Status OnRoundComplete() override;

  /// Writes a checkpoint generation right now: the snapshot, then the
  /// manifest, then prune (retention counts manifest GENERATIONS; no
  /// snapshot or WAL segment a retained manifest references is ever deleted).
  Status ForceCheckpoint();

  /// Sequence number the next LogBatch stamps on its record.
  uint64_t next_seq() const { return wal_->next_seq(); }
  const std::string& dir() const { return dir_; }
  /// Generation the next checkpoint will commit.
  uint64_t next_generation() const { return next_generation_; }

 private:
  ShardedDurabilityManager(std::string dir, const CheckpointPolicy& policy,
                           ScubaEngine* engine, UpdateValidator* validator,
                           Rng* rng, CrashInjector* crash)
      : dir_(std::move(dir)),
        policy_(policy),
        engine_(engine),
        validator_(validator),
        rng_(rng),
        crash_(crash) {}

  /// Deletes manifests beyond keep_last_k generations, then every snapshot
  /// no retained manifest references (older per-shard layouts' directories
  /// included), orphaned temp files, and the WAL segments wholly below every
  /// retained manifest's wal_next_seq.
  Status Prune();

  std::string dir_;
  CheckpointPolicy policy_;
  ScubaEngine* engine_;
  UpdateValidator* validator_;  ///< Nullable.
  Rng* rng_;                    ///< Nullable.
  CrashInjector* crash_;        ///< Nullable.
  std::unique_ptr<WalWriter> wal_;
  uint64_t next_generation_ = 1;
  uint32_t rounds_since_checkpoint_ = 0;
};

/// What RecoverShardedEngine reconstructed and from where.
struct ShardedRecoveryReport {
  std::string manifest_path;  ///< Empty when no manifest was usable.
  uint64_t generation = 0;    ///< Generation recovered from (0 = none).
  /// Snapshot entries in the recovered generation (1; older builds wrote one
  /// per shard).
  uint64_t manifest_shards = 0;
  uint64_t engine_shards = 0;    ///< Join windows of the recovering engine.
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
  /// Damage tolerated along the way (torn manifests, hash-mismatched
  /// snapshots, a torn WAL tail).
  std::vector<std::string> data_loss;

  std::string ToString() const;
  /// One JSON object (stable key order) for `scuba_cli recover --json`.
  std::string ToJson() const;
};

/// Rebuilds `engine` (and optionally `validator` / `rng`) from a durable
/// root: picks the newest manifest whose every referenced artifact verifies
/// (CRC + recorded payload hash), falling back generation by generation past
/// kDataLoss; loads the chosen generation into the engine; then replays every
/// WAL record at or past the checkpoint's sequence, re-evaluating at the
/// recorded round boundaries and feeding `sink` (nullable). The engine must
/// be freshly created with the SAME semantic options as the original run
/// (kFailedPrecondition on fingerprint mismatch); its window count is free. A
/// WAL whose records skip past the checkpoint's sequence is kDataLoss; a
/// retired layout is kFailedPrecondition.
Result<ShardedRecoveryReport> RecoverShardedEngine(
    const std::string& dir, ScubaEngine* engine, UpdateValidator* validator,
    Rng* rng, const ResultSink& sink = nullptr);

/// Online recovery of a failed join window (docs/ARCHITECTURE.md §13):
/// recovers a pristine twin engine from `dir` (same semantic options;
/// supervision and telemetry stripped), checks that the twin caught up to
/// the live engine's round count (kFailedPrecondition when the durable root
/// lags — e.g. rounds ran without being logged), then replaces the live
/// engine's whole store and grid (plus join counters and shedder state) with
/// the twin's. `window` only names the failure in errors. `validator_config`
/// (nullable) must echo the run's screening config when the root's
/// checkpoints carry validator state (LoadCoordinatorState rejects a
/// validator-bearing payload otherwise). Wired as
/// ScubaEngine::set_stripe_recovery by callers owning a durable directory.
Status RecoverShardStripe(const std::string& dir, ScubaEngine* engine,
                          uint32_t window,
                          const ValidatorConfig* validator_config);

}  // namespace scuba

#endif  // SCUBA_SHARD_SHARD_DURABILITY_H_
