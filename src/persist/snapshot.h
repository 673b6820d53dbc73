// Snapshot files: versioned, checksummed containers for one shard's engine
// state at a checkpoint generation (docs/ARCHITECTURE.md §8, §12).
//
// File layout (all integers little-endian):
//
//   magic "SCUBSNP1" (8 bytes) | version u32 | payload_len u64
//   payload (payload_len bytes) | crc32(payload) u32
//
// Every payload starts with the SnapshotMeta fields (ScubaOptions
// fingerprint, the WAL sequence number the snapshot is consistent as of, the
// evaluation-round count); the rest is the shard's clusters, counters and
// shedder state (PersistAccess::SerializeShardSnapshot). Every double is
// persisted as its IEEE-754 bit pattern, so a restored engine is
// *bit-identical* to the checkpointed one: same digests, same future results.
//
// Restore re-registers each cluster in the grids from its saved
// registered_bounds in ascending cid order. Grid cell placement is a pure
// function of those bounds (GridIndex::CellsForCircle) and cell-entry order
// is unobservable by contract (FindCompatibleCluster picks the lowest cid;
// the join's owner-cell rule sorts), so this reproduces the grid exactly as
// far as any downstream computation can tell.

#ifndef SCUBA_PERSIST_SNAPSHOT_H_
#define SCUBA_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/serializer.h"
#include "core/scuba_engine.h"
#include "stream/update_validator.h"

namespace scuba {

class ShardedEngine;  // src/shard; persist never links it.

/// Descriptive header fields of a snapshot payload.
struct SnapshotMeta {
  uint64_t options_fingerprint = 0;
  /// First WAL sequence number NOT reflected in the snapshot: recovery
  /// replays WAL records with seq >= wal_next_seq.
  uint64_t wal_next_seq = 0;
  /// Evaluation rounds completed at snapshot time.
  uint64_t rounds = 0;
};

/// Fingerprint of the *semantic* engine options: every field that can change
/// results. join_threads / ingest_threads / shards / the checkpoint policy
/// are excluded — results are bit-identical across them by the parallel
/// executors' contract, so a snapshot taken at threads=4 restores cleanly
/// into a threads=1 engine (and the crash harness relies on exactly that).
uint64_t OptionsFingerprint(const ScubaOptions& options);

/// "snapshot-<seq, zero-padded>.scuba" — lexicographic order == seq order.
std::string SnapshotFileName(uint64_t wal_next_seq);

/// All snapshot files in `dir` as (wal_next_seq, full path), ascending seq.
/// An unreadable directory is IoError; an empty/missing one is an empty list.
Result<std::vector<std::pair<uint64_t, std::string>>> ListSnapshots(
    const std::string& dir);

/// Writes header + payload + CRC to `dir`/SnapshotFileName(seq) atomically
/// (temp file, fsync, rename, directory fsync). Returns the total file size
/// via `*bytes_written` (nullable).
Status WriteSnapshotFile(const std::string& dir, uint64_t wal_next_seq,
                         const std::string& payload, uint64_t* bytes_written);

/// Reads a snapshot file and verifies magic, version, length and CRC.
/// kDataLoss on any mismatch or truncation; the payload otherwise.
Result<std::string> ReadSnapshotPayload(const std::string& path);

/// Parses only the leading meta fields of a verified payload.
Result<SnapshotMeta> PeekSnapshotMeta(const std::string& payload);

/// FNV-1a 64 hash over the engine's *deterministic* state — the cluster
/// store (clusters, members in order, attr tables) and grid registrations,
/// excluding wall-clock timing stats. Two engines with equal hashes are
/// indistinguishable to every later round; a recovered engine must hash
/// equal to the uninterrupted one (the CLI prints this for the CI smoke).
/// The reference engine hashes as a one-stripe ShardedStateHash, so it and
/// the production engine agree whenever their states do.
uint64_t EngineStateHash(const ScubaEngine& engine);

/// EngineStateHash over a spatially sharded engine: the same FNV-1a 64 over
/// the same byte layout, assembled from the coordinator's meta store (id
/// allocator + attr tables) and the per-shard cluster stores and grids
/// (src/shard). A sharded engine in the same logical state as a single
/// engine hashes equal — the sharded determinism contract's hash basis
/// (docs/ARCHITECTURE.md §11).
uint64_t ShardedStateHash(const ClusterStore& meta,
                          const std::vector<const ClusterStore*>& stores,
                          const std::vector<const GridIndex*>& grids);

/// Serialization back doors into the private state of the engine's
/// components. Befriended by ShardedEngine, ClusterStore, MovingCluster,
/// LoadShedder, ClusterJoinExecutor, UpdateValidator and QuarantineLog;
/// everything durable flows through these static helpers so the friend
/// surface stays in one place.
struct PersistAccess {
  /// The deterministic store state EngineStateHash covers, assembled from an
  /// engine's parts: meta store (id allocator, attr tables) + per-stripe
  /// stores and grids. Clusters serialize in globally ascending cid order;
  /// the registered flag is true when any grid holds the cluster.
  static void SaveShardedStoreState(const ClusterStore& meta,
                                    const std::vector<const ClusterStore*>& stores,
                                    const std::vector<const GridIndex*>& grids,
                                    ByteWriter* w);
  static void SaveCluster(const MovingCluster& cluster, ByteWriter* w);
  static Result<MovingCluster> LoadCluster(ByteReader* r);
  static void SaveValidatorState(const UpdateValidator& v, ByteWriter* w);
  static Status LoadValidatorState(ByteReader* r, UpdateValidator* v);
  /// WAL replay: an admitted tuple advances the validator's per-entity
  /// last-timestamp floor exactly as the original screening did.
  static void NoteAdmitted(UpdateValidator* v, EntityKind kind, uint32_t id,
                           Timestamp time);

  /// The coordinator-state blob's EvalStats section (fixed field order).
  static void SaveEvalStats(const EvalStats& stats, ByteWriter* w);
  static Status LoadEvalStats(ByteReader* r, EvalStats* stats);

  // --- Sharded durability (defined in src/shard/shard_durability.cc; the
  // persist library declares but never links them — only binaries linking
  // scuba_shard resolve these). ---

  /// One shard's snapshot payload: the PeekSnapshotMeta header (fingerprint,
  /// wal_next_seq, rounds), the saved shard layout, the shard store's
  /// clusters with their grid-registration flags, and the shard's join
  /// counters / shedder state.
  static std::string SerializeShardSnapshot(const ShardedEngine& engine,
                                            uint32_t shard_index,
                                            uint64_t wal_next_seq,
                                            uint64_t rounds);
  /// Applies one shard snapshot payload into `engine`'s CURRENT layout:
  /// every cluster routes to the stripe owning its registered center, so an
  /// N-shard checkpoint restores into an M-shard engine (re-partition on
  /// recovery). Per-shard counters/shedder state restore in place when the
  /// layouts match; under a re-partition the counters accumulate onto shard 0
  /// (sums — the observable aggregate — are preserved) and shard 0's saved
  /// shedder state seeds every stripe.
  static Status ApplyShardSnapshot(const std::string& payload,
                                   ShardedEngine* engine);
  /// Online stripe transplant (docs/ARCHITECTURE.md §13): replaces stripe
  /// `shard`'s store slice and grid mirror with the clusters of a shard
  /// snapshot payload (taken from a recovered twin at the same layout),
  /// leaving every other stripe's store untouched. Drops the stripe's own
  /// clusters from every grid, wipes the stripe's grid outright (corrupt
  /// residue included), applies the payload, then re-registers the other
  /// stripes' clusters so the stripe's mirror entries for neighbor-owned
  /// border clusters come back.
  static Status ReplaceShardStripe(ShardedEngine* engine, uint32_t shard,
                                   const std::string& payload);
  /// Coordinator state: meta store (id allocator + attr tables), aggregate
  /// EvalStats / phase / clusterer stats, handoff + ghost + rebalance
  /// counters, and optional validator / rng sections — everything durable
  /// that lives outside the shard stores.
  static void SaveShardedCoordinatorState(const ShardedEngine& engine,
                                          const UpdateValidator* validator,
                                          const Rng* rng, ByteWriter* w);
  static Status LoadShardedCoordinatorState(ByteReader* r,
                                            ShardedEngine* engine,
                                            UpdateValidator* validator,
                                            Rng* rng);
  /// Durability counters live in the engine's EvalStats; the manager and
  /// recovery update them through this accessor.
  static EvalStats* MutableShardedStats(ShardedEngine* engine);
};

}  // namespace scuba

#endif  // SCUBA_PERSIST_SNAPSHOT_H_
