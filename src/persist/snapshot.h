// Snapshot files: versioned, checksummed containers for the engine's state
// at a checkpoint generation (docs/ARCHITECTURE.md §8, §12).
//
// File layout (all integers little-endian):
//
//   magic "SCUBSNP1" (8 bytes) | version u32 | payload_len u64
//   payload (payload_len bytes) | crc32(payload) u32
//
// Every payload starts with the SnapshotMeta fields (ScubaOptions
// fingerprint, the WAL sequence number the snapshot is consistent as of, the
// evaluation-round count); the rest is the engine's clusters, join counters
// and shedder state (PersistAccess::SerializeEngineSnapshot). Every double is
// persisted as its IEEE-754 bit pattern, so a restored engine is
// *bit-identical* to the checkpointed one: same digests, same future results.
//
// Restore re-registers each cluster in the grid from its saved
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
/// results. join_threads / ingest_threads / shards (join windows) /
/// supervision / the checkpoint policy are excluded — results are bit-identical across them by the parallel
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
/// store (id allocator, attr tables, clusters with members in order) and
/// grid registrations, excluding wall-clock timing stats. Two engines with
/// equal hashes are indistinguishable to every later round; a recovered
/// engine must hash equal to the uninterrupted one (the CLI prints this for
/// the CI smoke). The byte layout predates join windows, so hashes compare
/// across versions and window counts.
uint64_t EngineStateHash(const ScubaEngine& engine);

/// Serialization back doors into the private state of the engine's
/// components. Befriended by ScubaEngine, ClusterStore, MovingCluster,
/// LeaderFollowerClusterer, LoadShedder, ClusterJoinExecutor,
/// UpdateValidator and QuarantineLog; everything durable flows through these
/// static helpers so the friend surface stays in one place.
struct PersistAccess {
  /// The deterministic store state EngineStateHash covers: id allocator,
  /// attr tables, then every cluster in ascending cid order followed by a
  /// flag telling whether `grid` holds it.
  static void SaveStoreState(const ClusterStore& store, const GridIndex& grid,
                             ByteWriter* w);
  /// The ObjectsTable then the QueriesTable as (id, attrs) rows ascending by
  /// id (ClusterStore::SortedAttrRows), so the bytes do not depend on the
  /// store's slot order.
  static void SaveAttrTables(const ClusterStore& store, ByteWriter* w);
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

  // --- Engine durability (defined in src/shard/shard_durability.cc; the
  // persist library declares but never links them — only binaries linking
  // scuba_shard resolve these). ---

  /// The generation's snapshot payload: the PeekSnapshotMeta header
  /// (fingerprint, wal_next_seq, rounds), the entry index and entry count
  /// (always 0 of 1 now), the clusters with their grid-registration flags,
  /// and the join counters / shedder state.
  static std::string SerializeEngineSnapshot(const ScubaEngine& engine,
                                             uint64_t wal_next_seq,
                                             uint64_t rounds);
  /// Applies one snapshot payload into `engine`: its clusters join the
  /// store (and the grid, when flagged) and its join counters add onto the
  /// engine's. The shedder state comes from entry 0. Older generations wrote
  /// one entry per shard; applying each of them in turn merges them into the
  /// one store.
  static Status ApplyEngineSnapshot(const std::string& payload,
                                    ScubaEngine* engine);
  /// Online recovery (docs/ARCHITECTURE.md §13): replaces `live`'s store,
  /// grid, join counters and shedder state with `twin`'s — a twin recovered
  /// from the durable root to the same round.
  static void AdoptEngineState(const ScubaEngine& twin, ScubaEngine* live);
  /// Coordinator state: id allocator + attr tables, EvalStats / phase /
  /// clusterer stats, retired shard counters (written as 0), and optional
  /// validator / rng sections — everything durable outside the snapshot.
  static void SaveCoordinatorState(const ScubaEngine& engine,
                                   const UpdateValidator* validator,
                                   const Rng* rng, ByteWriter* w);
  /// Wipes the engine's durable state, then loads the coordinator blob.
  static Status LoadCoordinatorState(ByteReader* r, ScubaEngine* engine,
                                     UpdateValidator* validator, Rng* rng);
  /// Durability counters live in the engine's EvalStats; the manager and
  /// recovery update them through this accessor.
  static EvalStats* MutableStats(ScubaEngine* engine);
};

}  // namespace scuba

#endif  // SCUBA_PERSIST_SNAPSHOT_H_
