// Snapshot files: versioned, checksummed containers for the engine's state
// at one checkpoint generation (docs/ARCHITECTURE.md §8). A generation is one
// snapshot file, <root>/snapshots/snapshot-<generation>.scuba, plus the
// manifest that names it (persist/manifest.h).
//
// File layout (all integers little-endian):
//
//   magic "SCUBSNP1" (8 bytes) | version u32 (kSnapshotVersion, below)
//   payload_len u64 | payload (payload_len bytes) | crc32(payload) u32
//
// Payload, in order (PersistAccess::SaveEngineSnapshot):
//   1. the SnapshotMeta header: options fingerprint, wal_next_seq, rounds;
//   2. SaveStoreState: the exact bytes EngineStateHash covers (id allocator,
//      ObjectsTable and QueriesTable, clusters with grid-registration flags);
//   3. the join counters, the shedder's eta and adjustments, the nucleus
//      radius;
//   4. the EvalStats counts (never a wall-clock slot or a thread count);
//   5. the phase and clusterer stats;
//   6. the optional validator section, behind a presence flag.
// Every double is persisted as its IEEE-754 bit pattern, so a restored
// engine is *bit-identical* to the checkpointed one: same digests, same
// future results. A file with the right magic but another version is
// kFailedPrecondition; there is no reader for older versions.
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

#include "common/status.h"
#include "common/serializer.h"
#include "core/scuba_engine.h"
#include "stream/update_validator.h"

namespace scuba {

/// The one snapshot format version this build writes and reads. Version 5
/// dropped the rng section, the quarantine capacity and the last round's
/// result count from the payload.
inline constexpr uint32_t kSnapshotVersion = 5;

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
/// It also covers kSnapshotVersion, so the manifests of a root another
/// snapshot format wrote never match: every path that checks the
/// fingerprint refuses such a root, naming its snapshot version.
uint64_t OptionsFingerprint(const ScubaOptions& options);

/// "snapshot-<generation, zero-padded>.scuba" — lexicographic order ==
/// generation order.
std::string SnapshotFileName(uint64_t generation);

/// All snapshot files in `dir` as (generation, full path), ascending. An
/// unreadable directory is IoError; an empty/missing one is an empty list.
Result<std::vector<std::pair<uint64_t, std::string>>> ListSnapshots(
    const std::string& dir);

/// Writes header + payload + CRC to `dir`/SnapshotFileName(generation)
/// atomically (temp file, fsync, rename, directory fsync). Returns the total
/// file size via `*bytes_written` (nullable).
Status WriteSnapshotFile(const std::string& dir, uint64_t generation,
                         const std::string& payload, uint64_t* bytes_written);

/// Reads a snapshot file and verifies magic, version, length and CRC.
/// kFailedPrecondition for another format version (naming the file, its
/// version and this build's); kDataLoss on any other mismatch or truncation;
/// the payload otherwise.
Result<std::string> ReadSnapshotPayload(const std::string& path);

/// Parses only the leading meta fields of a verified payload.
Result<SnapshotMeta> PeekSnapshotMeta(const std::string& payload);

/// FNV-1a 64 hash over the engine's *deterministic* state — the cluster
/// store (id allocator, attr tables, clusters with members in order) and
/// grid registrations, excluding wall-clock timing stats. Two engines with
/// equal hashes are indistinguishable to every later round; a recovered
/// engine must hash equal to the uninterrupted one (the CLI prints this for
/// the CI smoke). The byte layout predates join windows, so hashes compare
/// across window counts, and across builds of one snapshot format (a format
/// change, such as version 4's member offsets, changes every hash).
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

  /// The generation's snapshot payload (field order in the file comment).
  /// `validator` is nullable; a present one gets its section.
  static std::string SaveEngineSnapshot(const ScubaEngine& engine,
                                        const UpdateValidator* validator,
                                        uint64_t wal_next_seq, uint64_t rounds);
  /// Replaces every piece of `engine`'s durable state with the payload's:
  /// counters are assigned, timings restart at zero and join_threads stays
  /// the live engine's. A validator section is loaded into `validator`, or
  /// decoded and dropped when it is null. kFailedPrecondition when the
  /// payload's fingerprint differs from the engine's options; kDataLoss when
  /// it does not decode.
  static Status LoadEngineSnapshot(const std::string& payload,
                                   ScubaEngine* engine,
                                   UpdateValidator* validator);
  /// Online recovery (docs/ARCHITECTURE.md §13): replaces `live`'s store,
  /// grid, join counters (with their EvalStats copies) and shedder state with
  /// `twin`'s — a twin recovered from the durable root to the same round,
  /// whose store and grid are moved out.
  static void AdoptEngineState(ScubaEngine* twin, ScubaEngine* live);
  /// Durability counters live in the engine's EvalStats; the manager and
  /// recovery update them through this accessor.
  static EvalStats* MutableStats(ScubaEngine* engine);
};

}  // namespace scuba

#endif  // SCUBA_PERSIST_SNAPSHOT_H_
