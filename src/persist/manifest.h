// Checkpoint manifest for sharded durability (docs/ARCHITECTURE.md §12).
//
// A sharded checkpoint is not one file: it is one snapshot per shard plus a
// coordinator-state blob. None of those artifacts is authoritative on its
// own — the *manifest* is. A checkpoint generation exists exactly when a
// manifest file referencing every artifact is durably published; shard
// snapshots fsync first, the manifest renames into place last (two-phase), so
// a crash anywhere in between leaves the previous generation committed and
// the new files as unreferenced orphans the next successful checkpoint
// prunes.
//
// File name: "manifest-<generation, zero-padded to 20>.scubamf". Container
// framing mirrors snapshots:
//
//   magic "SCUBAMF1" | version u32 | payload_len u64 | payload
//   | crc32(payload) u32
//
// Payload: fingerprint u64 | generation u64 | wal_next_seq u64 | rounds u64
//          | shard_count u32 | per shard { snapshot_seq u64, state_hash u64 }
//          | coordinator_state (length-prefixed bytes, opaque here)
//
// `wal_next_seq` is the global batch index the checkpoint covers: recovery
// loads the generation's snapshots and replays the root's one WAL (under
// <root>/wal/) from wal_next_seq on. `state_hash` is the FNV-1a of the shard's snapshot payload
// — recovery re-hashes what it read and refuses a silently substituted file.
// The coordinator_state bytes are serialized/parsed by the sharded layer
// (src/shard/shard_durability.cc); this module treats them as opaque so
// persist stays independent of shard types.

#ifndef SCUBA_PERSIST_MANIFEST_H_
#define SCUBA_PERSIST_MANIFEST_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "persist/crash.h"

namespace scuba {

/// One shard's entry in a manifest.
struct ManifestShardEntry {
  /// Sequence number in the shard snapshot's file name (== generation; a
  /// generation and a wal_next_seq are distinct counters — two consecutive
  /// generations can cover the same wal_next_seq).
  uint64_t snapshot_seq = 0;
  /// Fnv1a64 of the shard snapshot's payload bytes.
  uint64_t state_hash = 0;
};

/// A parsed (or to-be-written) checkpoint manifest.
struct ManifestInfo {
  uint64_t fingerprint = 0;   ///< OptionsFingerprint at checkpoint time.
  uint64_t generation = 0;    ///< Monotonic checkpoint counter.
  uint64_t wal_next_seq = 0;  ///< First batch seq NOT covered by snapshots.
  uint64_t rounds = 0;        ///< Evaluation rounds completed at checkpoint.
  std::vector<ManifestShardEntry> shards;  ///< One per shard, index order.
  /// Coordinator state (meta store, stats, validator, ...), serialized by the
  /// sharded layer. Opaque at this layer.
  std::string coordinator_state;
};

/// "manifest-<generation, 20 digits>.scubamf".
std::string ManifestFileName(uint64_t generation);

/// "shard-<index, 4 digits>" — the per-shard artifact directory under a
/// durable root (holds that shard's snapshots).
std::string ShardDirName(uint32_t shard_index);

/// "<dir>/wal" — the durable root's one WAL directory.
std::string WalDirOf(const std::string& dir);

/// All "shard-<index>" artifact directories under `dir` as (index, path),
/// ascending — extinct layouts' directories included (recovery reads the
/// union). A missing directory lists as empty.
Result<std::vector<std::pair<uint32_t, std::string>>> ListShardDirs(
    const std::string& dir);

/// All manifest files in `dir` as (generation, path), ascending. A missing
/// directory lists as empty.
Result<std::vector<std::pair<uint64_t, std::string>>> ListManifests(
    const std::string& dir);

/// Serializes and durably publishes `info` as manifest-<generation> in `dir`
/// (tmp file + fsync + rename + dir fsync). Injects kBeforeManifestRename
/// (durable tmp only, no final file) and kTornManifestRename (final file
/// exists but truncated — CRC cannot match).
Status WriteManifestFile(const std::string& dir, const ManifestInfo& info,
                         CrashInjector* crash);

/// Reads and validates one manifest file: magic, version, exact size, CRC.
/// Any mismatch is kDataLoss (the caller falls back a generation).
Result<ManifestInfo> ReadManifest(const std::string& path);

/// kFailedPrecondition when `dir` holds a retired durable layout, naming it:
///  - the single-engine layout: bare snapshot-*.scuba or wal-*.log files at
///    the root;
///  - the per-shard WAL-chain layout: wal-*.log files under shard-NNNN/,
///    where the current layout keeps one WAL under wal/.
/// OK otherwise (a missing directory included). Every path that opens a
/// durable root calls this first, so an old directory is refused, never
/// misread.
Status RejectRetiredLayout(const std::string& dir);

}  // namespace scuba

#endif  // SCUBA_PERSIST_MANIFEST_H_
