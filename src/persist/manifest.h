// Checkpoint manifests: the commit point of the engine's durable root
// (docs/ARCHITECTURE.md §8).
//
// A checkpoint generation is one snapshot file plus the manifest that names
// it. The snapshot is not authoritative on its own — the manifest is. The
// snapshot fsyncs first and the manifest renames into place last
// (two-phase), so a crash anywhere in between leaves the previous generation
// committed and the new snapshot as an unreferenced orphan the next
// successful checkpoint prunes.
//
// File name: "manifest-<generation, zero-padded to 20>.scubamf". Container
// framing mirrors snapshots:
//
//   magic "SCUBAMF1" | version u32 (2) | payload_len u64 | payload
//   | crc32(payload) u32
//
// Payload: fingerprint u64 | generation u64 | wal_next_seq u64 | rounds u64
//          | snapshot_hash u64
//
// The generation names the snapshot, <root>/snapshots/snapshot-<generation>
// .scuba, and must equal the one in the manifest's own file name.
// `snapshot_hash` is the FNV-1a of that snapshot's payload: recovery
// re-hashes what it read and refuses a silently substituted file.
// `wal_next_seq` is the global batch index the checkpoint covers: recovery
// loads the snapshot and replays the root's one WAL (under <root>/wal/) from
// wal_next_seq on. A manifest with the right magic but another version is
// kFailedPrecondition; there is no reader for older versions.

#ifndef SCUBA_PERSIST_MANIFEST_H_
#define SCUBA_PERSIST_MANIFEST_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "persist/crash.h"

namespace scuba {

/// A parsed (or to-be-written) checkpoint manifest.
struct ManifestInfo {
  uint64_t fingerprint = 0;    ///< OptionsFingerprint at checkpoint time.
  uint64_t generation = 0;     ///< Monotonic checkpoint counter.
  uint64_t wal_next_seq = 0;   ///< First batch seq NOT covered by the snapshot.
  uint64_t rounds = 0;         ///< Evaluation rounds completed at checkpoint.
  uint64_t snapshot_hash = 0;  ///< Fnv1a64 of the snapshot's payload bytes.
};

/// "manifest-<generation, 20 digits>.scubamf".
std::string ManifestFileName(uint64_t generation);

/// "<dir>/wal" — the durable root's one WAL directory.
std::string WalDirOf(const std::string& dir);

/// "<dir>/snapshots" — the durable root's snapshot directory.
std::string SnapshotDirOf(const std::string& dir);

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

/// Reads and validates one manifest file. kFailedPrecondition for another
/// format version, naming the file, its version and this build's. kDataLoss
/// (the caller falls back a generation) for a bad magic, size or CRC, a
/// payload that does not parse, or a generation that differs from the one
/// in the file name.
Result<ManifestInfo> ReadManifest(const std::string& path);

}  // namespace scuba

#endif  // SCUBA_PERSIST_MANIFEST_H_
