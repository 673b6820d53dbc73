// Read-only verification of a durable directory (`scuba_cli fsck <dir>`).
//
// Walks every artifact a durable directory can hold — manifests, per-shard
// snapshots and per-shard WAL chains (persist/manifest.h) — and verifies
// framing CRCs, manifest-recorded payload hashes, chain sequence contiguity
// and cross-chain batch completeness. A directory in the retired
// single-engine layout (bare snapshots and WAL at the root) gets its own
// verdict: no current build reads it. Never writes a byte: torn
// tails and unacknowledged fanout tails are *reported*, exactly as recovery
// would repair them, but the repair itself is left to recovery.

#ifndef SCUBA_PERSIST_FSCK_H_
#define SCUBA_PERSIST_FSCK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace scuba {

/// Distinct fsck verdict codes, ascending severity; a report's exit_code is
/// the worst issue found. They start above every StatusCode value so a CLI
/// failure (exit = StatusCode) never collides with an fsck verdict.
inline constexpr int kFsckOk = 0;
/// A chain/log ends in a torn frame, or a batch's fanout stopped short of
/// every chain — crash residue that recovery discards cleanly.
inline constexpr int kFsckTornTail = 20;
/// Temp files or snapshots no readable manifest references (interrupted
/// write or prune). Inert: recovery never reads them.
inline constexpr int kFsckOrphan = 21;
/// A snapshot fails its CRC, or disagrees with the manifest that names it.
inline constexpr int kFsckBadSnapshot = 22;
/// A sequence gap or mid-log corruption in a WAL chain, or a batch left
/// incomplete across chains with later batches following it.
inline constexpr int kFsckWalGap = 23;
/// A manifest file fails its CRC or does not parse.
inline constexpr int kFsckBadManifest = 24;
/// A manifest references a snapshot file that does not exist.
inline constexpr int kFsckMissingArtifact = 25;
/// The root holds the retired single-engine layout (bare snapshot-*.scuba /
/// wal-*.log files); run, restore and recover refuse it.
inline constexpr int kFsckRetiredLayout = 26;

struct FsckReport {
  uint64_t manifests_scanned = 0;
  uint64_t manifests_valid = 0;
  uint64_t snapshots_scanned = 0;
  uint64_t snapshots_valid = 0;
  uint64_t wal_segments_scanned = 0;
  uint64_t wal_records_scanned = 0;
  /// Tolerated residue and layout facts (extinct shard dirs, re-partition
  /// seq jumps); informational, never affects exit_code.
  std::vector<std::string> notes;
  /// Each problem raised exit_code to at least its verdict code.
  std::vector<std::string> problems;
  int exit_code = kFsckOk;

  std::string ToString() const;
  /// One JSON object (stable key order) for `scuba_cli fsck --json`:
  /// {"manifests_scanned":...,"manifests_valid":...,
  ///  "snapshots_scanned":...,"snapshots_valid":...,
  ///  "wal_segments_scanned":...,"wal_records_scanned":...,
  ///  "exit_code":...,"clean":...,"problems":[...],"notes":[...]}
  std::string ToJson() const;
};

/// Verifies everything under `dir` without mutating it. The Result is an
/// error only when the directory itself cannot be read — damage inside it is
/// always a *report*, never a Status.
Result<FsckReport> FsckDurableDir(const std::string& dir);

}  // namespace scuba

#endif  // SCUBA_PERSIST_FSCK_H_
