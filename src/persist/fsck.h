// Read-only verification of a durable directory (`scuba_cli fsck <dir>`).
//
// Walks every artifact a durable directory can hold — manifests, per-shard
// snapshots and the root's one WAL (persist/manifest.h) — and verifies
// framing CRCs, manifest-recorded payload hashes, WAL sequence contiguity
// and that the WAL picks up where the newest committed manifest left off. A
// directory in a retired layout (bare snapshots and WAL at the root, or
// per-shard WAL chains) gets its own verdict: no current build reads it.
// Never writes a byte: a torn WAL tail is *reported*, exactly as recovery
// would discard it, but the repair itself is left to recovery.

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
/// The WAL ends in a torn frame — crash residue that recovery discards
/// cleanly.
inline constexpr int kFsckTornTail = 20;
/// Temp files or snapshots no readable manifest references (interrupted
/// write or prune). Inert: recovery never reads them.
inline constexpr int kFsckOrphan = 21;
/// A snapshot fails its CRC, or disagrees with the manifest that names it.
inline constexpr int kFsckBadSnapshot = 22;
/// A sequence gap or mid-log corruption in the WAL, or a WAL that resumes
/// past the newest committed manifest's sequence.
inline constexpr int kFsckWalGap = 23;
/// A manifest file fails its CRC or does not parse.
inline constexpr int kFsckBadManifest = 24;
/// A manifest references a snapshot file that does not exist.
inline constexpr int kFsckMissingArtifact = 25;
/// The root holds a retired layout — bare snapshot-*.scuba / wal-*.log
/// files at the root, or wal-*.log chains under shard-NNNN/; run, restore
/// and recover refuse it.
inline constexpr int kFsckRetiredLayout = 26;

struct FsckReport {
  uint64_t manifests_scanned = 0;
  uint64_t manifests_valid = 0;
  uint64_t snapshots_scanned = 0;
  uint64_t snapshots_valid = 0;
  uint64_t wal_segments_scanned = 0;
  uint64_t wal_records_scanned = 0;
  /// Tolerated residue and layout facts (extinct shard dirs);
  /// informational, never affects exit_code.
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
