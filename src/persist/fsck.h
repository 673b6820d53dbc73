// Read-only verification of a durable root (`scuba_cli fsck <dir>`).
//
// Walks every artifact the root can hold (docs/ARCHITECTURE.md §8): the
// manifests at the top level, the snapshots under snapshots/ and the one WAL
// under wal/. It verifies framing CRCs and format versions, the snapshot
// hash each manifest recorded, WAL sequence contiguity, and that the WAL
// picks up where the last valid manifest left off. A manifest or snapshot
// of another format version is reported as a bad manifest (24) or a bad
// snapshot (22). Never writes a byte: a torn WAL tail is *reported*, exactly
// as recovery would discard it, but the repair itself is left to recovery.

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
/// A snapshot fails its CRC or version check, or disagrees with the
/// manifest that names it.
inline constexpr int kFsckBadSnapshot = 22;
/// A sequence gap or mid-log corruption in the WAL, or a WAL that resumes
/// past the last valid manifest's sequence.
inline constexpr int kFsckWalGap = 23;
/// A manifest file fails its CRC or version check, does not parse, or names
/// a generation other than its file name's.
inline constexpr int kFsckBadManifest = 24;
/// A manifest references a snapshot file that does not exist.
inline constexpr int kFsckMissingArtifact = 25;

struct FsckReport {
  uint64_t manifests_scanned = 0;
  uint64_t manifests_valid = 0;
  uint64_t snapshots_scanned = 0;
  uint64_t snapshots_valid = 0;
  uint64_t wal_segments_scanned = 0;
  uint64_t wal_records_scanned = 0;
  /// Each problem raised exit_code to at least its verdict code.
  std::vector<std::string> problems;
  int exit_code = kFsckOk;

  std::string ToString() const;
  /// One JSON object (stable key order) for `scuba_cli fsck --json`:
  /// {"manifests_scanned":...,"manifests_valid":...,
  ///  "snapshots_scanned":...,"snapshots_valid":...,
  ///  "wal_segments_scanned":...,"wal_records_scanned":...,
  ///  "exit_code":...,"clean":...,"problems":[...]}
  std::string ToJson() const;
};

/// Verifies everything under `dir` without mutating it. The Result is an
/// error only when the directory itself cannot be read — damage inside it is
/// always a *report*, never a Status.
Result<FsckReport> FsckDurableDir(const std::string& dir);

}  // namespace scuba

#endif  // SCUBA_PERSIST_FSCK_H_
