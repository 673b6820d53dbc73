// CrashPoint / CrashInjector: deterministic crash injection for the
// durability subsystem (docs/ARCHITECTURE.md §8).
//
// Follows the FaultInjector's discipline: a crash is planned up front (which
// point, which occurrence), fires deterministically, and leaves behind
// exactly the on-disk state a real crash at that point would — a half-written
// WAL record, an orphaned snapshot temp file, a checksum-torn manifest. The
// harness then abandons the in-memory engine and proves RecoverShardedEngine
// reconstructs it bit-identically from the durable directory alone. The
// injection is in-process: the injected "crash" surfaces as
// Status::Internal("crash injected ...") so tests (and the CLI's --crash-at)
// can observe it without actually killing the process, while the CI smoke
// additionally exercises a real process exit via the CLI's nonzero exit code.

#ifndef SCUBA_PERSIST_CRASH_H_
#define SCUBA_PERSIST_CRASH_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace scuba {

/// Where in the durability write paths a crash can be injected. Each point
/// models a distinct partial on-disk state (the "crash-point matrix" in
/// docs/ARCHITECTURE.md §8).
enum class CrashPoint : uint8_t {
  kNone = 0,
  /// Before the batch's WAL record is written: the batch is lost entirely
  /// (legal — it was never acknowledged as durable).
  kBeforeWalAppend,
  /// Mid-append: the record's first half reaches the segment, the rest does
  /// not. Recovery must treat the torn tail as end-of-log.
  kMidWalAppend,
  /// After append + fsync: the batch is durable but was never ingested.
  kAfterWalAppend,
  /// Before any checkpoint byte is written: the previous manifest generation
  /// (if any) remains the recovery base.
  kBeforeSnapshotWrite,
  // --- Manifest-committed checkpoint generations (§12). ---
  /// Mid-write of the generation's snapshot: a partial temp file in its
  /// shard-0000 directory, no final file, no manifest — the previous
  /// generation stays the recovery base.
  kMidShardSnapshotWrite,
  /// The snapshot is durable but the manifest was never published
  /// (only its temp file exists): the previous generation remains committed.
  kBeforeManifestRename,
  /// A torn manifest publish: the final manifest name exists but holds a
  /// truncated payload; its CRC cannot match and recovery must fall back a
  /// generation.
  kTornManifestRename,
  /// The new manifest is durable — the generation is committed — but the
  /// prune step never ran: older generations and covered WAL segments linger.
  kAfterManifestRename,
  /// Mid-prune after a committed manifest: obsolete manifests are gone but
  /// unreferenced snapshots / covered WAL segments survive as orphans.
  kMidManifestPrune,
};

inline constexpr size_t kCrashPointCount = 10;

/// Stable kebab-case name ("mid-wal-append", ...).
std::string_view CrashPointName(CrashPoint point);

/// Parses a CrashPointName; InvalidArgument on anything else.
Result<CrashPoint> ParseCrashPoint(std::string_view name);

/// Fires deterministically at the N-th time execution reaches the configured
/// CrashPoint (1-based; the count substitutes for the FaultInjector's seeded
/// draws — write paths are sequenced, so "the N-th occurrence" is exact).
class CrashInjector {
 public:
  /// A disarmed injector (kNone) never fires.
  CrashInjector() = default;
  CrashInjector(CrashPoint point, uint64_t fire_at_occurrence = 1)
      : point_(point), fire_at_(fire_at_occurrence) {}

  /// Write paths call this as execution passes `point`. Returns true exactly
  /// once, at the configured occurrence; the caller then performs its
  /// partial-state effect and propagates CrashStatus().
  bool ShouldCrash(CrashPoint point) {
    if (point_ == CrashPoint::kNone || point != point_ || fired_) return false;
    if (++occurrences_ < fire_at_) return false;
    fired_ = true;
    return true;
  }

  bool fired() const { return fired_; }
  CrashPoint point() const { return point_; }

  /// The status an injected crash surfaces as.
  Status CrashStatus() const {
    return Status::Internal("crash injected at " +
                            std::string(CrashPointName(point_)) +
                            " (occurrence " + std::to_string(occurrences_) +
                            ")");
  }

  /// True when `s` is an injected crash (vs a genuine failure).
  static bool IsCrash(const Status& s) {
    return s.IsInternal() && s.message().rfind("crash injected at", 0) == 0;
  }

 private:
  CrashPoint point_ = CrashPoint::kNone;
  uint64_t fire_at_ = 1;
  uint64_t occurrences_ = 0;
  bool fired_ = false;
};

}  // namespace scuba

#endif  // SCUBA_PERSIST_CRASH_H_
