#include "persist/crash.h"

namespace scuba {

std::string_view CrashPointName(CrashPoint point) {
  switch (point) {
    case CrashPoint::kNone:
      return "none";
    case CrashPoint::kBeforeWalAppend:
      return "before-wal-append";
    case CrashPoint::kMidWalAppend:
      return "mid-wal-append";
    case CrashPoint::kAfterWalAppend:
      return "after-wal-append";
    case CrashPoint::kBeforeSnapshotWrite:
      return "before-snapshot-write";
    case CrashPoint::kMidShardSnapshotWrite:
      return "mid-shard-snapshot-write";
    case CrashPoint::kBeforeManifestRename:
      return "before-manifest-rename";
    case CrashPoint::kTornManifestRename:
      return "torn-manifest-rename";
    case CrashPoint::kAfterManifestRename:
      return "after-manifest-rename";
    case CrashPoint::kMidManifestPrune:
      return "mid-manifest-prune";
  }
  return "unknown";
}

Result<CrashPoint> ParseCrashPoint(std::string_view name) {
  for (size_t i = 0; i < kCrashPointCount; ++i) {
    CrashPoint point = static_cast<CrashPoint>(i);
    if (name == CrashPointName(point)) return point;
  }
  return Status::InvalidArgument("unknown crash point: " + std::string(name));
}

}  // namespace scuba
