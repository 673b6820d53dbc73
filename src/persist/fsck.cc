#include "persist/fsck.h"

#include <algorithm>
#include <filesystem>
#include <set>
#include <sstream>
#include <utility>

#include "common/serializer.h"
#include "obs/telemetry.h"
#include "persist/manifest.h"
#include "persist/snapshot.h"
#include "persist/wal.h"

namespace scuba {

namespace {

namespace fs = std::filesystem;

void Problem(FsckReport* report, int code, std::string message) {
  report->problems.push_back(std::move(message));
  report->exit_code = std::max(report->exit_code, code);
}

void ScanTempOrphans(const std::string& dir, FsckReport* report) {
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec) && entry.path().extension() == ".tmp") {
      Problem(report, kFsckOrphan,
              entry.path().string() + ": orphaned temp file (interrupted "
                                      "write; recovery ignores it)");
    }
  }
}

/// Scans the root's WAL: segment framing, contiguity, a torn tail, and,
/// unless recovery would refuse the root, that replay from recovery's base
/// (`base_seq`) finds no gap.
void ScanWal(const std::string& dir, uint64_t base_seq, bool refused,
             FsckReport* report) {
  Result<std::vector<std::pair<uint64_t, std::string>>> segments =
      ListWalSegments(dir);
  if (segments.ok()) {
    report->wal_segments_scanned += segments->size();
  }
  Result<WalContents> contents = ReadWal(dir);
  if (!contents.ok()) {
    Problem(report, kFsckWalGap, dir + ": " + contents.status().message());
    return;
  }
  report->wal_records_scanned += contents->records.size();
  if (contents->torn_tail) {
    Problem(report, kFsckTornTail, dir + ": " + contents->torn_detail);
  }
  if (refused) return;
  for (const WalRecord& record : contents->records) {
    if (record.seq < base_seq) continue;
    if (record.seq != base_seq) {
      Problem(report, kFsckWalGap,
              dir + ": replay from the last valid manifest's seq " +
                  std::to_string(base_seq) + " would start at seq " +
                  std::to_string(record.seq));
    }
    break;
  }
}

/// Checks one manifest's snapshot: present, intact, of this version, and
/// the very payload the manifest recorded.
void FsckSnapshot(const std::string& manifest_path, const ManifestInfo& info,
                  const std::string& snapshot_dir, FsckReport* report) {
  const std::string path =
      (fs::path(snapshot_dir) / SnapshotFileName(info.generation)).string();
  ++report->snapshots_scanned;
  std::error_code ec;
  if (!fs::exists(path, ec)) {
    Problem(report, kFsckMissingArtifact,
            manifest_path + " references missing " + path);
    return;
  }
  Result<std::string> payload = ReadSnapshotPayload(path);
  if (!payload.ok()) {
    Problem(report, kFsckBadSnapshot, payload.status().message());
    return;
  }
  if (Fnv1a64(*payload) != info.snapshot_hash) {
    Problem(report, kFsckBadSnapshot,
            path + " does not hash to the value " + manifest_path +
                " recorded");
    return;
  }
  Result<SnapshotMeta> meta = PeekSnapshotMeta(*payload);
  if (!meta.ok() || meta->wal_next_seq != info.wal_next_seq ||
      meta->options_fingerprint != info.fingerprint) {
    Problem(report, kFsckBadSnapshot,
            path + " belongs to a different checkpoint than " + manifest_path);
    return;
  }
  ++report->snapshots_valid;
}

}  // namespace

std::string FsckReport::ToString() const {
  std::ostringstream out;
  out << "fsck: " << manifests_valid << "/" << manifests_scanned
      << " manifests valid, " << snapshots_valid << "/" << snapshots_scanned
      << " snapshots valid, " << wal_records_scanned << " wal records in "
      << wal_segments_scanned << " segments";
  out << (problems.empty() ? "\nclean" : "");
  for (const std::string& p : problems) out << "\nproblem: " << p;
  return out.str();
}

std::string FsckReport::ToJson() const {
  std::ostringstream out;
  out << "{\"manifests_scanned\":" << manifests_scanned
      << ",\"manifests_valid\":" << manifests_valid
      << ",\"snapshots_scanned\":" << snapshots_scanned
      << ",\"snapshots_valid\":" << snapshots_valid
      << ",\"wal_segments_scanned\":" << wal_segments_scanned
      << ",\"wal_records_scanned\":" << wal_records_scanned
      << ",\"exit_code\":" << exit_code << ",\"clean\":"
      << (problems.empty() ? "true" : "false") << ",\"problems\":[";
  for (size_t i = 0; i < problems.size(); ++i) {
    if (i > 0) out << ",";
    out << "\"" << JsonEscape(problems[i]) << "\"";
  }
  out << "]}";
  return out.str();
}

Result<FsckReport> FsckDurableDir(const std::string& dir) {
  std::error_code ec;
  if (!fs::exists(dir, ec)) {
    return Status::NotFound(dir + " does not exist");
  }
  if (!fs::is_directory(dir, ec)) {
    return Status::InvalidArgument(dir + " is not a directory");
  }
  FsckReport report;
  Result<std::vector<std::pair<uint64_t, std::string>>> manifests =
      ListManifests(dir);
  if (!manifests.ok()) return manifests.status();
  const std::string snapshot_dir = SnapshotDirOf(dir);
  std::set<uint64_t> referenced;  // generations of readable manifests
  // Recovery replays the WAL from the newest manifest that is not torn
  // (ascending, so the last one wins), or from seq 0 with none. When that
  // manifest is of another format version, recovery refuses the root, so
  // there is no replay base to check the WAL against.
  uint64_t base_seq = 0;
  bool refused = false;
  for (const auto& [generation, path] : *manifests) {
    ++report.manifests_scanned;
    Result<ManifestInfo> info = ReadManifest(path);
    if (!info.ok()) {
      Problem(&report, kFsckBadManifest, info.status().message());
      if (!info.status().IsDataLoss()) refused = true;
      continue;
    }
    ++report.manifests_valid;
    base_seq = info->wal_next_seq;
    refused = false;
    referenced.insert(generation);
    FsckSnapshot(path, *info, snapshot_dir, &report);
  }
  Result<std::vector<std::pair<uint64_t, std::string>>> snapshots =
      ListSnapshots(snapshot_dir);
  if (!snapshots.ok()) return snapshots.status();
  for (const auto& [generation, path] : *snapshots) {
    if (referenced.count(generation) == 0) {
      Problem(&report, kFsckOrphan,
              path + ": no readable manifest references this snapshot "
                     "(interrupted checkpoint or prune)");
    }
  }
  ScanTempOrphans(snapshot_dir, &report);
  ScanWal(WalDirOf(dir), base_seq, refused, &report);
  ScanTempOrphans(dir, &report);
  return report;
}

}  // namespace scuba
