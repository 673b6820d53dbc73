#include "persist/fsck.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
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

void AppendJsonStrings(std::ostringstream* out, const char* key,
                       const std::vector<std::string>& values) {
  *out << "\"" << key << "\":[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) *out << ",";
    *out << "\"" << JsonEscape(values[i]) << "\"";
  }
  *out << "]";
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

/// Scans one WAL directory; returns its records for cross-chain checks.
std::vector<WalRecord> ScanWalDir(const std::string& dir, FsckReport* report) {
  Result<std::vector<std::pair<uint64_t, std::string>>> segments =
      ListWalSegments(dir);
  if (segments.ok()) {
    report->wal_segments_scanned += segments->size();
  }
  Result<WalContents> contents = ReadWal(dir);
  if (!contents.ok()) {
    Problem(report, kFsckWalGap, dir + ": " + contents.status().message());
    return {};
  }
  report->wal_records_scanned += contents->records.size();
  if (contents->torn_tail) {
    Problem(report, kFsckTornTail, dir + ": " + contents->torn_detail);
  }
  for (const std::string& note : contents->route_gap_notes) {
    report->notes.push_back(dir + ": " + note);
  }
  return std::move(contents->records);
}

void FsckLayout(
    const std::string& dir,
    const std::vector<std::pair<uint64_t, std::string>>& manifests,
    FsckReport* report) {
  // Manifests and the artifacts they reference.
  std::set<std::pair<uint32_t, uint64_t>> referenced;  // (shard, snapshot seq)
  uint64_t newest_valid_base = 0;
  uint64_t newest_valid_shards = 0;
  bool have_valid = false;
  for (const auto& [generation, path] : manifests) {
    ++report->manifests_scanned;
    Result<ManifestInfo> info = ReadManifest(path);
    if (!info.ok()) {
      Problem(report, kFsckBadManifest, info.status().message());
      continue;
    }
    ++report->manifests_valid;
    if (!have_valid || generation >= info->generation) {
      newest_valid_base = info->wal_next_seq;
      newest_valid_shards = info->shards.size();
      have_valid = true;
    }
    for (uint32_t s = 0; s < info->shards.size(); ++s) {
      const ManifestShardEntry& entry = info->shards[s];
      referenced.insert({s, entry.snapshot_seq});
      const std::string snap_path =
          (fs::path(dir) / ShardDirName(s) /
           SnapshotFileName(entry.snapshot_seq))
              .string();
      ++report->snapshots_scanned;
      std::error_code ec;
      if (!fs::exists(snap_path, ec)) {
        Problem(report, kFsckMissingArtifact,
                path + " references missing " + snap_path);
        continue;
      }
      Result<std::string> payload = ReadSnapshotPayload(snap_path);
      if (!payload.ok()) {
        Problem(report, kFsckBadSnapshot,
                snap_path + ": " + payload.status().message());
        continue;
      }
      if (Fnv1a64(*payload) != entry.state_hash) {
        Problem(report, kFsckBadSnapshot,
                snap_path + " does not hash to the value " + path +
                    " recorded");
        continue;
      }
      Result<SnapshotMeta> meta = PeekSnapshotMeta(*payload);
      if (!meta.ok() || meta->wal_next_seq != info->wal_next_seq ||
          meta->options_fingerprint != info->fingerprint) {
        Problem(report, kFsckBadSnapshot,
                snap_path + " belongs to a different checkpoint than " + path);
        continue;
      }
      ++report->snapshots_valid;
    }
  }

  // Shard directories: orphaned snapshots, chains, cross-chain completeness.
  struct SeqTally {
    uint32_t declared = 0;
    uint64_t count = 0;
    bool mismatch = false;
  };
  std::map<uint64_t, SeqTally> tally;
  Result<std::vector<std::pair<uint32_t, std::string>>> shard_dirs =
      ListShardDirs(dir);
  if (!shard_dirs.ok()) {
    Problem(report, kFsckOrphan, shard_dirs.status().message());
    return;
  }
  for (const auto& [index, shard_dir] : *shard_dirs) {
    if (have_valid && index >= newest_valid_shards) {
      report->notes.push_back(shard_dir +
                              ": extinct shard layout (newest manifest has " +
                              std::to_string(newest_valid_shards) +
                              " shards); inert once older manifests age out");
    }
    Result<std::vector<std::pair<uint64_t, std::string>>> snapshots =
        ListSnapshots(shard_dir);
    if (snapshots.ok()) {
      for (const auto& [seq, path] : *snapshots) {
        if (referenced.count({index, seq}) == 0) {
          Problem(report, kFsckOrphan,
                  path + ": no readable manifest references this snapshot "
                         "(interrupted checkpoint or prune)");
        }
      }
    }
    for (const WalRecord& record : ScanWalDir(shard_dir, report)) {
      if (record.seq < newest_valid_base) continue;
      SeqTally& t = tally[record.seq];
      if (t.count == 0) {
        t.declared = record.shard_count;
      } else if (t.declared != record.shard_count) {
        t.mismatch = true;
      }
      ++t.count;
    }
    ScanTempOrphans(shard_dir, report);
  }
  for (auto it = tally.begin(); it != tally.end(); ++it) {
    const auto& [seq, t] = *it;
    if (t.mismatch || t.count > t.declared) {
      Problem(report, kFsckWalGap,
              "seq " + std::to_string(seq) +
                  ": sub-records disagree across chains");
    } else if (t.count < t.declared) {
      const bool is_last = std::next(it) == tally.end();
      if (is_last) {
        Problem(report, kFsckTornTail,
                "seq " + std::to_string(seq) + ": " + std::to_string(t.count) +
                    " of " + std::to_string(t.declared) +
                    " sub-records present (unacknowledged fanout tail; "
                    "recovery discards it)");
      } else {
        Problem(report, kFsckWalGap,
                "seq " + std::to_string(seq) +
                    " is incomplete across chains but later batches exist");
      }
    }
  }
  ScanTempOrphans(dir, report);
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
  for (const std::string& n : notes) out << "\nnote: " << n;
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
      << (problems.empty() ? "true" : "false") << ",";
  AppendJsonStrings(&out, "problems", problems);
  out << ",";
  AppendJsonStrings(&out, "notes", notes);
  out << "}";
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
  if (Status retired = RejectRetiredLayout(dir); !retired.ok()) {
    if (!retired.IsFailedPrecondition()) return retired;
    Problem(&report, kFsckRetiredLayout, retired.message());
  }
  FsckLayout(dir, *manifests, &report);
  return report;
}

}  // namespace scuba
