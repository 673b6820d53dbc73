#include "persist/manifest.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/serializer.h"
#include "persist/fsio.h"
#include "persist/snapshot.h"
#include "persist/wal.h"

namespace scuba {

namespace {

namespace fs = std::filesystem;

constexpr char kManifestMagic[8] = {'S', 'C', 'U', 'B', 'A', 'M', 'F', '1'};
constexpr uint32_t kManifestVersion = 1;
constexpr char kManifestPrefix[] = "manifest-";
constexpr char kManifestSuffix[] = ".scubamf";

std::string EncodeManifestPayload(const ManifestInfo& info) {
  ByteWriter w;
  w.PutU64(info.fingerprint);
  w.PutU64(info.generation);
  w.PutU64(info.wal_next_seq);
  w.PutU64(info.rounds);
  w.PutU32(static_cast<uint32_t>(info.shards.size()));
  for (const ManifestShardEntry& shard : info.shards) {
    w.PutU64(shard.snapshot_seq);
    w.PutU64(shard.state_hash);
  }
  w.PutString(info.coordinator_state);
  return w.Release();
}

Status DecodeManifestPayload(std::string_view payload, ManifestInfo* info) {
  ByteReader r(payload);
  SCUBA_RETURN_IF_ERROR(r.GetU64(&info->fingerprint));
  SCUBA_RETURN_IF_ERROR(r.GetU64(&info->generation));
  SCUBA_RETURN_IF_ERROR(r.GetU64(&info->wal_next_seq));
  SCUBA_RETURN_IF_ERROR(r.GetU64(&info->rounds));
  uint32_t shard_count = 0;
  SCUBA_RETURN_IF_ERROR(r.GetU32(&shard_count));
  if (shard_count == 0 || shard_count > r.Remaining()) {
    return Status::DataLoss("manifest shard count " +
                            std::to_string(shard_count) +
                            " is implausible for the payload size");
  }
  info->shards.resize(shard_count);
  for (ManifestShardEntry& shard : info->shards) {
    SCUBA_RETURN_IF_ERROR(r.GetU64(&shard.snapshot_seq));
    SCUBA_RETURN_IF_ERROR(r.GetU64(&shard.state_hash));
  }
  SCUBA_RETURN_IF_ERROR(r.GetString(&info->coordinator_state));
  if (!r.AtEnd()) {
    return Status::DataLoss("manifest payload carries trailing bytes");
  }
  return Status::OK();
}

std::string EncodeManifestFile(const ManifestInfo& info) {
  const std::string payload = EncodeManifestPayload(info);
  ByteWriter w;
  w.PutRawBytes(std::string_view(kManifestMagic, sizeof(kManifestMagic)));
  w.PutU32(kManifestVersion);
  w.PutU64(payload.size());
  w.PutRawBytes(payload);
  w.PutU32(Crc32(payload));
  return w.Release();
}

}  // namespace

std::string ManifestFileName(uint64_t generation) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%020llu%s", kManifestPrefix,
                static_cast<unsigned long long>(generation), kManifestSuffix);
  return buf;
}

std::string ShardDirName(uint32_t shard_index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%04u", shard_index);
  return buf;
}

Result<std::vector<std::pair<uint32_t, std::string>>> ListShardDirs(
    const std::string& dir) {
  std::vector<std::pair<uint32_t, std::string>> out;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return out;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IoError("cannot list " + dir + ": " + ec.message());
  }
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_directory(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("shard-", 0) != 0) continue;
    const std::string digits = name.substr(6);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    out.emplace_back(
        static_cast<uint32_t>(std::strtoul(digits.c_str(), nullptr, 10)),
        entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::vector<std::pair<uint64_t, std::string>>> ListManifests(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> out;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return out;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IoError("cannot list " + dir + ": " + ec.message());
  }
  for (const fs::directory_entry& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kManifestPrefix, 0) != 0) continue;
    if (name.size() <=
        sizeof(kManifestPrefix) - 1 + sizeof(kManifestSuffix) - 1)
      continue;
    if (name.substr(name.size() - (sizeof(kManifestSuffix) - 1)) !=
        kManifestSuffix)
      continue;
    const std::string digits =
        name.substr(sizeof(kManifestPrefix) - 1,
                    name.size() - (sizeof(kManifestPrefix) - 1) -
                        (sizeof(kManifestSuffix) - 1));
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    out.emplace_back(std::strtoull(digits.c_str(), nullptr, 10),
                     entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status WriteManifestFile(const std::string& dir, const ManifestInfo& info,
                         CrashInjector* crash) {
  const std::string data = EncodeManifestFile(info);
  const std::string final_path =
      (fs::path(dir) / ManifestFileName(info.generation)).string();
  const std::string tmp_path = final_path + ".tmp";
  SCUBA_RETURN_IF_ERROR(WriteFileDurably(tmp_path, data));
  if (crash != nullptr &&
      crash->ShouldCrash(CrashPoint::kBeforeManifestRename)) {
    // The tmp file is durable but the final name was never created: the
    // previous generation stays committed, the tmp file is an orphan.
    return crash->CrashStatus();
  }
  if (crash != nullptr && crash->ShouldCrash(CrashPoint::kTornManifestRename)) {
    // The final name exists but holds a truncated container — its CRC cannot
    // match and recovery must fall back a generation.
    SCUBA_RETURN_IF_ERROR(
        WriteFileDurably(final_path, data, data.size() - data.size() / 3));
    std::error_code ec;
    fs::remove(tmp_path, ec);
    SCUBA_RETURN_IF_ERROR(SyncDirectory(dir));
    return crash->CrashStatus();
  }
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    return Status::IoError("rename " + tmp_path + " -> " + final_path + ": " +
                           ec.message());
  }
  return SyncDirectory(dir);
}

Result<ManifestInfo> ReadManifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open manifest: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = std::move(buf).str();
  constexpr size_t kHeaderBytes =
      sizeof(kManifestMagic) + sizeof(uint32_t) + sizeof(uint64_t);
  if (data.size() < kHeaderBytes + sizeof(uint32_t)) {
    return Status::DataLoss(path + ": shorter than a manifest header");
  }
  if (std::memcmp(data.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return Status::DataLoss(path + ": bad magic");
  }
  uint32_t version = 0;
  std::memcpy(&version, data.data() + sizeof(kManifestMagic), sizeof(version));
  if (version != kManifestVersion) {
    return Status::DataLoss(path + ": unsupported manifest version " +
                            std::to_string(version));
  }
  uint64_t payload_len = 0;
  std::memcpy(&payload_len,
              data.data() + sizeof(kManifestMagic) + sizeof(version),
              sizeof(payload_len));
  if (data.size() != kHeaderBytes + payload_len + sizeof(uint32_t)) {
    return Status::DataLoss(path + ": size does not match its declared " +
                            std::to_string(payload_len) + " payload bytes");
  }
  const std::string_view payload =
      std::string_view(data).substr(kHeaderBytes, payload_len);
  uint32_t crc = 0;
  std::memcpy(&crc, data.data() + kHeaderBytes + payload_len, sizeof(crc));
  if (Crc32(payload) != crc) {
    return Status::DataLoss(path + ": payload failed its checksum");
  }
  ManifestInfo info;
  if (Status s = DecodeManifestPayload(payload, &info); !s.ok()) {
    return Status::DataLoss(path + ": " + s.message());
  }
  return info;
}

Status RejectRetiredLayout(const std::string& dir) {
  Result<std::vector<std::pair<uint64_t, std::string>>> snapshots =
      ListSnapshots(dir);
  if (!snapshots.ok()) return snapshots.status();
  Result<std::vector<std::pair<uint64_t, std::string>>> segments =
      ListWalSegments(dir);
  if (!segments.ok()) return segments.status();
  if (snapshots->empty() && segments->empty()) return Status::OK();
  return Status::FailedPrecondition(
      dir + " holds the retired single-engine durable layout (" +
      std::to_string(snapshots->size()) + " bare snapshot-*.scuba and " +
      std::to_string(segments->size()) +
      " wal-*.log files at the root); only the manifest layout is readable — "
      "re-create the directory with a current run");
}

}  // namespace scuba
