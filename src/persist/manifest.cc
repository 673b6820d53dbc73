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

namespace scuba {

namespace {

namespace fs = std::filesystem;

constexpr char kManifestMagic[8] = {'S', 'C', 'U', 'B', 'A', 'M', 'F', '1'};
constexpr uint32_t kManifestVersion = 2;
constexpr char kManifestPrefix[] = "manifest-";
constexpr char kManifestSuffix[] = ".scubamf";

std::string EncodeManifestPayload(const ManifestInfo& info) {
  ByteWriter w;
  w.PutU64(info.fingerprint);
  w.PutU64(info.generation);
  w.PutU64(info.wal_next_seq);
  w.PutU64(info.rounds);
  w.PutU64(info.snapshot_hash);
  return w.Release();
}

Status DecodeManifestPayload(std::string_view payload, ManifestInfo* info) {
  ByteReader r(payload);
  SCUBA_RETURN_IF_ERROR(r.GetU64(&info->fingerprint));
  SCUBA_RETURN_IF_ERROR(r.GetU64(&info->generation));
  SCUBA_RETURN_IF_ERROR(r.GetU64(&info->wal_next_seq));
  SCUBA_RETURN_IF_ERROR(r.GetU64(&info->rounds));
  SCUBA_RETURN_IF_ERROR(r.GetU64(&info->snapshot_hash));
  if (!r.AtEnd()) {
    return Status::DataLoss("manifest payload carries trailing bytes");
  }
  return Status::OK();
}

/// The generation a manifest file name carries; false for any other name.
bool ParseManifestName(const std::string& name, uint64_t* generation) {
  constexpr size_t kPrefix = sizeof(kManifestPrefix) - 1;
  constexpr size_t kSuffix = sizeof(kManifestSuffix) - 1;
  if (name.size() <= kPrefix + kSuffix ||
      name.compare(0, kPrefix, kManifestPrefix) != 0 ||
      name.compare(name.size() - kSuffix, kSuffix, kManifestSuffix) != 0) {
    return false;
  }
  const std::string digits =
      name.substr(kPrefix, name.size() - kPrefix - kSuffix);
  if (digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *generation = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
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

std::string WalDirOf(const std::string& dir) {
  return (fs::path(dir) / "wal").string();
}

std::string SnapshotDirOf(const std::string& dir) {
  return (fs::path(dir) / "snapshots").string();
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
    uint64_t generation = 0;
    if (ParseManifestName(entry.path().filename().string(), &generation)) {
      out.emplace_back(generation, entry.path().string());
    }
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
    return Status::FailedPrecondition(
        path + ": manifest format version " + std::to_string(version) +
        "; this build reads only version " + std::to_string(kManifestVersion));
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
  uint64_t named = 0;
  if (!ParseManifestName(fs::path(path).filename().string(), &named) ||
      named != info.generation) {
    return Status::DataLoss(path + ": payload names generation " +
                            std::to_string(info.generation) +
                            ", which its file name does not");
  }
  return info;
}

}  // namespace scuba
