#include "persist/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/serializer.h"
#include "persist/fsio.h"

namespace scuba {

namespace {

namespace fs = std::filesystem;

constexpr char kWalPrefix[] = "wal-";
constexpr char kWalSuffix[] = ".log";
constexpr uint8_t kRecordTypeBatch = 3;
constexpr size_t kFrameHeaderBytes = 2 * sizeof(uint32_t);  // len + crc

std::string SegmentFileName(uint64_t first_seq) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%020llu%s", kWalPrefix,
                static_cast<unsigned long long>(first_seq), kWalSuffix);
  return buf;
}

void PutLocationUpdate(ByteWriter* w, const LocationUpdate& u) {
  w->PutU32(u.oid);
  w->PutDouble(u.position.x);
  w->PutDouble(u.position.y);
  w->PutI64(u.time);
  w->PutDouble(u.speed);
  w->PutU32(u.dest_node);
  w->PutDouble(u.dest_position.x);
  w->PutDouble(u.dest_position.y);
  w->PutU64(u.attrs);
}

Status GetLocationUpdate(ByteReader* r, LocationUpdate* u) {
  SCUBA_RETURN_IF_ERROR(r->GetU32(&u->oid));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->position.x));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->position.y));
  SCUBA_RETURN_IF_ERROR(r->GetI64(&u->time));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->speed));
  SCUBA_RETURN_IF_ERROR(r->GetU32(&u->dest_node));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->dest_position.x));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->dest_position.y));
  return r->GetU64(&u->attrs);
}

void PutQueryUpdate(ByteWriter* w, const QueryUpdate& u) {
  w->PutU32(u.qid);
  w->PutDouble(u.position.x);
  w->PutDouble(u.position.y);
  w->PutI64(u.time);
  w->PutDouble(u.speed);
  w->PutU32(u.dest_node);
  w->PutDouble(u.dest_position.x);
  w->PutDouble(u.dest_position.y);
  w->PutDouble(u.range_width);
  w->PutDouble(u.range_height);
  w->PutU64(u.attrs);
  w->PutU64(u.required_attrs);
}

Status GetQueryUpdate(ByteReader* r, QueryUpdate* u) {
  SCUBA_RETURN_IF_ERROR(r->GetU32(&u->qid));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->position.x));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->position.y));
  SCUBA_RETURN_IF_ERROR(r->GetI64(&u->time));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->speed));
  SCUBA_RETURN_IF_ERROR(r->GetU32(&u->dest_node));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->dest_position.x));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->dest_position.y));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->range_width));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->range_height));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&u->attrs));
  return r->GetU64(&u->required_attrs);
}

std::string EncodeBatchPayload(uint64_t seq, Timestamp batch_time,
                               bool evaluate_after,
                               std::span<const LocationUpdate> objects,
                               std::span<const QueryUpdate> queries) {
  ByteWriter w;
  w.PutU8(kRecordTypeBatch);
  w.PutU64(seq);
  w.PutI64(batch_time);
  w.PutBool(evaluate_after);
  w.PutU64(objects.size());
  for (const LocationUpdate& u : objects) PutLocationUpdate(&w, u);
  w.PutU64(queries.size());
  for (const QueryUpdate& u : queries) PutQueryUpdate(&w, u);
  return w.Release();
}

Status DecodeRecordPayload(std::string_view payload, WalRecord* record) {
  ByteReader r(payload);
  uint8_t type = 0;
  SCUBA_RETURN_IF_ERROR(r.GetU8(&type));
  if (type != kRecordTypeBatch) {
    return Status::DataLoss("WAL record has type byte " +
                            std::to_string(type) +
                            "; only batch records (type 3) are readable");
  }
  SCUBA_RETURN_IF_ERROR(r.GetU64(&record->seq));
  SCUBA_RETURN_IF_ERROR(r.GetI64(&record->batch_time));
  SCUBA_RETURN_IF_ERROR(r.GetBool(&record->evaluate_after));
  uint64_t count = 0;
  SCUBA_RETURN_IF_ERROR(r.GetU64(&count));
  if (count > r.Remaining()) {
    return Status::DataLoss("WAL record object count overruns the payload");
  }
  record->objects.resize(static_cast<size_t>(count));
  for (LocationUpdate& u : record->objects) {
    SCUBA_RETURN_IF_ERROR(GetLocationUpdate(&r, &u));
  }
  SCUBA_RETURN_IF_ERROR(r.GetU64(&count));
  if (count > r.Remaining()) {
    return Status::DataLoss("WAL record query count overruns the payload");
  }
  record->queries.resize(static_cast<size_t>(count));
  for (QueryUpdate& u : record->queries) {
    SCUBA_RETURN_IF_ERROR(GetQueryUpdate(&r, &u));
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("WAL record payload carries trailing bytes");
  }
  return Status::OK();
}

/// Parses one segment file. Frames that parse cleanly are appended to
/// `*records`. If the segment ends in a torn/corrupt frame, returns OK with
/// `*torn_at` set to the clean byte offset where the damage starts (the
/// caller decides whether that is tolerable); *torn_at == npos means the
/// segment was fully clean.
Status ReadSegment(const std::string& path, std::vector<WalRecord>* records,
                   size_t* torn_at, std::string* torn_detail) {
  *torn_at = std::string::npos;
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open WAL segment: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = std::move(buf).str();
  size_t pos = 0;
  while (pos < data.size()) {
    if (data.size() - pos < kFrameHeaderBytes) {
      *torn_at = pos;
      *torn_detail = path + ": " + std::to_string(data.size() - pos) +
                     " trailing bytes are shorter than a frame header";
      return Status::OK();
    }
    uint32_t len = 0, crc = 0;
    std::memcpy(&len, data.data() + pos, sizeof(len));
    std::memcpy(&crc, data.data() + pos + sizeof(len), sizeof(crc));
    if (data.size() - pos - kFrameHeaderBytes < len) {
      *torn_at = pos;
      *torn_detail = path + ": frame at offset " + std::to_string(pos) +
                     " declares " + std::to_string(len) + " payload bytes, " +
                     std::to_string(data.size() - pos - kFrameHeaderBytes) +
                     " remain";
      return Status::OK();
    }
    const std::string_view payload =
        std::string_view(data).substr(pos + kFrameHeaderBytes, len);
    if (Crc32(payload) != crc) {
      *torn_at = pos;
      *torn_detail = path + ": frame at offset " + std::to_string(pos) +
                     " failed its checksum";
      return Status::OK();
    }
    WalRecord record;
    if (Status s = DecodeRecordPayload(payload, &record); !s.ok()) {
      // The CRC matched but the payload is malformed: that is not a torn
      // write, it is corruption (or a version skew) — fail hard.
      return Status::DataLoss(path + ": " + s.message());
    }
    records->push_back(std::move(record));
    pos += kFrameHeaderBytes + len;
  }
  return Status::OK();
}

Status FdatasyncOrError(int fd, const std::string& path) {
  if (::fdatasync(fd) != 0) {
    return Status::IoError("fdatasync " + path + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status WriteAllOrError(int fd, const char* data, size_t n,
                       const std::string& path) {
  size_t written = 0;
  while (written < n) {
    ssize_t rc = ::write(fd, data + written, n - written);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("write " + path + ": " + std::strerror(errno));
    }
    written += static_cast<size_t>(rc);
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<std::pair<uint64_t, std::string>>> ListWalSegments(
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
    if (name.rfind(kWalPrefix, 0) != 0) continue;
    if (name.size() <= sizeof(kWalPrefix) - 1 + sizeof(kWalSuffix) - 1)
      continue;
    if (name.substr(name.size() - (sizeof(kWalSuffix) - 1)) != kWalSuffix)
      continue;
    const std::string digits = name.substr(
        sizeof(kWalPrefix) - 1,
        name.size() - (sizeof(kWalPrefix) - 1) - (sizeof(kWalSuffix) - 1));
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    out.emplace_back(std::strtoull(digits.c_str(), nullptr, 10),
                     entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<WalContents> ReadWal(const std::string& dir) {
  Result<std::vector<std::pair<uint64_t, std::string>>> segments =
      ListWalSegments(dir);
  if (!segments.ok()) return segments.status();
  WalContents contents;
  for (size_t i = 0; i < segments->size(); ++i) {
    const auto& [first_seq, path] = (*segments)[i];
    size_t torn_at = std::string::npos;
    std::string torn_detail;
    const size_t before = contents.records.size();
    SCUBA_RETURN_IF_ERROR(
        ReadSegment(path, &contents.records, &torn_at, &torn_detail));
    if (torn_at != std::string::npos) {
      if (i + 1 != segments->size()) {
        // Damage in a non-final segment cannot be a crash residue — later
        // segments prove appends continued past it.
        return Status::DataLoss("WAL segment damaged mid-log: " + torn_detail);
      }
      contents.torn_tail = true;
      contents.torn_detail = torn_detail;
    }
    if (contents.records.size() > before &&
        contents.records[before].seq != first_seq) {
      return Status::DataLoss(
          path + ": first record seq " +
          std::to_string(contents.records[before].seq) +
          " does not match the segment name (" + std::to_string(first_seq) +
          ")");
    }
  }
  for (size_t i = 1; i < contents.records.size(); ++i) {
    const uint64_t prev = contents.records[i - 1].seq;
    const uint64_t cur = contents.records[i].seq;
    if (cur != prev + 1) {
      return Status::DataLoss("WAL sequence discontinuity: record " +
                              std::to_string(prev) + " is followed by " +
                              std::to_string(cur));
    }
  }
  return contents;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& dir,
                                                   uint64_t segment_bytes,
                                                   uint64_t initial_seq,
                                                   CrashInjector* crash) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create " + dir + ": " + ec.message());
  }
  std::unique_ptr<WalWriter> writer(new WalWriter(dir, segment_bytes, crash));
  Result<std::vector<std::pair<uint64_t, std::string>>> segments =
      ListWalSegments(dir);
  if (!segments.ok()) return segments.status();
  if (segments->empty()) {
    writer->next_seq_ = initial_seq;
    return writer;
  }
  // Find the end of the log in the last segment, truncating any torn tail so
  // the next append starts on a clean frame boundary.
  const auto& [last_first_seq, last_path] = segments->back();
  std::vector<WalRecord> tail_records;
  size_t torn_at = std::string::npos;
  std::string torn_detail;
  SCUBA_RETURN_IF_ERROR(
      ReadSegment(last_path, &tail_records, &torn_at, &torn_detail));
  if (torn_at != std::string::npos) {
    fs::resize_file(last_path, torn_at, ec);
    if (ec) {
      return Status::IoError("truncate " + last_path + ": " + ec.message());
    }
  }
  if (!tail_records.empty()) {
    writer->next_seq_ = tail_records.back().seq + 1;
  } else if (torn_at != std::string::npos) {
    // The segment held only the torn frame; its name says what that frame's
    // seq would have been.
    writer->next_seq_ = last_first_seq;
  } else {
    writer->next_seq_ = std::max(initial_seq, last_first_seq);
  }
  if (writer->next_seq_ < initial_seq) {
    return Status::DataLoss(dir + ": the log ends before seq " +
                            std::to_string(initial_seq) +
                            ", which the newest checkpoint already covers");
  }
  // Resume appending to the (possibly truncated) last segment.
  writer->segment_first_seq_ = last_first_seq;
  writer->segment_path_ = last_path;
  writer->fd_ = ::open(last_path.c_str(), O_WRONLY | O_APPEND);
  if (writer->fd_ < 0) {
    return Status::IoError("open " + last_path + ": " + std::strerror(errno));
  }
  writer->segment_size_ = fs::file_size(last_path, ec);
  if (ec) {
    return Status::IoError("stat " + last_path + ": " + ec.message());
  }
  return writer;
}

WalWriter::~WalWriter() { CloseSegment(); }

void WalWriter::CloseSegment() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status WalWriter::OpenSegment(uint64_t first_seq) {
  CloseSegment();
  segment_path_ = (fs::path(dir_) / SegmentFileName(first_seq)).string();
  fd_ = ::open(segment_path_.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd_ < 0) {
    return Status::IoError("open " + segment_path_ + ": " +
                           std::strerror(errno));
  }
  segment_first_seq_ = first_seq;
  segment_size_ = 0;
  // Make the new segment's directory entry durable before any record relies
  // on it existing.
  return SyncDirectory(dir_);
}

Status WalWriter::AppendFrame(const std::string& payload,
                              uint64_t* durable_bytes) {
  ByteWriter frame;
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  frame.PutU32(Crc32(payload));
  frame.PutRawBytes(payload);
  const std::string& bytes = frame.bytes();
  const bool rotate =
      fd_ < 0 || (segment_size_ > 0 &&
                  segment_size_ + bytes.size() > segment_bytes_);
  if (rotate) {
    SCUBA_RETURN_IF_ERROR(OpenSegment(next_seq_));
  }
  if (crash_ != nullptr && crash_->ShouldCrash(CrashPoint::kMidWalAppend)) {
    // Half the frame reaches the disk — the canonical torn tail.
    SCUBA_RETURN_IF_ERROR(WriteAllOrError(fd_, bytes.data(), bytes.size() / 2,
                                          segment_path_));
    SCUBA_RETURN_IF_ERROR(FdatasyncOrError(fd_, segment_path_));
    return crash_->CrashStatus();
  }
  SCUBA_RETURN_IF_ERROR(
      WriteAllOrError(fd_, bytes.data(), bytes.size(), segment_path_));
  SCUBA_RETURN_IF_ERROR(FdatasyncOrError(fd_, segment_path_));
  segment_size_ += bytes.size();
  ++next_seq_;
  *durable_bytes = bytes.size();
  if (crash_ != nullptr && crash_->ShouldCrash(CrashPoint::kAfterWalAppend)) {
    return crash_->CrashStatus();
  }
  return Status::OK();
}

Status WalWriter::Append(Timestamp batch_time, bool evaluate_after,
                         std::span<const LocationUpdate> objects,
                         std::span<const QueryUpdate> queries,
                         uint64_t* durable_bytes) {
  *durable_bytes = 0;
  if (crash_ != nullptr && crash_->ShouldCrash(CrashPoint::kBeforeWalAppend)) {
    return crash_->CrashStatus();
  }
  return AppendFrame(EncodeBatchPayload(next_seq_, batch_time, evaluate_after,
                                        objects, queries),
                     durable_bytes);
}

Result<size_t> WalWriter::PruneSegmentsBelow(uint64_t min_seq) {
  Result<std::vector<std::pair<uint64_t, std::string>>> segments =
      ListWalSegments(dir_);
  if (!segments.ok()) return segments.status();
  size_t removed = 0;
  for (size_t i = 0; i < segments->size(); ++i) {
    const auto& [first_seq, path] = (*segments)[i];
    // A segment's records all precede min_seq iff the NEXT segment starts at
    // or below min_seq (the next segment's first record is this one's last
    // record + 1).
    const bool covered =
        i + 1 < segments->size() && (*segments)[i + 1].first <= min_seq;
    if (!covered || path == segment_path_) continue;
    std::error_code ec;
    fs::remove(path, ec);
    if (ec) {
      return Status::IoError("remove " + path + ": " + ec.message());
    }
    ++removed;
  }
  if (removed > 0) {
    SCUBA_RETURN_IF_ERROR(SyncDirectory(dir_));
  }
  return removed;
}

}  // namespace scuba
