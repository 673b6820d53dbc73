// Byte-level serialization primitives shared by the durability subsystem and
// the serving front-end wire protocol
// (docs/ARCHITECTURE.md §8, §14.1).
//
// Everything durable — snapshots and WAL records — and every wire frame is
// built from the same little-endian, length-prefixed vocabulary defined here,
// protected by CRC32 so torn writes and bit rot surface as kDataLoss instead
// of silently corrupting a restored engine. Doubles are persisted as their
// IEEE-754 bit patterns, which is what makes a restored engine
// *bit-identical* to the one that was checkpointed (the same guarantee the
// parallel executors give).
//
// The writer emits host byte order and the reader copies bytes straight into
// host integers, so "little-endian" holds only on a little-endian host; the
// static_assert below refuses to build anywhere else rather than write bytes
// another build cannot read. The same assumption lets fixed-layout arrays
// (PutBlock/GetBlock) move as one memcpy instead of one call per field.
//
// Crc32 is slicing-by-8 (eight 256-entry tables, eight bytes per step) over
// the reflected IEEE polynomial: the same checksum as the bytewise
// definition, at memory speed, because it covers every frame, WAL record,
// snapshot and manifest.

#ifndef SCUBA_COMMON_SERIALIZER_H_
#define SCUBA_COMMON_SERIALIZER_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace scuba {

static_assert(std::endian::native == std::endian::little,
              "the serializer writes host byte order and promises "
              "little-endian bytes");

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `data`.
uint32_t Crc32(std::string_view data);

/// FNV-1a 64-bit hash; used for the ScubaOptions fingerprint embedded in
/// snapshots (cheap, stable across platforms for a fixed byte stream).
uint64_t Fnv1a64(std::string_view data);

/// Appends fixed-width little-endian primitives to a byte buffer.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  /// IEEE-754 bit pattern — restores bit-exactly, NaN payloads included.
  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }
  /// Length-prefixed byte string.
  void PutString(std::string_view s) {
    PutU64(s.size());
    buf_.append(s.data(), s.size());
  }
  /// Raw bytes, no length prefix (file headers, pre-framed payloads).
  void PutRawBytes(std::string_view s) { buf_.append(s.data(), s.size()); }
  /// `n` bytes copied from `p` in one block: the encoding of an array of
  /// fixed-layout little-endian records (see GetBlock).
  void PutBlock(const void* p, size_t n) { PutRaw(p, n); }
  /// Overwrites the u32 at byte `offset` (a header reserved before its
  /// contents were known, e.g. a frame's length and CRC).
  void PatchU32(size_t offset, uint32_t v) {
    std::memcpy(buf_.data() + offset, &v, sizeof(v));
  }
  void Reserve(size_t n) { buf_.reserve(n); }

  const std::string& bytes() const { return buf_; }
  std::string Release() { return std::move(buf_); }

 private:
  void PutRaw(const void* p, size_t n) {
    buf_.append(reinterpret_cast<const char*>(p), n);
  }

  std::string buf_;
};

/// Reads the ByteWriter vocabulary back. Every getter returns kDataLoss on
/// underrun — a truncated payload is missing data by definition (the CRC
/// normally catches it first; the bounds checks make the reader safe on any
/// byte stream regardless).
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Status GetU8(uint8_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetU32(uint32_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetU64(uint64_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetI64(int64_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetBool(bool* v) {
    uint8_t byte = 0;
    SCUBA_RETURN_IF_ERROR(GetU8(&byte));
    *v = byte != 0;
    return Status::OK();
  }
  Status GetDouble(double* v) {
    uint64_t bits = 0;
    SCUBA_RETURN_IF_ERROR(GetU64(&bits));
    std::memcpy(v, &bits, sizeof(*v));
    return Status::OK();
  }
  Status GetString(std::string* s) {
    uint64_t n = 0;
    SCUBA_RETURN_IF_ERROR(GetU64(&n));
    if (n > Remaining()) {
      return Status::DataLoss("string length " + std::to_string(n) +
                              " overruns the remaining " +
                              std::to_string(Remaining()) + " payload bytes");
    }
    s->assign(data_.data() + pos_, static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return Status::OK();
  }

  /// Copies the next `n` bytes to `p` in one block; kDataLoss on underrun.
  Status GetBlock(void* p, size_t n) { return GetRaw(p, n); }

  size_t Remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status GetRaw(void* p, size_t n) {
    if (n > Remaining()) {
      return Status::DataLoss("payload truncated: need " + std::to_string(n) +
                              " bytes, " + std::to_string(Remaining()) +
                              " remain");
    }
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace scuba

#endif  // SCUBA_COMMON_SERIALIZER_H_
