#include "common/serializer.h"

#include <array>

namespace scuba {

namespace {

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

/// tables[0] is the bytewise table of the reflected polynomial; tables[k][b]
/// is the CRC of byte b followed by k zero bytes, so one step can fold eight
/// input bytes with eight independent lookups.
constexpr CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

}  // namespace

uint32_t Crc32(std::string_view data) {
  const auto& t = kCrcTables;
  const char* p = data.data();
  size_t n = data.size();
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    std::memcpy(&lo, p, sizeof(lo));  // little-endian: byte 0 in the low bits
    std::memcpy(&hi, p + 4, sizeof(hi));
    lo ^= crc;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ static_cast<uint8_t>(*p)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint64_t Fnv1a64(std::string_view data) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char ch : data) {
    hash ^= static_cast<uint8_t>(ch);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace scuba
