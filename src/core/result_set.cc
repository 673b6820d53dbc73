#include "core/result_set.h"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace scuba {
namespace {

/// Below this many matches a comparison sort beats the radix sort's fixed
/// cost (one histogram per digit).
constexpr size_t kRadixMinMatches = 256;
/// Widest radix digit: 2^16 counters (256 KiB) per digit at most. Below
/// kWideDigitMatches matches a wide histogram costs more than the passes it
/// saves, so digits are at most 8 bits there.
constexpr int kWideDigitBits = 16;
constexpr int kNarrowDigitBits = 8;
constexpr size_t kWideDigitMatches = 8192;
/// Most digits a key can need: 32 / kNarrowDigitBits per half.
constexpr int kMaxDigits = 8;

uint64_t Key(const Match& m) { return uint64_t{m.qid} << 32 | m.oid; }

/// Key bits [shift, shift + bits) form one digit.
struct Digit {
  int shift = 0;
  int bits = 0;
  size_t counts_at = 0;  ///< First counter of this digit's histogram.
};

/// Cuts the bits that vary across the set (`varying`) into LSD digits, low
/// half (oid) first. Within each 32-bit half, the span from the lowest to the
/// highest varying bit is split into the fewest digits of at most `max_bits`,
/// of near-equal width; bits outside the span are the same in every key and
/// cannot change the order. Returns the digit count (0..kMaxDigits).
int PlanDigits(uint64_t varying, int max_bits, Digit* digits) {
  int count = 0;
  size_t counts_at = 0;
  for (int half = 0; half < 64; half += 32) {
    const uint32_t v = static_cast<uint32_t>(varying >> half);
    if (v == 0) continue;
    const int lo = std::countr_zero(v);
    const int width = std::bit_width(v) - lo;
    const int passes = (width + max_bits - 1) / max_bits;
    const int bits = (width + passes - 1) / passes;
    for (int shift = lo; shift < lo + width; shift += bits) {
      Digit& d = digits[count++];
      d.shift = half + shift;
      d.bits = std::min(bits, lo + width - shift);
      d.counts_at = counts_at;
      counts_at += size_t{1} << d.bits;
    }
  }
  return count;
}

uint32_t DigitOf(uint64_t key, const Digit& d) {
  return static_cast<uint32_t>(key >> d.shift) & ((1u << d.bits) - 1);
}

}  // namespace

void ResultSet::Normalize() {
  ResultSet unsorted;
  unsorted.matches_.swap(matches_);
  std::vector<uint32_t> counts;
  AssignNormalized({&unsorted, 1}, &counts);
}

void ResultSet::AssignNormalized(std::span<ResultSet> parts,
                                 std::vector<uint32_t>* counts) {
  std::vector<Match>& out = matches_;
  size_t n = 0;
  uint64_t any = 0;
  uint64_t all = ~uint64_t{0};
  for (const ResultSet& part : parts) {
    n += part.size();
    for (const Match& m : part.matches_) {
      const uint64_t key = Key(m);
      any |= key;
      all &= key;
    }
  }
  Digit digits[kMaxDigits];
  const int max_bits =
      n < kWideDigitMatches ? kNarrowDigitBits : kWideDigitBits;
  const int passes =
      n < kRadixMinMatches ? 0 : PlanDigits(any & ~all, max_bits, digits);
  if (passes == 0) {
    // Too small for the radix sort, or every key equal.
    out.clear();
    for (ResultSet& part : parts) {
      out.insert(out.end(), part.matches_.begin(), part.matches_.end());
      part.matches_.clear();
    }
    std::sort(out.begin(), out.end());
  } else {
    // Every digit's histogram in one read, then exclusive prefix sums:
    // counts[d.counts_at + v] becomes the first output slot of value v.
    const Digit& top = digits[passes - 1];
    counts->assign(top.counts_at + (size_t{1} << top.bits), 0);
    uint32_t* c = counts->data();
    for (const ResultSet& part : parts) {
      for (const Match& m : part.matches_) {
        const uint64_t key = Key(m);
        for (int d = 0; d < passes; ++d) {
          ++c[digits[d].counts_at + DigitOf(key, digits[d])];
        }
      }
    }
    for (int d = 0; d < passes; ++d) {
      uint32_t* first = c + digits[d].counts_at;
      uint32_t sum = 0;
      for (size_t v = 0; v < (size_t{1} << digits[d].bits); ++v) {
        const uint32_t here = first[v];
        first[v] = sum;
        sum += here;
      }
    }
    // Pass 0 scatters the parts into `out`; the later passes ping-pong
    // between `out` and the first part's buffer. Each scatter is stable, so
    // after the last pass the keys are in order.
    out.resize(n);
    {
      uint32_t* next = c + digits[0].counts_at;
      for (ResultSet& part : parts) {
        for (const Match& m : part.matches_) {
          out[next[DigitOf(Key(m), digits[0])]++] = m;
        }
        part.matches_.clear();
      }
    }
    std::vector<Match>& spare = parts[0].matches_;
    spare.resize(n);
    std::vector<Match>* from = &out;
    std::vector<Match>* to = &spare;
    for (int d = 1; d < passes; ++d) {
      uint32_t* next = c + digits[d].counts_at;
      for (const Match& m : *from) {
        (*to)[next[DigitOf(Key(m), digits[d])]++] = m;
      }
      std::swap(from, to);
    }
    if (from != &out) out.swap(spare);
    spare.clear();
  }
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

}  // namespace scuba
