#include "common/rng.h"

#include <cmath>

namespace scuba {

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  SCUBA_CHECK(bound > 0);
  // Debiased modulo via rejection sampling on the top of the range.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  SCUBA_CHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextU64());  // full 64-bit range
  return lo + static_cast<int64_t>(NextBounded(span));
}

double Rng::NextDouble() {
  // 53 high bits -> uniform in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::NextDouble(double lo, double hi) {
  SCUBA_CHECK(lo <= hi);
  return lo + (hi - lo) * NextDouble();
}

bool Rng::NextBool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);  // avoid log(0)
  double u2 = NextDouble();
  double mag = std::sqrt(-2.0 * std::log(u1));
  cached_gaussian_ = mag * std::sin(2.0 * M_PI * u2);
  has_cached_gaussian_ = true;
  return mag * std::cos(2.0 * M_PI * u2);
}

double Rng::NextGaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

Rng Rng::Fork() {
  // Mix two fresh outputs into a child seed; advances this generator.
  uint64_t a = NextU64();
  uint64_t b = NextU64();
  uint64_t sm = a ^ Rotl(b, 31) ^ 0xd6e8feb86659fd93ULL;
  return Rng(SplitMix64(&sm));
}

}  // namespace scuba
