// Deterministic pseudo-random number generation.
//
// Every source of randomness in the repository (workload generation, route
// choice, property-test sweeps) flows through Rng so that a single seed
// reproduces an entire experiment bit-for-bit. The generator is xoshiro256**
// seeded via SplitMix64, which is fast, has a 2^256-1 period and passes BigCrush.

#ifndef SCUBA_COMMON_RNG_H_
#define SCUBA_COMMON_RNG_H_

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace scuba {

/// SplitMix64 step; used for seeding and as a cheap standalone mixer.
uint64_t SplitMix64(uint64_t* state);

/// Deterministic random number generator (xoshiro256**).
class Rng {
 public:
  /// Seeds the generator. Identical seeds yield identical streams.
  explicit Rng(uint64_t seed = 0x5C0BAULL);

  /// Next raw 64 random bits.
  uint64_t NextU64();

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi). Precondition: lo <= hi.
  double NextDouble(double lo, double hi);

  /// True with probability p (clamped to [0,1]).
  bool NextBool(double p = 0.5);

  /// Standard normal via Box-Muller (mean 0, stddev 1).
  double NextGaussian();

  /// Normal with the given mean / stddev.
  double NextGaussian(double mean, double stddev);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBounded(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Picks a uniformly random element. Precondition: !v.empty().
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    SCUBA_CHECK(!v.empty());
    return v[static_cast<size_t>(NextBounded(v.size()))];
  }

  /// Forks an independent child generator; children with distinct fork indices
  /// produce decorrelated streams even from the same parent state.
  Rng Fork();

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace scuba

#endif  // SCUBA_COMMON_RNG_H_
