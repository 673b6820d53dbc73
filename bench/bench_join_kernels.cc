// Member-kernel microbenchmark: the three batched SoA kernels of the cluster
// join hot path (core/join_kernels.h) versus the scalar AoS loops they
// replaced, on a seeded synthetic member population. Reports members/sec per
// kernel and writes BENCH_kernels.json so the speedup is tracked across PRs.
// Both paths evaluate identical predicates; their match checksums are
// asserted equal, which doubles as an anti-dead-code-elimination sink.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_common.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/join_kernels.h"
#include "geometry/circle.h"
#include "geometry/rect.h"

namespace scuba::bench {
namespace {

/// The AoS member record the pre-SoA executor iterated.
struct AosObject {
  Point position;
  uint32_t oid = 0;
  uint64_t attrs = 0;
};

struct KernelResult {
  const char* name;
  double scalar_members_per_sec = 0.0;
  double soa_members_per_sec = 0.0;
  uint64_t members_per_pass = 0;
  double speedup() const {
    return scalar_members_per_sec > 0.0
               ? soa_members_per_sec / scalar_members_per_sec
               : 0.0;
  }
};

struct Scale {
  size_t members = 1 << 16;  ///< Population swept per pass.
  size_t probes = 64;        ///< Query rects / filter masks per pass.
  int reps = 7;              ///< Timed repetitions; best rep wins.
};

Scale ReadScale() {
  Scale s;
  const char* fast = std::getenv("SCUBA_BENCH_FAST");
  if (fast != nullptr && fast[0] == '1') {
    s.members = 1 << 12;
    s.probes = 16;
    s.reps = 3;
  }
  return s;
}

/// Best-of-reps throughput of `body` (returns a checksum), in elements/sec.
template <typename Body>
double BestThroughput(int reps, uint64_t elements, uint64_t* checksum,
                      const Body& body) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch sw;
    uint64_t sum = body();
    double elapsed = sw.ElapsedSeconds();
    if (rep == 0) {
      *checksum = sum;
    } else {
      SCUBA_CHECK_MSG(sum == *checksum, "nondeterministic benchmark body");
    }
    double rate = elapsed > 0.0 ? static_cast<double>(elements) / elapsed : 0.0;
    if (rate > best) best = rate;
  }
  return best;
}

KernelResult BenchRectContains(const Scale& scale, Rng* rng) {
  std::vector<AosObject> aos(scale.members);
  std::vector<double> xs(scale.members), ys(scale.members);
  std::vector<uint32_t> oids(scale.members);
  std::vector<uint64_t> attrs(scale.members);
  for (size_t i = 0; i < scale.members; ++i) {
    Point p{rng->NextDouble(0, 10000), rng->NextDouble(0, 10000)};
    aos[i] = AosObject{p, static_cast<uint32_t>(i), 0};
    xs[i] = p.x;
    ys[i] = p.y;
    oids[i] = static_cast<uint32_t>(i);
  }
  std::vector<Rect> probes;
  for (size_t q = 0; q < scale.probes; ++q) {
    Point c{rng->NextDouble(0, 10000), rng->NextDouble(0, 10000)};
    probes.push_back(Rect::Centered(c, rng->NextDouble(200, 2000),
                                    rng->NextDouble(200, 2000)));
  }
  ObjectSlabView slab{xs.data(), ys.data(), oids.data(), attrs.data(),
                      static_cast<uint32_t>(scale.members)};
  std::vector<uint32_t> out(scale.members);

  KernelResult r{"rect_contains"};
  r.members_per_pass = scale.members * scale.probes;
  uint64_t scalar_sum = 0, soa_sum = 0;
  r.scalar_members_per_sec =
      BestThroughput(scale.reps, r.members_per_pass, &scalar_sum, [&] {
        uint64_t sum = 0;
        for (const Rect& range : probes) {
          for (const AosObject& o : aos) {
            if (range.Contains(o.position)) sum += o.oid + 1;
          }
        }
        return sum;
      });
  r.soa_members_per_sec =
      BestThroughput(scale.reps, r.members_per_pass, &soa_sum, [&] {
        uint64_t sum = 0;
        for (const Rect& range : probes) {
          size_t n = RectContainsPoints(range, slab, out.data());
          for (size_t k = 0; k < n; ++k) sum += oids[out[k]] + 1;
        }
        return sum;
      });
  SCUBA_CHECK_MSG(scalar_sum == soa_sum,
                  "rect_contains: SoA kernel diverged from the scalar loop");
  return r;
}

KernelResult BenchAttrsFilter(const Scale& scale, Rng* rng) {
  std::vector<uint64_t> attrs(scale.members);
  std::vector<uint32_t> candidates(scale.members);
  for (size_t i = 0; i < scale.members; ++i) {
    attrs[i] = rng->NextU64() & 0xFFull;
    candidates[i] = static_cast<uint32_t>(i);
  }
  std::vector<uint64_t> masks;
  for (size_t q = 0; q < scale.probes; ++q) {
    masks.push_back(rng->NextU64() & 0x1Full);
  }
  std::vector<uint32_t> scratch(scale.members);

  KernelResult r{"attrs_filter"};
  r.members_per_pass = scale.members * scale.probes;
  uint64_t scalar_sum = 0, soa_sum = 0;
  r.scalar_members_per_sec =
      BestThroughput(scale.reps, r.members_per_pass, &scalar_sum, [&] {
        uint64_t sum = 0;
        for (uint64_t required : masks) {
          for (uint32_t i : candidates) {
            if ((attrs[i] & required) == required) sum += i + 1;
          }
        }
        return sum;
      });
  r.soa_members_per_sec =
      BestThroughput(scale.reps, r.members_per_pass, &soa_sum, [&] {
        uint64_t sum = 0;
        for (uint64_t required : masks) {
          std::copy(candidates.begin(), candidates.end(), scratch.begin());
          size_t n = FilterByAttrs(attrs.data(), required, scratch.data(),
                                   scale.members);
          for (size_t k = 0; k < n; ++k) sum += scratch[k] + 1;
        }
        return sum;
      });
  SCUBA_CHECK_MSG(scalar_sum == soa_sum,
                  "attrs_filter: SoA kernel diverged from the scalar loop");
  return r;
}

/// The AoS query record the pre-SoA executor iterated: position + extent,
/// with Rect::Centered recomputed on every pass (the SoA path hoists the
/// rectangle into the arena once per round instead).
struct AosQuery {
  Point position;
  double width = 0.0;
  double height = 0.0;
};

KernelResult BenchRectCircleOverlap(const Scale& scale, Rng* rng) {
  std::vector<AosQuery> aos(scale.members);
  std::vector<double> min_xs(scale.members), min_ys(scale.members),
      max_xs(scale.members), max_ys(scale.members);
  for (size_t i = 0; i < scale.members; ++i) {
    Point c{rng->NextDouble(0, 10000), rng->NextDouble(0, 10000)};
    double w = rng->NextDouble(50, 500);
    double h = rng->NextDouble(50, 500);
    aos[i] = AosQuery{c, w, h};
    Rect rect = Rect::Centered(c, w, h);
    min_xs[i] = rect.min_x;
    min_ys[i] = rect.min_y;
    max_xs[i] = rect.max_x;
    max_ys[i] = rect.max_y;
  }
  std::vector<Circle> probes;
  for (size_t q = 0; q < scale.probes; ++q) {
    probes.push_back(Circle{Point{rng->NextDouble(0, 10000),
                                  rng->NextDouble(0, 10000)},
                            rng->NextDouble(200, 3000)});
  }
  QueryRectSlabView slab{min_xs.data(), min_ys.data(), max_xs.data(),
                         max_ys.data(), static_cast<uint32_t>(scale.members)};
  std::vector<uint8_t> mask(scale.members);

  KernelResult r{"rect_circle_overlap"};
  r.members_per_pass = scale.members * scale.probes;
  uint64_t scalar_sum = 0, soa_sum = 0;
  r.scalar_members_per_sec =
      BestThroughput(scale.reps, r.members_per_pass, &scalar_sum, [&] {
        uint64_t sum = 0;
        for (const Circle& c : probes) {
          for (size_t i = 0; i < aos.size(); ++i) {
            Rect range =
                Rect::Centered(aos[i].position, aos[i].width, aos[i].height);
            if (Intersects(range, c)) sum += i + 1;
          }
        }
        return sum;
      });
  r.soa_members_per_sec =
      BestThroughput(scale.reps, r.members_per_pass, &soa_sum, [&] {
        uint64_t sum = 0;
        for (const Circle& c : probes) {
          RectCircleOverlap(slab, c, mask.data());
          for (size_t i = 0; i < mask.size(); ++i) {
            if (mask[i] != 0) sum += i + 1;
          }
        }
        return sum;
      });
  SCUBA_CHECK_MSG(
      scalar_sum == soa_sum,
      "rect_circle_overlap: SoA kernel diverged from the scalar loop");
  return r;
}

int Main() {
  Scale scale = ReadScale();
  std::printf("=== kernels: SoA member kernels vs scalar AoS loops ===\n");
  std::printf("population: %zu members, %zu probes per pass, best of %d\n\n",
              scale.members, scale.probes, scale.reps);

  Rng rng(0x50A50A);
  std::vector<KernelResult> results;
  results.push_back(BenchRectContains(scale, &rng));
  results.push_back(BenchAttrsFilter(scale, &rng));
  results.push_back(BenchRectCircleOverlap(scale, &rng));

  std::printf("%22s %18s %18s %10s\n", "kernel", "scalar (M/s)", "soa (M/s)",
              "speedup");
  for (const KernelResult& r : results) {
    std::printf("%22s %18.1f %18.1f %9.2fx\n", r.name,
                r.scalar_members_per_sec / 1e6, r.soa_members_per_sec / 1e6,
                r.speedup());
  }

  JsonWriter json;
  json.Str("bench", "join_kernels");
  json.Int("members", scale.members);
  json.Int("probes", scale.probes);
  json.Array("kernels");
  for (const KernelResult& r : results) {
    json.Object();
    json.Str("name", r.name);
    json.Num("scalar_members_per_sec", r.scalar_members_per_sec, 0);
    json.Num("soa_members_per_sec", r.soa_members_per_sec, 0);
    json.Num("speedup", r.speedup(), 4);
    json.Close();
  }
  json.Save("BENCH_kernels.json");
  return 0;
}

}  // namespace
}  // namespace scuba::bench

int main() { return scuba::bench::Main(); }
