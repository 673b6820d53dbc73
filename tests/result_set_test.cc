#include "core/result_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace scuba {
namespace {

/// How a test draws match ids; each mode reaches a different digit plan.
enum class Ids {
  k16Bit,      ///< qid, oid < 65,536: one wide digit per half.
  k32Bit,      ///< every bit varies: no digit is skipped.
  kSparse,     ///< only bits 0, 16 and 31 vary: wide spans, few values.
  kOidOnly,    ///< one qid: the qid half is skipped.
  kDuplicate,  ///< 20 distinct matches, repeated.
};

std::vector<Match> Draw(Rng* rng, Ids ids, size_t n) {
  std::vector<Match> pool;
  if (ids == Ids::kDuplicate) {
    for (int i = 0; i < 20; ++i) {
      pool.push_back(Match{static_cast<QueryId>(rng->NextBounded(70000)),
                           static_cast<ObjectId>(rng->NextU64())});
    }
  }
  std::vector<Match> out(n);
  for (Match& m : out) {
    const uint64_t bits = rng->NextU64();
    const uint32_t lo = static_cast<uint32_t>(bits);
    const uint32_t hi = static_cast<uint32_t>(bits >> 32);
    switch (ids) {
      case Ids::k16Bit:
        m = Match{hi & 0xFFFF, lo & 0xFFFF};
        break;
      case Ids::k32Bit:
        m = Match{hi, lo};
        break;
      case Ids::kSparse:
        m = Match{hi & 0x80010001u, lo & 0x80010001u};
        break;
      case Ids::kOidOnly:
        m = Match{77, lo};
        break;
      case Ids::kDuplicate:
        m = pool[bits % pool.size()];
        break;
    }
  }
  return out;
}

std::vector<Match> Reference(std::vector<Match> matches) {
  std::sort(matches.begin(), matches.end());
  matches.erase(std::unique(matches.begin(), matches.end()), matches.end());
  return matches;
}

ResultSet FromMatches(const std::vector<Match>& matches) {
  ResultSet r;
  for (const Match& m : matches) r.Add(m.qid, m.oid);
  return r;
}

TEST(ResultSetTest, NormalizeEqualsSortAndUnique) {
  // Sizes 0-5,000 across the 256-match comparison-sort fallback (and a few
  // across the 8,192-match switch to wide digits), every id mode, in random,
  // already-sorted and reverse-sorted input order.
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 300; ++n) sizes.push_back(n);
  for (size_t n = 301; n <= 5000; n += 97) sizes.push_back(n);
  for (size_t n : {5000, 8191, 8192, 8193}) sizes.push_back(n);
  Rng rng(2111);
  for (Ids ids : {Ids::k16Bit, Ids::k32Bit, Ids::kSparse, Ids::kOidOnly,
                  Ids::kDuplicate}) {
    for (size_t n : sizes) {
      std::vector<Match> inputs[3];  // random, sorted, reverse-sorted
      inputs[0] = Draw(&rng, ids, n);
      inputs[1] = inputs[0];
      std::sort(inputs[1].begin(), inputs[1].end());
      inputs[2].assign(inputs[1].rbegin(), inputs[1].rend());
      const std::vector<Match> want = Reference(inputs[0]);
      for (const std::vector<Match>& input : inputs) {
        ResultSet r = FromMatches(input);
        r.Normalize();
        ASSERT_EQ(r.matches(), want)
            << "ids mode " << static_cast<int>(ids) << ", n " << n;
      }
    }
  }
}

TEST(ResultSetTest, AssignNormalizedReusesItsPartsAcrossCalls) {
  // The join's use: the same part buffers and histograms, call after call,
  // with answers that grow, shrink to nothing and grow again. Each call must
  // equal the sorted union of what was added since the last one, and leave
  // every part empty.
  Rng rng(2112);
  std::vector<ResultSet> parts(3);
  std::vector<uint32_t> counts;
  ResultSet out;
  out.MarkDegraded(2);
  const size_t totals[] = {0, 40, 3000, 70000, 10, 0, 256, 255, 9000, 1};
  for (size_t round = 0; round < std::size(totals); ++round) {
    std::vector<Match> all;
    for (size_t p = 0; p < parts.size(); ++p) {
      // Part 0 (the sort's spare) is empty on some rounds.
      const size_t n = p == 0 && round % 3 == 1 ? 0 : totals[round] / 3;
      const std::vector<Match> drawn =
          Draw(&rng, round % 2 == 0 ? Ids::k16Bit : Ids::k32Bit, n);
      for (const Match& m : drawn) parts[p].Add(m.qid, m.oid);
      all.insert(all.end(), drawn.begin(), drawn.end());
    }
    out.AssignNormalized(parts, &counts);
    ASSERT_EQ(out.matches(), Reference(all)) << "round " << round;
    for (const ResultSet& part : parts) EXPECT_TRUE(part.empty());
    EXPECT_EQ(out.degraded_shards(), std::vector<uint32_t>{2})
        << "provenance is not the sort's to touch";
  }
}

}  // namespace
}  // namespace scuba
