#include "core/result_delta.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serializer.h"

namespace scuba {
namespace {

ResultSet Make(std::initializer_list<Match> matches) {
  ResultSet r;
  for (const Match& m : matches) r.Add(m.qid, m.oid);
  r.Normalize();
  return r;
}

TEST(ResultDeltaTest, IdenticalSetsYieldEmptyDelta) {
  ResultSet s = Make({{1, 1}, {2, 2}});
  ResultDelta d = DiffResults(s, s);
  EXPECT_TRUE(d.Empty());
  EXPECT_EQ(d.size(), 0u);
  EXPECT_EQ(d.round, 0u);  // bare diffs are unstamped
}

TEST(ResultDeltaTest, AddsAndRemovals) {
  ResultSet prev = Make({{1, 1}, {1, 2}, {3, 3}});
  ResultSet curr = Make({{1, 2}, {2, 9}, {3, 3}});
  ResultDelta d = DiffResults(prev, curr);
  EXPECT_EQ(d.added, (std::vector<Match>{{2, 9}}));
  EXPECT_EQ(d.removed, (std::vector<Match>{{1, 1}}));
}

TEST(ResultDeltaTest, EmptyToFullIsAllAdded) {
  ResultSet curr = Make({{1, 1}, {2, 2}});
  ResultDelta d = DiffResults(ResultSet{}, curr);
  EXPECT_EQ(d.added.size(), 2u);
  EXPECT_TRUE(d.removed.empty());
}

TEST(ResultDeltaTest, FullToEmptyIsAllRemoved) {
  ResultSet prev = Make({{1, 1}, {2, 2}});
  ResultDelta d = DiffResults(prev, ResultSet{});
  EXPECT_TRUE(d.added.empty());
  EXPECT_EQ(d.removed.size(), 2u);
}

TEST(ResultDeltaTest, ApplyDeltaReconstructs) {
  ResultSet prev = Make({{1, 1}, {1, 2}, {3, 3}, {4, 4}});
  ResultSet curr = Make({{0, 5}, {1, 2}, {3, 3}, {9, 9}});
  ResultDelta d = DiffResults(prev, curr);
  ResultSet rebuilt = ApplyDelta(prev, d);
  EXPECT_EQ(rebuilt, curr);
}

// Regression (docs/ARCHITECTURE.md §13/§14): a degraded round must stay
// visible through the diff/apply pipeline — a subscriber folding deltas sees
// the same provenance an offline caller reads off the ResultSet, even when
// the diff itself is empty.
TEST(ResultDeltaTest, DegradedProvenancePropagatesThroughDiffAndApply) {
  ResultSet prev = Make({{1, 1}, {2, 2}});
  ResultSet curr = Make({{1, 1}, {2, 2}});
  curr.MarkDegraded(3);
  curr.MarkDegraded(1);
  ResultDelta d = DiffResults(prev, curr);
  EXPECT_TRUE(d.Empty());  // identical matches...
  EXPECT_TRUE(d.degraded());  // ...but the degraded round is still flagged
  EXPECT_EQ(d.degraded_shards, (std::vector<uint32_t>{3, 1}));
  ResultSet rebuilt = ApplyDelta(prev, d);
  EXPECT_EQ(rebuilt, curr);
  EXPECT_TRUE(rebuilt.degraded());
  EXPECT_EQ(rebuilt.degraded_shards(), curr.degraded_shards());
  // A clean round's delta carries no provenance.
  EXPECT_FALSE(DiffResults(prev, prev).degraded());
}

TEST(ResultDeltaTest, TrackerFirstRoundAllAddedAndStamped) {
  IncrementalResultTracker tracker;
  ResultSet r1 = Make({{1, 1}, {2, 2}});
  ResultDelta d = tracker.Observe(r1, /*now=*/7);
  EXPECT_EQ(d.added.size(), 2u);
  EXPECT_TRUE(d.removed.empty());
  EXPECT_EQ(d.round, 1u);
  EXPECT_EQ(d.time, 7);
  EXPECT_EQ(tracker.rounds(), 1u);
  EXPECT_EQ(tracker.time(), 7);
  EXPECT_EQ(tracker.Current(), r1);
}

TEST(ResultDeltaTest, TrackerSequencesStampedDeltas) {
  IncrementalResultTracker tracker;
  (void)tracker.Observe(Make({{1, 1}, {2, 2}}), 2);
  ResultDelta d = tracker.Observe(Make({{2, 2}, {3, 3}}), 4);
  EXPECT_EQ(d.added, (std::vector<Match>{{3, 3}}));
  EXPECT_EQ(d.removed, (std::vector<Match>{{1, 1}}));
  EXPECT_EQ(d.round, 2u);
  EXPECT_EQ(d.time, 4);
  ResultDelta d2 = tracker.Observe(Make({{2, 2}, {3, 3}}), 6);
  EXPECT_TRUE(d2.Empty());
  EXPECT_EQ(d2.round, 3u);
  EXPECT_EQ(tracker.rounds(), 3u);
}

TEST(ResultDeltaTest, TrackerDeltaSinceCatchesUpFromAnyBase) {
  IncrementalResultTracker tracker;
  ResultSet r1 = Make({{1, 1}, {2, 2}});
  ResultSet r2 = Make({{2, 2}, {3, 3}});
  ResultSet r3 = Make({{3, 3}, {4, 4}});
  (void)tracker.Observe(r1, 2);
  (void)tracker.Observe(r2, 4);
  (void)tracker.Observe(r3, 6);
  // A consumer stuck at r1 catches up to the cursor head in one delta.
  ResultDelta d = tracker.DeltaSince(r1);
  EXPECT_EQ(d.round, 3u);
  EXPECT_EQ(d.time, 6);
  EXPECT_EQ(ApplyDelta(r1, d), r3);
  // The cursor itself is undisturbed, and DeltaSince(head) is empty.
  EXPECT_EQ(tracker.Current(), r3);
  EXPECT_TRUE(tracker.DeltaSince(tracker.Current()).Empty());
}

TEST(ResultDeltaTest, TrackerResetForgetsEverything) {
  IncrementalResultTracker tracker;
  (void)tracker.Observe(Make({{1, 1}}), 2);
  tracker.Reset();
  EXPECT_EQ(tracker.rounds(), 0u);
  EXPECT_TRUE(tracker.Current().empty());
  ResultDelta d = tracker.Observe(Make({{5, 5}}), 9);
  EXPECT_EQ(d.round, 1u);
  EXPECT_EQ(d.added.size(), 1u);
  EXPECT_TRUE(d.removed.empty());
}

TEST(ResultDeltaTest, SaveLoadRoundTrips) {
  ResultDelta d;
  d.round = 42;
  d.time = -7;  // Timestamp is signed; the wire format must preserve it
  d.degraded_shards = {2, 0};
  d.added = {{1, 2}, {3, 4}};
  d.removed = {{0, 9}, {5, 5}};
  ByteWriter writer;
  d.Save(&writer);
  ByteReader reader(writer.bytes());
  ResultDelta back;
  ASSERT_TRUE(ResultDelta::Load(&reader, &back).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(back, d);
}

TEST(ResultDeltaTest, LoadRejectsTruncationAsDataLoss) {
  ResultDelta d;
  d.round = 1;
  d.added = {{1, 1}, {2, 2}};
  ByteWriter writer;
  d.Save(&writer);
  const std::string bytes = writer.bytes();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    ByteReader reader(std::string_view(bytes).substr(0, cut));
    ResultDelta back;
    Status s = ResultDelta::Load(&reader, &back);
    ASSERT_FALSE(s.ok()) << "cut=" << cut;
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << "cut=" << cut;
  }
}

TEST(ResultDeltaTest, LoadRejectsUnorderedAndOverlappingSets) {
  // Descending `added` violates the ordering contract.
  ByteWriter unordered;
  ResultDelta d;
  d.added = {{2, 2}, {1, 1}};  // not ascending — bypass Save's implicit order
  unordered.PutU64(d.round);
  unordered.PutI64(d.time);
  unordered.PutU64(0);                      // no degraded shards
  unordered.PutU64(2);                      // added count
  for (const Match& m : d.added) {
    unordered.PutU32(m.qid);
    unordered.PutU32(m.oid);
  }
  unordered.PutU64(0);  // removed count
  ByteReader r1(unordered.bytes());
  ResultDelta back;
  EXPECT_EQ(ResultDelta::Load(&r1, &back).code(), StatusCode::kCorruption);

  // added ∩ removed must be empty.
  ResultDelta overlap;
  overlap.added = {{1, 1}};
  overlap.removed = {{1, 1}};
  ByteWriter w2;
  overlap.Save(&w2);
  ByteReader r2(w2.bytes());
  EXPECT_EQ(ResultDelta::Load(&r2, &back).code(), StatusCode::kCorruption);

  // An overlap the merge walk reaches only after interleaved elements.
  overlap.added = {{1, 1}, {2, 5}, {4, 4}};
  overlap.removed = {{1, 2}, {3, 3}, {4, 4}, {9, 9}};
  ByteWriter w3;
  overlap.Save(&w3);
  ByteReader r3(w3.bytes());
  EXPECT_EQ(ResultDelta::Load(&r3, &back).code(), StatusCode::kCorruption);
}

/// The documented layout written one field at a time: what the block codec
/// must reproduce byte for byte.
std::string FieldByFieldSave(const ResultDelta& d) {
  ByteWriter w;
  w.PutU64(d.round);
  w.PutI64(d.time);
  w.PutU64(d.degraded_shards.size());
  for (uint32_t s : d.degraded_shards) w.PutU32(s);
  for (const std::vector<Match>* v : {&d.added, &d.removed}) {
    w.PutU64(v->size());
    for (const Match& m : *v) {
      w.PutU32(m.qid);
      w.PutU32(m.oid);
    }
  }
  return w.Release();
}

// Property: Apply(prev, Diff(prev, curr)) == curr on random sets, and the
// stamped encoding round-trips bit-exactly.
class DeltaRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeltaRoundTripTest, RoundTrips) {
  Rng rng(GetParam());
  IncrementalResultTracker tracker;
  for (int iter = 0; iter < 100; ++iter) {
    ResultSet prev;
    ResultSet curr;
    for (int i = 0; i < 200; ++i) {
      QueryId q = static_cast<QueryId>(rng.NextBounded(20));
      ObjectId o = static_cast<ObjectId>(rng.NextBounded(20));
      if (rng.NextBool(0.5)) prev.Add(q, o);
      if (rng.NextBool(0.5)) curr.Add(q, o);
    }
    prev.Normalize();
    curr.Normalize();
    ResultDelta d = DiffResults(prev, curr);
    EXPECT_EQ(ApplyDelta(prev, d), curr);
    // Delta size consistency: |curr| = |prev| + |added| - |removed|.
    EXPECT_EQ(curr.size(), prev.size() + d.added.size() - d.removed.size());
    // Wire round trip preserves the stamped structure exactly.
    ResultDelta stamped = tracker.Observe(curr, static_cast<Timestamp>(iter));
    if (iter % 7 == 0) stamped.degraded_shards = {static_cast<uint32_t>(iter)};
    ByteWriter writer;
    stamped.Save(&writer);
    EXPECT_EQ(writer.bytes(), FieldByFieldSave(stamped));
    EXPECT_EQ(stamped.SavedBytes(), writer.bytes().size());
    ByteReader reader(writer.bytes());
    ResultDelta back;
    ASSERT_TRUE(ResultDelta::Load(&reader, &back).ok());
    EXPECT_EQ(back, stamped);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaRoundTripTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace scuba
