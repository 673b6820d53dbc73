#include "cluster/moving_cluster.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace scuba {
namespace {

LocationUpdate Obj(ObjectId oid, Point p, double speed = 10.0,
                   NodeId dest = 1, Timestamp t = 0) {
  LocationUpdate u;
  u.oid = oid;
  u.position = p;
  u.time = t;
  u.speed = speed;
  u.dest_node = dest;
  u.dest_position = Point{1000, 0};
  return u;
}

QueryUpdate Qry(QueryId qid, Point p, double w = 40, double h = 40,
                double speed = 10.0, NodeId dest = 1, Timestamp t = 0) {
  QueryUpdate u;
  u.qid = qid;
  u.position = p;
  u.time = t;
  u.speed = speed;
  u.dest_node = dest;
  u.dest_position = Point{1000, 0};
  u.range_width = w;
  u.range_height = h;
  return u;
}

/// Index of `ref` in the cluster's members (a linear scan), or size() when
/// absent — how tests name the member the index-taking operations act on.
size_t IndexOf(const MovingCluster& c, EntityRef ref) {
  const ClusterMember* m = c.FindMember(ref);
  return m == nullptr ? c.size() : static_cast<size_t>(m - c.members().data());
}

Status Refresh(MovingCluster* c, const LocationUpdate& u) {
  return c->UpdateObjectMember(IndexOf(*c, {EntityKind::kObject, u.oid}), u);
}

Status Remove(MovingCluster* c, EntityRef ref) {
  return c->RemoveMember(IndexOf(*c, ref), ref);
}

TEST(MovingClusterTest, FromObjectSingleton) {
  MovingCluster c = MovingCluster::FromObject(3, Obj(9, {10, 20}, 12.0, 4));
  EXPECT_EQ(c.cid(), 3u);
  EXPECT_EQ(c.centroid(), (Point{10, 20}));
  EXPECT_EQ(c.radius(), 0.0);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.object_count(), 1u);
  EXPECT_EQ(c.query_count(), 0u);
  EXPECT_FALSE(c.HasMixedKinds());
  EXPECT_DOUBLE_EQ(c.average_speed(), 12.0);
  EXPECT_EQ(c.dest_node(), 4u);
  EXPECT_EQ(c.query_reach(), 0.0);
}

TEST(MovingClusterTest, FromQuerySingletonHasReach) {
  MovingCluster c = MovingCluster::FromQuery(1, Qry(2, {0, 0}, 60, 80));
  EXPECT_EQ(c.query_count(), 1u);
  EXPECT_DOUBLE_EQ(c.query_reach(), std::hypot(30.0, 40.0));
  EXPECT_DOUBLE_EQ(c.JoinBounds().radius, std::hypot(30.0, 40.0));
}

TEST(MovingClusterTest, AbsorbUpdatesCentroidToMean) {
  MovingCluster c = MovingCluster::FromObject(0, Obj(1, {0, 0}));
  c.AbsorbObject(Obj(2, {10, 0}));
  EXPECT_NEAR(c.centroid().x, 5.0, 1e-9);
  EXPECT_NEAR(c.centroid().y, 0.0, 1e-9);
  c.AbsorbObject(Obj(3, {2, 9}));
  EXPECT_NEAR(c.centroid().x, 4.0, 1e-9);
  EXPECT_NEAR(c.centroid().y, 3.0, 1e-9);
  EXPECT_EQ(c.size(), 3u);
}

TEST(MovingClusterTest, MemberPositionsReconstructExactly) {
  MovingCluster c = MovingCluster::FromObject(0, Obj(1, {0, 0}));
  c.AbsorbObject(Obj(2, {10, 0}));
  c.AbsorbQuery(Qry(7, {5, 5}));
  const ClusterMember* m1 = c.FindMember({EntityKind::kObject, 1});
  const ClusterMember* m2 = c.FindMember({EntityKind::kObject, 2});
  const ClusterMember* m7 = c.FindMember({EntityKind::kQuery, 7});
  ASSERT_NE(m1, nullptr);
  ASSERT_NE(m2, nullptr);
  ASSERT_NE(m7, nullptr);
  EXPECT_TRUE(ApproxEqual(c.MemberPosition(*m1), {0, 0}, 1e-9));
  EXPECT_TRUE(ApproxEqual(c.MemberPosition(*m2), {10, 0}, 1e-9));
  EXPECT_TRUE(ApproxEqual(c.MemberPosition(*m7), {5, 5}, 1e-9));
}

TEST(MovingClusterTest, RadiusCoversAllMembers) {
  Rng rng(5);
  MovingCluster c = MovingCluster::FromObject(0, Obj(0, {50, 50}));
  for (uint32_t i = 1; i < 50; ++i) {
    Point p{rng.NextDouble(0, 100), rng.NextDouble(0, 100)};
    c.AbsorbObject(Obj(i, p));
    for (const ClusterMember& m : c.members()) {
      EXPECT_LE(Distance(c.centroid(), c.MemberPosition(m)),
                c.radius() + 1e-6);
    }
  }
  // Tightening may shrink the radius but must still cover everyone.
  double before = c.radius();
  c.RecomputeTightBounds();
  EXPECT_LE(c.radius(), before + 1e-9);
  for (const ClusterMember& m : c.members()) {
    EXPECT_LE(Distance(c.centroid(), c.MemberPosition(m)), c.radius() + 1e-9);
  }
}

TEST(MovingClusterTest, AverageSpeedTracksMembers) {
  MovingCluster c = MovingCluster::FromObject(0, Obj(1, {0, 0}, 10.0));
  c.AbsorbObject(Obj(2, {1, 0}, 20.0));
  EXPECT_DOUBLE_EQ(c.average_speed(), 15.0);
  ASSERT_TRUE(Refresh(&c, Obj(2, {1, 0}, 30.0)).ok());
  EXPECT_DOUBLE_EQ(c.average_speed(), 20.0);
  ASSERT_TRUE(Remove(&c, {EntityKind::kObject, 2}).ok());
  EXPECT_DOUBLE_EQ(c.average_speed(), 10.0);
}

TEST(MovingClusterTest, SatisfiesJoinConditions) {
  MovingCluster c = MovingCluster::FromObject(0, Obj(1, {0, 0}, 10.0, 4));
  // Same destination, close, similar speed.
  EXPECT_TRUE(c.SatisfiesJoinConditions({50, 0}, 12.0, 4, 100.0, 5.0));
  // Wrong destination.
  EXPECT_FALSE(c.SatisfiesJoinConditions({50, 0}, 12.0, 5, 100.0, 5.0));
  // Too far.
  EXPECT_FALSE(c.SatisfiesJoinConditions({101, 0}, 12.0, 4, 100.0, 5.0));
  // Boundary distance counts as inside.
  EXPECT_TRUE(c.SatisfiesJoinConditions({100, 0}, 12.0, 4, 100.0, 5.0));
  // Speed delta too large (both directions).
  EXPECT_FALSE(c.SatisfiesJoinConditions({50, 0}, 15.5, 4, 100.0, 5.0));
  EXPECT_FALSE(c.SatisfiesJoinConditions({50, 0}, 4.0, 4, 100.0, 5.0));
  // Speed boundary counts.
  EXPECT_TRUE(c.SatisfiesJoinConditions({50, 0}, 15.0, 4, 100.0, 5.0));
}

TEST(MovingClusterTest, UpdateMemberMovesCentroid) {
  MovingCluster c = MovingCluster::FromObject(0, Obj(1, {0, 0}));
  c.AbsorbObject(Obj(2, {10, 0}));
  ASSERT_TRUE(Refresh(&c, Obj(1, {4, 0})).ok());
  EXPECT_NEAR(c.centroid().x, 7.0, 1e-9);
  const ClusterMember* m1 = c.FindMember({EntityKind::kObject, 1});
  EXPECT_TRUE(ApproxEqual(c.MemberPosition(*m1), {4, 0}, 1e-9));
}

TEST(MovingClusterTest, UpdateMissingMemberIsNotFound) {
  MovingCluster c = MovingCluster::FromObject(0, Obj(1, {0, 0}));
  // The member at the index must be the update's entity...
  EXPECT_TRUE(c.UpdateObjectMember(0, Obj(99, {1, 1})).IsNotFound());
  EXPECT_TRUE(c.UpdateQueryMember(0, Qry(1, {1, 1})).IsNotFound());
  EXPECT_TRUE(c.RemoveMember(0, {EntityKind::kQuery, 1}).IsNotFound());
  // ...and the index must exist.
  EXPECT_TRUE(c.UpdateObjectMember(1, Obj(1, {1, 1})).IsNotFound());
  EXPECT_TRUE(c.RemoveMember(5, {EntityKind::kObject, 1}).IsNotFound());
  EXPECT_EQ(c.size(), 1u);
}

TEST(MovingClusterTest, RemoveMemberAdjustsState) {
  MovingCluster c = MovingCluster::FromObject(0, Obj(1, {0, 0}));
  c.AbsorbObject(Obj(2, {10, 0}));
  c.AbsorbQuery(Qry(3, {5, 0}));
  EXPECT_TRUE(c.HasMixedKinds());
  ASSERT_TRUE(Remove(&c, {EntityKind::kQuery, 3}).ok());
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.query_count(), 0u);
  EXPECT_FALSE(c.HasMixedKinds());
  EXPECT_NEAR(c.centroid().x, 5.0, 1e-9);
  EXPECT_EQ(c.FindMember({EntityKind::kQuery, 3}), nullptr);
}

TEST(MovingClusterTest, TranslateMovesEveryone) {
  MovingCluster c = MovingCluster::FromObject(0, Obj(1, {0, 0}));
  c.AbsorbObject(Obj(2, {10, 0}));
  Point before_centroid = c.centroid();
  c.Translate({5, -3});
  EXPECT_TRUE(ApproxEqual(c.centroid(),
                          before_centroid + Vec2{5, -3}, 1e-9));
  const ClusterMember* m1 = c.FindMember({EntityKind::kObject, 1});
  EXPECT_TRUE(ApproxEqual(c.MemberPosition(*m1), {5, -3}, 1e-9));
  EXPECT_EQ(c.translation(), (Vec2{5, -3}));
  // A fresh update after translation re-anchors exactly.
  ASSERT_TRUE(Refresh(&c, Obj(1, {100, 100})).ok());
  EXPECT_TRUE(ApproxEqual(c.MemberPosition(*c.FindMember({EntityKind::kObject, 1})),
                          {100, 100}, 1e-9));
}

TEST(MovingClusterTest, VelocityPointsAtDestination) {
  MovingCluster c = MovingCluster::FromObject(0, Obj(1, {0, 0}, 10.0));
  // dest_position is (1000, 0): velocity is +x at average speed.
  Vec2 v = c.Velocity();
  EXPECT_NEAR(v.x, 10.0, 1e-9);
  EXPECT_NEAR(v.y, 0.0, 1e-9);
}

TEST(MovingClusterTest, ExpiryTime) {
  MovingCluster c = MovingCluster::FromObject(0, Obj(1, {0, 0}, 100.0));
  // 1000 units at speed 100 -> 10 ticks (+1 rounding).
  Timestamp exp = c.ComputeExpiryTime(5);
  EXPECT_EQ(exp, 16);
}

TEST(MovingClusterTest, ExpiryWithZeroSpeedIsFarFuture) {
  MovingCluster c = MovingCluster::FromObject(0, Obj(1, {0, 0}, 0.0));
  EXPECT_GT(c.ComputeExpiryTime(0), 1000000);
}

TEST(MovingClusterTest, ShedPositionsInsideNucleus) {
  MovingCluster c = MovingCluster::FromObject(0, Obj(1, {0, 0}));
  c.AbsorbObject(Obj(2, {2, 0}));
  c.AbsorbObject(Obj(3, {80, 0}));  // far member stays exact
  Point centroid = c.centroid();
  size_t shed = c.ShedPositions(30.0);
  EXPECT_EQ(shed, 2u);
  const ClusterMember* m1 = c.FindMember({EntityKind::kObject, 1});
  const ClusterMember* m3 = c.FindMember({EntityKind::kObject, 3});
  EXPECT_TRUE(m1->shed);
  EXPECT_EQ(m1->approx_radius, 30.0);
  EXPECT_FALSE(m3->shed);
  // Shed member reconstructs at the shedding-time centroid.
  EXPECT_TRUE(ApproxEqual(c.MemberPosition(*m1), centroid, 1e-9));
  // Re-shedding is a no-op for already-shed members.
  EXPECT_EQ(c.ShedPositions(30.0), 0u);
}

TEST(MovingClusterTest, ShedZeroRadiusIsNoop) {
  MovingCluster c = MovingCluster::FromObject(0, Obj(1, {0, 0}));
  EXPECT_EQ(c.ShedPositions(0.0), 0u);
  EXPECT_FALSE(c.members()[0].shed);
}

TEST(MovingClusterTest, ShedMemberIfInNucleus) {
  MovingCluster c = MovingCluster::FromObject(0, Obj(1, {0, 0}));
  c.AbsorbObject(Obj(2, {50, 0}));
  // Member 2 is ~25 from the centroid (25, 0): nucleus 10 misses it.
  const size_t index = IndexOf(c, {EntityKind::kObject, 2});
  EXPECT_FALSE(c.ShedMemberIfInNucleus(index, 10.0));
  EXPECT_TRUE(c.ShedMemberIfInNucleus(index, 30.0));
  EXPECT_TRUE(c.FindMember({EntityKind::kObject, 2})->shed);
  // Already shed, or no member at the index: false.
  EXPECT_FALSE(c.ShedMemberIfInNucleus(index, 30.0));
  EXPECT_FALSE(c.ShedMemberIfInNucleus(77, 30.0));
}

TEST(MovingClusterTest, UpdateUnshedsMember) {
  MovingCluster c = MovingCluster::FromObject(0, Obj(1, {0, 0}));
  c.AbsorbObject(Obj(2, {2, 0}));
  c.ShedPositions(10.0);
  ASSERT_TRUE(c.FindMember({EntityKind::kObject, 2})->shed);
  ASSERT_TRUE(Refresh(&c, Obj(2, {3, 0})).ok());
  const ClusterMember* m = c.FindMember({EntityKind::kObject, 2});
  EXPECT_FALSE(m->shed);
  EXPECT_EQ(m->approx_radius, 0.0);
  EXPECT_TRUE(ApproxEqual(c.MemberPosition(*m), {3, 0}, 1e-9));
}

TEST(MovingClusterTest, ShedQueryKeepsReach) {
  // Shed queries are approximated at the nucleus center with their original
  // extent, so shedding does not inflate the query reach.
  MovingCluster c = MovingCluster::FromQuery(0, Qry(1, {0, 0}, 40, 40));
  double base_reach = c.query_reach();
  c.ShedPositions(25.0);
  EXPECT_DOUBLE_EQ(c.query_reach(), base_reach);
  c.RecomputeTightBounds();
  EXPECT_DOUBLE_EQ(c.query_reach(), base_reach);
}

TEST(MovingClusterTest, NucleusLifecycle) {
  MovingCluster c = MovingCluster::FromObject(0, Obj(1, {10, 0}));
  c.AbsorbObject(Obj(2, {30, 0}));
  EXPECT_FALSE(c.has_nucleus());
  ASSERT_GT(c.ShedPositions(25.0), 0u);
  EXPECT_TRUE(c.has_nucleus());
  EXPECT_DOUBLE_EQ(c.nucleus_radius(), 25.0);
  // The nucleus was anchored at the shedding-time centroid (20, 0).
  EXPECT_TRUE(ApproxEqual(c.NucleusCenter(), {20, 0}, 1e-9));
  // All shed members share the nucleus center.
  for (const ClusterMember& m : c.members()) {
    EXPECT_TRUE(m.shed);
    EXPECT_TRUE(ApproxEqual(c.MemberPosition(m), c.NucleusCenter(), 1e-9));
  }
  // Fresh updates unshed everyone; tightening then clears the nucleus.
  ASSERT_TRUE(Refresh(&c, Obj(1, {10, 0})).ok());
  ASSERT_TRUE(Refresh(&c, Obj(2, {30, 0})).ok());
  c.RecomputeTightBounds();
  EXPECT_FALSE(c.has_nucleus());
  EXPECT_EQ(c.nucleus_radius(), 0.0);
}

TEST(MovingClusterTest, NucleusReanchorsToCentroidOnTighten) {
  MovingCluster c = MovingCluster::FromObject(0, Obj(1, {0, 0}));
  c.AbsorbObject(Obj(2, {10, 0}));
  c.ShedPositions(100.0);  // both shed, nucleus at (5, 0)
  c.AbsorbObject(Obj(3, {45, 0}));  // exact member pulls the centroid
  c.RecomputeTightBounds();
  // Centroid fixed point = mean of exact members = (45, 0); the nucleus and
  // its shed members follow.
  EXPECT_TRUE(ApproxEqual(c.centroid(), {45, 0}, 1e-9));
  EXPECT_TRUE(ApproxEqual(c.NucleusCenter(), {45, 0}, 1e-9));
  for (const ClusterMember& m : c.members()) {
    if (m.shed) {
      EXPECT_TRUE(ApproxEqual(c.MemberPosition(m), {45, 0}, 1e-9));
    }
  }
}

TEST(MovingClusterTest, MemoryShrinksWhenShedding) {
  MovingCluster c = MovingCluster::FromObject(0, Obj(1, {0, 0}));
  for (uint32_t i = 2; i < 20; ++i) {
    c.AbsorbObject(Obj(i, {static_cast<double>(i % 5), 0}));
  }
  size_t before = c.EstimateMemoryUsage();
  ASSERT_GT(c.ShedPositions(50.0), 0u);
  EXPECT_LT(c.EstimateMemoryUsage(), before);
}

TEST(MovingClusterTest, TranslationCarriesShedMembers) {
  MovingCluster c = MovingCluster::FromObject(0, Obj(1, {0, 0}));
  c.ShedPositions(10.0);
  Point before = c.MemberPosition(c.members()[0]);
  c.Translate({7, 7});
  Point after = c.MemberPosition(c.members()[0]);
  EXPECT_TRUE(ApproxEqual(after, before + Vec2{7, 7}, 1e-9));
}

TEST(MovingClusterTest, RemoveMemberSwapsTailIntoHole) {
  MovingCluster c = MovingCluster::FromObject(0, Obj(1, {0, 0}));
  c.AbsorbObject(Obj(2, {10, 0}));
  c.AbsorbObject(Obj(3, {20, 0}));
  ASSERT_TRUE(Remove(&c, {EntityKind::kObject, 1}).ok());
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.members()[0].id, 3u);  // the tail filled index 0
  EXPECT_EQ(c.members()[1].id, 2u);
  EXPECT_TRUE(ApproxEqual(c.MemberPosition(c.members()[0]), {20, 0}, 1e-9));
}

// Property: a member's Cartesian offset travels with the cluster. After an
// absorb or a refresh reports position p, any run of Translate calls leaves
// MemberPosition at p plus the summed deltas.
class MemberOffsetTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MemberOffsetTest, MemberTravelsWithSummedTranslations) {
  Rng rng(GetParam());
  MovingCluster c = MovingCluster::FromObject(
      0, Obj(0, {rng.NextDouble(0, 10000), rng.NextDouble(0, 10000)}));
  uint32_t next_id = 1;
  for (int step = 0; step < 300; ++step) {
    const Point p{c.centroid().x + rng.NextDouble(-200, 200),
                  c.centroid().y + rng.NextDouble(-200, 200)};
    uint32_t id = 0;
    if (rng.NextDouble() < 0.5) {
      id = next_id++;
      c.AbsorbObject(Obj(id, p));
    } else {
      id = static_cast<uint32_t>(rng.NextBounded(next_id));
      ASSERT_TRUE(Refresh(&c, Obj(id, p)).ok());
    }
    Vec2 summed{0, 0};
    const uint64_t translations = rng.NextBounded(6);
    for (uint64_t t = 0; t < translations; ++t) {
      const Vec2 delta{rng.NextDouble(-150, 150), rng.NextDouble(-150, 150)};
      c.Translate(delta);
      summed += delta;
    }
    const ClusterMember* m = c.FindMember({EntityKind::kObject, id});
    ASSERT_NE(m, nullptr);
    const Point expected = p + summed;
    const Point got = c.MemberPosition(*m);
    const double tolerance =
        1e-9 * std::max({1.0, std::fabs(expected.x), std::fabs(expected.y)});
    EXPECT_NEAR(got.x, expected.x, tolerance) << "step " << step;
    EXPECT_NEAR(got.y, expected.y, tolerance) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemberOffsetTest,
                         ::testing::Values(11, 12, 13, 14));

// Property: random absorb/update/remove sequences keep the centroid equal to
// the mean of reconstructed member positions and the radius covering.
class ClusterInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClusterInvariantTest, CentroidIsMeanAndRadiusCovers) {
  Rng rng(GetParam());
  MovingCluster c = MovingCluster::FromObject(0, Obj(0, {0, 0}));
  uint32_t next_id = 1;
  std::vector<uint32_t> live{0};
  for (int step = 0; step < 300; ++step) {
    double action = rng.NextDouble();
    if (action < 0.5 || live.size() <= 1) {
      Point p{rng.NextDouble(-50, 50), rng.NextDouble(-50, 50)};
      c.AbsorbObject(Obj(next_id, p, rng.NextDouble(5, 15)));
      live.push_back(next_id++);
    } else if (action < 0.8) {
      uint32_t id = live[rng.NextBounded(live.size())];
      Point p{rng.NextDouble(-50, 50), rng.NextDouble(-50, 50)};
      ASSERT_TRUE(Refresh(&c, Obj(id, p)).ok());
    } else {
      size_t idx = rng.NextBounded(live.size());
      ASSERT_TRUE(Remove(&c, {EntityKind::kObject, live[idx]}).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    // Invariants.
    Point sum{0, 0};
    for (const ClusterMember& m : c.members()) {
      Point p = c.MemberPosition(m);
      sum.x += p.x;
      sum.y += p.y;
      EXPECT_LE(Distance(c.centroid(), p), c.radius() + 1e-6);
    }
    double n = static_cast<double>(c.size());
    EXPECT_NEAR(c.centroid().x, sum.x / n, 1e-6);
    EXPECT_NEAR(c.centroid().y, sum.y / n, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterInvariantTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace scuba
