#include "core/cluster_join.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace scuba {
namespace {

LocationUpdate Obj(ObjectId oid, Point p, NodeId dest = 1) {
  LocationUpdate u;
  u.oid = oid;
  u.position = p;
  u.speed = 10.0;
  u.dest_node = dest;
  u.dest_position = Point{9000, 9000};
  return u;
}

QueryUpdate Qry(QueryId qid, Point p, double w = 60, double h = 60,
                NodeId dest = 1) {
  QueryUpdate u;
  u.qid = qid;
  u.position = p;
  u.speed = 10.0;
  u.dest_node = dest;
  u.dest_position = Point{9000, 9000};
  u.range_width = w;
  u.range_height = h;
  return u;
}

struct JoinFixture {
  ClusterStore store;
  GridIndex grid =
      std::move(GridIndex::Create(Rect{0, 0, 10000, 10000}, 100).value());

  MovingCluster* Add(MovingCluster cluster) {
    ClusterId cid = cluster.cid();
    cluster.RecomputeTightBounds();
    EXPECT_TRUE(grid.Insert(cid, cluster.JoinBounds()).ok());
    EXPECT_TRUE(store.AddCluster(std::move(cluster)).ok());
    return store.GetCluster(cid);
  }
};

TEST(ClusterJoinTest, RejectsNullResults) {
  JoinFixture f;
  ClusterJoinExecutor executor;
  EXPECT_TRUE(executor.Execute(f.store, f.grid, nullptr).IsInvalidArgument());
}

TEST(ClusterJoinTest, EmptyStoreYieldsEmpty) {
  JoinFixture f;
  ClusterJoinExecutor executor;
  ResultSet results;
  ASSERT_TRUE(executor.Execute(f.store, f.grid, &results).ok());
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(executor.counters().pairs_tested, 0u);
}

TEST(ClusterJoinTest, MixedClusterSelfJoin) {
  JoinFixture f;
  MovingCluster c = MovingCluster::FromObject(f.store.NextClusterId(),
                                              Obj(1, {100, 100}));
  c.AbsorbQuery(Qry(1, {110, 100}));
  f.Add(std::move(c));
  ClusterJoinExecutor executor;
  ResultSet results;
  ASSERT_TRUE(executor.Execute(f.store, f.grid, &results).ok());
  EXPECT_TRUE(results.Contains(1, 1));
  EXPECT_EQ(executor.counters().within_joins_single, 1u);
  EXPECT_EQ(executor.counters().within_joins_pair, 0u);
}

TEST(ClusterJoinTest, CrossClusterPairJoin) {
  JoinFixture f;
  f.Add(MovingCluster::FromObject(f.store.NextClusterId(), Obj(1, {100, 100}, 1)));
  f.Add(MovingCluster::FromQuery(f.store.NextClusterId(),
                                 Qry(1, {120, 100}, 80, 80, 2)));
  ClusterJoinExecutor executor;
  ResultSet results;
  ASSERT_TRUE(executor.Execute(f.store, f.grid, &results).ok());
  EXPECT_TRUE(results.Contains(1, 1));
  EXPECT_EQ(executor.counters().within_joins_pair, 1u);
  EXPECT_EQ(executor.counters().pairs_overlapping, 1u);
}

TEST(ClusterJoinTest, PairDedupAcrossSharedCells) {
  // Two big clusters sharing many grid cells must be pair-joined exactly once.
  JoinFixture f;
  MovingCluster a = MovingCluster::FromObject(f.store.NextClusterId(),
                                              Obj(1, {500, 500}, 1));
  a.AbsorbObject(Obj(2, {900, 900}, 1));
  MovingCluster b = MovingCluster::FromQuery(f.store.NextClusterId(),
                                             Qry(1, {600, 600}, 100, 100, 2));
  b.AbsorbQuery(Qry(2, {800, 800}, 100, 100, 2));
  f.Add(std::move(a));
  f.Add(std::move(b));
  ClusterJoinExecutor executor;
  ResultSet results;
  ASSERT_TRUE(executor.Execute(f.store, f.grid, &results).ok());
  EXPECT_EQ(executor.counters().pairs_tested, 1u);
  EXPECT_EQ(executor.counters().within_joins_pair, 1u);
}

TEST(ClusterJoinTest, SameKindPairsAreSkipped) {
  JoinFixture f;
  f.Add(MovingCluster::FromObject(f.store.NextClusterId(), Obj(1, {100, 100}, 1)));
  f.Add(MovingCluster::FromObject(f.store.NextClusterId(), Obj(2, {110, 100}, 2)));
  ClusterJoinExecutor executor;
  ResultSet results;
  ASSERT_TRUE(executor.Execute(f.store, f.grid, &results).ok());
  EXPECT_EQ(executor.counters().pairs_tested, 0u);
}

TEST(ClusterJoinTest, FineFilterSkipsUnreachableQueries) {
  // Cluster pair overlaps via a far-reaching query, but a second small query
  // in the same cluster cannot reach the object cluster: the fine filter
  // must skip its member loop (1 comparison, not 1 + |objects|).
  JoinFixture f;
  MovingCluster objs = MovingCluster::FromObject(f.store.NextClusterId(),
                                                 Obj(1, {500, 100}, 1));
  objs.AbsorbObject(Obj(2, {510, 100}, 1));
  objs.AbsorbObject(Obj(3, {520, 100}, 1));
  MovingCluster qrys = MovingCluster::FromQuery(
      f.store.NextClusterId(), Qry(1, {100, 100}, 900, 900, 2));  // reaches
  qrys.AbsorbQuery(Qry(2, {100, 100}, 10, 10, 2));                // cannot
  f.Add(std::move(objs));
  f.Add(std::move(qrys));
  ClusterJoinExecutor executor;
  ResultSet results;
  ASSERT_TRUE(executor.Execute(f.store, f.grid, &results).ok());
  // Query 1 matches all three objects; query 2 matches none.
  EXPECT_EQ(results.size(), 3u);
  // One fine-filter bounds check per query; only query 1 reaches the member
  // loop (3 objects).
  EXPECT_EQ(executor.counters().bounds_checks, 2u);
  EXPECT_EQ(executor.counters().comparisons, 3u);
}

TEST(ClusterJoinTest, NucleusGroupingSharesPredicates) {
  JoinFixture f;
  MovingCluster objs = MovingCluster::FromObject(f.store.NextClusterId(),
                                                 Obj(1, {500, 100}, 1));
  for (uint32_t i = 2; i <= 10; ++i) {
    objs.AbsorbObject(Obj(i, {500.0 + i, 100}, 1));
  }
  EXPECT_EQ(objs.ShedPositions(50.0), 10u);  // everyone into one nucleus
  f.Add(std::move(objs));
  f.Add(MovingCluster::FromQuery(f.store.NextClusterId(),
                                 Qry(1, {520, 100}, 100, 100, 2)));
  ClusterJoinExecutor executor;
  ResultSet results;
  ASSERT_TRUE(executor.Execute(f.store, f.grid, &results).ok());
  // All ten objects match through ONE nucleus predicate (the fine filter is
  // a bounds check, not a comparison): 10 results.
  EXPECT_EQ(results.size(), 10u);
  EXPECT_EQ(executor.counters().bounds_checks, 1u);
  EXPECT_EQ(executor.counters().comparisons, 1u);
}

TEST(ClusterJoinTest, CountersAccumulateAcrossExecutes) {
  JoinFixture f;
  MovingCluster c = MovingCluster::FromObject(f.store.NextClusterId(),
                                              Obj(1, {100, 100}));
  c.AbsorbQuery(Qry(1, {110, 100}));
  f.Add(std::move(c));
  ClusterJoinExecutor executor;
  ResultSet results;
  ASSERT_TRUE(executor.Execute(f.store, f.grid, &results).ok());
  uint64_t after_one = executor.counters().comparisons;
  ASSERT_TRUE(executor.Execute(f.store, f.grid, &results).ok());
  EXPECT_EQ(executor.counters().comparisons, 2 * after_one);
  EXPECT_EQ(executor.counters().within_joins_single, 2u);
}

// Property: the executor result over singleton clusters equals brute force.
class ClusterJoinPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClusterJoinPropertyTest, SingletonClustersMatchBruteForce) {
  Rng rng(GetParam());
  JoinFixture f;
  std::vector<LocationUpdate> objs;
  std::vector<QueryUpdate> qrys;
  for (uint32_t i = 0; i < 150; ++i) {
    LocationUpdate o =
        Obj(i, {rng.NextDouble(0, 10000), rng.NextDouble(0, 10000)},
            static_cast<NodeId>(i));
    objs.push_back(o);
    f.Add(MovingCluster::FromObject(f.store.NextClusterId(), o));
  }
  for (uint32_t i = 0; i < 100; ++i) {
    QueryUpdate q =
        Qry(i, {rng.NextDouble(0, 10000), rng.NextDouble(0, 10000)},
            rng.NextDouble(20, 400), rng.NextDouble(20, 400),
            static_cast<NodeId>(1000 + i));
    qrys.push_back(q);
    f.Add(MovingCluster::FromQuery(f.store.NextClusterId(), q));
  }
  ClusterJoinExecutor executor;
  ResultSet results;
  ASSERT_TRUE(executor.Execute(f.store, f.grid, &results).ok());

  ResultSet expected;
  for (const QueryUpdate& q : qrys) {
    for (const LocationUpdate& o : objs) {
      if (q.Range().Contains(o.position)) expected.Add(q.qid, o.oid);
    }
  }
  expected.Normalize();
  EXPECT_EQ(results, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterJoinPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(ClusterJoinTest, ScratchIgnoresLargeCids) {
  // A long-running engine's live cids are large: the join's scratch follows
  // the store's cluster slots, not the cids ever created.
  ClusterStore store;
  GridIndex grid =
      std::move(GridIndex::Create(Rect{0, 0, 1000, 1000}, 10).value());
  for (uint32_t i = 0; i < 8; ++i) {
    const ClusterId cid = 1000000 + 3 * i;
    MovingCluster c = MovingCluster::FromObject(
        cid, Obj(i + 1, {100.0 + 100 * i, 500.0}));
    c.AbsorbQuery(Qry(i + 1, {110.0 + 100 * i, 505.0}, 80, 80));
    ASSERT_TRUE(grid.Insert(cid, c.JoinBounds()).ok());
    ASSERT_TRUE(store.AddCluster(std::move(c)).ok());
  }
  ClusterJoinExecutor executor;
  ResultSet results;
  ASSERT_TRUE(executor.Execute(store, grid, &results).ok());
  EXPECT_TRUE(results.Contains(1, 1));
  EXPECT_TRUE(results.Contains(8, 8));
  EXPECT_LT(executor.EstimateMemoryUsage(), 64u * 1024);
}

TEST(ClusterJoinTest, ScratchIgnoresCidSpan) {
  // Two live clusters whose cids lie 10^7 apart: views are indexed by store
  // slot, so the join allocates for two clusters, not for the span.
  ClusterStore store;
  GridIndex grid =
      std::move(GridIndex::Create(Rect{0, 0, 1000, 1000}, 10).value());
  const ClusterId cids[] = {0, 10000000};
  for (uint32_t i = 0; i < 2; ++i) {
    MovingCluster c = MovingCluster::FromObject(
        cids[i], Obj(i + 1, {100.0 + 100 * i, 500.0}));
    c.AbsorbQuery(Qry(i + 1, {110.0 + 100 * i, 505.0}, 80, 80));
    ASSERT_TRUE(grid.Insert(cids[i], c.JoinBounds()).ok());
    ASSERT_TRUE(store.AddCluster(std::move(c)).ok());
  }
  ClusterJoinExecutor executor;
  ResultSet results;
  ASSERT_TRUE(executor.Execute(store, grid, &results).ok());
  EXPECT_TRUE(results.Contains(1, 1));
  EXPECT_TRUE(results.Contains(2, 2));
  EXPECT_LT(executor.EstimateMemoryUsage(), 64u * 1024);
}

TEST(ClusterJoinTest, FreeAndUnplacedSlotsGetEmptyViews) {
  // A dissolved cluster's free slot and a stored cluster the grid does not
  // hold are skipped; the remaining pair joins as usual.
  JoinFixture f;
  for (ObjectId oid : {8u, 9u}) {
    f.Add(MovingCluster::FromObject(f.store.NextClusterId(),
                                    Obj(oid, {105, 100})));
  }
  f.Add(MovingCluster::FromObject(f.store.NextClusterId(),
                                  Obj(1, {100, 100}, 1)));
  f.Add(MovingCluster::FromQuery(f.store.NextClusterId(),
                                 Qry(1, {120, 100}, 80, 80, 2)));
  for (ClusterId gone : {0u, 1u}) {
    ASSERT_TRUE(f.grid.Remove(gone).ok());
    ASSERT_TRUE(f.store.RemoveCluster(gone).ok());
  }
  ASSERT_TRUE(f.store
                  .AddCluster(MovingCluster::FromObject(f.store.NextClusterId(),
                                                        Obj(2, {110, 100})))
                  .ok());  // reuses a free slot, never placed in the grid
  ASSERT_EQ(f.store.ClusterSlotCount(), 4u);  // one slot is still free
  ClusterJoinExecutor executor;
  ResultSet results;
  ASSERT_TRUE(executor.Execute(f.store, f.grid, &results).ok());
  EXPECT_TRUE(results.Contains(1, 1));
  EXPECT_FALSE(results.Contains(1, 2));
  EXPECT_EQ(results.size(), 1u);
  EXPECT_EQ(executor.counters().pairs_tested, 1u);
}

}  // namespace
}  // namespace scuba
