// Determinism and owner-cell dedup coverage for the parallel cluster join:
// every thread count must produce bit-identical normalized results and
// identical merged counters, and multi-cell cluster (pairs) must be joined
// exactly once — in the lowest co-resident cell — with no shared seen-set.
// Disjoint cell windows (ScanWindow, as the engine's join windows use it)
// must split that work by owner cell and add up to the whole join, in any
// scan order after one Prepare.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/cluster_join.h"
#include "core/scuba_engine.h"

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

/// A seeded mixed workload: singletons, multi-member clusters spanning
/// several 100x100-unit grid cells, mixed-kind clusters and shed nuclei.
void PopulateSeededWorkload(JoinFixture* f, uint64_t seed) {
  Rng rng(seed);
  uint32_t next_oid = 1, next_qid = 1;
  for (int i = 0; i < 120; ++i) {
    f->Add(MovingCluster::FromObject(
        f->store.NextClusterId(),
        Obj(next_oid++, {rng.NextDouble(0, 10000), rng.NextDouble(0, 10000)},
            static_cast<NodeId>(i))));
  }
  for (int i = 0; i < 80; ++i) {
    f->Add(MovingCluster::FromQuery(
        f->store.NextClusterId(),
        Qry(next_qid++, {rng.NextDouble(0, 10000), rng.NextDouble(0, 10000)},
            rng.NextDouble(20, 400), rng.NextDouble(20, 400),
            static_cast<NodeId>(1000 + i))));
  }
  // Multi-member clusters whose spread (+-350 units) spans several cells.
  for (int i = 0; i < 25; ++i) {
    Point c{rng.NextDouble(500, 9500), rng.NextDouble(500, 9500)};
    MovingCluster cluster = MovingCluster::FromObject(
        f->store.NextClusterId(),
        Obj(next_oid++, c, static_cast<NodeId>(2000 + i)));
    for (int m = 0; m < 6; ++m) {
      cluster.AbsorbObject(Obj(next_oid++,
                               {c.x + rng.NextDouble(-350, 350),
                                c.y + rng.NextDouble(-350, 350)},
                               static_cast<NodeId>(2000 + i)));
    }
    if (i % 3 == 0) {  // every third becomes mixed-kind
      cluster.AbsorbQuery(Qry(next_qid++, {c.x + 30, c.y - 30}, 150, 150,
                              static_cast<NodeId>(2000 + i)));
    }
    if (i % 5 == 0) {  // and some shed into a nucleus
      cluster.ShedPositions(80.0);
    }
    f->Add(std::move(cluster));
  }
  // Query-heavy multi-member clusters.
  for (int i = 0; i < 15; ++i) {
    Point c{rng.NextDouble(500, 9500), rng.NextDouble(500, 9500)};
    MovingCluster cluster = MovingCluster::FromQuery(
        f->store.NextClusterId(),
        Qry(next_qid++, c, 120, 120, static_cast<NodeId>(3000 + i)));
    for (int m = 0; m < 4; ++m) {
      cluster.AbsorbQuery(Qry(next_qid++,
                              {c.x + rng.NextDouble(-250, 250),
                               c.y + rng.NextDouble(-250, 250)},
                              rng.NextDouble(40, 200), rng.NextDouble(40, 200),
                              static_cast<NodeId>(3000 + i)));
    }
    f->Add(std::move(cluster));
  }
}

bool CountersEqual(const ClusterJoinExecutor::Counters& a,
                   const ClusterJoinExecutor::Counters& b) {
  return a.comparisons == b.comparisons && a.bounds_checks == b.bounds_checks &&
         a.pairs_tested == b.pairs_tested &&
         a.pairs_overlapping == b.pairs_overlapping &&
         a.within_joins_single == b.within_joins_single &&
         a.within_joins_pair == b.within_joins_pair;
}

class ParallelJoinDeterminismTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ParallelJoinDeterminismTest, ThreadCountsProduceIdenticalResults) {
  JoinFixture f;
  PopulateSeededWorkload(&f, GetParam());

  ClusterJoinExecutor serial(/*query_reach_aware=*/true, /*threads=*/1);
  ResultSet expected;
  ASSERT_TRUE(serial.Execute(f.store, f.grid, &expected).ok());
  EXPECT_GT(expected.size(), 0u) << "workload must produce matches";

  for (uint32_t threads : {2u, 4u, 8u}) {
    ClusterJoinExecutor parallel(/*query_reach_aware=*/true, threads);
    ResultSet results;
    ASSERT_TRUE(parallel.Execute(f.store, f.grid, &results).ok());
    EXPECT_EQ(results, expected) << "threads=" << threads;
    EXPECT_TRUE(CountersEqual(parallel.counters(), serial.counters()))
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelJoinDeterminismTest,
                         ::testing::Values(7, 21, 42, 1234));

TEST(ParallelJoinDeterminismTest, RepeatedParallelExecutesAreStable) {
  // Scheduling nondeterminism must never leak into the answer: the same
  // parallel executor re-run over unchanged state returns the same set.
  JoinFixture f;
  PopulateSeededWorkload(&f, 99);
  ClusterJoinExecutor executor(true, 4);
  ResultSet first, second;
  ASSERT_TRUE(executor.Execute(f.store, f.grid, &first).ok());
  ASSERT_TRUE(executor.Execute(f.store, f.grid, &second).ok());
  EXPECT_EQ(first, second);
}

class OwnerCellTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(OwnerCellTest, MultiCellPairJoinsExactlyOnce) {
  // Two clusters whose members sprawl across many shared 100-unit grid cells:
  // the pair must be join-between tested and join-within run exactly once,
  // regardless of how many cells both occupy or how cells are sharded.
  JoinFixture f;
  MovingCluster a = MovingCluster::FromObject(f.store.NextClusterId(),
                                              Obj(1, {500, 500}, 1));
  a.AbsorbObject(Obj(2, {900, 900}, 1));
  a.AbsorbObject(Obj(3, {700, 520}, 1));
  MovingCluster b = MovingCluster::FromQuery(f.store.NextClusterId(),
                                             Qry(1, {600, 600}, 100, 100, 2));
  b.AbsorbQuery(Qry(2, {850, 850}, 100, 100, 2));
  f.Add(std::move(a));
  f.Add(std::move(b));

  ClusterJoinExecutor executor(true, GetParam());
  ResultSet results;
  ASSERT_TRUE(executor.Execute(f.store, f.grid, &results).ok());
  EXPECT_EQ(executor.counters().pairs_tested, 1u);
  EXPECT_EQ(executor.counters().within_joins_pair, 1u);
}

TEST_P(OwnerCellTest, MultiCellMixedClusterSelfJoinsExactlyOnce) {
  JoinFixture f;
  MovingCluster c = MovingCluster::FromObject(f.store.NextClusterId(),
                                              Obj(1, {1000, 1000}, 1));
  c.AbsorbObject(Obj(2, {1400, 1350}, 1));
  c.AbsorbQuery(Qry(1, {1200, 1180}, 600, 600, 1));
  f.Add(std::move(c));

  ClusterJoinExecutor executor(true, GetParam());
  ResultSet results;
  ASSERT_TRUE(executor.Execute(f.store, f.grid, &results).ok());
  EXPECT_EQ(executor.counters().within_joins_single, 1u);
  EXPECT_TRUE(results.Contains(1, 1));
  EXPECT_TRUE(results.Contains(1, 2));
}

TEST_P(OwnerCellTest, ThreeWayOverlapJoinsEachPairOnce) {
  // Three mutually overlapping multi-cell clusters (object, query, object):
  // each complementary pair exactly once = 2 pair joins.
  JoinFixture f;
  MovingCluster o1 = MovingCluster::FromObject(f.store.NextClusterId(),
                                               Obj(1, {300, 300}, 1));
  o1.AbsorbObject(Obj(2, {700, 650}, 1));
  MovingCluster q = MovingCluster::FromQuery(f.store.NextClusterId(),
                                             Qry(1, {400, 400}, 200, 200, 2));
  q.AbsorbQuery(Qry(2, {650, 600}, 200, 200, 2));
  MovingCluster o2 = MovingCluster::FromObject(f.store.NextClusterId(),
                                               Obj(3, {500, 350}, 3));
  o2.AbsorbObject(Obj(4, {600, 700}, 3));
  f.Add(std::move(o1));
  f.Add(std::move(q));
  f.Add(std::move(o2));

  ClusterJoinExecutor executor(true, GetParam());
  ResultSet results;
  ASSERT_TRUE(executor.Execute(f.store, f.grid, &results).ok());
  EXPECT_EQ(executor.counters().pairs_tested, 2u);
  EXPECT_EQ(executor.counters().within_joins_pair, 2u);
}

/// Prepare() plus one ScanWindow() over [begin, end) on a fresh executor:
/// the window's own counters and normalized results.
struct WindowRun {
  ClusterJoinExecutor::Counters counters;
  ResultSet results;
};

WindowRun RunWindow(const JoinFixture& f, uint32_t threads, uint32_t begin,
                    uint32_t end) {
  ClusterJoinExecutor executor(/*query_reach_aware=*/true, threads);
  WindowRun run;
  EXPECT_TRUE(executor.Prepare(f.store, f.grid).ok());
  EXPECT_TRUE(executor.ScanWindow(begin, end, &run.results).ok());
  run.counters = executor.counters();
  return run;
}

std::vector<uint32_t> SortedCells(const GridIndex& grid, ClusterId cid) {
  std::vector<uint32_t> cells = *grid.CellsOf(cid);
  std::sort(cells.begin(), cells.end());
  return cells;
}

std::vector<uint32_t> SharedCells(const GridIndex& grid, ClusterId a,
                                  ClusterId b) {
  const std::vector<uint32_t> ca = SortedCells(grid, a);
  const std::vector<uint32_t> cb = SortedCells(grid, b);
  std::vector<uint32_t> shared;
  std::set_intersection(ca.begin(), ca.end(), cb.begin(), cb.end(),
                        std::back_inserter(shared));
  return shared;
}

TEST_P(OwnerCellTest, PairCountsOnlyInItsLowestSharedCellsWindow) {
  // An object cluster and a query cluster sharing several cells: whichever
  // two windows the cell range is split into, only the window holding the
  // pair's lowest shared cell tests and joins it, and the two windows
  // together return the full join exactly once.
  JoinFixture f;
  MovingCluster a = MovingCluster::FromObject(f.store.NextClusterId(),
                                              Obj(1, {500, 500}, 1));
  a.AbsorbObject(Obj(2, {900, 900}, 1));
  a.AbsorbObject(Obj(3, {700, 520}, 1));
  MovingCluster b = MovingCluster::FromQuery(f.store.NextClusterId(),
                                             Qry(1, {600, 600}, 100, 100, 2));
  b.AbsorbQuery(Qry(2, {850, 850}, 100, 100, 2));
  const ClusterId acid = f.Add(std::move(a))->cid();
  const ClusterId bcid = f.Add(std::move(b))->cid();

  const std::vector<uint32_t> shared = SharedCells(f.grid, acid, bcid);
  ASSERT_GE(shared.size(), 3u);
  const uint32_t owner = shared.front();
  const uint32_t cols = f.grid.cells_per_side();
  const uint32_t n = static_cast<uint32_t>(f.grid.CellCount());

  ClusterJoinExecutor whole(true, GetParam());
  ResultSet expected;
  ASSERT_TRUE(whole.Execute(f.store, f.grid, &expected).ok());
  ASSERT_GT(expected.size(), 0u);

  // Split right at the owner cell, just past it, and at the next row
  // boundary (how windows split): the last two leave shared cells on both
  // sides of the boundary.
  for (uint32_t k : {owner, owner + 1, (owner / cols + 1) * cols}) {
    SCOPED_TRACE(testing::Message() << "boundary " << k);
    if (k > owner) ASSERT_GE(shared.back(), k);
    WindowRun lower = RunWindow(f, GetParam(), 0, k);
    WindowRun upper = RunWindow(f, GetParam(), k, n);
    const uint64_t in_lower = owner < k ? 1 : 0;
    EXPECT_EQ(lower.counters.pairs_tested, in_lower);
    EXPECT_EQ(lower.counters.within_joins_pair, in_lower);
    EXPECT_EQ(upper.counters.pairs_tested, 1 - in_lower);
    EXPECT_EQ(upper.counters.within_joins_pair, 1 - in_lower);
    EXPECT_EQ((owner < k ? lower : upper).results, expected);
    EXPECT_TRUE((owner < k ? upper : lower).results.empty());
  }
}

TEST_P(OwnerCellTest, MixedClusterSelfJoinsOnlyInItsLowestCellsWindow) {
  JoinFixture f;
  MovingCluster c = MovingCluster::FromObject(f.store.NextClusterId(),
                                              Obj(1, {1000, 1000}, 1));
  c.AbsorbObject(Obj(2, {1400, 1350}, 1));
  c.AbsorbQuery(Qry(1, {1200, 1180}, 600, 600, 1));
  const ClusterId cid = f.Add(std::move(c))->cid();
  const std::vector<uint32_t> cells = SortedCells(f.grid, cid);
  ASSERT_GE(cells.size(), 3u);
  const uint32_t lowest = cells.front();
  const uint32_t n = static_cast<uint32_t>(f.grid.CellCount());

  for (uint32_t k : {lowest, lowest + 1}) {
    SCOPED_TRACE(testing::Message() << "boundary " << k);
    WindowRun lower = RunWindow(f, GetParam(), 0, k);
    WindowRun upper = RunWindow(f, GetParam(), k, n);
    const uint64_t in_lower = lowest < k ? 1 : 0;
    EXPECT_EQ(lower.counters.within_joins_single, in_lower);
    EXPECT_EQ(upper.counters.within_joins_single, 1 - in_lower);
    const ResultSet& owning = lowest < k ? lower.results : upper.results;
    EXPECT_TRUE(owning.Contains(1, 1));
    EXPECT_TRUE(owning.Contains(1, 2));
    EXPECT_TRUE((lowest < k ? upper : lower).results.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, OwnerCellTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

class WindowPartitionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WindowPartitionTest, DisjointWindowsPartitionTheJoin) {
  // Random cuts split the cell range into 2, 3 and 7 windows. Per window,
  // the pairs tested and self-joins run must be exactly those whose owner
  // cell (lowest shared cell; lowest cell for a self-join) lies in it, as
  // computed here from the grid's cell lists. Summed over the windows the
  // counters equal Execute()'s, and the concatenated results equal
  // Execute()'s with no match emitted twice.
  JoinFixture f;
  PopulateSeededWorkload(&f, GetParam());
  const uint32_t n = static_cast<uint32_t>(f.grid.CellCount());

  // Oracle owner cells, from the grid alone.
  const std::vector<ClusterId> cids = f.grid.Keys();
  std::vector<uint32_t> pair_owners;  // complementary pairs only
  std::vector<uint32_t> self_owners;  // mixed clusters only
  for (size_t i = 0; i < cids.size(); ++i) {
    const MovingCluster& ci = *f.store.GetCluster(cids[i]);
    if (ci.HasMixedKinds()) {
      self_owners.push_back(SortedCells(f.grid, cids[i]).front());
    }
    for (size_t j = i + 1; j < cids.size(); ++j) {
      const MovingCluster& cj = *f.store.GetCluster(cids[j]);
      const bool complementary =
          (ci.object_count() > 0 && cj.query_count() > 0) ||
          (ci.query_count() > 0 && cj.object_count() > 0);
      if (!complementary) continue;
      const std::vector<uint32_t> shared =
          SharedCells(f.grid, cids[i], cids[j]);
      if (!shared.empty()) pair_owners.push_back(shared.front());
    }
  }
  ASSERT_FALSE(self_owners.empty());
  auto owned_in = [](const std::vector<uint32_t>& owners, uint32_t begin,
                     uint32_t end) {
    return static_cast<uint64_t>(
        std::count_if(owners.begin(), owners.end(),
                      [&](uint32_t c) { return c >= begin && c < end; }));
  };

  ClusterJoinExecutor whole(true, 4);
  ResultSet expected;
  ASSERT_TRUE(whole.Execute(f.store, f.grid, &expected).ok());
  ASSERT_EQ(whole.counters().pairs_tested, pair_owners.size());

  Rng rng(GetParam() * 31 + 1);
  for (uint32_t windows : {2u, 3u, 7u}) {
    SCOPED_TRACE(testing::Message() << windows << " windows");
    std::vector<uint32_t> bounds = {0, n};
    while (bounds.size() < windows + 1) {
      const uint32_t cut = 1 + static_cast<uint32_t>(rng.NextBounded(n - 1));
      if (std::find(bounds.begin(), bounds.end(), cut) == bounds.end()) {
        bounds.push_back(cut);
      }
    }
    std::sort(bounds.begin(), bounds.end());

    ClusterJoinExecutor::Counters sum;
    ResultSet concatenated;
    for (uint32_t w = 0; w < windows; ++w) {
      WindowRun run =
          RunWindow(f, w % 2 == 0 ? 1 : 4, bounds[w], bounds[w + 1]);
      EXPECT_EQ(run.counters.pairs_tested,
                owned_in(pair_owners, bounds[w], bounds[w + 1]))
          << "window " << w;
      EXPECT_EQ(run.counters.within_joins_single,
                owned_in(self_owners, bounds[w], bounds[w + 1]))
          << "window " << w;
      sum += run.counters;
      for (const Match& m : run.results.matches()) {
        concatenated.Add(m.qid, m.oid);
      }
    }
    EXPECT_TRUE(CountersEqual(sum, whole.counters()));
    const size_t emitted = concatenated.size();
    concatenated.Normalize();
    EXPECT_EQ(concatenated.size(), emitted) << "a match came from two windows";
    EXPECT_EQ(concatenated, expected);

    // One Prepare, the same windows scanned last to first on one executor
    // (the pair stamps restart per window): the same partition.
    ClusterJoinExecutor shared(true, 4);
    ASSERT_TRUE(shared.Prepare(f.store, f.grid).ok());
    ResultSet reversed;
    for (uint32_t w = windows; w-- > 0;) {
      ResultSet slice;
      ASSERT_TRUE(shared.ScanWindow(bounds[w], bounds[w + 1], &slice).ok());
      for (const Match& m : slice.matches()) reversed.Add(m.qid, m.oid);
    }
    EXPECT_TRUE(CountersEqual(shared.counters(), whole.counters()));
    reversed.Normalize();
    EXPECT_EQ(reversed, expected);
  }
}

TEST(WindowScanTest, ScanWindowBeforePrepareIsRejected) {
  ClusterJoinExecutor executor(true, 2);
  ResultSet results;
  EXPECT_TRUE(executor.ScanWindow(0, 10, &results).IsFailedPrecondition());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowPartitionTest,
                         ::testing::Values(7, 21, 42));

TEST(ParallelEngineTest, EngineMatchesSerialAcrossThreadCounts) {
  // End to end through ScubaEngine: identical ingests, several evaluation
  // rounds, every thread count returns the serial engine's exact answer.
  auto run = [](uint32_t threads) {
    ScubaOptions opt;
    opt.join_threads = threads;
    std::unique_ptr<ScubaEngine> engine =
        std::move(ScubaEngine::Create(opt).value());
    Rng rng(555);
    std::vector<ResultSet> rounds;
    for (Timestamp now = 2; now <= 6; now += 2) {
      for (uint32_t i = 0; i < 200; ++i) {
        LocationUpdate u = Obj(i,
                               {rng.NextDouble(0, 10000),
                                rng.NextDouble(0, 10000)},
                               static_cast<NodeId>(i % 40));
        u.time = now - 1;
        EXPECT_TRUE(engine->IngestObjectUpdate(u).ok());
      }
      for (uint32_t i = 0; i < 150; ++i) {
        QueryUpdate u = Qry(i,
                            {rng.NextDouble(0, 10000),
                             rng.NextDouble(0, 10000)},
                            rng.NextDouble(50, 300), rng.NextDouble(50, 300),
                            static_cast<NodeId>(40 + i % 40));
        u.time = now - 1;
        EXPECT_TRUE(engine->IngestQueryUpdate(u).ok());
      }
      ResultSet results;
      EXPECT_TRUE(engine->Evaluate(now, &results).ok());
      rounds.push_back(std::move(results));
    }
    return rounds;
  };

  std::vector<ResultSet> serial = run(1);
  size_t total = 0;
  for (const ResultSet& r : serial) total += r.size();
  EXPECT_GT(total, 0u);
  for (uint32_t threads : {2u, 4u, 8u}) {
    std::vector<ResultSet> parallel = run(threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i], serial[i])
          << "threads=" << threads << " round=" << i;
    }
  }
}

TEST(ParallelEngineTest, WorkerSecondsAndThreadsReported) {
  ScubaOptions opt;
  opt.join_threads = 4;
  std::unique_ptr<ScubaEngine> engine =
      std::move(ScubaEngine::Create(opt).value());
  ASSERT_TRUE(engine->IngestObjectUpdate(Obj(1, {100, 100}, 1)).ok());
  ASSERT_TRUE(engine->IngestQueryUpdate(Qry(1, {110, 100}, 80, 80, 2)).ok());
  ResultSet results;
  ASSERT_TRUE(engine->Evaluate(2, &results).ok());
  EXPECT_EQ(engine->StatsSnapshot().eval.join_threads, 4u);
  EXPECT_GT(engine->StatsSnapshot().eval.total_join_worker_seconds, 0.0);
}

}  // namespace
}  // namespace scuba
