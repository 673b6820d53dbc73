#include "core/scuba_engine.h"

#include <gtest/gtest.h>

namespace scuba {
namespace {

LocationUpdate Obj(ObjectId oid, Point p, double speed = 10.0, NodeId dest = 1,
                   Timestamp t = 0, Point dest_pos = {9000, 9000}) {
  LocationUpdate u;
  u.oid = oid;
  u.position = p;
  u.time = t;
  u.speed = speed;
  u.dest_node = dest;
  u.dest_position = dest_pos;
  return u;
}

QueryUpdate Qry(QueryId qid, Point p, double w = 50, double h = 50,
                double speed = 10.0, NodeId dest = 1, Timestamp t = 0,
                Point dest_pos = {9000, 9000}) {
  QueryUpdate u;
  u.qid = qid;
  u.position = p;
  u.time = t;
  u.speed = speed;
  u.dest_node = dest;
  u.dest_position = dest_pos;
  u.range_width = w;
  u.range_height = h;
  return u;
}

std::unique_ptr<ScubaEngine> MakeEngine(ScubaOptions opt = {}) {
  Result<std::unique_ptr<ScubaEngine>> e = ScubaEngine::Create(opt);
  EXPECT_TRUE(e.ok()) << e.status().ToString();
  return std::move(e).value();
}

TEST(ScubaEngineTest, CreateValidatesOptions) {
  ScubaOptions opt;
  opt.grid_cells = 0;
  EXPECT_TRUE(ScubaEngine::Create(opt).status().IsInvalidArgument());
  opt = ScubaOptions{};
  opt.theta_d = -1;
  EXPECT_TRUE(ScubaEngine::Create(opt).status().IsInvalidArgument());
  opt = ScubaOptions{};
  opt.delta = 0;
  EXPECT_TRUE(ScubaEngine::Create(opt).status().IsInvalidArgument());
  opt = ScubaOptions{};
  opt.shedding.eta = 1.5;
  EXPECT_TRUE(ScubaEngine::Create(opt).status().IsInvalidArgument());
  opt = ScubaOptions{};
  opt.shedding.mode = LoadSheddingMode::kAdaptive;
  EXPECT_TRUE(ScubaEngine::Create(opt).status().IsInvalidArgument());  // no budget
}

TEST(ScubaEngineTest, EvaluateRejectsNullResults) {
  std::unique_ptr<ScubaEngine> e = MakeEngine();
  EXPECT_TRUE(e->Evaluate(2, nullptr).IsInvalidArgument());
}

TEST(ScubaEngineTest, EmptyEngineYieldsNoResults) {
  std::unique_ptr<ScubaEngine> e = MakeEngine();
  ResultSet results;
  ASSERT_TRUE(e->Evaluate(2, &results).ok());
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(e->StatsSnapshot().eval.evaluations, 1u);
}

TEST(ScubaEngineTest, SingleClusterWithinJoin) {
  std::unique_ptr<ScubaEngine> e = MakeEngine();
  // One co-travelling group: query at (100,100) with 50x50 range, object
  // inside it, another object outside it.
  ASSERT_TRUE(e->IngestQueryUpdate(Qry(1, {100, 100})).ok());
  ASSERT_TRUE(e->IngestObjectUpdate(Obj(1, {110, 110})).ok());
  ASSERT_TRUE(e->IngestObjectUpdate(Obj(2, {160, 100})).ok());
  ASSERT_EQ(e->ClusterCount(), 1u);
  ResultSet results;
  ASSERT_TRUE(e->Evaluate(2, &results).ok());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results.Contains(1, 1));
  EXPECT_FALSE(results.Contains(1, 2));
  EXPECT_EQ(e->StatsSnapshot().join.within_joins_single, 1u);
}

TEST(ScubaEngineTest, CrossClusterJoin) {
  std::unique_ptr<ScubaEngine> e = MakeEngine();
  // Cluster A: objects heading to node 1; cluster B: queries heading to node
  // 2 but spatially overlapping A.
  ASSERT_TRUE(e->IngestObjectUpdate(Obj(1, {100, 100}, 10, 1)).ok());
  ASSERT_TRUE(e->IngestObjectUpdate(Obj(2, {120, 100}, 10, 1)).ok());
  ASSERT_TRUE(e->IngestQueryUpdate(Qry(1, {110, 105}, 60, 60, 10, 2)).ok());
  ASSERT_EQ(e->ClusterCount(), 2u);
  ResultSet results;
  ASSERT_TRUE(e->Evaluate(2, &results).ok());
  EXPECT_TRUE(results.Contains(1, 1));
  EXPECT_TRUE(results.Contains(1, 2));
  EXPECT_GE(e->StatsSnapshot().eval.cluster_pairs_tested, 1u);
  EXPECT_GE(e->StatsSnapshot().eval.cluster_pairs_overlapping, 1u);
  EXPECT_EQ(e->StatsSnapshot().join.within_joins_pair, 1u);
}

TEST(ScubaEngineTest, DisjointClustersArePruned) {
  std::unique_ptr<ScubaEngine> e = MakeEngine();
  ASSERT_TRUE(e->IngestObjectUpdate(Obj(1, {100, 100}, 10, 1)).ok());
  ASSERT_TRUE(e->IngestQueryUpdate(Qry(1, {5000, 5000}, 50, 50, 10, 2)).ok());
  ResultSet results;
  ASSERT_TRUE(e->Evaluate(2, &results).ok());
  EXPECT_TRUE(results.empty());
  // Far apart: clusters never share a grid cell, so no pair is even tested.
  EXPECT_EQ(e->StatsSnapshot().eval.cluster_pairs_tested, 0u);
  EXPECT_EQ(e->StatsSnapshot().eval.comparisons, 0u);
}

TEST(ScubaEngineTest, SameKindClustersSkipBetweenJoin) {
  std::unique_ptr<ScubaEngine> e = MakeEngine();
  // Two object-only clusters in one cell (different destinations).
  ASSERT_TRUE(e->IngestObjectUpdate(Obj(1, {100, 100}, 10, 1)).ok());
  ASSERT_TRUE(e->IngestObjectUpdate(Obj(2, {110, 100}, 10, 2)).ok());
  ResultSet results;
  ASSERT_TRUE(e->Evaluate(2, &results).ok());
  EXPECT_EQ(e->StatsSnapshot().eval.cluster_pairs_tested, 0u);
}

TEST(ScubaEngineTest, QueryReachAwareCatchesFarReachingQuery) {
  // Query range pokes far out of its cluster circle: the object sits outside
  // both member circles' overlap but inside the query rect.
  auto run = [](bool aware) {
    ScubaOptions opt;
    opt.query_reach_aware = aware;
    std::unique_ptr<ScubaEngine> e = MakeEngine(opt);
    // Query singleton at (100,100) with an enormous 500x500 range, dest 2.
    EXPECT_TRUE(e->IngestQueryUpdate(
                     Qry(1, {100, 100}, 500, 500, 10, 2))
                    .ok());
    // Object singleton at (300,100): inside the query rect, 200 away from the
    // query cluster's (radius 0) circle.
    EXPECT_TRUE(e->IngestObjectUpdate(Obj(1, {300, 100}, 10, 1)).ok());
    ResultSet results;
    EXPECT_TRUE(e->Evaluate(2, &results).ok());
    return results.Contains(1, 1);
  };
  EXPECT_TRUE(run(true));    // lossless mode finds it
  EXPECT_FALSE(run(false));  // paper-pure circles miss it (ablation pins this)
}

TEST(ScubaEngineTest, PaperExampleAnalog) {
  // Fig. 7 analog: M1 = objects only, M2 = mixed; one M2 query overlaps an
  // M1 object; the M2 join-within matches its own object.
  std::unique_ptr<ScubaEngine> e = MakeEngine();
  // M1: two objects heading to node 1 around (200-220, 200). All entities sit
  // in the same 100-unit grid cell so the own-cell clustering probe works.
  ASSERT_TRUE(e->IngestObjectUpdate(Obj(3, {200, 200}, 10, 1)).ok());
  ASSERT_TRUE(e->IngestObjectUpdate(Obj(5, {220, 200}, 10, 1)).ok());
  // M2: object + queries heading to node 2 around (260-295, 200).
  ASSERT_TRUE(e->IngestObjectUpdate(Obj(4, {295, 200}, 10, 2)).ok());
  ASSERT_TRUE(e->IngestQueryUpdate(Qry(2, {260, 200}, 100, 40, 10, 2)).ok());
  ASSERT_TRUE(e->IngestQueryUpdate(Qry(1, {295, 210}, 30, 30, 10, 2)).ok());
  ASSERT_EQ(e->ClusterCount(), 2u);

  ResultSet results;
  ASSERT_TRUE(e->Evaluate(2, &results).ok());
  // Q2 covers x in [210, 310]: catches O5 (220) from M1 and O4 (295) from M2.
  EXPECT_TRUE(results.Contains(2, 5));
  EXPECT_TRUE(results.Contains(2, 4));
  // Q1 covers x in [280,310], y in [195,225]: catches O4 only.
  EXPECT_TRUE(results.Contains(1, 4));
  EXPECT_FALSE(results.Contains(1, 3));
  EXPECT_EQ(results.size(), 3u);
}

TEST(ScubaEngineTest, MaintenanceDissolvesExpiringClusters) {
  std::unique_ptr<ScubaEngine> e = MakeEngine();
  // Destination 30 units away at speed 20: reached within delta=2 ticks.
  ASSERT_TRUE(e->IngestObjectUpdate(
                   Obj(1, {100, 100}, 20.0, 1, 0, Point{130, 100}))
                  .ok());
  ASSERT_EQ(e->ClusterCount(), 1u);
  ResultSet results;
  ASSERT_TRUE(e->Evaluate(2, &results).ok());
  EXPECT_EQ(e->ClusterCount(), 0u);
  EXPECT_EQ(e->StatsSnapshot().phase.clusters_dissolved_expired, 1u);
  EXPECT_EQ(e->cluster_grid().size(), 0u);
}

TEST(ScubaEngineTest, MaintenanceRelocatesSurvivors) {
  std::unique_ptr<ScubaEngine> e = MakeEngine();
  // Destination far away: the cluster survives and moves by velocity * delta.
  ASSERT_TRUE(e->IngestObjectUpdate(
                   Obj(1, {100, 100}, 10.0, 1, 0, Point{9000, 100}))
                  .ok());
  ResultSet results;
  ASSERT_TRUE(e->Evaluate(2, &results).ok());
  ASSERT_EQ(e->ClusterCount(), 1u);
  const MovingCluster& c =
      *e->store().GetCluster(e->store().SortedClusterIds()[0]);
  // Velocity is +x at speed 10, delta 2: centroid moved to x=120.
  EXPECT_NEAR(c.centroid().x, 120.0, 1e-6);
  EXPECT_NEAR(c.centroid().y, 100.0, 1e-6);
}

TEST(ScubaEngineTest, ResultsAreNormalizedAndDeduped) {
  std::unique_ptr<ScubaEngine> e = MakeEngine();
  ASSERT_TRUE(e->IngestQueryUpdate(Qry(1, {100, 100}, 80, 80)).ok());
  ASSERT_TRUE(e->IngestObjectUpdate(Obj(1, {105, 100})).ok());
  ResultSet results;
  ASSERT_TRUE(e->Evaluate(2, &results).ok());
  ASSERT_EQ(results.size(), 1u);
  // Re-evaluating gives a fresh (equal) result set, not accumulation.
  ResultSet again;
  ASSERT_TRUE(e->IngestQueryUpdate(Qry(1, {100, 100}, 80, 80, 10, 1, 2)).ok());
  ASSERT_TRUE(e->IngestObjectUpdate(Obj(1, {105, 100}, 10, 1, 2)).ok());
  ASSERT_TRUE(e->Evaluate(4, &again).ok());
  EXPECT_EQ(again.size(), 1u);
}

TEST(ScubaEngineTest, StatsAccumulateAcrossRounds) {
  std::unique_ptr<ScubaEngine> e = MakeEngine();
  ResultSet results;
  ASSERT_TRUE(e->IngestObjectUpdate(Obj(1, {100, 100})).ok());
  ASSERT_TRUE(e->Evaluate(2, &results).ok());
  ASSERT_TRUE(e->Evaluate(4, &results).ok());
  EXPECT_EQ(e->StatsSnapshot().eval.evaluations, 2u);
  EXPECT_GE(e->StatsSnapshot().eval.total_join_seconds, 0.0);
  EXPECT_GE(e->StatsSnapshot().eval.total_maintenance_seconds,
            e->StatsSnapshot().eval.last_maintenance_seconds);
}

TEST(ScubaEngineTest, MemoryEstimateGrowsWithEntities) {
  std::unique_ptr<ScubaEngine> e = MakeEngine();
  size_t empty = e->EstimateMemoryUsage();
  for (uint32_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        e->IngestObjectUpdate(Obj(i, {100.0 + i * 37.0, 100.0 + (i % 13) * 59.0},
                                  10, i % 5))
            .ok());
  }
  EXPECT_GT(e->EstimateMemoryUsage(), empty);
}

TEST(ScubaEngineTest, ObjectOnlyWorkloadYieldsNothingCheaply) {
  std::unique_ptr<ScubaEngine> e = MakeEngine();
  for (uint32_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(e->IngestObjectUpdate(Obj(i, {100.0 + i, 100})).ok());
  }
  ResultSet results;
  ASSERT_TRUE(e->Evaluate(2, &results).ok());
  EXPECT_TRUE(results.empty());
  // No mixed clusters, no complementary pairs: zero member-level work.
  EXPECT_EQ(e->StatsSnapshot().eval.comparisons, 0u);
}

TEST(ScubaEngineTest, QueryOnlyWorkloadYieldsNothingCheaply) {
  std::unique_ptr<ScubaEngine> e = MakeEngine();
  for (uint32_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(e->IngestQueryUpdate(Qry(i, {100.0 + i, 100})).ok());
  }
  ResultSet results;
  ASSERT_TRUE(e->Evaluate(2, &results).ok());
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(e->StatsSnapshot().eval.comparisons, 0u);
}

TEST(ScubaEngineTest, RepeatedEvaluateWithoutUpdatesTracksRelocation) {
  // With no fresh updates between rounds, clusters coast along their velocity
  // vectors; results reflect the extrapolated positions and the store stays
  // consistent round after round.
  std::unique_ptr<ScubaEngine> e = MakeEngine();
  // Object heading east; stationary-ish query ahead of it.
  ASSERT_TRUE(e->IngestObjectUpdate(
                   Obj(1, {100, 100}, 20.0, 1, 0, Point{9000, 100}))
                  .ok());
  ASSERT_TRUE(e->IngestQueryUpdate(
                   Qry(1, {200, 100}, 60, 60, 0.5, 2, 0, Point{9000, 100}))
                  .ok());
  ResultSet results;
  ASSERT_TRUE(e->Evaluate(2, &results).ok());
  EXPECT_FALSE(results.Contains(1, 1));  // object still ~60 short
  // Coast: object cluster moves 40 units per round towards the query.
  bool matched = false;
  for (Timestamp t = 4; t <= 12 && !matched; t += 2) {
    ASSERT_TRUE(e->Evaluate(t, &results).ok());
    matched = results.Contains(1, 1);
    ASSERT_TRUE(e->store().ValidateConsistency().ok());
  }
  EXPECT_TRUE(matched) << "extrapolated object never reached the query range";
}

TEST(ScubaEngineTest, DeltaOneEvaluatesEveryTick) {
  ScubaOptions opt;
  opt.delta = 1;
  std::unique_ptr<ScubaEngine> e = MakeEngine(opt);
  ResultSet results;
  for (Timestamp t = 1; t <= 5; ++t) {
    ASSERT_TRUE(e->IngestObjectUpdate(Obj(1, {100.0 + t, 100}, 10, 1, t)).ok());
    ASSERT_TRUE(e->Evaluate(t, &results).ok());
  }
  EXPECT_EQ(e->StatsSnapshot().eval.evaluations, 5u);
}

TEST(ScubaEngineTest, StoreStaysConsistentUnderChurn) {
  std::unique_ptr<ScubaEngine> e = MakeEngine();
  ResultSet results;
  for (Timestamp t = 1; t <= 20; ++t) {
    for (uint32_t i = 0; i < 30; ++i) {
      NodeId dest = (t + i) % 4;
      Point p{500.0 + 25.0 * t + i, 500.0 + 3.0 * (i % 7)};
      ASSERT_TRUE(e->IngestObjectUpdate(Obj(i, p, 12, dest, t)).ok());
      if (i % 3 == 0) {
        ASSERT_TRUE(
            e->IngestQueryUpdate(Qry(i, p + Vec2{2, 2}, 40, 40, 12, dest, t))
                .ok());
      }
    }
    if (t % 2 == 0) {
      ASSERT_TRUE(e->Evaluate(t, &results).ok());
    }
    ASSERT_TRUE(e->store().ValidateConsistency().ok()) << "tick " << t;
    ASSERT_EQ(e->cluster_grid().size(), e->ClusterCount());
  }
}

}  // namespace
}  // namespace scuba
