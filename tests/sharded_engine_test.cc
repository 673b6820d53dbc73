// Sharded-vs-single bit-identity (docs/ARCHITECTURE.md §11): a ShardedEngine
// at any (shards, join_threads) must produce per-round ResultSets, counters,
// state digests and EngineStateHash values identical to a single ScubaEngine
// on the same stream — including under kFixed load shedding, border-crossing
// clusters and ownership handoffs. Plus the partitioning edge cases: clusters
// tangent to a stripe border, zero-area stripes, a map smaller than one
// stripe, and objects whose destination lies in a different shard than their
// position.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/result_set.h"
#include "core/scuba_engine.h"
#include "persist/snapshot.h"
#include "shard/engine_factory.h"
#include "shard/sharded_engine.h"
#include "state_digest.h"

namespace scuba {
namespace {

constexpr Rect kRegion{0, 0, 10000, 10000};

ScubaOptions BaseOptions(uint32_t shards, uint32_t threads) {
  ScubaOptions opt;
  opt.region = kRegion;
  opt.grid_cells = 100;
  opt.theta_d = 150.0;
  opt.theta_s = 15.0;
  opt.delta = 2;
  opt.shards = shards;
  opt.join_threads = threads;
  return opt;
}

LocationUpdate Obj(ObjectId oid, Point p, Timestamp t, double speed = 10.0,
                   NodeId dest = 1, Point dest_pos = Point{9000, 9000}) {
  LocationUpdate u;
  u.oid = oid;
  u.position = p;
  u.time = t;
  u.speed = speed;
  u.dest_node = dest;
  u.dest_position = dest_pos;
  return u;
}

QueryUpdate Qry(QueryId qid, Point p, Timestamp t, double w = 200,
                double h = 200, NodeId dest = 1,
                Point dest_pos = Point{9000, 9000}) {
  QueryUpdate u;
  u.qid = qid;
  u.position = p;
  u.time = t;
  u.speed = 10.0;
  u.dest_node = dest;
  u.dest_position = dest_pos;
  u.range_width = w;
  u.range_height = h;
  return u;
}

/// A seeded streaming workload: entities random-walk across the map (so
/// clusters translate, cross stripe borders, dissolve and re-form), a
/// fraction skips reporting each tick (so expiry fires), and destination
/// nodes point at far-away map corners (routinely a different stripe than the
/// position). Each tick yields one batch.
struct Workload {
  struct Tick {
    std::vector<LocationUpdate> objects;
    std::vector<QueryUpdate> queries;
  };
  std::vector<Tick> ticks;
};

Workload MakeWorkload(uint64_t seed, int ticks, int objects, int queries) {
  Workload w;
  Rng rng(seed);
  std::vector<Point> opos(objects), qpos(queries);
  for (Point& p : opos) {
    p = {rng.NextDouble(0, 10000), rng.NextDouble(0, 10000)};
  }
  for (Point& p : qpos) {
    p = {rng.NextDouble(0, 10000), rng.NextDouble(0, 10000)};
  }
  const Point corners[] = {{200, 200}, {9800, 200}, {200, 9800}, {9800, 9800}};
  for (int t = 0; t < ticks; ++t) {
    Workload::Tick tick;
    for (int i = 0; i < objects; ++i) {
      // Straggler fraction: ~1 in 6 skips this tick, letting expiry fire.
      if (rng.NextDouble(0, 1) < 1.0 / 6.0) continue;
      Point& p = opos[i];
      p.x = std::min(10000.0, std::max(0.0, p.x + rng.NextDouble(-180, 180)));
      p.y = std::min(10000.0, std::max(0.0, p.y + rng.NextDouble(-180, 180)));
      const int corner = i % 4;
      tick.objects.push_back(Obj(static_cast<ObjectId>(i + 1), p, t,
                                 rng.NextDouble(5, 15),
                                 static_cast<NodeId>(10 + corner),
                                 corners[corner]));
    }
    for (int i = 0; i < queries; ++i) {
      if (rng.NextDouble(0, 1) < 1.0 / 8.0) continue;
      Point& p = qpos[i];
      p.x = std::min(10000.0, std::max(0.0, p.x + rng.NextDouble(-150, 150)));
      p.y = std::min(10000.0, std::max(0.0, p.y + rng.NextDouble(-150, 150)));
      const int corner = (i + 2) % 4;
      tick.queries.push_back(Qry(static_cast<QueryId>(i + 1), p, t,
                                 rng.NextDouble(50, 350),
                                 rng.NextDouble(50, 350),
                                 static_cast<NodeId>(10 + corner),
                                 corners[corner]));
    }
    w.ticks.push_back(std::move(tick));
  }
  return w;
}

/// Drives any QueryProcessor through the workload — batched ingest on even
/// ticks, per-update on odd ticks (both paths must agree) — and records each
/// round's normalized ResultSet.
std::vector<ResultSet> Drive(const Workload& w, QueryProcessor* engine) {
  std::vector<ResultSet> rounds;
  Timestamp now = 0;
  // One ResultSet reused across rounds, exactly like the CLI's run loop:
  // Evaluate must clear it, never accumulate into it.
  ResultSet results;
  for (size_t t = 0; t < w.ticks.size(); ++t) {
    const Workload::Tick& tick = w.ticks[t];
    if (t % 2 == 0) {
      EXPECT_TRUE(engine->IngestBatch(tick.objects, tick.queries).ok());
    } else {
      for (const LocationUpdate& u : tick.objects) {
        EXPECT_TRUE(engine->IngestObjectUpdate(u).ok());
      }
      for (const QueryUpdate& u : tick.queries) {
        EXPECT_TRUE(engine->IngestQueryUpdate(u).ok());
      }
    }
    EXPECT_TRUE(engine->Evaluate(now, &results).ok());
    rounds.push_back(results);
    now += 2;
  }
  return rounds;
}

void ExpectStatsMatch(const EngineSnapshotStats& single,
                      const EngineSnapshotStats& sharded) {
  EXPECT_EQ(single.eval.evaluations, sharded.eval.evaluations);
  EXPECT_EQ(single.eval.total_results, sharded.eval.total_results);
  EXPECT_EQ(single.eval.comparisons, sharded.eval.comparisons);
  EXPECT_EQ(single.eval.bounds_checks, sharded.eval.bounds_checks);
  EXPECT_EQ(single.eval.cluster_pairs_tested, sharded.eval.cluster_pairs_tested);
  EXPECT_EQ(single.eval.cluster_pairs_overlapping,
            sharded.eval.cluster_pairs_overlapping);
  EXPECT_EQ(single.eval.updates_quarantined, sharded.eval.updates_quarantined);
  EXPECT_EQ(single.clusterer.clusters_created,
            sharded.clusterer.clusters_created);
  EXPECT_EQ(single.clusterer.members_absorbed,
            sharded.clusterer.members_absorbed);
  EXPECT_EQ(single.clusterer.members_refreshed,
            sharded.clusterer.members_refreshed);
  EXPECT_EQ(single.clusterer.members_departed,
            sharded.clusterer.members_departed);
  EXPECT_EQ(single.clusterer.clusters_dissolved_empty,
            sharded.clusterer.clusters_dissolved_empty);
  EXPECT_EQ(single.clusterer.members_shed, sharded.clusterer.members_shed);
  EXPECT_EQ(single.phase.clusters_dissolved_expired,
            sharded.phase.clusters_dissolved_expired);
  EXPECT_EQ(single.phase.members_shed_maintenance,
            sharded.phase.members_shed_maintenance);
  EXPECT_EQ(single.phase.clusters_split, sharded.phase.clusters_split);
  EXPECT_EQ(single.join.comparisons, sharded.join.comparisons);
  EXPECT_EQ(single.join.within_joins_single, sharded.join.within_joins_single);
  EXPECT_EQ(single.join.within_joins_pair, sharded.join.within_joins_pair);
  EXPECT_EQ(single.clusters, sharded.clusters);
}

/// Runs the single reference engine and one sharded config over the same
/// workload and asserts full bit-identity.
void ExpectShardedMatchesSingle(const Workload& w, ScubaOptions single_opt,
                                ScubaOptions sharded_opt) {
  single_opt.shards = 1;
  single_opt.join_threads = 1;
  auto single = ScubaEngine::Create(single_opt).value();
  auto sharded = ShardedEngine::Create(sharded_opt).value();

  const std::vector<ResultSet> single_rounds = Drive(w, single.get());
  const std::vector<ResultSet> sharded_rounds = Drive(w, sharded.get());

  ASSERT_EQ(single_rounds.size(), sharded_rounds.size());
  for (size_t i = 0; i < single_rounds.size(); ++i) {
    EXPECT_EQ(single_rounds[i], sharded_rounds[i]) << "round " << i;
  }
  EXPECT_EQ(StateDigest(*single), StateDigest(*sharded));
  EXPECT_EQ(EngineStateHash(*single), EngineStateHash(*sharded));
  ExpectStatsMatch(single->StatsSnapshot(), sharded->StatsSnapshot());
}

class ShardMatrixTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(ShardMatrixTest, BitIdenticalToSingleEngine) {
  const auto [shards, threads] = GetParam();
  const Workload w = MakeWorkload(/*seed=*/42, /*ticks=*/8, /*objects=*/200,
                                  /*queries=*/40);
  ExpectShardedMatchesSingle(w, BaseOptions(1, 1),
                             BaseOptions(shards, threads));
}

TEST_P(ShardMatrixTest, BitIdenticalUnderFixedShedding) {
  const auto [shards, threads] = GetParam();
  ScubaOptions opt = BaseOptions(shards, threads);
  opt.shedding.mode = LoadSheddingMode::kFixed;
  opt.shedding.eta = 0.3;
  ScubaOptions single = BaseOptions(1, 1);
  single.shedding = opt.shedding;
  const Workload w = MakeWorkload(/*seed=*/1234, /*ticks=*/6, /*objects=*/150,
                                  /*queries=*/30);
  ExpectShardedMatchesSingle(w, single, opt);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ShardMatrixTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(1u, 4u)),
    [](const ::testing::TestParamInfo<std::tuple<uint32_t, uint32_t>>& info) {
      return "shards" + std::to_string(std::get<0>(info.param)) + "x" +
             std::to_string(std::get<1>(info.param)) + "threads";
    });

TEST(ShardedEngineTest, MakeEngineBuildsTheProductionEngineAtEveryShardCount) {
  const Workload w = MakeWorkload(/*seed=*/7, /*ticks=*/6, /*objects=*/150,
                                  /*queries=*/30);
  auto reference = ScubaEngine::Create(BaseOptions(1, 1)).value();
  const std::vector<ResultSet> want = Drive(w, reference.get());
  for (uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Result<EngineHandle> handle = MakeEngine(BaseOptions(shards, 1), "scuba");
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    ASSERT_NE(handle->sharded, nullptr);
    EXPECT_EQ(handle->scuba, nullptr);
    EXPECT_EQ(handle->engine.get(), handle->sharded);
    EXPECT_EQ(handle->sharded->shard_count(), shards);
    EXPECT_EQ(Drive(w, handle->sharded), want);
    EXPECT_EQ(handle->StateHash(), EngineStateHash(*reference));
  }
}

TEST(ShardedEngineTest, MergeNormalizedEqualsConcatenateAndNormalize) {
  // The coordinator's slice merge must agree with a full sort + dedup for
  // any slice count (odd counts leave a run unpaired), empty slices and
  // overlapping slices (a stale slice can repeat fresh pairs).
  Rng rng(99);
  for (int slice_count = 0; slice_count <= 7; ++slice_count) {
    std::vector<ResultSet> slices(static_cast<size_t>(slice_count));
    ResultSet want;
    for (ResultSet& slice : slices) {
      const int n = static_cast<int>(rng.NextDouble(0, 40));
      for (int i = 0; i < n; ++i) {
        const auto qid = static_cast<QueryId>(rng.NextDouble(0, 12));
        const auto oid = static_cast<ObjectId>(rng.NextDouble(0, 12));
        slice.Add(qid, oid);
        want.Add(qid, oid);
      }
      slice.Normalize();
    }
    want.Normalize();
    std::vector<const ResultSet*> views;
    for (const ResultSet& slice : slices) views.push_back(&slice);
    ResultSet got;
    got.Add(1000, 1000);  // replaced, not appended to
    got.MergeNormalized(views);
    EXPECT_EQ(got, want) << slice_count << " slices";
  }
}

TEST(ShardedEngineTest, ClustersTangentToStripeBorder) {
  // 4 shards over 100 rows put borders at y = 2500 / 5000 / 7500. Build
  // clusters sitting exactly on, just under and just over a border, plus one
  // spanning it.
  Workload w;
  Workload::Tick tick;
  int oid = 1, qid = 1;
  for (double y : {2500.0, 2499.999, 2500.001, 2450.0, 2550.0, 5000.0,
                   7500.0}) {
    for (double x : {1000.0, 1060.0, 1120.0}) {
      tick.objects.push_back(Obj(oid++, {x, y}, 0));
    }
    tick.queries.push_back(Qry(qid++, {1060, y}, 0, 300, 300));
  }
  // A cluster straddling the border: members on both sides.
  for (double dy : {-90.0, -30.0, 30.0, 90.0}) {
    tick.objects.push_back(Obj(oid++, {3000, 2500 + dy}, 0));
  }
  tick.queries.push_back(Qry(qid++, {3000, 2500}, 0, 250, 250));
  w.ticks.push_back(tick);
  // Second tick: everyone shifts north across the border.
  Workload::Tick shifted;
  for (LocationUpdate u : tick.objects) {
    u.position.y += 120;
    u.time = 1;
    shifted.objects.push_back(u);
  }
  for (QueryUpdate u : tick.queries) {
    u.position.y += 120;
    u.time = 1;
    shifted.queries.push_back(u);
  }
  w.ticks.push_back(shifted);

  ExpectShardedMatchesSingle(w, BaseOptions(1, 1), BaseOptions(4, 1));
}

TEST(ShardedEngineTest, DestinationInDifferentShardThanPosition) {
  // Objects in the bottom stripe whose destination node sits in the top
  // stripe: velocity (hence translation and join conditions) points across
  // the partition. The cluster must form, translate and join identically.
  Workload w;
  Workload::Tick tick;
  for (int i = 0; i < 12; ++i) {
    tick.objects.push_back(Obj(i + 1, {4000.0 + 40 * i, 500.0}, 0,
                               /*speed=*/80.0, /*dest=*/99,
                               /*dest_pos=*/Point{4200, 9500}));
  }
  tick.queries.push_back(
      Qry(1, {4200, 520}, 0, 400, 400, 99, Point{4200, 9500}));
  w.ticks.push_back(tick);
  for (int t = 1; t < 5; ++t) {
    Workload::Tick next;
    for (LocationUpdate u : w.ticks[t - 1].objects) {
      u.position.y += 160;  // marching toward the destination stripe
      u.time = t;
      next.objects.push_back(u);
    }
    for (QueryUpdate u : w.ticks[t - 1].queries) {
      u.position.y += 160;
      u.time = t;
      next.queries.push_back(u);
    }
    w.ticks.push_back(next);
  }
  ExpectShardedMatchesSingle(w, BaseOptions(1, 1), BaseOptions(4, 1));
}

TEST(ShardedEngineTest, HandoffsAndGhostsOccurAndStayIdentical) {
  const Workload w = MakeWorkload(/*seed=*/7, /*ticks=*/10, /*objects=*/250,
                                  /*queries=*/50);
  auto sharded = ShardedEngine::Create(BaseOptions(8, 1)).value();
  auto single = ScubaEngine::Create(BaseOptions(1, 1)).value();
  const std::vector<ResultSet> a = Drive(w, single.get());
  const std::vector<ResultSet> b = Drive(w, sharded.get());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  // The workload random-walks across the whole map: border crossings must
  // actually exercise the ghost and handoff protocols.
  EXPECT_GT(sharded->ghosts_published(), 0u);
  EXPECT_GT(sharded->handoffs(), 0u);
  EXPECT_EQ(EngineStateHash(*single), EngineStateHash(*sharded));
}

TEST(ShardedEngineTest, ZeroAreaStripes) {
  // More shards than grid rows: the surplus stripes own no cells. grid_cells
  // = 8 rows under 16 shards.
  ScubaOptions opt = BaseOptions(16, 1);
  opt.grid_cells = 8;
  ScubaOptions single = BaseOptions(1, 1);
  single.grid_cells = 8;
  const Workload w = MakeWorkload(/*seed=*/99, /*ticks=*/5, /*objects=*/100,
                                  /*queries=*/20);
  ExpectShardedMatchesSingle(w, single, opt);
}

TEST(ShardedEngineTest, MapSmallerThanOneStripe) {
  // A 2x2-cell map under 4 shards: stripes own one row or none; most of the
  // engine's clusters concentrate in two stripes.
  ScubaOptions opt = BaseOptions(4, 1);
  opt.grid_cells = 2;
  ScubaOptions single = BaseOptions(1, 1);
  single.grid_cells = 2;
  const Workload w = MakeWorkload(/*seed=*/5, /*ticks=*/5, /*objects=*/80,
                                  /*queries=*/15);
  ExpectShardedMatchesSingle(w, single, opt);
}

TEST(ShardedEngineTest, ShardedStateHashMatchesSingleEngineLayout) {
  // ShardedStateHash must byte-match SaveStoreState of an equivalent single
  // engine — that is what makes cross-shard hash comparisons meaningful.
  const Workload w = MakeWorkload(/*seed=*/21, /*ticks=*/4, /*objects=*/60,
                                  /*queries=*/12);
  auto single = ScubaEngine::Create(BaseOptions(1, 1)).value();
  auto sharded = ShardedEngine::Create(BaseOptions(2, 1)).value();
  Drive(w, single.get());
  Drive(w, sharded.get());
  EXPECT_EQ(EngineStateHash(*single), EngineStateHash(*sharded));
}

TEST(ShardedEngineTest, RebalanceObserveFlagsSkew) {
  // Everything in the bottom stripe: shard 0 carries ~4x the mean load, so
  // observe mode must log at least one split recommendation.
  ScubaOptions opt = BaseOptions(4, 1);
  opt.rebalance = RebalanceMode::kObserve;
  auto engine = ShardedEngine::Create(opt).value();
  Workload w;
  Workload::Tick tick;
  Rng rng(31);
  for (int i = 0; i < 120; ++i) {
    tick.objects.push_back(Obj(
        i + 1, {rng.NextDouble(0, 10000), rng.NextDouble(0, 2400)}, 0));
  }
  for (int i = 0; i < 25; ++i) {
    tick.queries.push_back(Qry(
        i + 1, {rng.NextDouble(0, 10000), rng.NextDouble(0, 2400)}, 0, 300,
        300));
  }
  w.ticks.push_back(std::move(tick));
  Drive(w, engine.get());
  EXPECT_GE(engine->rebalance_recommendations(), 1u);
  EXPECT_NE(engine->last_recommendation().find("shard 0"), std::string::npos)
      << engine->last_recommendation();
}

TEST(ShardedEngineTest, QuarantinePolicyMatchesSingleEngine) {
  ScubaOptions opt = BaseOptions(4, 1);
  opt.on_bad_update = BadUpdatePolicy::kQuarantine;
  ScubaOptions single = BaseOptions(1, 1);
  single.on_bad_update = BadUpdatePolicy::kQuarantine;
  Workload w = MakeWorkload(/*seed=*/3, /*ticks=*/4, /*objects=*/60,
                            /*queries=*/12);
  // Poison a few tuples; both engines must quarantine the same set.
  w.ticks[1].objects[0].position.x = std::numeric_limits<double>::quiet_NaN();
  w.ticks[2].objects[1].speed = -5.0;
  w.ticks[3].queries[0].dest_node = kInvalidNodeId;
  ExpectShardedMatchesSingle(w, single, opt);
}

TEST(ShardedEngineTest, RejectsInvalidShardCounts) {
  ScubaOptions opt = BaseOptions(0, 1);
  EXPECT_FALSE(ShardedEngine::Create(opt).ok());
  opt.shards = 2000;
  EXPECT_FALSE(ShardedEngine::Create(opt).ok());
}

}  // namespace
}  // namespace scuba
