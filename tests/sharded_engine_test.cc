// Cross-window bit-identity (docs/ARCHITECTURE.md §11): the engine at any
// (shards, join_threads) — shards meaning join windows over one store and one
// grid — must produce per-round ResultSets, counters, state digests,
// EngineStateHash values and shedder trajectories identical to the engine at
// one window and one thread on the same stream, including under fixed and
// adaptive load shedding and with clusters crossing window borders. Plus the
// partitioning edge cases: clusters tangent to a window border, empty
// windows, a map smaller than one window, and objects whose destination lies
// in a different window than their position.

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
#include "state_digest.h"

namespace scuba {
namespace {

constexpr Rect kRegion{0, 0, 10000, 10000};

/// Adaptive-shedding budget for the workloads below: small enough that the
/// shedder tightens and relaxes during the run.
constexpr size_t kAdaptiveBudgetBytes = 300 * 1024;

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
/// clusters translate, cross window borders, dissolve and re-form), a
/// fraction skips reporting each tick (so expiry fires), and destination
/// nodes point at far-away map corners (routinely a different window than the
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

/// One run's observable trajectory: each round's normalized ResultSet and
/// the shedder's eta after it.
struct Trajectory {
  std::vector<ResultSet> rounds;
  std::vector<double> etas;
};

/// Drives the engine through the workload — batched ingest on even ticks,
/// per-update on odd ticks (both paths must agree) — recording each round.
Trajectory DriveEngine(const Workload& w, ScubaEngine* engine) {
  Trajectory out;
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
    out.rounds.push_back(results);
    out.etas.push_back(engine->StatsSnapshot().shedder.eta);
    now += 2;
  }
  return out;
}

void ExpectStatsMatch(const EngineSnapshotStats& want,
                      const EngineSnapshotStats& got) {
  EXPECT_EQ(want.shedder.eta, got.shedder.eta);
  EXPECT_EQ(want.shedder.adjustments, got.shedder.adjustments);
  EXPECT_EQ(want.eval.evaluations, got.eval.evaluations);
  EXPECT_EQ(want.eval.total_results, got.eval.total_results);
  EXPECT_EQ(want.eval.comparisons, got.eval.comparisons);
  EXPECT_EQ(want.eval.bounds_checks, got.eval.bounds_checks);
  EXPECT_EQ(want.eval.cluster_pairs_tested, got.eval.cluster_pairs_tested);
  EXPECT_EQ(want.eval.cluster_pairs_overlapping,
            got.eval.cluster_pairs_overlapping);
  EXPECT_EQ(want.eval.updates_quarantined, got.eval.updates_quarantined);
  EXPECT_EQ(want.clusterer.clusters_created,
            got.clusterer.clusters_created);
  EXPECT_EQ(want.clusterer.members_absorbed,
            got.clusterer.members_absorbed);
  EXPECT_EQ(want.clusterer.members_refreshed,
            got.clusterer.members_refreshed);
  EXPECT_EQ(want.clusterer.members_departed,
            got.clusterer.members_departed);
  EXPECT_EQ(want.clusterer.clusters_dissolved_empty,
            got.clusterer.clusters_dissolved_empty);
  EXPECT_EQ(want.clusterer.members_shed, got.clusterer.members_shed);
  EXPECT_EQ(want.phase.clusters_dissolved_expired,
            got.phase.clusters_dissolved_expired);
  EXPECT_EQ(want.phase.members_shed_maintenance,
            got.phase.members_shed_maintenance);
  EXPECT_EQ(want.phase.clusters_split, got.phase.clusters_split);
  EXPECT_EQ(want.join.comparisons, got.join.comparisons);
  EXPECT_EQ(want.join.within_joins_single, got.join.within_joins_single);
  EXPECT_EQ(want.join.within_joins_pair, got.join.within_joins_pair);
  EXPECT_EQ(want.clusters, got.clusters);
}

/// Runs the reference configuration and one windowed configuration over the
/// same workload and asserts full bit-identity.
void ExpectWindowsMatchReference(const Workload& w, ScubaOptions reference_opt,
                                 ScubaOptions windowed_opt) {
  auto reference = ScubaEngine::Create(reference_opt).value();
  auto windowed = ScubaEngine::Create(windowed_opt).value();

  const Trajectory want = DriveEngine(w, reference.get());
  const Trajectory got = DriveEngine(w, windowed.get());

  ASSERT_EQ(want.rounds.size(), got.rounds.size());
  for (size_t i = 0; i < want.rounds.size(); ++i) {
    EXPECT_EQ(want.rounds[i], got.rounds[i]) << "round " << i;
    EXPECT_EQ(want.etas[i], got.etas[i]) << "round " << i;
  }
  EXPECT_EQ(StateDigest(*reference), StateDigest(*windowed));
  EXPECT_EQ(EngineStateHash(*reference), EngineStateHash(*windowed));
  ExpectStatsMatch(reference->StatsSnapshot(), windowed->StatsSnapshot());
}

class ShardMatrixTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(ShardMatrixTest, BitIdenticalToOneWindow) {
  const auto [shards, threads] = GetParam();
  const Workload w = MakeWorkload(/*seed=*/42, /*ticks=*/8, /*objects=*/200,
                                  /*queries=*/40);
  ExpectWindowsMatchReference(w, BaseOptions(1, 1),
                              BaseOptions(shards, threads));
}

TEST_P(ShardMatrixTest, BitIdenticalUnderFixedShedding) {
  const auto [shards, threads] = GetParam();
  ScubaOptions opt = BaseOptions(shards, threads);
  opt.shedding.mode = LoadSheddingMode::kFixed;
  opt.shedding.eta = 0.3;
  ScubaOptions reference = BaseOptions(1, 1);
  reference.shedding = opt.shedding;
  const Workload w = MakeWorkload(/*seed=*/1234, /*ticks=*/6, /*objects=*/150,
                                  /*queries=*/30);
  ExpectWindowsMatchReference(w, reference, opt);
}

TEST_P(ShardMatrixTest, BitIdenticalUnderAdaptiveShedding) {
  // One shedder observes the one store, grid and join scratch, so its eta
  // trajectory cannot depend on the window count. The per-task join scratch
  // does scale with the thread count, so the reference runs at the same
  // threads and one window.
  const auto [shards, threads] = GetParam();
  ScubaOptions opt = BaseOptions(shards, threads);
  opt.shedding.mode = LoadSheddingMode::kAdaptive;
  opt.shedding.memory_budget_bytes = kAdaptiveBudgetBytes;
  opt.shedding.eta_step = 0.2;
  ScubaOptions reference = BaseOptions(1, threads);
  reference.shedding = opt.shedding;
  const Workload w = MakeWorkload(/*seed=*/77, /*ticks=*/10, /*objects=*/250,
                                  /*queries=*/50);
  ExpectWindowsMatchReference(w, reference, opt);
  // The budget must make the shedder move, or the case proves nothing.
  auto probe = ScubaEngine::Create(reference).value();
  DriveEngine(w, probe.get());
  EXPECT_GT(probe->StatsSnapshot().shedder.adjustments, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ShardMatrixTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(1u, 4u)),
    [](const ::testing::TestParamInfo<std::tuple<uint32_t, uint32_t>>& info) {
      return "shards" + std::to_string(std::get<0>(info.param)) + "x" +
             std::to_string(std::get<1>(info.param)) + "threads";
    });

TEST(ShardedEngineTest, MakeEngineBuildsTheOneEngineAtEveryWindowCount) {
  const Workload w = MakeWorkload(/*seed=*/7, /*ticks=*/6, /*objects=*/150,
                                  /*queries=*/30);
  auto reference = ScubaEngine::Create(BaseOptions(1, 1)).value();
  const Trajectory want = DriveEngine(w, reference.get());
  for (uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Result<EngineHandle> handle = MakeEngine(BaseOptions(shards, 1), "scuba");
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    ASSERT_NE(handle->scuba, nullptr);
    EXPECT_EQ(handle->sharded, handle->scuba);
    EXPECT_EQ(handle->engine.get(), handle->scuba);
    EXPECT_EQ(handle->scuba->shard_count(), shards);
    EXPECT_EQ(DriveEngine(w, handle->scuba).rounds, want.rounds);
    EXPECT_EQ(handle->StateHash(), EngineStateHash(*reference));
    EXPECT_EQ(handle->scuba->handoffs(), 0u);
    EXPECT_EQ(handle->scuba->ghosts_published(), 0u);
  }
}

TEST(ShardedEngineTest, WindowsAreWholeRowsCoveringTheGrid) {
  ScubaOptions opt = BaseOptions(3, 1);
  opt.grid_cells = 10;
  auto engine = ScubaEngine::Create(opt).value();
  const ShardRouter& windows = engine->router();
  ASSERT_EQ(windows.shard_count(), 3u);
  EXPECT_EQ(windows.CellBegin(0), 0u);
  for (uint32_t w = 0; w + 1 < 3; ++w) {
    EXPECT_EQ(windows.CellEnd(w), windows.CellBegin(w + 1));
    EXPECT_EQ(windows.CellEnd(w) % opt.grid_cells, 0u);
  }
  EXPECT_EQ(windows.CellEnd(2), opt.grid_cells * opt.grid_cells);
}

TEST(ShardedEngineTest, MergeNormalizedEqualsConcatenateAndNormalize) {
  // The window slice merge must agree with a full sort + dedup for
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

TEST(ShardedEngineTest, ClustersTangentToWindowBorder) {
  // 4 windows over 100 rows put borders at y = 2500 / 5000 / 7500. Build
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

  ExpectWindowsMatchReference(w, BaseOptions(1, 1), BaseOptions(4, 1));
}

TEST(ShardedEngineTest, DestinationInDifferentWindowThanPosition) {
  // Objects in the bottom window whose destination node sits in the top
  // window: velocity (hence translation and join conditions) points across
  // the windows. The cluster must form, translate and join identically.
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
  ExpectWindowsMatchReference(w, BaseOptions(1, 1), BaseOptions(4, 1));
}

TEST(ShardedEngineTest, EmptyWindows) {
  // More windows than grid rows: the surplus windows own no cells.
  // grid_cells = 8 rows under 16 windows.
  ScubaOptions opt = BaseOptions(16, 1);
  opt.grid_cells = 8;
  ScubaOptions reference = BaseOptions(1, 1);
  reference.grid_cells = 8;
  const Workload w = MakeWorkload(/*seed=*/99, /*ticks=*/5, /*objects=*/100,
                                  /*queries=*/20);
  ExpectWindowsMatchReference(w, reference, opt);
}

TEST(ShardedEngineTest, MapSmallerThanOneWindow) {
  // A 2x2-cell map under 4 windows: windows own one row or none; every
  // cluster lies in one or both of the two non-empty windows.
  ScubaOptions opt = BaseOptions(4, 1);
  opt.grid_cells = 2;
  ScubaOptions reference = BaseOptions(1, 1);
  reference.grid_cells = 2;
  const Workload w = MakeWorkload(/*seed=*/5, /*ticks=*/5, /*objects=*/80,
                                  /*queries=*/15);
  ExpectWindowsMatchReference(w, reference, opt);
}

TEST(ShardedEngineTest, QuarantinePolicyMatchesOneWindow) {
  ScubaOptions opt = BaseOptions(4, 1);
  opt.on_bad_update = BadUpdatePolicy::kQuarantine;
  ScubaOptions reference = BaseOptions(1, 1);
  reference.on_bad_update = BadUpdatePolicy::kQuarantine;
  Workload w = MakeWorkload(/*seed=*/3, /*ticks=*/4, /*objects=*/60,
                            /*queries=*/12);
  // Poison a few tuples; both configurations must quarantine the same set.
  w.ticks[1].objects[0].position.x = std::numeric_limits<double>::quiet_NaN();
  w.ticks[2].objects[1].speed = -5.0;
  w.ticks[3].queries[0].dest_node = kInvalidNodeId;
  ExpectWindowsMatchReference(w, reference, opt);
}

TEST(ShardedEngineTest, RejectsInvalidShardCounts) {
  ScubaOptions opt = BaseOptions(0, 1);
  EXPECT_FALSE(ScubaEngine::Create(opt).ok());
  opt.shards = 2000;
  EXPECT_FALSE(ScubaEngine::Create(opt).ok());
}

}  // namespace
}  // namespace scuba
