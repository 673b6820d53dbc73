// Determinism coverage for batched ingestion and parallel post-join upkeep:
// IngestBatch must leave the engine in a bit-identical state to the
// per-update path, and post-join maintenance at any join_threads count must
// match the serial loop — same clusters (every field, member order
// included), same clusterer counters, same grid registrations, and identical
// ResultSets from every subsequent Evaluate round. ingest_threads is
// accepted and ignored: ingest is serial.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/scuba_engine.h"
#include "state_digest.h"

namespace scuba {
namespace {

struct Round {
  std::vector<LocationUpdate> objects;
  std::vector<QueryUpdate> queries;
};

/// A seeded multi-round workload exercising every ingest path: in-place
/// refreshes (co-travelling groups), departures (destination changes),
/// absorbs, brand-new entities, sparse update rates (stale members and
/// expiring clusters), and duplicate entity updates inside one batch.
std::vector<Round> MakeRounds(uint64_t seed, int rounds) {
  Rng rng(seed);
  const int kGroups = 12;
  struct Entity {
    uint32_t id;
    bool is_query;
    int group;
    Point pos;
    double range;
  };
  std::vector<Entity> entities;
  for (uint32_t i = 0; i < 220; ++i) {
    int group = static_cast<int>(rng.NextDouble(0, kGroups));
    Point base{500.0 + 700.0 * group, 500.0 + 600.0 * (group % 4)};
    entities.push_back(Entity{i, (i % 3 == 2),
                              group,
                              {base.x + rng.NextDouble(-60, 60),
                               base.y + rng.NextDouble(-60, 60)},
                              rng.NextDouble(40, 200)});
  }

  std::vector<Round> out(rounds);
  for (int r = 0; r < rounds; ++r) {
    Round& round = out[r];
    for (Entity& e : entities) {
      if (rng.NextDouble(0, 1) < 0.25) continue;  // stale this tick
      // Groups drift together so refreshes dominate; ~8% of updates hop to
      // another group's area with a new destination (departure + re-cluster).
      if (rng.NextDouble(0, 1) < 0.08) {
        e.group = static_cast<int>(rng.NextDouble(0, kGroups));
        Point base{500.0 + 700.0 * e.group, 500.0 + 600.0 * (e.group % 4)};
        e.pos = {base.x + rng.NextDouble(-60, 60),
                 base.y + rng.NextDouble(-60, 60)};
      } else {
        e.pos = {e.pos.x + rng.NextDouble(-25, 25),
                 e.pos.y + rng.NextDouble(-25, 25)};
      }
      if (e.is_query) {
        QueryUpdate u;
        u.qid = e.id;
        u.position = e.pos;
        u.speed = 10.0 + (e.id % 5);
        u.dest_node = static_cast<NodeId>(e.group);
        u.dest_position = Point{9500, 9500};
        u.range_width = e.range;
        u.range_height = e.range;
        u.time = static_cast<Timestamp>(r + 1);
        round.queries.push_back(u);
      } else {
        LocationUpdate u;
        u.oid = e.id;
        u.position = e.pos;
        u.speed = 10.0 + (e.id % 5);
        u.dest_node = static_cast<NodeId>(e.group);
        u.dest_position = Point{9500, 9500};
        u.attrs = (e.id % 4 == 0) ? 0x3u : 0x1u;
        u.time = static_cast<Timestamp>(r + 1);
        round.objects.push_back(u);
        // Occasionally deliver the same object twice in one batch (a late
        // correction): both must be applied in order, like the serial path.
        if (e.id % 37 == 0) {
          u.position = {u.position.x + 5.0, u.position.y + 5.0};
          round.objects.push_back(u);
        }
      }
    }
  }
  return out;
}

bool StatsEqual(const ClustererStats& a, const ClustererStats& b) {
  return a.clusters_created == b.clusters_created &&
         a.members_absorbed == b.members_absorbed &&
         a.members_refreshed == b.members_refreshed &&
         a.members_departed == b.members_departed &&
         a.clusters_dissolved_empty == b.clusters_dissolved_empty &&
         a.members_shed == b.members_shed;
}

struct RunOutcome {
  std::vector<ResultSet> rounds;
  std::vector<std::string> digests;
  ClustererStats clusterer;
  uint64_t dissolved_expired = 0;
};

RunOutcome RunWorkload(const std::vector<Round>& rounds, uint32_t threads,
                       bool use_batch_api, double eta = 0.0) {
  ScubaOptions opt;
  opt.join_threads = threads;
  opt.ingest_threads = threads;
  if (eta > 0.0) {
    opt.shedding.mode = LoadSheddingMode::kFixed;
    opt.shedding.eta = eta;
  }
  std::unique_ptr<ScubaEngine> engine =
      std::move(ScubaEngine::Create(opt).value());
  RunOutcome out;
  Timestamp now = 0;
  for (const Round& round : rounds) {
    now += 2;
    if (use_batch_api) {
      EXPECT_TRUE(engine->IngestBatch(round.objects, round.queries).ok());
    } else {
      for (const LocationUpdate& u : round.objects) {
        EXPECT_TRUE(engine->IngestObjectUpdate(u).ok());
      }
      for (const QueryUpdate& u : round.queries) {
        EXPECT_TRUE(engine->IngestQueryUpdate(u).ok());
      }
    }
    ResultSet results;
    EXPECT_TRUE(engine->Evaluate(now, &results).ok());
    out.rounds.push_back(std::move(results));
    out.digests.push_back(StateDigest(*engine));
  }
  out.clusterer = engine->StatsSnapshot().clusterer;
  out.dissolved_expired = engine->StatsSnapshot().phase.clusters_dissolved_expired;
  return out;
}

class ParallelIngestDeterminismTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelIngestDeterminismTest, BatchMatchesSerialAtEveryThreadCount) {
  std::vector<Round> rounds = MakeRounds(GetParam(), /*rounds=*/5);
  RunOutcome serial =
      RunWorkload(rounds, /*threads=*/1, /*use_batch_api=*/false);
  size_t total = 0;
  for (const ResultSet& r : serial.rounds) total += r.size();
  EXPECT_GT(total, 0u) << "workload must produce matches";
  EXPECT_GT(serial.clusterer.members_refreshed, 0u);
  EXPECT_GT(serial.clusterer.members_departed, 0u);

  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    RunOutcome batch = RunWorkload(rounds, threads, /*use_batch_api=*/true);
    ASSERT_EQ(batch.rounds.size(), serial.rounds.size());
    for (size_t i = 0; i < serial.rounds.size(); ++i) {
      EXPECT_EQ(batch.rounds[i], serial.rounds[i])
          << "threads=" << threads << " round=" << i;
      EXPECT_EQ(batch.digests[i], serial.digests[i])
          << "threads=" << threads << " round=" << i;
    }
    EXPECT_TRUE(StatsEqual(batch.clusterer, serial.clusterer))
        << "threads=" << threads;
    EXPECT_EQ(batch.dissolved_expired, serial.dissolved_expired)
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelIngestDeterminismTest,
                         ::testing::Values(7, 21, 42, 1234));

TEST(ParallelIngestTest, DeterministicUnderLoadShedding) {
  // Shedding makes ingest and post-join mutate nuclei; the batch path and
  // parallel upkeep must still match serial bit for bit.
  std::vector<Round> rounds = MakeRounds(77, /*rounds=*/4);
  RunOutcome serial =
      RunWorkload(rounds, 1, /*use_batch_api=*/false, /*eta=*/0.5);
  EXPECT_GT(serial.clusterer.members_shed, 0u);
  for (uint32_t threads : {2u, 4u}) {
    RunOutcome batch = RunWorkload(rounds, threads, /*use_batch_api=*/true, 0.5);
    for (size_t i = 0; i < serial.rounds.size(); ++i) {
      EXPECT_EQ(batch.rounds[i], serial.rounds[i]) << "round=" << i;
      EXPECT_EQ(batch.digests[i], serial.digests[i]) << "round=" << i;
    }
    EXPECT_TRUE(StatsEqual(batch.clusterer, serial.clusterer));
  }
}

TEST(ParallelIngestTest, RepeatedParallelRunsAreStable) {
  // Scheduling nondeterminism must never leak into engine state: two
  // identical parallel runs produce identical digests.
  std::vector<Round> rounds = MakeRounds(99, /*rounds=*/3);
  RunOutcome first = RunWorkload(rounds, 4, /*use_batch_api=*/true);
  RunOutcome second = RunWorkload(rounds, 4, /*use_batch_api=*/true);
  EXPECT_EQ(first.digests, second.digests);
}

TEST(ParallelIngestTest, StatsReportIngestSplit) {
  std::vector<Round> rounds = MakeRounds(5, /*rounds=*/2);
  ScubaOptions opt;
  opt.ingest_threads = 4;
  opt.join_threads = 4;
  std::unique_ptr<ScubaEngine> engine =
      std::move(ScubaEngine::Create(opt).value());
  ASSERT_TRUE(engine->IngestBatch(rounds[0].objects, rounds[0].queries).ok());
  ResultSet results;
  ASSERT_TRUE(engine->Evaluate(2, &results).ok());
  const EvalStats stats = engine->StatsSnapshot().eval;
  EXPECT_EQ(stats.ingest_threads, 1u);  // serial whatever the option says
  EXPECT_EQ(stats.join_threads, 4u);
  EXPECT_DOUBLE_EQ(stats.total_ingest_worker_seconds,
                   stats.total_ingest_seconds);
  EXPECT_GT(stats.total_ingest_seconds, 0.0);
  EXPECT_GT(stats.total_postjoin_seconds, 0.0);
  EXPECT_GT(stats.total_ingest_worker_seconds, 0.0);
  EXPECT_GT(stats.total_postjoin_worker_seconds, 0.0);
  // The legacy aggregate stays the sum of the split, so existing consumers
  // (CSV columns, FormatStats) keep their meaning.
  EXPECT_DOUBLE_EQ(
      stats.total_maintenance_seconds,
      stats.total_ingest_seconds + stats.total_postjoin_seconds);
}

TEST(ParallelIngestTest, BatchRejectsInvalidUpdateUpfront) {
  ScubaOptions opt;
  opt.ingest_threads = 2;
  std::unique_ptr<ScubaEngine> engine =
      std::move(ScubaEngine::Create(opt).value());
  LocationUpdate good;
  good.oid = 1;
  good.position = {100, 100};
  good.speed = 10.0;
  good.dest_node = 1;
  good.dest_position = {500, 500};
  LocationUpdate bad = good;
  bad.oid = 2;
  bad.speed = -1.0;  // invalid
  std::vector<LocationUpdate> objects = {good, bad};
  EXPECT_FALSE(engine->IngestBatch(objects, {}).ok());
  // Whole-batch validation: nothing was ingested, not even the valid update.
  EXPECT_EQ(engine->store().ClusterCount(), 0u);
}

}  // namespace
}  // namespace scuba
