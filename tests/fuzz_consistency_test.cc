// Randomized consistency fuzzing: hammer the SCUBA engine with adversarial
// update sequences (random positions, destination flips, speed jumps, entity
// reuse, shedding, splitting, partial rounds) in every production
// configuration — join windows {1,2,4} x batch or per-update ingest x
// supervision off or on (no injected faults) — and assert after every round
// that every configuration audits clean and all of them agree exactly:
// results, join counters and state hashes. When the configuration is exact,
// results must also match the oracle built from the same tuples (the
// full-report variant at every window x join-thread combination).

#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/naive_join_engine.h"
#include "common/rng.h"
#include "core/scuba_engine.h"
#include "eval/accuracy.h"
#include "persist/snapshot.h"
#include "shard/engine_factory.h"

namespace scuba {
namespace {

struct FuzzParam {
  uint64_t seed;
  bool shedding;
  bool splitting;
};

class FuzzConsistencyTest : public ::testing::TestWithParam<FuzzParam> {};

/// One production configuration under test.
struct FuzzConfig {
  EngineHandle handle;
  bool batch = false;  ///< IngestBatch, else one call per update.
  std::string label;
};

TEST_P(FuzzConsistencyTest, InvariantsHoldUnderChaos) {
  const FuzzParam param = GetParam();
  Rng rng(param.seed);

  ScubaOptions options;
  options.region = Rect{0, 0, 2000, 2000};
  options.grid_cells = 20;
  if (param.shedding) {
    options.shedding.mode = LoadSheddingMode::kFixed;
    options.shedding.eta = 0.5;
  }
  options.enable_cluster_splitting = param.splitting;
  options.split_radius_factor = 0.7;
  std::vector<FuzzConfig> configs;
  for (uint32_t shards : {1u, 2u, 4u}) {
    for (bool batch : {false, true}) {
      for (bool supervised : {false, true}) {
        ScubaOptions o = options;
        o.shards = shards;
        if (supervised) {
          o.supervision.on_failure = ShardFailurePolicy::kDegrade;
        }
        Result<EngineHandle> handle = MakeEngine(o);
        ASSERT_TRUE(handle.ok()) << handle.status().ToString();
        configs.push_back(FuzzConfig{
            std::move(*handle), batch,
            "shards=" + std::to_string(shards) +
                (batch ? " batch" : " per-update") +
                (supervised ? " supervised" : "")});
      }
    }
  }
  NaiveJoinEngine oracle;

  constexpr uint32_t kEntities = 40;
  ResultSet want;
  ResultSet got;
  ResultSet oracle_results;

  for (Timestamp t = 1; t <= 40; ++t) {
    // Random subset of entities report; chaotic motion parameters.
    std::vector<LocationUpdate> objects;
    std::vector<QueryUpdate> queries;
    for (uint32_t i = 0; i < kEntities; ++i) {
      if (!rng.NextBool(0.8)) continue;
      Point pos{rng.NextDouble(0, 2000), rng.NextDouble(0, 2000)};
      double speed = rng.NextDouble(0, 60);
      NodeId dest = static_cast<NodeId>(rng.NextBounded(5));
      Point dest_pos{rng.NextDouble(0, 2000), rng.NextDouble(0, 2000)};
      if (i % 2 == 0) {
        LocationUpdate u;
        u.oid = i;
        u.position = pos;
        u.time = t;
        u.speed = speed;
        u.dest_node = dest;
        u.dest_position = dest_pos;
        objects.push_back(u);
      } else {
        QueryUpdate u;
        u.qid = i;
        u.position = pos;
        u.time = t;
        u.speed = speed;
        u.dest_node = dest;
        u.dest_position = dest_pos;
        u.range_width = rng.NextDouble(10, 300);
        u.range_height = rng.NextDouble(10, 300);
        queries.push_back(u);
      }
    }
    // Delivery order: the tick's objects, then its queries, on every path.
    ASSERT_TRUE(oracle.IngestBatch(objects, queries).ok());
    for (FuzzConfig& config : configs) {
      QueryProcessor* engine = config.handle.engine.get();
      if (config.batch) {
        ASSERT_TRUE(engine->IngestBatch(objects, queries).ok()) << config.label;
        continue;
      }
      for (const LocationUpdate& u : objects) {
        ASSERT_TRUE(engine->IngestObjectUpdate(u).ok()) << config.label;
      }
      for (const QueryUpdate& u : queries) {
        ASSERT_TRUE(engine->IngestQueryUpdate(u).ok()) << config.label;
      }
    }
    const ScubaEngine& first = *configs.front().handle.scuba;
    ASSERT_TRUE(first.store().ValidateConsistency().ok()) << "tick " << t;
    ASSERT_EQ(first.cluster_grid().size(), first.ClusterCount());
    if (t % 2 != 0) continue;

    ASSERT_TRUE(oracle.Evaluate(t, &oracle_results).ok());
    for (size_t c = 0; c < configs.size(); ++c) {
      ScubaEngine& engine = *configs[c].handle.scuba;
      ResultSet& results = c == 0 ? want : got;
      ASSERT_TRUE(engine.Evaluate(t, &results).ok()) << configs[c].label;
      const InvariantAuditReport audit = engine.AuditInvariants();
      EXPECT_TRUE(audit.clean())
          << configs[c].label << " tick " << t << ": " << audit.ToString();
      if (c == 0) continue;
      // Cross-configuration identity, always.
      EXPECT_EQ(results, want) << configs[c].label << " tick " << t;
      EXPECT_EQ(EngineStateHash(engine), EngineStateHash(first))
          << configs[c].label << " tick " << t;
      EXPECT_EQ(engine.StatsSnapshot().join.comparisons,
                first.StatsSnapshot().join.comparisons)
          << configs[c].label << " tick " << t;
      EXPECT_EQ(engine.StatsSnapshot().join.pairs_tested,
                first.StatsSnapshot().join.pairs_tested)
          << configs[c].label << " tick " << t;
    }

    // Cluster-level invariants: radius covers reconstructed members,
    // centroid is their mean, homes point back.
    for (ClusterId cid : first.store().SortedClusterIds()) {
      const MovingCluster& cluster = *first.store().GetCluster(cid);
      Point sum{0, 0};
      for (const ClusterMember& m : cluster.members()) {
        Point p = cluster.MemberPosition(m);
        sum.x += p.x;
        sum.y += p.y;
        EXPECT_LE(Distance(cluster.centroid(), p), cluster.radius() + 1e-6);
      }
      double n = static_cast<double>(cluster.size());
      EXPECT_NEAR(cluster.centroid().x, sum.x / n, 1e-6);
      EXPECT_NEAR(cluster.centroid().y, sum.y / n, 1e-6);
    }

    if (!param.shedding) {
      // The 80% report rate leaves silent entities extrapolated by SCUBA
      // but static for the oracle, so exactness is unattainable here (the
      // full-report variant below asserts it); require high recall instead.
      AccuracyReport rep = CompareResults(oracle_results, want);
      if (oracle_results.size() > 0) {
        EXPECT_GE(rep.Recall(), 0.5) << "tick " << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Chaos, FuzzConsistencyTest,
    ::testing::Values(FuzzParam{1, false, false}, FuzzParam{2, true, false},
                      FuzzParam{3, false, true}, FuzzParam{4, true, true},
                      FuzzParam{5, false, false}, FuzzParam{6, true, true}));

// Full-report variant: every entity reports every tick, so the exact
// configuration must match the oracle exactly even under chaotic motion — at
// join windows {1,2,4} x join_threads {1,4}, whose window edges cut the
// random multi-cell clusters at arbitrary cells.
class FuzzExactTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzExactTest, ChaoticMotionStaysExact) {
  Rng rng(GetParam());
  ScubaOptions options;
  options.region = Rect{0, 0, 2000, 2000};
  options.grid_cells = 20;
  std::vector<QueryProcessor*> engines;
  std::vector<std::string> labels;
  std::vector<EngineHandle> production;
  for (uint32_t shards : {1u, 2u, 4u}) {
    for (uint32_t threads : {1u, 4u}) {
      ScubaOptions o = options;
      o.shards = shards;
      o.join_threads = threads;
      Result<EngineHandle> handle = MakeEngine(o);
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      production.push_back(std::move(*handle));
      engines.push_back(production.back().engine.get());
      labels.push_back("shards=" + std::to_string(shards) +
                       " threads=" + std::to_string(threads));
    }
  }
  NaiveJoinEngine oracle;

  ResultSet a;
  ResultSet b;
  for (Timestamp t = 1; t <= 30; ++t) {
    for (uint32_t i = 0; i < 30; ++i) {
      Point pos{rng.NextDouble(0, 2000), rng.NextDouble(0, 2000)};
      double speed = rng.NextDouble(0, 60);
      NodeId dest = static_cast<NodeId>(rng.NextBounded(4));
      Point dest_pos{rng.NextDouble(0, 2000), rng.NextDouble(0, 2000)};
      if (i % 2 == 0) {
        LocationUpdate u;
        u.oid = i;
        u.position = pos;
        u.time = t;
        u.speed = speed;
        u.dest_node = dest;
        u.dest_position = dest_pos;
        for (QueryProcessor* engine : engines) {
          ASSERT_TRUE(engine->IngestObjectUpdate(u).ok());
        }
        ASSERT_TRUE(oracle.IngestObjectUpdate(u).ok());
      } else {
        QueryUpdate u;
        u.qid = i;
        u.position = pos;
        u.time = t;
        u.speed = speed;
        u.dest_node = dest;
        u.dest_position = dest_pos;
        u.range_width = rng.NextDouble(10, 300);
        u.range_height = rng.NextDouble(10, 300);
        for (QueryProcessor* engine : engines) {
          ASSERT_TRUE(engine->IngestQueryUpdate(u).ok());
        }
        ASSERT_TRUE(oracle.IngestQueryUpdate(u).ok());
      }
    }
    if (t % 2 == 0) {
      ASSERT_TRUE(oracle.Evaluate(t, &b).ok());
      for (size_t e = 0; e < engines.size(); ++e) {
        ASSERT_TRUE(engines[e]->Evaluate(t, &a).ok()) << labels[e];
        EXPECT_EQ(a, b) << labels[e] << " tick " << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzExactTest,
                         ::testing::Values(11, 22, 33, 44, 55));

// The join keeps its per-task match buffers across rounds, sorts out of them
// into each window's slice, and hands a lone window's slice to the caller by
// swap. Answers that grow, shrink to nothing and grow again — above and
// below the sort's 256-match fallback, with one ResultSet passed to every
// engine in turn — must still equal the oracle's every round: a buffer that
// kept or leaked an earlier round's matches would show here.
TEST(BufferReuseTest, AnswersGrowShrinkToEmptyAndGrowAgain) {
  Rng rng(2113);
  ScubaOptions options;
  options.region = Rect{0, 0, 2000, 2000};
  options.grid_cells = 20;
  std::vector<EngineHandle> production;
  std::vector<std::string> labels;
  for (uint32_t shards : {1u, 2u}) {
    for (uint32_t threads : {1u, 4u}) {
      ScubaOptions o = options;
      o.shards = shards;
      o.join_threads = threads;
      Result<EngineHandle> handle = MakeEngine(o);
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      production.push_back(std::move(*handle));
      labels.push_back("shards=" + std::to_string(shards) +
                       " threads=" + std::to_string(threads));
    }
  }
  NaiveJoinEngine oracle;

  // Query side length per round; 0.001 leaves every query (almost surely)
  // empty.
  const double kRanges[] = {20,    80,  250, 400,   0.001, 0.001,
                            120,   400, 250, 0.001, 400,   60};
  constexpr uint32_t kObjects = 400;
  constexpr uint32_t kQueries = 200;
  std::vector<size_t> sizes;
  ResultSet want;
  ResultSet got;
  Timestamp t = 0;
  for (double range : kRanges) {
    ++t;
    auto place = [&rng] {
      return Point{rng.NextDouble(0, 2000), rng.NextDouble(0, 2000)};
    };
    for (uint32_t i = 1; i <= kObjects; ++i) {
      LocationUpdate u;
      u.oid = i;
      u.position = place();
      u.time = t;
      u.dest_node = 0;
      u.dest_position = u.position;
      ASSERT_TRUE(oracle.IngestObjectUpdate(u).ok());
      for (EngineHandle& h : production) {
        ASSERT_TRUE(h.engine->IngestObjectUpdate(u).ok());
      }
    }
    for (uint32_t i = 1; i <= kQueries; ++i) {
      QueryUpdate u;
      u.qid = i;
      u.position = place();
      u.time = t;
      u.dest_node = 0;
      u.dest_position = u.position;
      u.range_width = range;
      u.range_height = range;
      ASSERT_TRUE(oracle.IngestQueryUpdate(u).ok());
      for (EngineHandle& h : production) {
        ASSERT_TRUE(h.engine->IngestQueryUpdate(u).ok());
      }
    }
    ASSERT_TRUE(oracle.Evaluate(t, &want).ok());
    sizes.push_back(want.size());
    for (size_t e = 0; e < production.size(); ++e) {
      ASSERT_TRUE(production[e].engine->Evaluate(t, &got).ok()) << labels[e];
      EXPECT_EQ(got, want) << labels[e] << " tick " << t << ": "
                           << got.size() << " vs " << want.size();
    }
  }
  // The schedule really crossed both sides of the fallback and emptied.
  EXPECT_EQ(sizes[4], 0u);
  EXPECT_EQ(sizes[5], 0u);
  EXPECT_LT(sizes[1], 256u);
  EXPECT_GT(sizes[3], 1000u);
  EXPECT_GT(sizes[7], 1000u);
}

}  // namespace
}  // namespace scuba
