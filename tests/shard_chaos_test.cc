// Chaos soak for the shard fault isolation layer (docs/ARCHITECTURE.md §13):
// a long seeded run with rate-based fault injection across every class,
// periodic checkpoints feeding online recovery, and both isolation policies.
// After the storm the engine must audit clean (degrade: every non-evicted
// window; reassign: the whole reduced layout), reproduce bit-identically
// under the same seed, and — when every incident recovered — converge to the
// uninterrupted twin's exact state hash.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/result_set.h"
#include "core/scuba_engine.h"
#include "persist/durability.h"
#include "persist/snapshot.h"
#include "shard/shard_fault_injector.h"
#include "shard/shard_supervisor.h"

namespace scuba {
namespace {

namespace fs = std::filesystem;

class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& name)
      : path_((fs::current_path() / name).string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct Round {
  std::vector<LocationUpdate> objects;
  std::vector<QueryUpdate> queries;
};

/// Deterministic drifting stream covering all four windows of a 4-shard
/// layout, with two groups parked against window borders so corrupt-state
/// faults always find a border cluster to damage.
std::vector<Round> MakeRounds(int rounds) {
  const double group_y[] = {1200.0, 2460.0, 4960.0, 7400.0};
  std::vector<Round> out(rounds);
  for (int r = 0; r < rounds; ++r) {
    for (uint32_t i = 0; i < 64; ++i) {
      const int group = i % 4;
      const Point pos{500.0 + 2200.0 * group + 11.0 * (r % 40) +
                          7.0 * (i / 4),
                      group_y[group] + 3.0 * (i / 4 % 5)};
      if (i % 5 == 2) {
        QueryUpdate u;
        u.qid = i;
        u.position = pos;
        u.speed = 5.0 + group;
        u.dest_node = static_cast<NodeId>(group);
        u.dest_position = Point{9000, 9000};
        u.range_width = 150.0;
        u.range_height = 150.0;
        u.time = static_cast<Timestamp>(r + 1);
        out[r].queries.push_back(u);
      } else {
        LocationUpdate u;
        u.oid = i;
        u.position = pos;
        u.speed = 5.0 + group;
        u.dest_node = static_cast<NodeId>(group);
        u.dest_position = Point{9000, 9000};
        u.attrs = 0x1u;
        u.time = static_cast<Timestamp>(r + 1);
        out[r].objects.push_back(u);
      }
    }
  }
  return out;
}

struct ChaosOutcome {
  std::vector<ResultSet> rounds;
  uint64_t final_hash = 0;
  uint32_t final_shards = 0;
  SupervisionStats stats;
  uint64_t faults_injected = 0;
};

/// One full chaos run: durable, supervised, rate-based injection.
ChaosOutcome RunChaos(const std::vector<Round>& rounds, const std::string& dir,
                      ShardFailurePolicy policy, uint64_t seed,
                      uint32_t threads) {
  ScubaOptions opt;
  opt.shards = 4;
  opt.join_threads = threads;
  opt.checkpoint.every_n_rounds = 2;
  opt.checkpoint.keep_last_k = 2;
  opt.supervision.on_failure = policy;
  opt.supervision.max_recovery_attempts = 2;
  opt.supervision.fault_seed = seed;
  opt.supervision.fault_rate = 0.02;  // Per class per shard per round.

  Result<std::unique_ptr<ScubaEngine>> engine = ScubaEngine::Create(opt);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  Result<std::unique_ptr<DurabilityManager>> manager =
      DurabilityManager::Open(dir, opt.checkpoint, engine->get(),
                              /*validator=*/nullptr,
                              /*crash=*/nullptr);
  EXPECT_TRUE(manager.ok()) << manager.status().ToString();
  (*engine)->set_stripe_recovery([dir](ScubaEngine* e, uint32_t s) {
    return RecoverWindow(dir, e, s);
  });

  ChaosOutcome out;
  ResultSet results;
  for (size_t r = 0; r < rounds.size(); ++r) {
    EXPECT_TRUE((*manager)
                    ->LogBatch(static_cast<Timestamp>(r + 1), true,
                               rounds[r].objects, rounds[r].queries)
                    .ok());
    EXPECT_TRUE(
        (*engine)->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
    Status s = (*engine)->Evaluate(static_cast<Timestamp>(r + 1), &results);
    EXPECT_TRUE(s.ok()) << "round " << (r + 1) << ": " << s.ToString();
    out.rounds.push_back(results);
    EXPECT_TRUE((*manager)->OnRoundComplete().ok());
  }
  out.final_hash = EngineStateHash(**engine);
  out.final_shards = (*engine)->shard_count();
  out.stats = (*engine)->supervisor()->stats();
  out.faults_injected =
      (*engine)->supervisor()->injector()->stats().TotalInjected();

  // Audit-clean after the storm: under kReassign the whole (possibly
  // reduced) layout must be clean; under kDegrade an evicted window keeps
  // its damage forever, so only non-evicted windows are held to it.
  for (uint32_t s = 0; s < (*engine)->shard_count(); ++s) {
    if ((*engine)->supervisor()->record(s).health == ShardHealth::kEvicted) {
      continue;
    }
    EXPECT_TRUE((*engine)->AuditShardStripe(s).clean())
        << "shard " << s << " dirty after the storm:\n"
        << (*engine)->supervisor()->HealthDump();
  }
  return out;
}

class ChaosSoakTest
    : public ::testing::TestWithParam<std::tuple<ShardFailurePolicy,
                                                 uint32_t>> {};

TEST_P(ChaosSoakTest, StormIsDeterministicAuditCleanAndConvergent) {
  const auto [policy, threads] = GetParam();
  const int kRounds = 40;
  const uint64_t kSeed = 0xC4A05;
  const std::vector<Round> rounds = MakeRounds(kRounds);

  ScopedTempDir dir_a("chaos_a");
  ScopedTempDir dir_b("chaos_b");
  const ChaosOutcome a = RunChaos(rounds, dir_a.path(), policy, kSeed, threads);
  const ChaosOutcome b = RunChaos(rounds, dir_b.path(), policy, kSeed, threads);

  // The soak is only a soak if the storm actually hit.
  EXPECT_GT(a.faults_injected, 0u);
  EXPECT_GT(a.stats.shard_failures, 0u);
  EXPECT_GT(a.stats.degraded_rounds, 0u);

  // Same seed => same storm, same degraded rounds, same results, same state.
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r], b.rounds[r]) << "round " << (r + 1);
    EXPECT_EQ(a.rounds[r].degraded_shards(), b.rounds[r].degraded_shards())
        << "round " << (r + 1);
  }
  EXPECT_EQ(a.final_hash, b.final_hash);
  EXPECT_EQ(a.final_shards, b.final_shards);
  EXPECT_EQ(a.stats.shard_failures, b.stats.shard_failures);
  EXPECT_EQ(a.stats.shard_recoveries, b.stats.shard_recoveries);
  EXPECT_EQ(a.stats.shard_evictions, b.stats.shard_evictions);
  EXPECT_EQ(a.stats.degraded_rounds, b.stats.degraded_rounds);
  EXPECT_EQ(a.faults_injected, b.faults_injected);

  // Hash convergence with the uninterrupted twin whenever every incident
  // healed (recoveries caught up with failures and nothing was evicted).
  if (a.stats.shard_evictions == 0 &&
      a.stats.shard_recoveries == a.stats.shard_failures) {
    ScubaOptions clean_opt;
    clean_opt.shards = 4;
    clean_opt.join_threads = threads;
    Result<std::unique_ptr<ScubaEngine>> twin =
        ScubaEngine::Create(clean_opt);
    ASSERT_TRUE(twin.ok());
    ResultSet results;
    for (size_t r = 0; r < rounds.size(); ++r) {
      ASSERT_TRUE(
          (*twin)->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
      ASSERT_TRUE(
          (*twin)->Evaluate(static_cast<Timestamp>(r + 1), &results).ok());
    }
    EXPECT_EQ(a.final_hash, EngineStateHash(**twin));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Storm, ChaosSoakTest,
    ::testing::Combine(::testing::Values(ShardFailurePolicy::kDegrade,
                                         ShardFailurePolicy::kReassign),
                       ::testing::Values(1u, 4u)));

}  // namespace
}  // namespace scuba
