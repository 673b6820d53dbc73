// Join-window fault isolation (docs/ARCHITECTURE.md §13): supervised rounds
// must quarantine a failing window instead of failing the engine, serve
// degraded rounds from last-published results, recover the window online
// between rounds (probe-first, durable rebuild when the window audit is
// dirty), and — after the attempt budget — evict in place (kDegrade) or hand
// the window's rows to the others (kReassign). Everything is deterministic
// per fault seed, and a clean supervised run is bit-identical to an
// unsupervised one.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/result_set.h"
#include "core/scuba_engine.h"
#include "persist/snapshot.h"
#include "shard/shard_durability.h"
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

/// Deterministic stream: 64 entities in 4 drifting groups. Two groups sit
/// just under the 4-window borders (y = 2500 / 5000 over the default
/// 10000-unit region), so their clusters' registered circles always touch the
/// next window — guaranteeing border clusters for corrupt-state injection on
/// shards 1 and 2 — and every window of a 4-window layout owns tuples.
std::vector<Round> MakeRounds(int rounds) {
  const double group_y[] = {1200.0, 2460.0, 4960.0, 7400.0};
  std::vector<Round> out(rounds);
  for (int r = 0; r < rounds; ++r) {
    for (uint32_t i = 0; i < 64; ++i) {
      const int group = i % 4;
      const Point pos{500.0 + 2200.0 * group + 13.0 * r + 7.0 * (i / 4),
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

ScubaOptions MakeOptions(uint32_t shards, uint32_t threads = 1) {
  ScubaOptions opt;
  opt.shards = shards;
  opt.join_threads = threads;
  return opt;
}

std::unique_ptr<ScubaEngine> MakeEngine(const ScubaOptions& opt) {
  Result<std::unique_ptr<ScubaEngine>> engine = ScubaEngine::Create(opt);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

struct DriveLog {
  std::vector<ResultSet> rounds;
  std::vector<std::vector<uint32_t>> degraded;  ///< Per round.
  uint64_t final_hash = 0;
};

/// Drives every round, expecting every Evaluate to succeed (the whole point
/// of the degrade/reassign policies).
DriveLog Drive(const std::vector<Round>& rounds, ScubaEngine* engine) {
  DriveLog log;
  ResultSet results;
  for (size_t r = 0; r < rounds.size(); ++r) {
    EXPECT_TRUE(
        engine->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
    Status s = engine->Evaluate(static_cast<Timestamp>(r + 1), &results);
    EXPECT_TRUE(s.ok()) << "round " << (r + 1) << ": " << s.ToString();
    log.rounds.push_back(results);
    log.degraded.push_back(results.degraded_shards());
  }
  log.final_hash = EngineStateHash(*engine);
  return log;
}

/// Reference run: same workload, no supervision, same shard count.
DriveLog CleanReference(const std::vector<Round>& rounds, uint32_t shards,
                        uint32_t threads = 1) {
  std::unique_ptr<ScubaEngine> engine = MakeEngine(MakeOptions(shards, threads));
  return Drive(rounds, engine.get());
}

void ExpectSameRounds(const DriveLog& a, const DriveLog& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i], b.rounds[i]) << "round " << (i + 1);
    EXPECT_EQ(a.degraded[i], b.degraded[i]) << "round " << (i + 1);
  }
  EXPECT_EQ(a.final_hash, b.final_hash);
}

// --- fault injector ---

TEST(ShardFaultInjectorTest, ParseSpecRoundTripsAndRejectsGarbage) {
  Result<ShardFaultPlan> plan =
      ShardFaultPlan::ParseSpec("3:1:task-failure,5:0:corrupt-state");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->directives.size(), 2u);
  EXPECT_EQ(plan->directives[0].round, 3u);
  EXPECT_EQ(plan->directives[0].shard, 1u);
  EXPECT_EQ(plan->directives[0].fault, ShardFaultClass::kTaskFailure);
  EXPECT_EQ(plan->directives[1].fault, ShardFaultClass::kCorruptState);

  EXPECT_FALSE(ShardFaultPlan::ParseSpec("nonsense").ok());
  EXPECT_FALSE(ShardFaultPlan::ParseSpec("1:2").ok());
  EXPECT_FALSE(ShardFaultPlan::ParseSpec("1:2:no-such-class").ok());
  EXPECT_FALSE(ShardFaultPlan::ParseSpec("x:2:stall").ok());
}

TEST(ShardFaultInjectorTest, DirectivesOverrideTheDice) {
  ShardFaultPlan plan;  // No probabilistic faults at all.
  plan.directives.push_back({2, 1, ShardFaultClass::kStall});
  ShardFaultInjector injector(plan, 42);
  injector.BeginRound(1, 4);
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_FALSE(injector.FaultFor(s).has_value());
  }
  injector.BeginRound(2, 4);
  EXPECT_FALSE(injector.FaultFor(0).has_value());
  ASSERT_TRUE(injector.FaultFor(1).has_value());
  EXPECT_EQ(*injector.FaultFor(1), ShardFaultClass::kStall);
}

TEST(ShardFaultInjectorTest, SameSeedRollsTheSameSchedule) {
  const ShardFaultPlan plan = ShardFaultPlan::AllFaults(0.3);
  ShardFaultInjector a(plan, 7), b(plan, 7), c(plan, 8);
  bool diverged_from_c = false;
  for (uint64_t round = 1; round <= 50; ++round) {
    a.BeginRound(round, 4);
    b.BeginRound(round, 4);
    c.BeginRound(round, 4);
    for (uint32_t s = 0; s < 4; ++s) {
      EXPECT_EQ(a.FaultFor(s), b.FaultFor(s)) << round << ":" << s;
      if (a.FaultFor(s) != c.FaultFor(s)) diverged_from_c = true;
    }
  }
  EXPECT_TRUE(diverged_from_c) << "different seeds rolled identical faults";
}

TEST(ShardSupervisionTest, MalformedFaultSpecFailsEngineCreation) {
  ScubaOptions opt = MakeOptions(2);
  opt.supervision.fault_spec = "not-a-spec";
  Result<std::unique_ptr<ScubaEngine>> engine = ScubaEngine::Create(opt);
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

// --- clean-run bit-identity ---

TEST(ShardSupervisionTest, CleanSupervisedRunIsBitIdenticalAtEveryShardCount) {
  const std::vector<Round> rounds = MakeRounds(6);
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    const DriveLog clean = CleanReference(rounds, shards);
    ScubaOptions opt = MakeOptions(shards);
    opt.supervision.on_failure = ShardFailurePolicy::kDegrade;
    opt.supervision.round_deadline_seconds = 3600.0;
    std::unique_ptr<ScubaEngine> engine = MakeEngine(opt);
    ASSERT_NE(engine->supervisor(), nullptr);
    const DriveLog supervised = Drive(rounds, engine.get());
    ExpectSameRounds(clean, supervised);
    EXPECT_EQ(engine->supervisor()->stats().shard_failures, 0u);
    EXPECT_EQ(engine->supervisor()->stats().degraded_rounds, 0u);
    EXPECT_TRUE(engine->AuditInvariants().clean());
  }
}

// --- fault matrix: classes x shards x threads x policies, per-seed
// determinism ---

class FaultMatrixTest
    : public ::testing::TestWithParam<
          std::tuple<uint32_t, uint32_t, ShardFailurePolicy>> {};

TEST_P(FaultMatrixTest, EveryFaultClassIsDeterministicPerSeed) {
  const auto [shards, threads, policy] = GetParam();
  const std::vector<Round> rounds = MakeRounds(6);
  for (const char* fault_class :
       {"task-failure", "corrupt-state", "stall"}) {
    ScubaOptions opt = MakeOptions(shards, threads);
    opt.supervision.on_failure = policy;
    opt.supervision.max_recovery_attempts = 2;
    opt.supervision.fault_spec = std::string("3:1:") + fault_class;

    if (policy == ShardFailurePolicy::kFail) {
      // The historical contract: one failing shard fails the round — and the
      // failure is the same one on every rerun.
      std::string first_error;
      for (int repeat = 0; repeat < 2; ++repeat) {
        std::unique_ptr<ScubaEngine> engine = MakeEngine(opt);
        ResultSet results;
        Status failed = Status::OK();
        for (size_t r = 0; r < rounds.size(); ++r) {
          ASSERT_TRUE(engine
                          ->IngestBatch(rounds[r].objects, rounds[r].queries)
                          .ok());
          failed = engine->Evaluate(static_cast<Timestamp>(r + 1), &results);
          if (!failed.ok()) break;
        }
        ASSERT_FALSE(failed.ok()) << fault_class;
        if (repeat == 0) {
          first_error = failed.ToString();
        } else {
          EXPECT_EQ(failed.ToString(), first_error);
        }
      }
      continue;
    }

    // Degrade / reassign: both runs of the same seed+spec must agree on
    // every round's results, degraded marks, health trajectory and hash.
    std::unique_ptr<ScubaEngine> a = MakeEngine(opt);
    std::unique_ptr<ScubaEngine> b = MakeEngine(opt);
    const DriveLog la = Drive(rounds, a.get());
    const DriveLog lb = Drive(rounds, b.get());
    ExpectSameRounds(la, lb);
    const SupervisionStats& sa = a->supervisor()->stats();
    const SupervisionStats& sb = b->supervisor()->stats();
    EXPECT_EQ(sa.shard_failures, sb.shard_failures) << fault_class;
    EXPECT_EQ(sa.shard_recoveries, sb.shard_recoveries) << fault_class;
    EXPECT_EQ(sa.shard_evictions, sb.shard_evictions) << fault_class;
    EXPECT_EQ(sa.degraded_rounds, sb.degraded_rounds) << fault_class;
    EXPECT_EQ(a->supervisor()->injector()->stats().TotalInjected(),
              b->supervisor()->injector()->stats().TotalInjected())
        << fault_class;
    // Task failures and stalls leave window state untouched, so the probe
    // audit recovers the shard in the same round and the run converges to
    // the clean reference exactly.
    if (std::string(fault_class) != "corrupt-state") {
      EXPECT_EQ(sa.shard_failures, 1u) << fault_class;
      EXPECT_EQ(sa.shard_recoveries, 1u) << fault_class;
      EXPECT_EQ(sa.degraded_rounds, 1u) << fault_class;
      EXPECT_EQ(la.final_hash, CleanReference(rounds, shards).final_hash)
          << fault_class;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FaultMatrixTest,
    ::testing::Combine(::testing::Values(2u, 4u), ::testing::Values(1u, 4u),
                       ::testing::Values(ShardFailurePolicy::kFail,
                                         ShardFailurePolicy::kDegrade,
                                         ShardFailurePolicy::kReassign)));

// --- degraded-mode semantics ---

TEST(ShardSupervisionTest, DegradedRoundServesLastPublishedResultsAndMarks) {
  const std::vector<Round> rounds = MakeRounds(6);
  ScubaOptions opt = MakeOptions(4);
  opt.supervision.on_failure = ShardFailurePolicy::kDegrade;
  opt.supervision.fault_spec = "3:1:task-failure";
  std::unique_ptr<ScubaEngine> engine = MakeEngine(opt);
  const DriveLog log = Drive(rounds, engine.get());

  // Only round 3 is degraded, and only shard 1 is marked.
  for (size_t r = 0; r < log.degraded.size(); ++r) {
    if (r == 2) {
      EXPECT_EQ(log.degraded[r], std::vector<uint32_t>{1u});
    } else {
      EXPECT_TRUE(log.degraded[r].empty()) << "round " << (r + 1);
    }
  }
  // A task failure never touches window state, so the probe audit heals the
  // shard at the end of the SAME round and every later round is live again
  // — bit-identical to the clean reference from round 4 on, converging to
  // its exact final state.
  const DriveLog clean = CleanReference(rounds, 4);
  for (size_t r = 3; r < rounds.size(); ++r) {
    EXPECT_EQ(log.rounds[r], clean.rounds[r]) << "round " << (r + 1);
  }
  EXPECT_EQ(log.final_hash, clean.final_hash);
  EXPECT_EQ(engine->supervisor()->stats().shard_recoveries, 1u);
  EXPECT_EQ(engine->supervisor()->record(1).health, ShardHealth::kHealthy);
}

TEST(ShardSupervisionTest, WindowAuditCatchesInjectedGridCorruption) {
  const std::vector<Round> rounds = MakeRounds(6);
  ScubaOptions opt = MakeOptions(4);
  opt.supervision.on_failure = ShardFailurePolicy::kDegrade;
  opt.supervision.max_recovery_attempts = 2;
  opt.supervision.fault_spec = "3:1:corrupt-state";
  std::unique_ptr<ScubaEngine> engine = MakeEngine(opt);
  const DriveLog log = Drive(rounds, engine.get());
  (void)log;

  const ShardFaultStats& faults = engine->supervisor()->injector()->stats();
  ASSERT_EQ(faults.Injected(ShardFaultClass::kCorruptState), 1u)
      << "the workload must give shard 1 a border cluster to corrupt";
  EXPECT_EQ(engine->supervisor()->stats().shard_failures, 1u);
  EXPECT_GE(engine->supervisor()->stats().degraded_rounds, 1u);
  // With no durable root attached there is no rebuild hook: the probe audit
  // stays dirty, both attempts fail, and the window is evicted in place —
  // permanently quarantined but still serving its last published slice.
  EXPECT_EQ(engine->supervisor()->stats().shard_recoveries, 0u);
  EXPECT_EQ(engine->supervisor()->stats().shard_evictions, 1u);
  EXPECT_EQ(engine->supervisor()->record(1).health, ShardHealth::kEvicted);
  EXPECT_EQ(engine->shard_count(), 4u);  // kDegrade keeps every window.
  EXPECT_FALSE(engine->AuditShardStripe(1).clean());
}

// --- online recovery from the durable root ---

TEST(ShardSupervisionTest, DurableRecoveryHealsCorruptionAndConvergesExactly) {
  const std::vector<Round> rounds = MakeRounds(6);
  ScopedTempDir dir("supervision_recovery_dir");
  ScubaOptions opt = MakeOptions(4);
  opt.checkpoint.every_n_rounds = 2;
  opt.supervision.on_failure = ShardFailurePolicy::kDegrade;
  opt.supervision.fault_spec = "3:1:corrupt-state";

  std::unique_ptr<ScubaEngine> engine = MakeEngine(opt);
  Result<std::unique_ptr<ShardedDurabilityManager>> manager =
      ShardedDurabilityManager::Open(dir.path(), opt.checkpoint, engine.get(),
                                     /*validator=*/nullptr, /*rng=*/nullptr,
                                     /*crash=*/nullptr);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  const std::string root = dir.path();
  engine->set_stripe_recovery([root](ScubaEngine* e, uint32_t s) {
    return RecoverShardStripe(root, e, s, /*validator_config=*/nullptr);
  });

  DriveLog log;
  ResultSet results;
  for (size_t r = 0; r < rounds.size(); ++r) {
    // CLI ordering: the batch is WAL-logged before it is evaluated, so when
    // round r's join fails the durable root already holds round r — the
    // recovery twin replays to exactly the live engine's round.
    ASSERT_TRUE((*manager)
                    ->LogBatch(static_cast<Timestamp>(r + 1), true,
                               rounds[r].objects, rounds[r].queries)
                    .ok());
    ASSERT_TRUE(
        engine->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
    Status s = engine->Evaluate(static_cast<Timestamp>(r + 1), &results);
    ASSERT_TRUE(s.ok()) << "round " << (r + 1) << ": " << s.ToString();
    log.rounds.push_back(results);
    log.degraded.push_back(results.degraded_shards());
    ASSERT_TRUE((*manager)->OnRoundComplete().ok());
  }
  log.final_hash = EngineStateHash(*engine);

  ASSERT_EQ(
      engine->supervisor()->injector()->stats().Injected(
          ShardFaultClass::kCorruptState),
      1u);
  EXPECT_EQ(engine->supervisor()->stats().shard_failures, 1u);
  EXPECT_EQ(engine->supervisor()->stats().shard_recoveries, 1u);
  EXPECT_EQ(engine->supervisor()->stats().shard_evictions, 0u);
  EXPECT_EQ(engine->supervisor()->record(1).health, ShardHealth::kHealthy);
  EXPECT_TRUE(engine->AuditInvariants().clean());

  // Exact convergence: the same-round rebuild leaves the engine in the state
  // an uninterrupted twin reaches — equal ResultSets after the incident and
  // an equal state hash.
  const DriveLog clean = CleanReference(rounds, 4);
  EXPECT_EQ(log.degraded[2], std::vector<uint32_t>{1u});
  for (size_t r = 3; r < rounds.size(); ++r) {
    EXPECT_EQ(log.rounds[r], clean.rounds[r]) << "round " << (r + 1);
  }
  EXPECT_EQ(log.final_hash, clean.final_hash);
}

TEST(ShardSupervisionTest, RecoveryFailureInjectionDrivesBackoffToEviction) {
  const std::vector<Round> rounds = MakeRounds(8);
  ScubaOptions opt = MakeOptions(4);
  opt.supervision.on_failure = ShardFailurePolicy::kDegrade;
  opt.supervision.max_recovery_attempts = 3;
  opt.supervision.backoff_base_rounds = 1;
  // Corruption at round 3; no durable root, so attempt 1 (round 3) fails on
  // the missing rebuild hook. Backoff schedules attempt 2 at round 4, where
  // the injected recovery failure strikes; attempt 3 lands at round 6 (1<<1
  // rounds later), fails again and exhausts the budget.
  opt.supervision.fault_spec = "3:1:corrupt-state,4:1:recovery-failure";
  std::unique_ptr<ScubaEngine> engine = MakeEngine(opt);
  Drive(rounds, engine.get());

  const ShardFaultStats& faults = engine->supervisor()->injector()->stats();
  EXPECT_EQ(faults.Injected(ShardFaultClass::kCorruptState), 1u);
  EXPECT_EQ(faults.Injected(ShardFaultClass::kRecoveryFailure), 1u);
  EXPECT_EQ(engine->supervisor()->stats().shard_recoveries, 0u);
  EXPECT_EQ(engine->supervisor()->stats().shard_evictions, 1u);
  EXPECT_EQ(engine->supervisor()->record(1).health, ShardHealth::kEvicted);
  EXPECT_EQ(engine->supervisor()->record(1).recovery_attempts, 3u);
}

// --- reassign: graceful degradation to one fewer window ---

TEST(ShardSupervisionTest, ReassignEvictionReshardsAndRunsCleanReduced) {
  const std::vector<Round> rounds = MakeRounds(6);
  ScubaOptions opt = MakeOptions(4);
  opt.supervision.on_failure = ShardFailurePolicy::kReassign;
  opt.supervision.max_recovery_attempts = 1;
  opt.supervision.fault_spec = "3:1:corrupt-state";
  std::unique_ptr<ScubaEngine> engine = MakeEngine(opt);
  const DriveLog log = Drive(rounds, engine.get());

  ASSERT_EQ(
      engine->supervisor()->injector()->stats().Injected(
          ShardFaultClass::kCorruptState),
      1u);
  EXPECT_EQ(engine->supervisor()->stats().shard_evictions, 1u);
  EXPECT_EQ(engine->shard_count(), 3u);
  EXPECT_EQ(engine->supervisor()->shard_count(), 3u);
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(engine->supervisor()->record(s).health, ShardHealth::kHealthy);
  }
  // The reduced layout re-registered every cluster from its registered
  // bounds, healing the grid corruption: the engine audits clean and the
  // run converges to the layout-independent clean state.
  EXPECT_TRUE(engine->AuditInvariants().clean());
  const DriveLog clean = CleanReference(rounds, 4);
  for (size_t r = 3; r < rounds.size(); ++r) {
    EXPECT_EQ(log.rounds[r], clean.rounds[r]) << "round " << (r + 1);
  }
  EXPECT_EQ(log.final_hash, clean.final_hash);
}

TEST(ShardSupervisionTest, HealthDumpNamesEveryWindow) {
  ScubaOptions opt = MakeOptions(2);
  opt.supervision.on_failure = ShardFailurePolicy::kDegrade;
  std::unique_ptr<ScubaEngine> engine = MakeEngine(opt);
  const std::vector<Round> rounds = MakeRounds(2);
  Drive(rounds, engine.get());
  const std::string dump = engine->supervisor()->HealthDump();
  EXPECT_NE(dump.find("shard 0: healthy"), std::string::npos) << dump;
  EXPECT_NE(dump.find("shard 1: healthy"), std::string::npos) << dump;
  EXPECT_NE(dump.find("supervision:"), std::string::npos) << dump;
}

}  // namespace
}  // namespace scuba
