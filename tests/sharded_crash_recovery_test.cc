// Crash-recovery matrix (docs/ARCHITECTURE.md §12): for every crash point on
// the durability path, at shards {1,2,4} and join threads {1,4}, a run that
// crashes mid-stream and is then recovered (newest manifest whose artifacts
// verify + WAL replay) and driven to completion produces
// bit-identical per-round ResultSets and state digests to an uninterrupted
// reference-engine run — including the replayed rounds, recovered at the
// other thread count, and WAL-only recovery when the first checkpoint never
// lands. Plus targeted coverage at every shard count: delta>1 round
// boundaries, validator timestamp floors after replay, re-partition (a
// directory written at N shards recovers into M) and validator/quarantine
// state surviving recovery.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/scuba_engine.h"
#include "gen/trace.h"
#include "persist/crash.h"
#include "persist/manifest.h"
#include "shard/shard_durability.h"
#include "shard/sharded_engine.h"
#include "state_digest.h"
#include "stream/pipeline.h"
#include "stream/update_validator.h"

namespace scuba {
namespace {

namespace fs = std::filesystem;

constexpr Rect kRegion{0.0, 0.0, 10000.0, 10000.0};
constexpr int kRounds = 8;

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

std::vector<Round> MakeRounds(uint64_t seed, int rounds) {
  Rng rng(seed);
  struct Entity {
    uint32_t id;
    bool is_query;
    Point pos;
    double range;
  };
  std::vector<Entity> entities;
  for (uint32_t i = 0; i < 130; ++i) {
    int group = static_cast<int>(rng.NextDouble(0, 9));
    Point base{650.0 + 850.0 * group, 700.0 + 750.0 * (group % 4)};
    entities.push_back(Entity{i, (i % 4 == 1),
                              {base.x + rng.NextDouble(-55, 55),
                               base.y + rng.NextDouble(-55, 55)},
                              rng.NextDouble(45, 190)});
  }
  std::vector<Round> out(rounds);
  for (int r = 0; r < rounds; ++r) {
    for (Entity& e : entities) {
      if (rng.NextDouble(0, 1) < 0.15) continue;
      e.pos = {e.pos.x + rng.NextDouble(-22, 22),
               e.pos.y + rng.NextDouble(-22, 22)};
      if (e.is_query) {
        QueryUpdate u;
        u.qid = e.id;
        u.position = e.pos;
        u.speed = 7.0 + (e.id % 6);
        u.dest_node = static_cast<NodeId>(e.id % 4);
        u.dest_position = Point{9200, 9200};
        u.range_width = e.range;
        u.range_height = e.range;
        u.time = static_cast<Timestamp>(r + 1);
        out[r].queries.push_back(u);
      } else {
        LocationUpdate u;
        u.oid = e.id;
        u.position = e.pos;
        u.speed = 7.0 + (e.id % 6);
        u.dest_node = static_cast<NodeId>(e.id % 4);
        u.dest_position = Point{9200, 9200};
        u.attrs = (e.id % 5 == 0) ? 0x7u : 0x1u;
        u.time = static_cast<Timestamp>(r + 1);
        out[r].objects.push_back(u);
      }
    }
  }
  return out;
}

ScubaOptions MakeOptions(uint32_t threads, uint32_t shards) {
  ScubaOptions opt;
  opt.join_threads = threads;
  opt.shards = shards;
  opt.on_bad_update = BadUpdatePolicy::kQuarantine;
  // Checkpoint every 2 rounds, small segments: one 8-round run exercises
  // rotation, generation retention and multi-generation fallback.
  opt.checkpoint.every_n_rounds = 2;
  opt.checkpoint.keep_last_k = 2;
  opt.checkpoint.wal_segment_bytes = 4096;
  return opt;
}

ValidatorConfig MakeValidatorConfig() {
  ValidatorConfig config;
  config.policy = BadUpdatePolicy::kQuarantine;
  config.bounds = kRegion;
  config.check_bounds = true;
  return config;
}

std::unique_ptr<ShardedEngine> MakeSharded(const ScubaOptions& opt) {
  Result<std::unique_ptr<ShardedEngine>> engine = ShardedEngine::Create(opt);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

struct RunLog {
  std::vector<ResultSet> results;  ///< Per evaluated round, in order.
  std::vector<std::string> digests;
};

/// The uninterrupted twin: a plain single ScubaEngine with no durability.
/// The sharded determinism contract makes its per-round results and digests
/// the bar for every (shards, threads) recovered run.
RunLog RunBaseline(const std::vector<Round>& rounds) {
  Result<std::unique_ptr<ScubaEngine>> engine =
      ScubaEngine::Create(MakeOptions(1, 1));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  RunLog log;
  for (size_t r = 0; r < rounds.size(); ++r) {
    EXPECT_TRUE(
        (*engine)->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
    ResultSet results;
    EXPECT_TRUE(
        (*engine)->Evaluate(static_cast<Timestamp>(r + 1), &results).ok());
    log.results.push_back(std::move(results));
    log.digests.push_back(StateDigest(**engine));
  }
  return log;
}

/// Runs a sharded durable stream until the armed crash fires, then abandons
/// the engine (a real crash loses process memory). Returns the number of
/// fully completed rounds.
size_t RunUntilCrash(const std::vector<Round>& rounds, uint32_t threads,
                     uint32_t shards, const std::string& dir,
                     CrashInjector* crash) {
  const ScubaOptions opt = MakeOptions(threads, shards);
  std::unique_ptr<ShardedEngine> engine = MakeSharded(opt);
  UpdateValidator validator(MakeValidatorConfig());
  Result<std::unique_ptr<ShardedDurabilityManager>> manager =
      ShardedDurabilityManager::Open(dir, opt.checkpoint, engine.get(),
                                     &validator, /*rng=*/nullptr, crash);
  EXPECT_TRUE(manager.ok()) << manager.status().ToString();
  for (size_t r = 0; r < rounds.size(); ++r) {
    Status s = (*manager)->LogBatch(static_cast<Timestamp>(r + 1),
                                    /*evaluate_after=*/true, rounds[r].objects,
                                    rounds[r].queries);
    if (!s.ok()) {
      EXPECT_TRUE(CrashInjector::IsCrash(s)) << s.ToString();
      return r;  // batch r never acknowledged
    }
    EXPECT_TRUE(engine->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
    ResultSet results;
    EXPECT_TRUE(
        engine->Evaluate(static_cast<Timestamp>(r + 1), &results).ok());
    s = (*manager)->OnRoundComplete();
    if (!s.ok()) {
      EXPECT_TRUE(CrashInjector::IsCrash(s)) << s.ToString();
      return r + 1;
    }
  }
  return rounds.size();
}

/// Recovers `dir` into a fresh engine at `shards` stripes, checks every
/// replayed round against the baseline, finishes the remaining rounds
/// durably and requires bit-identical results and digests throughout.
void RecoverAndFinish(const std::vector<Round>& rounds, uint32_t threads,
                      uint32_t shards, const std::string& dir,
                      const RunLog& base,
                      ShardedRecoveryReport* report_out = nullptr) {
  const ScubaOptions opt = MakeOptions(threads, shards);
  std::unique_ptr<ShardedEngine> engine = MakeSharded(opt);
  UpdateValidator validator(MakeValidatorConfig());
  std::vector<std::pair<Timestamp, ResultSet>> replayed;
  Result<ShardedRecoveryReport> report = RecoverShardedEngine(
      dir, engine.get(), &validator, /*rng=*/nullptr,
      [&](Timestamp now, const ResultSet& results) {
        replayed.emplace_back(now, results);
      });
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  if (report_out != nullptr) *report_out = *report;

  EXPECT_EQ(replayed.size(), report->rounds_replayed);
  for (const auto& [now, results] : replayed) {
    const size_t r = static_cast<size_t>(now) - 1;
    ASSERT_LT(r, base.results.size());
    EXPECT_EQ(results, base.results[r]) << "replayed round " << r;
  }
  const size_t covered = static_cast<size_t>(report->next_seq);
  if (covered == 0) {
    EXPECT_EQ(StateDigest(*engine), std::string());
  } else {
    ASSERT_LE(covered, base.digests.size());
    EXPECT_EQ(StateDigest(*engine), base.digests[covered - 1]);
  }
  EXPECT_EQ(engine->StatsSnapshot().eval.evaluations, covered);

  Result<std::unique_ptr<ShardedDurabilityManager>> manager =
      ShardedDurabilityManager::Open(dir, opt.checkpoint, engine.get(),
                                     &validator, /*rng=*/nullptr,
                                     /*crash=*/nullptr);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  for (size_t r = covered; r < rounds.size(); ++r) {
    ASSERT_TRUE((*manager)
                    ->LogBatch(static_cast<Timestamp>(r + 1), true,
                               rounds[r].objects, rounds[r].queries)
                    .ok());
    ASSERT_TRUE(engine->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
    ResultSet results;
    ASSERT_TRUE(
        engine->Evaluate(static_cast<Timestamp>(r + 1), &results).ok());
    EXPECT_EQ(results, base.results[r]) << "post-recovery round " << r;
    EXPECT_EQ(StateDigest(*engine), base.digests[r])
        << "post-recovery round " << r;
    ASSERT_TRUE((*manager)->OnRoundComplete().ok());
  }
  EXPECT_EQ(StateDigest(*engine), base.digests.back());
}

struct CrashCase {
  CrashPoint point;
  /// Which occurrence fires. WAL-append points count per batch; checkpoint
  /// points count per checkpoint (one every 2 rounds); between-shard
  /// snapshots only occur at shards > 1.
  uint64_t occurrence;
  bool needs_multiple_shards = false;
};

TEST(ShardedCrashRecoveryTest, EveryCrashPointRecoversBitIdentically) {
  const CrashCase kMatrix[] = {
      {CrashPoint::kBeforeWalAppend, 5},
      {CrashPoint::kMidWalAppend, 5},
      {CrashPoint::kAfterWalAppend, 5},
      {CrashPoint::kBeforeSnapshotWrite, 2},
      // The first checkpoint never lands: WAL-only recovery.
      {CrashPoint::kMidShardSnapshotWrite, 1},
      {CrashPoint::kMidShardSnapshotWrite, 2},
      {CrashPoint::kBetweenShardSnapshots, 2, /*needs_multiple_shards=*/true},
      {CrashPoint::kBeforeManifestRename, 2},
      {CrashPoint::kTornManifestRename, 2},
      {CrashPoint::kAfterManifestRename, 2},
      {CrashPoint::kMidManifestPrune, 2},
  };
  std::vector<Round> rounds = MakeRounds(0x5A4D, kRounds);
  RunLog base = RunBaseline(rounds);
  ASSERT_EQ(base.results.size(), static_cast<size_t>(kRounds));
  for (uint32_t threads : {1u, 4u}) {
    for (uint32_t shards : {1u, 2u, 4u}) {
      for (const CrashCase& c : kMatrix) {
        if (c.needs_multiple_shards && shards == 1) continue;
        SCOPED_TRACE(std::string(CrashPointName(c.point)) +
                     " shards=" + std::to_string(shards) +
                     " threads=" + std::to_string(threads));
        ScopedTempDir dir("sharded_crash_" +
                          std::string(CrashPointName(c.point)) + "_" +
                          std::to_string(c.occurrence) + "_s" +
                          std::to_string(shards) + "_t" +
                          std::to_string(threads));
        CrashInjector crash(c.point, c.occurrence);
        const size_t done =
            RunUntilCrash(rounds, threads, shards, dir.path(), &crash);
        ASSERT_TRUE(crash.fired()) << "crash point never reached";
        ASSERT_LT(done, static_cast<size_t>(kRounds)) << "crash came too late";

        // Recover at the other thread count: the fingerprint excludes
        // thread counts, and results are identical across them.
        ShardedRecoveryReport report;
        RecoverAndFinish(rounds, threads == 1 ? 4 : 1, shards, dir.path(),
                         base, &report);
        if (c.point == CrashPoint::kMidShardSnapshotWrite &&
            c.occurrence == 1) {
          // Only the WAL and an orphaned .tmp exist: the whole log replays
          // from an empty base.
          EXPECT_TRUE(report.manifest_path.empty());
          EXPECT_EQ(report.batches_replayed, 2u);
        }
        switch (c.point) {
          case CrashPoint::kMidWalAppend:
            EXPECT_TRUE(report.any_torn_tail);
            break;
          case CrashPoint::kTornManifestRename:
            // The torn manifest was detected and the previous generation
            // recovered instead.
            EXPECT_GE(report.generations_skipped, 1u);
            EXPECT_FALSE(report.data_loss.empty());
            break;
          default:
            break;
        }
      }
    }
  }
}

/// Re-partition on recovery: a directory crashed at N shards recovers into
/// M, finishes durably (the layout change forces a fresh manifest), and a
/// SECOND recovery — over manifests and shard snapshots spanning both
/// layouts — still reproduces the twin exactly.
TEST(ShardedCrashRecoveryTest, RecoversAcrossShardCounts) {
  const struct {
    uint32_t from;
    uint32_t to;
  } kReshards[] = {{4u, 2u}, {2u, 4u}, {4u, 1u}};
  std::vector<Round> rounds = MakeRounds(0x2E5A, kRounds);
  RunLog base = RunBaseline(rounds);
  for (const auto& rs : kReshards) {
    SCOPED_TRACE("reshard " + std::to_string(rs.from) + "->" +
                 std::to_string(rs.to));
    ScopedTempDir dir("sharded_reshard_" + std::to_string(rs.from) + "_" +
                      std::to_string(rs.to));
    // A torn append on batch 4, past the first checkpoint (seq 2).
    CrashInjector crash(CrashPoint::kMidWalAppend, 4);
    const size_t done =
        RunUntilCrash(rounds, /*threads=*/2, rs.from, dir.path(), &crash);
    ASSERT_TRUE(crash.fired());
    ASSERT_LT(done, static_cast<size_t>(kRounds));

    ShardedRecoveryReport report;
    RecoverAndFinish(rounds, /*threads=*/2, rs.to, dir.path(), base, &report);
    EXPECT_EQ(report.engine_shards, rs.to);
    if (!report.manifest_path.empty()) {
      EXPECT_EQ(report.manifest_shards, rs.from);
    }

    // The finished directory now mixes manifests and shard directories from
    // both layouts; recovery over that history must still land on the twin.
    std::unique_ptr<ShardedEngine> again =
        MakeSharded(MakeOptions(1, rs.to));
    UpdateValidator validator(MakeValidatorConfig());
    Result<ShardedRecoveryReport> second = RecoverShardedEngine(
        dir.path(), again.get(), &validator, /*rng=*/nullptr);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ(second->next_seq, static_cast<uint64_t>(kRounds));
    EXPECT_EQ(StateDigest(*again), base.digests.back());
  }
}

/// Validator and quarantine state survive sharded recovery: per-entity
/// timestamp floors, per-reason counters and the quarantine ring all ride in
/// the manifest's coordinator blob, so a crash recovered at a checkpoint
/// boundary ends with validator stats bit-identical to the uninterrupted
/// twin's, even across a re-partition. (The crash lands before the FIRST
/// batch after a checkpoint reaches the WAL, leaving no WAL suffix —
/// replayed WAL batches advance floors via NoteAdmitted but cannot
/// reconstruct screen counters, because rejected tuples are never durable.)
TEST(ShardedCrashRecoveryTest, ValidatorStateSurvivesShardedRecovery) {
  std::vector<Round> rounds = MakeRounds(0x7A1D, kRounds);
  // Poison the stream: a stale timestamp and an off-map position per round,
  // all quarantined — floors and per-reason counters become load-bearing.
  Trace trace;
  for (size_t r = 0; r < rounds.size(); ++r) {
    TickBatch batch;
    batch.time = static_cast<Timestamp>(r + 1);
    batch.object_updates = rounds[r].objects;
    batch.query_updates = rounds[r].queries;
    if (r > 0 && !batch.object_updates.empty()) {
      LocationUpdate stale = batch.object_updates.front();
      stale.time = 0;  // behind the entity's floor
      batch.object_updates.push_back(stale);
      LocationUpdate off_map = batch.object_updates.front();
      off_map.position = Point{-5000.0, -5000.0};
      batch.object_updates.push_back(off_map);
    }
    trace.Append(std::move(batch));
  }

  // Uninterrupted twin: single engine, same screened stream.
  Result<std::unique_ptr<ScubaEngine>> twin =
      ScubaEngine::Create(MakeOptions(1, 1));
  ASSERT_TRUE(twin.ok());
  UpdateValidator twin_validator(MakeValidatorConfig());
  ASSERT_TRUE(
      ReplayTrace(trace, twin->get(), /*delta=*/2, nullptr, &twin_validator)
          .ok());
  const std::string twin_digest = StateDigest(**twin);
  const std::string twin_stats = twin_validator.FormatStats();
  ASSERT_GT(twin_validator.quarantine().total(), 0u);

  // Crashed sharded run at 4 shards, recovered into 2.
  ScopedTempDir dir("sharded_validator_recovery");
  const ScubaOptions opt4 = MakeOptions(2, 4);
  {
    std::unique_ptr<ShardedEngine> engine = MakeSharded(opt4);
    UpdateValidator validator(MakeValidatorConfig());
    // delta=2 and checkpoint-every-2-rounds put checkpoints after batches 3
    // and 7 (wal_next_seq 4 and 8). One append per batch, so occurrence 5
    // fires on batch 4 — the first one past the seq-4 checkpoint — before
    // any of its bytes reach the WAL.
    CrashInjector crash(CrashPoint::kBeforeWalAppend, 5);
    Result<std::unique_ptr<ShardedDurabilityManager>> manager =
        ShardedDurabilityManager::Open(dir.path(), opt4.checkpoint,
                                       engine.get(), &validator,
                                       /*rng=*/nullptr, &crash);
    ASSERT_TRUE(manager.ok()) << manager.status().ToString();
    Status s = ReplayTrace(trace, engine.get(), /*delta=*/2, nullptr,
                           &validator, manager->get());
    ASSERT_FALSE(s.ok());
    ASSERT_TRUE(CrashInjector::IsCrash(s)) << s.ToString();
  }
  const ScubaOptions opt2 = MakeOptions(1, 2);
  std::unique_ptr<ShardedEngine> engine = MakeSharded(opt2);
  UpdateValidator validator(MakeValidatorConfig());
  Result<ShardedRecoveryReport> report = RecoverShardedEngine(
      dir.path(), engine.get(), &validator, /*rng=*/nullptr);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The crashed batch never reached the WAL, so recovery lands exactly on
  // the checkpoint: empty replay window, full validator state restored.
  ASSERT_EQ(report->base_seq, 4u);
  ASSERT_EQ(report->next_seq, 4u);
  EXPECT_EQ(report->batches_replayed, 0u);
  ASSERT_LT(report->next_seq, trace.TickCount());
  Result<std::unique_ptr<ShardedDurabilityManager>> manager =
      ShardedDurabilityManager::Open(dir.path(), opt2.checkpoint, engine.get(),
                                     &validator, /*rng=*/nullptr,
                                     /*crash=*/nullptr);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  ASSERT_TRUE(ReplayTrace(trace, engine.get(), /*delta=*/2, nullptr,
                          &validator, manager->get(),
                          static_cast<size_t>(report->next_seq))
                  .ok());

  EXPECT_EQ(StateDigest(*engine), twin_digest);
  // Identical per-reason counters AND identical per-entity floors: the
  // recovered validator made exactly the twin's admission decisions.
  EXPECT_EQ(validator.FormatStats(), twin_stats);
  EXPECT_EQ(validator.quarantine().total(), twin_validator.quarantine().total());
}

/// The shard counts the targeted recovery cases run at.
constexpr uint32_t kShardCounts[] = {1u, 2u, 4u};

TEST(ShardedCrashRecoveryTest, DeltaTwoRoundBoundariesSurviveRecovery) {
  // Batches ingest every tick but rounds evaluate every second batch; the
  // WAL's evaluate_after bit must reproduce the same boundaries on replay,
  // including a crash in the middle of an evaluation window.
  std::vector<Round> rounds = MakeRounds(0xDE17A, kRounds);
  auto evaluate_after = [](size_t i) { return (i + 1) % 2 == 0; };

  Result<std::unique_ptr<ScubaEngine>> base_engine =
      ScubaEngine::Create(MakeOptions(1, 1));
  ASSERT_TRUE(base_engine.ok());
  std::vector<ResultSet> base_results;
  std::vector<std::string> base_digests;  // after every batch
  for (size_t r = 0; r < rounds.size(); ++r) {
    ASSERT_TRUE(
        (*base_engine)->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
    if (evaluate_after(r)) {
      ResultSet results;
      ASSERT_TRUE((*base_engine)
                      ->Evaluate(static_cast<Timestamp>(r + 1), &results)
                      .ok());
      base_results.push_back(std::move(results));
    }
    base_digests.push_back(StateDigest(**base_engine));
  }

  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ScopedTempDir dir("sharded_delta2_s" + std::to_string(shards));
    ScubaOptions opt = MakeOptions(1, shards);
    opt.checkpoint.every_n_rounds = 1;  // still only fires at round boundaries
    std::unique_ptr<ShardedEngine> engine = MakeSharded(opt);
    // The append of batch 4, an ingest-only mid-window batch.
    CrashInjector crash(CrashPoint::kAfterWalAppend, 5);
    {
      Result<std::unique_ptr<ShardedDurabilityManager>> manager =
          ShardedDurabilityManager::Open(dir.path(), opt.checkpoint,
                                         engine.get(), /*validator=*/nullptr,
                                         /*rng=*/nullptr, &crash);
      ASSERT_TRUE(manager.ok());
      for (size_t r = 0; r < rounds.size(); ++r) {
        Status s = (*manager)->LogBatch(static_cast<Timestamp>(r + 1),
                                        evaluate_after(r), rounds[r].objects,
                                        rounds[r].queries);
        if (!s.ok()) {
          ASSERT_TRUE(CrashInjector::IsCrash(s));
          break;
        }
        ASSERT_TRUE(
            engine->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
        if (evaluate_after(r)) {
          ResultSet results;
          ASSERT_TRUE(
              engine->Evaluate(static_cast<Timestamp>(r + 1), &results).ok());
          ASSERT_TRUE((*manager)->OnRoundComplete().ok());
        }
      }
      ASSERT_TRUE(crash.fired());
    }

    // Batch 4 is durable but was never ingested; recovery must replay it
    // without evaluating.
    std::unique_ptr<ShardedEngine> recovered = MakeSharded(opt);
    std::vector<ResultSet> replayed;
    Result<ShardedRecoveryReport> report = RecoverShardedEngine(
        dir.path(), recovered.get(), /*validator=*/nullptr, /*rng=*/nullptr,
        [&](Timestamp, const ResultSet& results) {
          replayed.push_back(results);
        });
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->next_seq, 5u);
    EXPECT_EQ(StateDigest(*recovered), base_digests[4]);
    for (size_t i = 0; i < replayed.size(); ++i) {
      EXPECT_EQ(replayed[i], base_results[report->snapshot_rounds + i]);
    }
    // Finish the run: evaluation boundaries continue from the global index.
    size_t eval_index = 2;  // rounds evaluated in batches 0..4: after 1 and 3
    for (size_t r = 5; r < rounds.size(); ++r) {
      ASSERT_TRUE(
          recovered->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
      if (evaluate_after(r)) {
        ResultSet results;
        ASSERT_TRUE(
            recovered->Evaluate(static_cast<Timestamp>(r + 1), &results).ok());
        EXPECT_EQ(results, base_results[eval_index])
            << "evaluation " << eval_index;
        ++eval_index;
      }
      EXPECT_EQ(StateDigest(*recovered), base_digests[r]) << "batch " << r;
    }
    EXPECT_EQ(eval_index, base_results.size());
  }
}

TEST(ShardedCrashRecoveryTest, ValidatorTimestampFloorsSurviveWalReplay) {
  // With no checkpoint at all, the validator's per-entity floors exist only
  // by virtue of NoteAdmitted during WAL replay; a stale tuple that the
  // pre-crash validator would have rejected must still be rejected.
  std::vector<Round> rounds = MakeRounds(0xF100D, 4);
  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ScopedTempDir dir("sharded_floors_s" + std::to_string(shards));
    ScubaOptions opt = MakeOptions(1, shards);
    opt.checkpoint.every_n_rounds = 0;  // never checkpoint: WAL is everything
    std::unique_ptr<ShardedEngine> engine = MakeSharded(opt);
    UpdateValidator validator(MakeValidatorConfig());
    {
      Result<std::unique_ptr<ShardedDurabilityManager>> manager =
          ShardedDurabilityManager::Open(dir.path(), opt.checkpoint,
                                         engine.get(), &validator,
                                         /*rng=*/nullptr, /*crash=*/nullptr);
      ASSERT_TRUE(manager.ok());
      for (size_t r = 0; r < rounds.size(); ++r) {
        ASSERT_TRUE((*manager)
                        ->LogBatch(static_cast<Timestamp>(r + 1), true,
                                   rounds[r].objects, rounds[r].queries)
                        .ok());
        ASSERT_TRUE(
            engine->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
        ResultSet results;
        ASSERT_TRUE(
            engine->Evaluate(static_cast<Timestamp>(r + 1), &results).ok());
        ASSERT_TRUE((*manager)->OnRoundComplete().ok());
      }
    }

    std::unique_ptr<ShardedEngine> recovered = MakeSharded(opt);
    UpdateValidator recovered_validator(MakeValidatorConfig());
    Result<ShardedRecoveryReport> report = RecoverShardedEngine(
        dir.path(), recovered.get(), &recovered_validator, /*rng=*/nullptr);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->batches_replayed, 4u);

    // Screen at batch_time 0 so only per-entity history can reject: the
    // floors restored by replay must catch the regression, a fresh validator
    // must not.
    ASSERT_FALSE(rounds[3].objects.empty());
    std::vector<LocationUpdate> stale{rounds[3].objects.front()};
    stale.front().time = 1;
    std::vector<QueryUpdate> no_queries;
    std::vector<LocationUpdate> stale_copy = stale;
    ASSERT_TRUE(recovered_validator.ScreenBatch(0, &stale, &no_queries).ok());
    EXPECT_TRUE(stale.empty()) << "replayed floor must reject the regression";
    EXPECT_EQ(
        recovered_validator.stats().Rejected(RejectReason::kTimeRegression),
        1u);
    UpdateValidator fresh(MakeValidatorConfig());
    ASSERT_TRUE(fresh.ScreenBatch(0, &stale_copy, &no_queries).ok());
    EXPECT_EQ(stale_copy.size(), 1u) << "without history the tuple is clean";
  }
}

}  // namespace
}  // namespace scuba
