#include "stream/pipeline.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "baseline/naive_join_engine.h"
#include "gen/workload_generator.h"
#include "network/grid_city.h"
#include "stream/clock.h"
#include "stream/update_validator.h"

namespace scuba {
namespace {

TEST(SimulationClockTest, CreateValidatesDelta) {
  EXPECT_TRUE(SimulationClock::Create(0).status().IsInvalidArgument());
  EXPECT_TRUE(SimulationClock::Create(-1).status().IsInvalidArgument());
  EXPECT_TRUE(SimulationClock::Create(2).ok());
}

TEST(SimulationClockTest, AdvanceFiresEveryDelta) {
  SimulationClock clock = std::move(SimulationClock::Create(3).value());
  EXPECT_EQ(clock.now(), 0);
  EXPECT_FALSE(clock.Advance());  // t=1
  EXPECT_FALSE(clock.Advance());  // t=2
  EXPECT_TRUE(clock.Advance());   // t=3
  EXPECT_FALSE(clock.Advance());  // t=4
  EXPECT_EQ(clock.now(), 4);
  EXPECT_EQ(clock.TicksUntilEvaluation(), 2);
}

TEST(SimulationClockTest, DeltaOneFiresEveryTick) {
  SimulationClock clock = std::move(SimulationClock::Create(1).value());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(clock.Advance());
}

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() : city_(DefaultBenchmarkCity(51)) {
    WorkloadOptions opt;
    opt.num_objects = 30;
    opt.num_queries = 30;
    opt.skew = 10;
    opt.seed = 51;
    Result<ObjectSimulator> sim = GenerateWorkload(&city_, opt);
    EXPECT_TRUE(sim.ok());
    sim_ = std::make_unique<ObjectSimulator>(std::move(sim).value());
  }

  RoadNetwork city_;
  std::unique_ptr<ObjectSimulator> sim_;
  NaiveJoinEngine engine_;
};

TEST_F(PipelineTest, CreateValidates) {
  EXPECT_TRUE(StreamPipeline::Create(nullptr, &engine_, 2)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(StreamPipeline::Create(sim_.get(), nullptr, 2)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(StreamPipeline::Create(sim_.get(), &engine_, 0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(StreamPipeline::Create(sim_.get(), &engine_, 2, 1.5)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(StreamPipeline::Create(sim_.get(), &engine_, 2, -0.1)
                  .status()
                  .IsInvalidArgument());
  // NaN fails every comparison, so a naive range test would admit it.
  EXPECT_TRUE(StreamPipeline::Create(sim_.get(), &engine_, 2,
                                     std::numeric_limits<double>::quiet_NaN())
                  .status()
                  .IsInvalidArgument());
}

TEST_F(PipelineTest, EvaluatesEveryDelta) {
  Result<StreamPipeline> p = StreamPipeline::Create(sim_.get(), &engine_, 2);
  ASSERT_TRUE(p.ok());
  int sink_calls = 0;
  Timestamp last_time = 0;
  ASSERT_TRUE(p->RunTicks(10, [&](Timestamp t, const ResultSet& r) {
                 (void)r;
                 ++sink_calls;
                 EXPECT_EQ(t % 2, 0);
                 EXPECT_GT(t, last_time);
                 last_time = t;
               }).ok());
  EXPECT_EQ(sink_calls, 5);
  EXPECT_EQ(p->evaluations(), 5u);
  EXPECT_EQ(p->now(), 10);
  EXPECT_EQ(engine_.stats().evaluations, 5u);
}

TEST_F(PipelineTest, NullSinkIsFine) {
  Result<StreamPipeline> p = StreamPipeline::Create(sim_.get(), &engine_, 2);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(p->RunTicks(4).ok());
  EXPECT_EQ(p->evaluations(), 2u);
}

TEST_F(PipelineTest, EngineSeesAllUpdates) {
  Result<StreamPipeline> p = StreamPipeline::Create(sim_.get(), &engine_, 2);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(p->RunTicks(2).ok());
  EXPECT_EQ(engine_.ObjectCount(), 30u);
  EXPECT_EQ(engine_.QueryCount(), 30u);
}

TEST(ReplayTraceTest, Validates) {
  Trace t;
  EXPECT_TRUE(ReplayTrace(t, nullptr, 2).IsInvalidArgument());
  NaiveJoinEngine e;
  EXPECT_TRUE(ReplayTrace(t, &e, 0).IsInvalidArgument());
  EXPECT_TRUE(ReplayTrace(t, &e, 2).ok());  // empty trace: no-op
}

TEST(ReplayTraceTest, ReplaysBatchesAndEvaluates) {
  RoadNetwork city = DefaultBenchmarkCity(52);
  WorkloadOptions opt;
  opt.num_objects = 20;
  opt.num_queries = 20;
  opt.seed = 52;
  Result<ObjectSimulator> sim = GenerateWorkload(&city, opt);
  ASSERT_TRUE(sim.ok());
  ObjectSimulator s = std::move(sim).value();
  Trace trace = RecordTrace(&s, 6);

  NaiveJoinEngine live;
  int evals = 0;
  ASSERT_TRUE(ReplayTrace(trace, &live, 3, [&](Timestamp t, const ResultSet& r) {
                 (void)t;
                 (void)r;
                 ++evals;
               }).ok());
  EXPECT_EQ(evals, 2);
  EXPECT_EQ(live.ObjectCount(), 20u);
}

TEST(ReplayTraceTest, LivePipelineAndReplayAgree) {
  // Running an engine live and replaying the recorded trace into a second
  // engine must produce identical final results.
  RoadNetwork city = DefaultBenchmarkCity(53);
  WorkloadOptions opt;
  opt.num_objects = 40;
  opt.num_queries = 40;
  opt.skew = 8;
  opt.seed = 53;

  // Record the trace from one simulator.
  Result<ObjectSimulator> sim1 = GenerateWorkload(&city, opt);
  ASSERT_TRUE(sim1.ok());
  ObjectSimulator s1 = std::move(sim1).value();
  Trace trace = RecordTrace(&s1, 6);

  // Live: identical workload (fresh simulator), engine inline.
  Result<ObjectSimulator> sim2 = GenerateWorkload(&city, opt);
  ASSERT_TRUE(sim2.ok());
  ObjectSimulator s2 = std::move(sim2).value();
  NaiveJoinEngine live;
  Result<StreamPipeline> p = StreamPipeline::Create(&s2, &live, 2);
  ASSERT_TRUE(p.ok());
  ResultSet live_last;
  ASSERT_TRUE(p->RunTicks(6, [&](Timestamp, const ResultSet& r) {
                 live_last = r;
               }).ok());

  NaiveJoinEngine replayed;
  ResultSet replay_last;
  ASSERT_TRUE(ReplayTrace(trace, &replayed, 2,
                          [&](Timestamp, const ResultSet& r) {
                            replay_last = r;
                          })
                  .ok());
  EXPECT_EQ(live_last, replay_last);
}

/// A tiny trace whose batch stamps are taken verbatim from `times`, one
/// well-formed object update per batch.
Trace TraceWithTimes(const std::vector<Timestamp>& times) {
  Trace trace;
  for (size_t i = 0; i < times.size(); ++i) {
    TickBatch batch;
    batch.time = times[i];
    LocationUpdate u;
    u.oid = static_cast<uint32_t>(i + 1);
    u.position = Point{100.0 + 10.0 * i, 100.0};
    u.time = times[i];
    u.speed = 5.0;
    u.dest_node = 0;
    u.dest_position = Point{500.0, 500.0};
    batch.object_updates.push_back(u);
    trace.Append(std::move(batch));
  }
  return trace;
}

TEST(ReplayTraceTest, NonMonotonicBatchTimeFailsPrecondition) {
  NaiveJoinEngine engine;
  // Stalled and regressed stamps both violate the consecutive-tick contract.
  EXPECT_TRUE(ReplayTrace(TraceWithTimes({1, 1}), &engine, 2)
                  .IsFailedPrecondition());
  EXPECT_TRUE(ReplayTrace(TraceWithTimes({1, 2, 1}), &engine, 2)
                  .IsFailedPrecondition());
}

TEST(ReplayTraceTest, QuarantineValidatorStillFailsNonMonotonicBatches) {
  // Only kRepair opts into resynchronization; a quarantining validator keeps
  // the strict batch-time contract.
  NaiveJoinEngine engine;
  ValidatorConfig config;
  config.policy = BadUpdatePolicy::kQuarantine;
  UpdateValidator validator(config);
  EXPECT_TRUE(ReplayTrace(TraceWithTimes({1, 1}), &engine, 2, nullptr,
                          &validator)
                  .IsFailedPrecondition());
}

TEST(ReplayTraceTest, RepairValidatorResyncsNonMonotonicBatches) {
  NaiveJoinEngine engine;
  ValidatorConfig config;
  config.policy = BadUpdatePolicy::kRepair;
  UpdateValidator validator(config);
  std::vector<Timestamp> sink_times;
  ASSERT_TRUE(ReplayTrace(TraceWithTimes({1, 1, 1}), &engine, 1,
                          [&](Timestamp t, const ResultSet&) {
                            sink_times.push_back(t);
                          },
                          &validator)
                  .ok());
  // Batches resync to consecutive ticks and every update is admitted (its
  // stamp repaired up to the resynced batch time).
  EXPECT_EQ(sink_times, (std::vector<Timestamp>{1, 2, 3}));
  EXPECT_EQ(engine.ObjectCount(), 3u);
  EXPECT_EQ(validator.stats().admitted, 3u);
  EXPECT_EQ(validator.stats().repaired, 2u);  // stamps 1,1 lifted to 2,3
  EXPECT_EQ(validator.stats().TotalRejected(), 0u);
}

/// Engine and durability sink that append each call to one shared log.
class RecordingEngine : public QueryProcessor {
 public:
  explicit RecordingEngine(std::vector<std::string>* calls) : calls_(calls) {}
  std::string_view name() const override { return "recording"; }
  Status IngestObjectUpdate(const LocationUpdate&) override {
    return Status::OK();
  }
  Status IngestQueryUpdate(const QueryUpdate&) override { return Status::OK(); }
  Status IngestBatch(std::span<const LocationUpdate> objects,
                     std::span<const QueryUpdate> queries) override {
    calls_->push_back("ingest " + std::to_string(objects.size()) + "+" +
                      std::to_string(queries.size()));
    return Status::OK();
  }
  Status Evaluate(Timestamp now, ResultSet* results) override {
    calls_->push_back("evaluate " + std::to_string(now));
    results->Clear();
    return Status::OK();
  }
  size_t EstimateMemoryUsage() const override { return 0; }
  const EvalStats& stats() const override { return stats_; }

 private:
  std::vector<std::string>* calls_;
  EvalStats stats_;
};

class RecordingSink : public DurabilitySink {
 public:
  explicit RecordingSink(std::vector<std::string>* calls) : calls_(calls) {}
  Status LogBatch(Timestamp batch_time, bool evaluate_after,
                  std::span<const LocationUpdate> objects,
                  std::span<const QueryUpdate>) override {
    calls_->push_back("log " + std::to_string(batch_time) +
                      (evaluate_after ? " eval " : " ") +
                      std::to_string(objects.size()));
    return Status::OK();
  }
  Status OnRoundComplete() override {
    calls_->push_back("round-complete");
    return Status::OK();
  }

 private:
  std::vector<std::string>* calls_;
};

/// One well-formed object update stamped `time`.
std::vector<LocationUpdate> OneObject(Timestamp time) {
  return TraceWithTimes({time}).batch(0).object_updates;
}

TEST(RoundStepTest, LogsBeforeIngestAndHandsOffBeforeRoundComplete) {
  std::vector<std::string> calls;
  RecordingEngine engine(&calls);
  RecordingSink durability(&calls);
  RoundStep step(&engine, /*validator=*/nullptr, &durability);
  const RoundHandoff handoff = [&](Timestamp t, ResultSet&) {
    calls.push_back("handoff " + std::to_string(t) + " round " +
                    std::to_string(step.rounds()));
  };
  std::vector<LocationUpdate> objects = OneObject(1);
  std::vector<QueryUpdate> queries;
  for (Timestamp t : {1, 2}) {
    Result<Timestamp> time = step.Admit(t, &objects, &queries);
    ASSERT_TRUE(time.ok()) << time.status().ToString();
    EXPECT_EQ(*time, t);
    EXPECT_EQ(step.floor(), t);
    ASSERT_TRUE(step.Commit(*time, /*evaluate=*/t == 2, objects, queries,
                            handoff)
                    .ok());
  }
  EXPECT_EQ(calls, (std::vector<std::string>{
                       "log 1 1", "ingest 1+0", "log 2 eval 1", "ingest 1+0",
                       "evaluate 2", "handoff 2 round 1", "round-complete"}));
  EXPECT_EQ(step.rounds(), 1u);

  // ReplayTrace runs the same order, with its sink as the handoff.
  calls.clear();
  ASSERT_TRUE(ReplayTrace(TraceWithTimes({1, 2}), &engine, 2,
                          [&](Timestamp t, const ResultSet&) {
                            calls.push_back("sink " + std::to_string(t));
                          },
                          /*validator=*/nullptr, &durability)
                  .ok());
  EXPECT_EQ(calls, (std::vector<std::string>{"log 1 1", "ingest 1+0",
                                             "log 2 eval 1", "ingest 1+0",
                                             "evaluate 2", "sink 2",
                                             "round-complete"}));
}

TEST(RoundStepTest, RejectedBatchReachesNoSinkWalOrEngine) {
  std::vector<std::string> calls;
  RecordingEngine engine(&calls);
  RecordingSink durability(&calls);
  int handoffs = 0;
  std::vector<QueryUpdate> queries;

  // A regressed or stalled stamp without a repairing screen.
  for (BadUpdatePolicy policy :
       {BadUpdatePolicy::kStrict, BadUpdatePolicy::kQuarantine}) {
    ValidatorConfig config;
    config.policy = policy;
    UpdateValidator validator(config);
    for (UpdateValidator* screen : {static_cast<UpdateValidator*>(nullptr),
                                    &validator}) {
      calls.clear();
      RoundStep step(&engine, screen, &durability, /*floor=*/5);
      for (Timestamp t : {5, 4}) {
        std::vector<LocationUpdate> objects = OneObject(t);
        Result<Timestamp> time = step.Admit(t, &objects, &queries);
        EXPECT_TRUE(time.status().IsFailedPrecondition())
            << time.status().ToString();
        EXPECT_EQ(objects.size(), 1u);  // not screened
      }
      EXPECT_EQ(step.floor(), 5);
      EXPECT_TRUE(calls.empty());
    }
  }

  // A strict screen failure.
  ValidatorConfig config;
  UpdateValidator strict(config);
  RoundStep step(&engine, &strict, &durability, /*floor=*/5);
  std::vector<LocationUpdate> objects = OneObject(6);
  objects[0].speed = -1.0;
  Result<Timestamp> time = step.Admit(6, &objects, &queries);
  EXPECT_FALSE(time.ok());
  EXPECT_FALSE(time.status().IsFailedPrecondition()) << time.status().ToString();
  EXPECT_EQ(step.floor(), 5);
  EXPECT_EQ(step.rounds(), 0u);
  EXPECT_TRUE(calls.empty());
  EXPECT_EQ(handoffs, 0);

  // ReplayTrace stops on the rejected batch: nothing of it is logged or
  // ingested, and the round it would close never runs.
  EXPECT_TRUE(ReplayTrace(TraceWithTimes({1, 2, 2}), &engine, 3,
                          [&](Timestamp, const ResultSet&) { ++handoffs; },
                          /*validator=*/nullptr, &durability)
                  .IsFailedPrecondition());
  EXPECT_EQ(calls, (std::vector<std::string>{"log 1 1", "ingest 1+0",
                                             "log 2 1", "ingest 1+0"}));
  EXPECT_EQ(handoffs, 0);
}

TEST(RoundStepTest, RepairResyncsRegressedBatchPastTheFloor) {
  std::vector<std::string> calls;
  RecordingEngine engine(&calls);
  ValidatorConfig config;
  config.policy = BadUpdatePolicy::kRepair;
  UpdateValidator validator(config);
  RoundStep step(&engine, &validator, /*durability=*/nullptr, /*floor=*/5);
  std::vector<LocationUpdate> objects = OneObject(3);
  std::vector<QueryUpdate> queries;
  Result<Timestamp> time = step.Admit(3, &objects, &queries);
  ASSERT_TRUE(time.ok()) << time.status().ToString();
  EXPECT_EQ(*time, 6);
  EXPECT_EQ(step.floor(), 6);
  ASSERT_EQ(objects.size(), 1u);
  EXPECT_EQ(objects[0].time, 6);  // the tuple's stamp is repaired too

  // Out of band: no floor check, and the floor stays put.
  objects = OneObject(2);
  time = step.Admit(std::nullopt, &objects, &queries);
  ASSERT_TRUE(time.ok()) << time.status().ToString();
  EXPECT_EQ(step.floor(), 6);
}

TEST(ReplayTraceTest, StartIndexSetsTheFloorFromThePreviousBatch) {
  std::vector<std::string> calls;
  RecordingEngine engine(&calls);
  // Batch 0 is already inside the engine; batch 1 does not advance past it.
  EXPECT_TRUE(ReplayTrace(TraceWithTimes({9, 1, 2}), &engine, 1, nullptr,
                          nullptr, nullptr, /*start_index=*/1)
                  .IsFailedPrecondition());
  EXPECT_TRUE(calls.empty());

  ValidatorConfig config;
  config.policy = BadUpdatePolicy::kRepair;
  UpdateValidator validator(config);
  std::vector<Timestamp> sink_times;
  ASSERT_TRUE(ReplayTrace(TraceWithTimes({9, 1, 2}), &engine, 1,
                          [&](Timestamp t, const ResultSet&) {
                            sink_times.push_back(t);
                          },
                          &validator, nullptr, /*start_index=*/1)
                  .ok());
  EXPECT_EQ(sink_times, (std::vector<Timestamp>{10, 11}));
  EXPECT_EQ(calls, (std::vector<std::string>{"ingest 1+0", "evaluate 10",
                                             "ingest 1+0", "evaluate 11"}));
}

}  // namespace
}  // namespace scuba
