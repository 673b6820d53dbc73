// Loopback end-to-end determinism for the serving front-end
// (docs/ARCHITECTURE.md §14): a driver client replaying a workload through
// ScubaServer, with ≥4 concurrent subscriber sessions folding the pushed
// delta stream via ApplyDelta, must reproduce the offline engine's per-round
// ResultSets bit-for-bit and land on the identical EngineStateHash — across
// shards {1,4} × join threads {1,4}. Subscription slices filter
// deterministically, a supervised degraded round propagates its
// degraded-shard provenance through the delta stream to every subscriber,
// and a screened stream (repair, quarantine) lands where ReplayTrace does.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/query_processor.h"
#include "core/result_set.h"
#include "core/scuba_options.h"
#include "serve/client.h"
#include "serve/server.h"
#include "shard/engine_factory.h"
#include "stream/fault_injector.h"
#include "stream/pipeline.h"
#include "stream/update_validator.h"

namespace scuba::serve {
namespace {

/// Deterministic workload: 64 entities in 4 drifting groups spread over the
/// default 10000-unit region so every window of a 4-window layout owns
/// tuples. Queries get ranges wide enough to actually match.
struct TickBatch {
  std::vector<LocationUpdate> objects;
  std::vector<QueryUpdate> queries;
};

std::vector<TickBatch> MakeTicks(int ticks) {
  const double group_y[] = {1200.0, 3300.0, 5400.0, 7600.0};
  std::vector<TickBatch> out(ticks);
  for (int t = 0; t < ticks; ++t) {
    for (uint32_t i = 0; i < 64; ++i) {
      const int group = i % 4;
      const Point pos{500.0 + 2200.0 * group + 13.0 * t + 7.0 * (i / 4),
                      group_y[group] + 5.0 * (i / 4 % 5)};
      if (i % 5 == 2) {
        QueryUpdate u;
        u.qid = i;
        u.position = pos;
        u.speed = 5.0 + group;
        u.dest_node = static_cast<NodeId>(group);
        u.dest_position = Point{9000, 9000};
        u.range_width = 600.0;
        u.range_height = 600.0;
        u.time = static_cast<Timestamp>(t + 1);
        out[t].queries.push_back(u);
      } else {
        LocationUpdate u;
        u.oid = i;
        u.position = pos;
        u.speed = 5.0 + group;
        u.dest_node = static_cast<NodeId>(group);
        u.dest_position = Point{9000, 9000};
        u.attrs = 0x1u;
        u.time = static_cast<Timestamp>(t + 1);
        out[t].objects.push_back(u);
      }
    }
  }
  return out;
}

/// Offline reference: the same batches through a factory-built engine at the
/// same evaluation boundaries. Returns the per-round ResultSets.
std::vector<ResultSet> OfflineRounds(const ScubaOptions& opt,
                                     const std::vector<TickBatch>& ticks,
                                     int delta, uint64_t* state_hash) {
  Result<EngineHandle> handle = MakeEngine(opt);
  EXPECT_TRUE(handle.ok()) << handle.status().ToString();
  std::vector<ResultSet> rounds;
  ResultSet results;
  for (size_t t = 0; t < ticks.size(); ++t) {
    EXPECT_TRUE(
        handle->engine->IngestBatch(ticks[t].objects, ticks[t].queries).ok());
    if ((t + 1) % static_cast<size_t>(delta) == 0) {
      Status s = handle->engine->Evaluate(static_cast<Timestamp>(t + 1),
                                          &results);
      EXPECT_TRUE(s.ok()) << s.ToString();
      rounds.push_back(results);
    }
  }
  *state_hash = handle->StateHash();
  return rounds;
}

ResultSet FilterToQueries(const ResultSet& full,
                          const std::vector<QueryId>& qids) {
  ResultSet out;
  for (const Match& m : full.matches()) {
    for (QueryId q : qids) {
      if (m.qid == q) {
        out.Add(m.qid, m.oid);
        break;
      }
    }
  }
  for (uint32_t s : full.degraded_shards()) out.MarkDegraded(s);
  return out;
}

struct ServerUnderTest {
  EngineHandle engine;
  std::unique_ptr<ScubaServer> server;
};

ServerUnderTest StartServer(const ScubaOptions& opt,
                            const ServeOptions& serve = ServeOptions{}) {
  ServerUnderTest out;
  Result<EngineHandle> handle = MakeEngine(opt);
  EXPECT_TRUE(handle.ok()) << handle.status().ToString();
  out.engine = std::move(handle).value();
  ServerDeps deps;
  deps.engine = out.engine.engine.get();
  Result<std::unique_ptr<ScubaServer>> server = ScubaServer::Create(serve, deps);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  out.server = std::move(server).value();
  EXPECT_TRUE(out.server->Start().ok());
  return out;
}

class ServeDeterminismTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(ServeDeterminismTest, DeltaStreamBitMatchesOfflineReplay) {
  const auto [shards, threads] = GetParam();
  ScubaOptions opt;
  opt.shards = shards;
  opt.join_threads = threads;
  opt.ingest_threads = threads;
  const int kTicks = 12;
  const int kDelta = 2;  // evaluate every 2nd batch, like the offline default
  const std::vector<TickBatch> ticks = MakeTicks(kTicks);

  uint64_t offline_hash = 0;
  const std::vector<ResultSet> offline =
      OfflineRounds(opt, ticks, kDelta, &offline_hash);
  ASSERT_EQ(offline.size(), static_cast<size_t>(kTicks / kDelta));

  ServerUnderTest sut = StartServer(opt);

  // One driver paces rounds; four concurrent subscribers fold the stream.
  Result<ScubaClient> driver = ScubaClient::Connect(sut.server->port());
  ASSERT_TRUE(driver.ok()) << driver.status().ToString();
  // Three full-view subscribers plus one subscribed to a slice.
  const std::vector<QueryId> slice = {2, 7};
  std::vector<ScubaClient> subs;
  for (int i = 0; i < 4; ++i) {
    Result<ScubaClient> c = ScubaClient::Connect(sut.server->port());
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    subs.push_back(std::move(c).value());
    if (i == 3) {
      ASSERT_TRUE(subs.back().Subscribe(slice).ok());
    } else {
      ASSERT_TRUE(subs.back().SubscribeAll().ok());
    }
  }

  uint64_t round = 0;
  for (int t = 0; t < kTicks; ++t) {
    UpdateBatchMsg batch;
    batch.time = static_cast<Timestamp>(t + 1);
    batch.evaluate = (t + 1) % kDelta == 0;
    batch.objects = ticks[t].objects;
    batch.queries = ticks[t].queries;
    Result<TickAckMsg> ack = driver->SendBatch(batch);
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    if (!batch.evaluate) continue;

    ++round;
    ASSERT_EQ(ack->round, round);
    ASSERT_EQ(ack->time, batch.time);
    const ResultSet& expected = offline[round - 1];
    EXPECT_EQ(ack->matches, expected.size());

    // Every subscriber's fold, after this round's delta, bit-matches the
    // offline round (the slice subscriber matches its filtered view).
    for (size_t i = 0; i < subs.size(); ++i) {
      ASSERT_TRUE(subs[i].PumpUntilRound(round).ok())
          << "subscriber " << i << " round " << round;
      EXPECT_EQ(subs[i].last_round(), round);
      EXPECT_EQ(subs[i].last_time(), batch.time);
      if (i == 3) {
        EXPECT_TRUE(subs[i].folded() == FilterToQueries(expected, slice))
            << "slice subscriber diverged at round " << round;
      } else {
        EXPECT_TRUE(subs[i].folded() == expected)
            << "subscriber " << i << " diverged at round " << round;
      }
    }
  }

  // No subscriber needed a coalesced catch-up, so every fold was pure
  // ApplyDelta — the strongest determinism statement.
  for (ScubaClient& sub : subs) {
    EXPECT_EQ(sub.coalesced_snapshots(), 0u);
    EXPECT_EQ(sub.deltas_received(), static_cast<uint64_t>(kTicks / kDelta));
    EXPECT_TRUE(sub.Bye().ok());
  }
  ASSERT_TRUE(driver->Shutdown().ok());
  EXPECT_TRUE(sut.server->Wait().ok());

  // The served engine ends in the identical state.
  EXPECT_EQ(sut.engine.StateHash(), offline_hash);

  ServerStats stats = sut.server->stats();
  EXPECT_EQ(stats.rounds, static_cast<uint64_t>(kTicks / kDelta));
  EXPECT_EQ(stats.batches, static_cast<uint64_t>(kTicks));
  EXPECT_EQ(stats.sessions_accepted, 5u);
  EXPECT_EQ(stats.disconnects, 0u);
}

INSTANTIATE_TEST_SUITE_P(ShardsByThreads, ServeDeterminismTest,
                         ::testing::Combine(::testing::Values(1u, 4u),
                                            ::testing::Values(1u, 4u)));

/// MakeTicks as a trace whose tuples a seeded FaultInjector corrupts (every
/// fault class). With `regress_stamps`, every fourth batch is stamped two
/// ticks back, behind the batch before it.
Trace CorruptedTrace(const std::vector<TickBatch>& ticks, const Rect& region,
                     bool regress_stamps) {
  FaultInjector injector(FaultPlan::AllFaults(0.05, region, /*node_count=*/0),
                         /*seed=*/0x5C0BA);
  Trace trace;
  for (size_t t = 0; t < ticks.size(); ++t) {
    scuba::TickBatch batch;
    batch.time = static_cast<Timestamp>(t + 1);
    batch.object_updates = ticks[t].objects;
    batch.query_updates = ticks[t].queries;
    injector.CorruptBatch(batch.time, &batch.object_updates,
                          &batch.query_updates, nullptr, nullptr);
    if (regress_stamps && t % 4 == 3) batch.time -= 2;
    trace.Append(std::move(batch));
  }
  EXPECT_GT(injector.stats().TotalInjected(), 0u);
  return trace;
}

class ServeScreenedTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ServeScreenedTest, ScreenedStreamMatchesOfflineReplay) {
  // A dirty stream served under a screen must fold, round by round, to
  // ReplayTrace's ResultSets under an identical screen and land on its
  // state: repair with regressed batch stamps, quarantine with tuple faults.
  const uint32_t shards = GetParam();
  const int kTicks = 12;
  const int kDelta = 2;
  for (BadUpdatePolicy policy :
       {BadUpdatePolicy::kRepair, BadUpdatePolicy::kQuarantine}) {
    SCOPED_TRACE(std::string(BadUpdatePolicyName(policy)));
    ScubaOptions opt;
    opt.shards = shards;
    ValidatorConfig config;
    config.policy = policy;
    config.bounds = opt.region;
    config.check_bounds = true;
    const Trace trace =
        CorruptedTrace(MakeTicks(kTicks), opt.region,
                       /*regress_stamps=*/policy == BadUpdatePolicy::kRepair);

    Result<EngineHandle> offline = MakeEngine(opt);
    ASSERT_TRUE(offline.ok()) << offline.status().ToString();
    UpdateValidator offline_screen(config);
    std::vector<ResultSet> expected;
    Status replayed = ReplayTrace(
        trace, offline->engine.get(), kDelta,
        [&](Timestamp, const ResultSet& r) { expected.push_back(r); },
        &offline_screen);
    ASSERT_TRUE(replayed.ok()) << replayed.ToString();
    ASSERT_EQ(expected.size(), static_cast<size_t>(kTicks / kDelta));
    ASSERT_GT(offline_screen.stats().TotalRejected(), 0u);

    Result<EngineHandle> served = MakeEngine(opt);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    UpdateValidator screen(config);
    ServerDeps deps;
    deps.engine = served->engine.get();
    deps.screen = &screen;
    Result<std::unique_ptr<ScubaServer>> server =
        ScubaServer::Create(ServeOptions{}, deps);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    ASSERT_TRUE((*server)->Start().ok());
    Result<ScubaClient> driver = ScubaClient::Connect((*server)->port());
    ASSERT_TRUE(driver.ok()) << driver.status().ToString();
    Result<ScubaClient> sub = ScubaClient::Connect((*server)->port());
    ASSERT_TRUE(sub.ok()) << sub.status().ToString();
    ASSERT_TRUE(sub->SubscribeAll().ok());

    uint64_t round = 0;
    for (size_t i = 0; i < trace.TickCount(); ++i) {
      UpdateBatchMsg batch;
      batch.time = trace.batch(i).time;
      batch.evaluate = (i + 1) % kDelta == 0;
      batch.objects = trace.batch(i).object_updates;
      batch.queries = trace.batch(i).query_updates;
      Result<TickAckMsg> ack = driver->SendBatch(batch);
      ASSERT_TRUE(ack.ok()) << "batch " << i << ": "
                            << ack.status().ToString();
      if (!batch.evaluate) continue;
      ++round;
      ASSERT_EQ(ack->round, round);
      // Repair resyncs a regressed batch to the tick after its predecessor.
      EXPECT_EQ(ack->time, static_cast<Timestamp>(i + 1));
      ASSERT_TRUE(sub->PumpUntilRound(round).ok());
      EXPECT_TRUE(sub->folded() == expected[round - 1])
          << "diverged at round " << round;
    }
    EXPECT_EQ(sub->coalesced_snapshots(), 0u);
    EXPECT_TRUE(sub->Bye().ok());
    ASSERT_TRUE(driver->Shutdown().ok());
    EXPECT_TRUE((*server)->Wait().ok());
    EXPECT_EQ(served->StateHash(), offline->StateHash());
    EXPECT_EQ(screen.FormatStats(), offline_screen.FormatStats());
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, ServeScreenedTest,
                         ::testing::Values(1u, 4u));

TEST(ServeE2eTest, DegradedRoundPropagatesToSubscribers) {
  // A supervised shard fault (shard 1 fails in round 3) completes the round
  // degraded; the delta stream must carry the provenance to every client.
  ScubaOptions opt;
  opt.shards = 4;
  opt.supervision.on_failure = ShardFailurePolicy::kDegrade;
  opt.supervision.fault_spec = "3:1:task-failure";
  const int kTicks = 5;
  const std::vector<TickBatch> ticks = MakeTicks(kTicks);

  uint64_t offline_hash = 0;
  const std::vector<ResultSet> offline =
      OfflineRounds(opt, ticks, /*delta=*/1, &offline_hash);
  ASSERT_EQ(offline.size(), 5u);
  ASSERT_TRUE(offline[2].degraded()) << "fault spec did not fire offline";

  ServerUnderTest sut = StartServer(opt);
  Result<ScubaClient> driver = ScubaClient::Connect(sut.server->port());
  ASSERT_TRUE(driver.ok()) << driver.status().ToString();
  Result<ScubaClient> sub = ScubaClient::Connect(sut.server->port());
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  ASSERT_TRUE(sub->SubscribeAll().ok());

  for (int t = 0; t < kTicks; ++t) {
    UpdateBatchMsg batch;
    batch.time = static_cast<Timestamp>(t + 1);
    batch.evaluate = true;
    batch.objects = ticks[t].objects;
    batch.queries = ticks[t].queries;
    Result<TickAckMsg> ack = driver->SendBatch(batch);
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    ASSERT_TRUE(sub->PumpUntilRound(t + 1).ok());
    const ResultSet& expected = offline[t];
    EXPECT_TRUE(sub->folded() == expected) << "diverged at round " << (t + 1);
    EXPECT_EQ(sub->folded().degraded(), expected.degraded())
        << "round " << (t + 1);
    EXPECT_EQ(sub->folded().degraded_shards(), expected.degraded_shards());
    EXPECT_EQ(ack->degraded, expected.degraded());
  }

  EXPECT_TRUE(sub->Bye().ok());
  ASSERT_TRUE(driver->Shutdown().ok());
  EXPECT_TRUE(sut.server->Wait().ok());
  EXPECT_EQ(sut.engine.StateHash(), offline_hash);
}

/// Delegating engine that fails Evaluate at a chosen round — drives the
/// server into its terminal-abort path with sessions still connected.
class ExplodingEngine : public QueryProcessor {
 public:
  ExplodingEngine(QueryProcessor* inner, int fail_at_round)
      : inner_(inner), fail_at_(fail_at_round) {}
  std::string_view name() const override { return inner_->name(); }
  Status IngestObjectUpdate(const LocationUpdate& u) override {
    return inner_->IngestObjectUpdate(u);
  }
  Status IngestQueryUpdate(const QueryUpdate& u) override {
    return inner_->IngestQueryUpdate(u);
  }
  Status IngestBatch(std::span<const LocationUpdate> objects,
                     std::span<const QueryUpdate> queries) override {
    return inner_->IngestBatch(objects, queries);
  }
  Status Evaluate(Timestamp now, ResultSet* results) override {
    if (++rounds_ >= fail_at_) {
      return Status::Internal("injected engine failure");
    }
    return inner_->Evaluate(now, results);
  }
  size_t EstimateMemoryUsage() const override {
    return inner_->EstimateMemoryUsage();
  }
  const EvalStats& stats() const override { return inner_->stats(); }

 private:
  QueryProcessor* inner_;
  int fail_at_;
  int rounds_ = 0;
};

TEST(ServeE2eTest, TerminalAbortWithHungUpSubscriberSendsFarewell) {
  // Serving aborts (engine failure) while one subscriber has already hung up
  // without reading its last push. The terminal farewell broadcast must not
  // trip over the dead session (writing to it fails and closes it mid-loop)
  // and the surviving driver still learns WHY serving stopped.
  ScubaOptions opt;
  Result<EngineHandle> handle = MakeEngine(opt);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  ExplodingEngine engine(handle->engine.get(), /*fail_at_round=*/2);
  ServerDeps deps;
  deps.engine = &engine;
  Result<std::unique_ptr<ScubaServer>> server =
      ScubaServer::Create(ServeOptions{}, deps);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE((*server)->Start().ok());

  const std::vector<TickBatch> ticks = MakeTicks(2);
  Result<ScubaClient> driver = ScubaClient::Connect((*server)->port());
  ASSERT_TRUE(driver.ok()) << driver.status().ToString();
  Result<ScubaClient> sub_conn = ScubaClient::Connect((*server)->port());
  ASSERT_TRUE(sub_conn.ok()) << sub_conn.status().ToString();
  std::optional<ScubaClient> sub(std::move(sub_conn).value());
  ASSERT_TRUE(sub->SubscribeAll().ok());

  // Round 1 succeeds and pushes a delta the subscriber never reads.
  UpdateBatchMsg batch;
  batch.time = 1;
  batch.evaluate = true;
  batch.objects = ticks[0].objects;
  batch.queries = ticks[0].queries;
  ASSERT_TRUE(driver->SendBatch(batch).ok());
  // Let the push reach the subscriber's socket, then hang up abruptly — the
  // unread bytes make the close an immediate reset, so the server's farewell
  // write to this session fails mid-broadcast.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  sub.reset();

  // Round 2 trips the injected engine failure: serving is now terminal.
  batch.time = 2;
  batch.objects = ticks[1].objects;
  batch.queries = ticks[1].queries;
  Result<TickAckMsg> nack = driver->SendBatch(batch);
  ASSERT_FALSE(nack.ok());
  EXPECT_EQ(nack.status().code(), StatusCode::kInternal);
  EXPECT_NE(nack.status().message().find("injected engine failure"),
            std::string::npos);

  Status terminal = (*server)->Wait();
  ASSERT_FALSE(terminal.ok());
  EXPECT_EQ(terminal.code(), StatusCode::kInternal);
}

TEST(ServeE2eTest, RegressedBatchIsRejectedWithoutPoisoningTheRound) {
  // A batch that does not advance the clock is refused per-batch (non-fatal)
  // and never touches the engine, so the accepted prefix still bit-matches
  // offline replay of that prefix.
  ScubaOptions opt;
  const std::vector<TickBatch> ticks = MakeTicks(4);
  uint64_t offline_hash = 0;
  const std::vector<ResultSet> offline =
      OfflineRounds(opt, ticks, /*delta=*/1, &offline_hash);

  ServerUnderTest sut = StartServer(opt);
  Result<ScubaClient> driver = ScubaClient::Connect(sut.server->port());
  ASSERT_TRUE(driver.ok()) << driver.status().ToString();
  ASSERT_TRUE(driver->SubscribeAll().ok());

  for (int t = 0; t < 4; ++t) {
    UpdateBatchMsg batch;
    batch.time = static_cast<Timestamp>(t + 1);
    batch.evaluate = true;
    batch.objects = ticks[t].objects;
    batch.queries = ticks[t].queries;
    ASSERT_TRUE(driver->SendBatch(batch).ok());
    if (t == 1) {
      // Replay the same stamp: rejected, engine untouched.
      UpdateBatchMsg stale = batch;
      Result<TickAckMsg> nack = driver->SendBatch(stale);
      ASSERT_FALSE(nack.ok());
      EXPECT_EQ(nack.status().code(), StatusCode::kFailedPrecondition);
    }
  }
  EXPECT_TRUE(driver->folded() == offline.back());
  ASSERT_TRUE(driver->Shutdown().ok());
  EXPECT_TRUE(sut.server->Wait().ok());
  EXPECT_EQ(sut.engine.StateHash(), offline_hash);
}

TEST(ServeE2eTest, SessionFailedAfterTheLastRoundIsCounted) {
  // Serve counts live only in the registry, so a session dropped after the
  // final round — no round follows it — still reaches stats().
  ServeOptions serve;
  serve.slow_consumer = SlowConsumerPolicy::kDisconnect;
  serve.max_queue_bytes = 1;  // any result frame overflows the queue
  ServerUnderTest sut = StartServer(ScubaOptions{}, serve);
  const std::vector<TickBatch> ticks = MakeTicks(2);
  Result<ScubaClient> driver = ScubaClient::Connect(sut.server->port());
  ASSERT_TRUE(driver.ok()) << driver.status().ToString();
  for (int t = 0; t < 2; ++t) {
    UpdateBatchMsg batch;
    batch.time = static_cast<Timestamp>(t + 1);
    batch.evaluate = true;
    batch.objects = ticks[t].objects;
    batch.queries = ticks[t].queries;
    ASSERT_TRUE(driver->SendBatch(batch).ok());
  }
  // The subscribe-ack snapshot cannot fit the queue: the late subscriber is
  // disconnected with a fatal error.
  Result<ScubaClient> late = ScubaClient::Connect(sut.server->port());
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_FALSE(late->SubscribeAll().ok());
  ASSERT_TRUE(driver->Shutdown().ok());
  EXPECT_TRUE(sut.server->Wait().ok());

  uint64_t registry_disconnects = 0;
  for (const MetricSnapshot& m : sut.server->registry().Snapshot()) {
    if (m.name == "scuba_serve_disconnects_total") {
      registry_disconnects = m.counter;
    }
  }
  const ServerStats stats = sut.server->stats();
  EXPECT_EQ(stats.rounds, 2u);
  EXPECT_EQ(registry_disconnects, 1u);
  EXPECT_EQ(stats.disconnects, registry_disconnects);
}

TEST(ServeE2eTest, TinyRoundsDoNotStallOnDelayedAck) {
  // A round of two small batches (one non-evaluating) is two small writes in
  // a row. Without TCP_NODELAY on both ends, Nagle holds the second behind
  // the server's delayed ACK of the first, and every round costs >= 40 ms.
  ServerUnderTest sut = StartServer(ScubaOptions{});
  Result<ScubaClient> driver = ScubaClient::Connect(sut.server->port());
  ASSERT_TRUE(driver.ok()) << driver.status().ToString();
  const std::vector<TickBatch> ticks = MakeTicks(1);
  std::vector<double> round_ms;
  Timestamp time = 0;
  for (int round = 0; round < 20; ++round) {
    const auto start = std::chrono::steady_clock::now();
    for (bool evaluate : {false, true}) {
      UpdateBatchMsg batch;
      batch.time = ++time;
      batch.evaluate = evaluate;
      batch.objects.push_back(ticks[0].objects[static_cast<size_t>(round)]);
      batch.objects.back().time = time;
      ASSERT_TRUE(driver->SendBatch(batch).ok());
    }
    round_ms.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count());
  }
  std::nth_element(round_ms.begin(), round_ms.begin() + 10, round_ms.end());
  EXPECT_LT(round_ms[10], 20.0) << "median tiny round took " << round_ms[10]
                                << " ms";
  ASSERT_TRUE(driver->Shutdown().ok());
  EXPECT_TRUE(sut.server->Wait().ok());
}

}  // namespace
}  // namespace scuba::serve
