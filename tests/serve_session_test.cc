// Session-manager policy tests (src/serve/session.h) — socket-free by
// design, so the bounded-queue / slow-consumer / admission behavior is
// provable without a running server:
//
//  - one delta per round per ready subscribed session, stamped by its cursor;
//  - kCoalesce replaces a slow consumer's backlog with ONE snapshot, keeps
//    its memory bounded, and never stalls the fast sessions;
//  - kDisconnect dooms the slow consumer with a fatal error frame;
//  - a partially-written head frame survives coalescing (no torn stream);
//  - LoadShedder-backed admission refuses sessions over the memory budget;
//  - delta counters count only frames really enqueued;
//  - the one-diff-per-round push queues the same bytes as a per-session
//    filter + IncrementalResultTracker reference (differential test);
//  - the one-buffer frame encoders equal EncodeFrame(Encode*(msg)).

#include "serve/session.h"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "serve/protocol.h"

namespace scuba::serve {
namespace {

/// Unframes one queued frame's bytes back into its payload.
std::string Payload(const OutFrame& frame) {
  FrameDecoder decoder;
  decoder.Append(frame.bytes);
  std::string payload;
  Result<bool> got = decoder.Next(&payload);
  EXPECT_TRUE(got.ok() && *got) << "queued frame does not decode";
  return payload;
}

ResultSet MakeResults(std::initializer_list<Match> matches) {
  ResultSet r;
  for (const Match& m : matches) r.Add(m.qid, m.oid);
  r.Normalize();
  return r;
}

TEST(SessionTest, FilterResultsSubsetKeepsOrderAndProvenance) {
  Session session(1, -1);
  session.Subscribe(1);
  session.Subscribe(3);
  ResultSet global = MakeResults({{1, 5}, {2, 5}, {3, 1}, {3, 2}});
  global.MarkDegraded(2);
  ResultSet filtered = session.FilterResults(global);
  EXPECT_EQ(filtered.matches(),
            (std::vector<Match>{{1, 5}, {3, 1}, {3, 2}}));
  EXPECT_TRUE(filtered.degraded());
  EXPECT_EQ(filtered.degraded_shards(), std::vector<uint32_t>{2});

  Session all(2, -1);
  all.SubscribeAll();
  EXPECT_TRUE(all.FilterResults(global) == global);
}

TEST(SessionManagerTest, AcceptEnforcesSessionCap) {
  ServeOptions options;
  options.max_sessions = 2;
  SessionManager manager(options, nullptr);
  ASSERT_TRUE(manager.Accept(10).ok());
  ASSERT_TRUE(manager.Accept(11).ok());
  Result<Session*> refused = manager.Accept(12);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  manager.Close(10);
  EXPECT_TRUE(manager.Accept(12).ok());
}

TEST(SessionManagerTest, PushRoundTargetsReadySubscribedSessionsOnly) {
  ServeOptions options;
  SessionManager manager(options, nullptr);
  Session* subscribed = *manager.Accept(1);
  subscribed->set_ready("a");
  subscribed->SubscribeAll();
  Session* not_ready = *manager.Accept(2);
  not_ready->SubscribeAll();
  Session* no_subscription = *manager.Accept(3);
  no_subscription->set_ready("c");

  ResultSet global = MakeResults({{1, 1}, {2, 2}});
  manager.PushRound(1, 10, global);

  EXPECT_TRUE(not_ready->queue().empty());
  EXPECT_TRUE(no_subscription->queue().empty());
  ASSERT_EQ(subscribed->queue().size(), 1u);
  EXPECT_EQ(subscribed->queue().front().type, MessageType::kDelta);
  ResultDelta delta;
  ASSERT_TRUE(DecodeDelta(Payload(subscribed->queue().front()), &delta).ok());
  EXPECT_EQ(delta.round, 1u);
  EXPECT_EQ(delta.time, 10);
  EXPECT_TRUE(ApplyDelta(ResultSet(), delta) == global);
}

TEST(SessionManagerTest, EmptyRoundsStillPushStampedDeltas) {
  // Subscribers align deltas with rounds; an unchanged answer is still a
  // (empty) delta, so gaps always mean loss.
  ServeOptions options;
  SessionManager manager(options, nullptr);
  Session* s = *manager.Accept(1);
  s->set_ready("a");
  s->SubscribeAll();
  ResultSet global = MakeResults({{1, 1}});
  manager.PushRound(1, 10, global);
  manager.PushRound(2, 20, global);  // no change
  ASSERT_EQ(s->queue().size(), 2u);
  ResultDelta second;
  ASSERT_TRUE(DecodeDelta(Payload(s->queue().back()), &second).ok());
  EXPECT_EQ(second.round, 2u);
  EXPECT_TRUE(second.Empty());
}

TEST(SessionManagerTest, CoalesceBoundsSlowConsumerWithoutStallingFast) {
  ServeOptions options;
  options.slow_consumer = SlowConsumerPolicy::kCoalesce;
  options.max_queue_bytes = 256;  // a few delta frames
  SessionManager manager(options, nullptr);
  Session* slow = *manager.Accept(1);
  slow->set_ready("slow");
  slow->SubscribeAll();
  Session* fast = *manager.Accept(2);
  fast->set_ready("fast");
  fast->SubscribeAll();

  // 40 rounds of churning results; `fast` drains its queue every round,
  // `slow` never reads a byte.
  ResultSet global;
  uint64_t fast_deltas = 0;
  for (uint32_t round = 1; round <= 40; ++round) {
    global = MakeResults({{round, 1}, {round, 2}, {round + 1, 7}});
    manager.PushRound(round, round, global);
    while (!fast->queue().empty()) {
      ++fast_deltas;
      manager.ConsumeWritten(fast, fast->queue().front().bytes.size());
    }
  }

  // The fast session saw every round.
  EXPECT_EQ(fast_deltas, 40u);
  // The slow session's backlog stayed bounded: at most the byte cap plus the
  // one in-flight snapshot that replaced its history.
  EXPECT_GT(manager.coalesces(), 0u);
  EXPECT_FALSE(slow->doomed());
  EXPECT_LE(slow->queue().size(), 4u);
  ASSERT_FALSE(slow->queue().empty());
  // The backlog still folds to the current answer: a coalesced snapshot
  // (standing in for the dropped history) followed by whole, consecutive
  // deltas.
  ResultSet folded;
  uint64_t at_round = 0;
  bool saw_snapshot = false;
  for (const OutFrame& frame : slow->queue()) {
    const std::string payload = Payload(frame);
    if (frame.type == MessageType::kSnapshot) {
      SnapshotMsg snap;
      ASSERT_TRUE(DecodeSnapshot(payload, &snap).ok());
      EXPECT_TRUE(snap.coalesced);
      saw_snapshot = true;
      ResultSet base;
      for (const Match& m : snap.matches) base.Add(m.qid, m.oid);
      folded = base;
      at_round = snap.round;
    } else {
      ASSERT_EQ(frame.type, MessageType::kDelta);
      ResultDelta delta;
      ASSERT_TRUE(DecodeDelta(payload, &delta).ok());
      EXPECT_EQ(delta.round, at_round + 1);
      folded = ApplyDelta(folded, delta);
      at_round = delta.round;
    }
  }
  EXPECT_TRUE(saw_snapshot);
  EXPECT_EQ(at_round, 40u);
  EXPECT_TRUE(folded == global);
}

TEST(SessionManagerTest, DisconnectDoomsSlowConsumerWithFatalError) {
  ServeOptions options;
  options.slow_consumer = SlowConsumerPolicy::kDisconnect;
  options.max_queue_bytes = 128;
  SessionManager manager(options, nullptr);
  Session* slow = *manager.Accept(1);
  slow->set_ready("slow");
  slow->SubscribeAll();
  Session* fast = *manager.Accept(2);
  fast->set_ready("fast");
  fast->SubscribeAll();

  ResultSet global;
  uint64_t fast_deltas = 0;
  for (uint32_t round = 1; round <= 10; ++round) {
    global = MakeResults({{round, 1}, {round, 2}, {round, 3}});
    manager.PushRound(round, round, global);
    while (!fast->queue().empty()) {
      ++fast_deltas;
      manager.ConsumeWritten(fast, fast->queue().front().bytes.size());
    }
  }

  EXPECT_EQ(fast_deltas, 10u);
  EXPECT_TRUE(slow->doomed());
  EXPECT_EQ(manager.disconnects(), 1u);
  // With no registry passed, the manager owns one, and its counts are the
  // registry's.
  for (const MetricSnapshot& m : manager.registry().Snapshot()) {
    if (m.name == "scuba_serve_disconnects_total") {
      EXPECT_EQ(m.counter, manager.disconnects());
    }
    if (m.name == "scuba_serve_deltas_pushed_total") {
      EXPECT_EQ(m.counter, manager.deltas_pushed());
    }
  }
  // The farewell is the only thing left to send, and it is fatal.
  ASSERT_EQ(slow->queue().size(), 1u);
  ASSERT_EQ(slow->queue().front().type, MessageType::kError);
  ErrorMsg err;
  ASSERT_TRUE(DecodeError(Payload(slow->queue().front()), &err).ok());
  EXPECT_TRUE(err.fatal);
  EXPECT_EQ(err.code,
            static_cast<uint32_t>(StatusCode::kResourceExhausted));
  // Doomed sessions receive no further result frames.
  manager.PushRound(11, 11, global);
  EXPECT_EQ(slow->queue().size(), 1u);
}

TEST(SessionManagerTest, ControlFrameFloodDisconnects) {
  // A client that streams batches/ticks but never reads a byte accumulates
  // ack frames, which the byte cap does not cover and coalescing cannot
  // shrink; the control-frame bound must disconnect it instead of letting the
  // queue grow without limit.
  ServeOptions options;
  options.max_queued_control_frames = 16;
  SessionManager manager(options, nullptr);
  Session* s = *manager.Accept(1);
  s->set_ready("s");

  for (uint32_t i = 0; i < 64 && !s->doomed(); ++i) {
    manager.EnqueueMessage(s, MessageType::kTickAck,
                           EncodeTickAck(TickAckMsg{i, Timestamp(i), 0, false}));
  }
  EXPECT_TRUE(s->doomed());
  EXPECT_EQ(manager.disconnects(), 1u);
  // The queue holds exactly the acks up to the bound plus the fatal farewell.
  ASSERT_EQ(s->queue().size(), options.max_queued_control_frames + 1);
  ASSERT_EQ(s->queue().back().type, MessageType::kError);
  ErrorMsg err;
  ASSERT_TRUE(DecodeError(Payload(s->queue().back()), &err).ok());
  EXPECT_TRUE(err.fatal);
  EXPECT_EQ(err.code, static_cast<uint32_t>(StatusCode::kResourceExhausted));
  // Doomed sessions accept no further control frames.
  const size_t at_doom = s->queue().size();
  manager.EnqueueMessage(s, MessageType::kTickAck,
                         EncodeTickAck(TickAckMsg{99, 99, 0, false}));
  EXPECT_EQ(s->queue().size(), at_doom);
}

TEST(SessionManagerTest, OversizedPayloadDisconnectsInsteadOfPoisoning) {
  // A payload beyond kMaxFramePayload can never reach the peer — its decoder
  // would treat the length prefix as a sticky fatal error. The manager must
  // fail the session with a typed error instead of emitting the frame.
  ServeOptions options;
  SessionManager manager(options, nullptr);
  Session* s = *manager.Accept(1);
  s->set_ready("s");
  s->SubscribeAll();

  const std::string huge(kMaxFramePayload + 1, 'x');
  manager.EnqueueMessage(s, MessageType::kDelta, huge);
  EXPECT_TRUE(s->doomed());
  EXPECT_EQ(manager.disconnects(), 1u);
  ASSERT_EQ(s->queue().size(), 1u);
  ASSERT_EQ(s->queue().front().type, MessageType::kError);
  ErrorMsg err;
  ASSERT_TRUE(DecodeError(Payload(s->queue().front()), &err).ok());
  EXPECT_TRUE(err.fatal);
  EXPECT_EQ(err.code, static_cast<uint32_t>(StatusCode::kResourceExhausted));
}

TEST(SessionManagerTest, CoalesceKeepsPartiallyWrittenHeadFrame) {
  // Dropping a frame the kernel already has half of would tear the client's
  // byte stream and poison its decoder; the head frame must survive.
  ServeOptions options;
  options.slow_consumer = SlowConsumerPolicy::kCoalesce;
  options.max_queue_bytes = 160;
  SessionManager manager(options, nullptr);
  Session* s = *manager.Accept(1);
  s->set_ready("s");
  s->SubscribeAll();

  manager.PushRound(1, 1, MakeResults({{1, 1}, {2, 2}}));
  ASSERT_EQ(s->queue().size(), 1u);
  const std::string head_bytes = s->queue().front().bytes;
  // Half the head frame is already on the wire.
  manager.ConsumeWritten(s, head_bytes.size() / 2);
  ASSERT_EQ(s->queue().size(), 1u);

  // Overflow the queue so the coalesce fires.
  for (uint32_t round = 2; round <= 12; ++round) {
    manager.PushRound(round, round,
                      MakeResults({{round, 1}, {round, 2}, {round, 3}}));
  }
  ASSERT_GE(s->queue().size(), 2u);
  // The in-flight head frame is byte-identical and its offset intact.
  EXPECT_EQ(s->queue().front().bytes, head_bytes);
  EXPECT_EQ(s->write_offset, head_bytes.size() / 2);
  EXPECT_EQ(s->queue().back().type, MessageType::kSnapshot);
}

TEST(SessionManagerTest, AdmissionShedsOverMemoryBudget) {
  ServeOptions options;
  options.memory_budget_bytes = 1 << 20;
  SessionManager manager(options, nullptr);
  ASSERT_TRUE(manager.Accept(1).ok());

  // Pressure beyond the budget arms the shedder; admissions are refused.
  manager.ObservePressure(2 << 20);
  EXPECT_TRUE(manager.shedding());
  Result<Session*> refused = manager.Accept(2);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);

  // Sustained pressure below the relax threshold lets admissions resume.
  for (int i = 0; i < 64 && manager.shedding(); ++i) {
    manager.ObservePressure(0);
  }
  EXPECT_FALSE(manager.shedding());
  EXPECT_TRUE(manager.Accept(2).ok());
}

TEST(SessionManagerTest, ConsumeWrittenTracksPartialWrites) {
  ServeOptions options;
  SessionManager manager(options, nullptr);
  Session* s = *manager.Accept(1);
  s->set_ready("s");
  std::string frame = *EncodeFrame(EncodeError(ErrorMsg{1, "hi", false}));
  const size_t total = frame.size();
  manager.EnqueueFrame(s, MessageType::kError, std::move(frame));
  EXPECT_EQ(manager.total_queued_bytes(), total);
  EXPECT_FALSE(manager.ConsumeWritten(s, 3));
  EXPECT_EQ(manager.total_queued_bytes(), total - 3);
  EXPECT_TRUE(manager.ConsumeWritten(s, total - 3));
  EXPECT_TRUE(s->queue().empty());
  EXPECT_EQ(manager.total_queued_bytes(), 0u);
  EXPECT_EQ(s->write_offset, 0u);
}

TEST(SessionManagerTest, DeltaCountersCountOnlyEnqueuedFrames) {
  // A delta the coalesce policy replaces with a snapshot was never pushed:
  // scuba_serve_deltas_pushed_total and _delta_bytes_total ("enqueued") must
  // not count it.
  ServeOptions options;
  options.slow_consumer = SlowConsumerPolicy::kCoalesce;
  options.max_queue_bytes = 100;  // the round-3 delta alone overflows
  SessionManager manager(options, nullptr);
  Session* s = *manager.Accept(1);
  s->set_ready("s");
  s->SubscribeAll();

  uint64_t deltas = 0;
  uint64_t delta_bytes = 0;
  uint64_t snapshots = 0;
  const std::vector<ResultSet> rounds = {
      MakeResults({{1, 1}}), MakeResults({{1, 1}, {2, 2}}),
      MakeResults({{3, 1}, {3, 2}, {3, 3}, {4, 1}, {4, 2}, {4, 3}}),
      MakeResults({{3, 1}})};
  for (size_t r = 0; r < rounds.size(); ++r) {
    manager.PushRound(r + 1, static_cast<Timestamp>(r + 1), rounds[r]);
    ASSERT_EQ(s->queue().size(), 1u) << "round " << (r + 1);
    const OutFrame& frame = s->queue().front();
    if (frame.type == MessageType::kDelta) {
      ++deltas;
      delta_bytes += frame.bytes.size();
    } else {
      ++snapshots;
    }
    manager.ConsumeWritten(s, frame.bytes.size());
  }
  EXPECT_EQ(snapshots, 1u);
  EXPECT_EQ(manager.coalesces(), 1u);
  EXPECT_EQ(deltas, 3u);
  EXPECT_EQ(manager.deltas_pushed(), deltas);
  EXPECT_EQ(manager.metrics().delta_bytes_total.Value(), delta_bytes);
}

// ---------------------------------------------------------------------------
// Differential test: SessionManager::PushRound against a reference model of
// the per-session algorithm (each session filters the global set and diffs
// it with its own IncrementalResultTracker; its queue is capped and coalesced
// to the tracker's current set).

/// Per-match filter, the reference for Session::FilterResults.
ResultSet ReferenceFilter(const ResultSet& global, bool all,
                          const std::set<QueryId>& qids) {
  ResultSet out;
  for (const Match& m : global.matches()) {
    if (all || qids.contains(m.qid)) out.Add(m.qid, m.oid);
  }
  for (uint32_t shard : global.degraded_shards()) out.MarkDegraded(shard);
  return out;
}

struct ModelSession {
  bool all = false;
  std::set<QueryId> qids;
  IncrementalResultTracker tracker;
  std::deque<std::pair<MessageType, std::string>> queue;
  size_t queued = 0;
  size_t write_offset = 0;

  std::string Snapshot(bool coalesced) const {
    SnapshotMsg snap;
    snap.round = tracker.rounds();
    snap.time = tracker.time();
    snap.coalesced = coalesced;
    snap.degraded_shards = tracker.Current().degraded_shards();
    snap.matches = tracker.Current().matches();
    return *EncodeFrame(EncodeSnapshot(snap));
  }

  /// The capped queue with the coalesce policy.
  void Enqueue(MessageType type, std::string frame, size_t cap,
               uint64_t* deltas) {
    if (queued + frame.size() > cap) {
      std::deque<std::pair<MessageType, std::string>> kept;
      for (size_t i = 0; i < queue.size(); ++i) {
        if (i == 0 && write_offset > 0) {
          kept.push_back(std::move(queue[i]));
        } else {
          queued -= queue[i].second.size();
        }
      }
      queue = std::move(kept);
      if (type != MessageType::kSnapshot) {
        frame = Snapshot(/*coalesced=*/true);
        type = MessageType::kSnapshot;
      }
    }
    if (type == MessageType::kDelta) ++*deltas;
    queued += frame.size();
    queue.emplace_back(type, std::move(frame));
  }
};

class PushRoundDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, size_t>> {};

TEST_P(PushRoundDifferentialTest, QueuedBytesEqualPerSessionTrackerModel) {
  const auto [initial_sessions, cap] = GetParam();
  ServeOptions options;
  options.slow_consumer = SlowConsumerPolicy::kCoalesce;
  options.max_queue_bytes = cap;
  options.max_sessions = 1024;
  SessionManager manager(options, nullptr);
  std::vector<Session*> sessions;
  std::vector<std::unique_ptr<ModelSession>> model;
  int next_fd = 1;
  auto join = [&] {
    Session* s = *manager.Accept(next_fd++);
    s->set_ready("s" + std::to_string(sessions.size()));
    sessions.push_back(s);
    model.push_back(std::make_unique<ModelSession>());
  };
  for (int i = 0; i < initial_sessions; ++i) join();

  Rng rng(static_cast<uint64_t>(initial_sessions) * 1000 + cap);
  constexpr uint32_t kQids = 24;
  constexpr uint32_t kOids = 40;
  ResultSet global;
  uint64_t round = 0;
  uint64_t model_deltas = 0;
  for (int step = 0; step < 400; ++step) {
    const size_t pick = rng.NextBounded(sessions.size());
    Session* s = sessions[pick];
    ModelSession& m = *model[pick];
    const uint64_t op = rng.NextBounded(100);
    if (op < 30) {
      // A round: the answer drifts a little, sometimes degraded.
      ResultSet next;
      for (const Match& match : global.matches()) {
        if (!rng.NextBool(0.15)) next.Add(match.qid, match.oid);
      }
      const uint64_t adds = rng.NextBounded(rng.NextBool(0.1) ? 300 : 30);
      for (uint64_t i = 0; i < adds; ++i) {
        next.Add(static_cast<QueryId>(rng.NextBounded(kQids)),
                 static_cast<ObjectId>(rng.NextBounded(kOids)));
      }
      next.Normalize();
      if (rng.NextBool(0.2)) {
        next.MarkDegraded(static_cast<uint32_t>(rng.NextBounded(4)));
      }
      global = next;
      ++round;
      const Timestamp now = static_cast<Timestamp>(10 * round);
      manager.PushRound(round, now, global);
      for (auto& ms : model) {
        if (!ms->all && ms->qids.empty()) continue;
        ResultDelta delta = ms->tracker.Observe(
            ReferenceFilter(global, ms->all, ms->qids), now);
        ms->Enqueue(MessageType::kDelta, *EncodeFrame(EncodeDelta(delta)), cap,
                    &model_deltas);
      }
    } else if (op < 45) {
      // Subscribe to a few qids, acked with a snapshot.
      const uint64_t n = 1 + rng.NextBounded(4);
      for (uint64_t i = 0; i < n; ++i) {
        const QueryId q = static_cast<QueryId>(rng.NextBounded(kQids));
        s->Subscribe(q);
        m.qids.insert(q);
      }
      manager.EnqueueSnapshot(s, /*coalesced=*/false);
      m.Enqueue(MessageType::kSnapshot, m.Snapshot(false), cap, &model_deltas);
    } else if (op < 50) {
      // Register: subscribes one qid with no ack.
      const QueryId q = static_cast<QueryId>(rng.NextBounded(kQids));
      s->Subscribe(q);
      m.qids.insert(q);
    } else if (op < 53) {
      s->SubscribeAll();
      m.all = true;
      manager.EnqueueSnapshot(s, /*coalesced=*/false);
      m.Enqueue(MessageType::kSnapshot, m.Snapshot(false), cap, &model_deltas);
    } else if (op < 63) {
      // Cancel one qid, or everything (the session goes idle).
      if (rng.NextBool(0.3)) {
        for (QueryId q = 0; q < kQids; ++q) s->Unsubscribe(q);
        m.qids.clear();
      } else {
        const QueryId q = static_cast<QueryId>(rng.NextBounded(kQids));
        s->Unsubscribe(q);
        m.qids.erase(q);
      }
    } else if (op < 66) {
      join();  // a late joiner
    } else {
      // The client reads some of its queue (sometimes stopping mid-frame).
      uint64_t budget = rng.NextBounded(2 * cap + 64);
      while (budget > 0 && !s->queue().empty()) {
        const size_t left = s->queue().front().bytes.size() - s->write_offset;
        const size_t n = std::min<size_t>(left, budget);
        manager.ConsumeWritten(s, n);
        budget -= n;
        m.write_offset += n;
        m.queued -= n;
        if (m.write_offset == m.queue.front().second.size()) {
          m.queue.pop_front();
          m.write_offset = 0;
        }
      }
    }
    for (size_t i = 0; i < sessions.size(); ++i) {
      const std::deque<OutFrame>& got = sessions[i]->queue();
      const auto& want = model[i]->queue;
      ASSERT_EQ(got.size(), want.size())
          << "session " << i << " after step " << step;
      for (size_t f = 0; f < got.size(); ++f) {
        ASSERT_EQ(got[f].type, want[f].first)
            << "session " << i << " frame " << f << " after step " << step;
        ASSERT_EQ(got[f].bytes, want[f].second)
            << "session " << i << " frame " << f << " after step " << step;
      }
      ASSERT_EQ(sessions[i]->queued_bytes(), model[i]->queued);
      ASSERT_EQ(sessions[i]->rounds(), model[i]->tracker.rounds());
    }
  }
  EXPECT_EQ(manager.deltas_pushed(), model_deltas);
  EXPECT_GT(round, 50u);
}

INSTANTIATE_TEST_SUITE_P(
    SessionsByCap, PushRoundDifferentialTest,
    ::testing::Combine(::testing::Values(1, 4, 16),
                       ::testing::Values(size_t{256}, size_t{4096},
                                         size_t{1} << 20)));

// ---------------------------------------------------------------------------
// One-buffer frame encoders.

TEST(FrameEncoderTest, FramedEncodersEqualEncodeFrameOfThePayload) {
  Rng rng(5);
  for (int iter = 0; iter < 50; ++iter) {
    ResultSet set;
    const uint64_t n = rng.NextBounded(iter % 10 == 0 ? 2 : 400);
    for (uint64_t i = 0; i < n; ++i) {
      set.Add(static_cast<QueryId>(rng.NextBounded(50)),
              static_cast<ObjectId>(rng.NextBounded(1u << 31)));
    }
    set.Normalize();
    if (iter % 3 == 0) set.MarkDegraded(static_cast<uint32_t>(iter));
    ResultDelta delta = DiffResults(ResultSet(), set);
    delta.round = static_cast<uint64_t>(iter);
    delta.time = -iter;
    const std::string delta_frame = *EncodeFrame(EncodeDelta(delta));
    EXPECT_EQ(*EncodeDeltaFrame(delta), delta_frame);
    EXPECT_EQ(DeltaFrameBytes(delta), delta_frame.size());

    SnapshotMsg snap;
    snap.round = static_cast<uint64_t>(iter);
    snap.time = iter;
    snap.coalesced = iter % 2 == 0;
    snap.degraded_shards = set.degraded_shards();
    snap.matches = set.matches();
    const std::string snap_frame = *EncodeFrame(EncodeSnapshot(snap));
    EXPECT_EQ(*EncodeSnapshotFrame(snap.round, snap.time, snap.coalesced, set),
              snap_frame);

    UpdateBatchMsg batch;
    batch.time = iter;
    batch.evaluate = iter % 2 == 1;
    batch.objects.resize(rng.NextBounded(5));
    for (LocationUpdate& u : batch.objects) {
      u.oid = static_cast<ObjectId>(rng.NextU64());
      u.position = Point{static_cast<double>(rng.NextBounded(1000)), 2.5};
    }
    batch.queries.resize(rng.NextBounded(5));
    for (QueryUpdate& u : batch.queries) {
      u.qid = static_cast<QueryId>(rng.NextU64());
      u.range_width = 3.0;
    }
    EXPECT_EQ(*EncodeUpdateBatchFrame(batch),
              *EncodeFrame(EncodeUpdateBatch(batch)));
  }
}

TEST(FrameEncoderTest, OversizedResultFramesAreRefusedBeforeEncoding) {
  ResultSet huge;
  const size_t n = kMaxFramePayload / sizeof(Match) + 1;
  for (size_t i = 0; i < n; ++i) {
    huge.Add(static_cast<QueryId>(i >> 16), static_cast<ObjectId>(i));
  }
  Result<std::string> snap = EncodeSnapshotFrame(1, 1, false, huge);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kResourceExhausted);
  ResultDelta delta;
  delta.added = huge.matches();
  EXPECT_GT(DeltaFrameBytes(delta) - kFrameHeaderBytes,
            size_t{kMaxFramePayload});
  Result<std::string> frame = EncodeDeltaFrame(delta);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kResourceExhausted);
  // The same refusal as the payload path, message included.
  EXPECT_EQ(frame.status().ToString(),
            CheckFramePayload(DeltaFrameBytes(delta) - kFrameHeaderBytes)
                .ToString());
}

TEST(FrameEncoderTest, DecoderConsumesManyFramesFedInRandomChunks) {
  // The decoder consumes through an offset and compacts lazily; every frame
  // must still come out whole and in order, however the bytes arrive.
  Rng rng(9);
  std::string stream;
  std::vector<std::string> payloads;
  for (int i = 0; i < 500; ++i) {
    payloads.push_back(EncodeTick(TickMsg{static_cast<Timestamp>(i)}) +
                       std::string(rng.NextBounded(40), 'x'));
    stream += *EncodeFrame(payloads.back());
  }
  FrameDecoder decoder;
  size_t fed = 0;
  size_t got = 0;
  std::string payload;
  while (got < payloads.size()) {
    const size_t chunk =
        std::min<size_t>(stream.size() - fed, 1 + rng.NextBounded(200));
    decoder.Append(std::string_view(stream).substr(fed, chunk));
    fed += chunk;
    while (true) {
      Result<bool> next = decoder.Next(&payload);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      if (!*next) break;
      ASSERT_LT(got, payloads.size());
      EXPECT_EQ(payload, payloads[got]);
      ++got;
    }
    ASSERT_EQ(decoder.buffered_bytes(), fed - [&] {
      size_t consumed = 0;
      for (size_t i = 0; i < got; ++i) {
        consumed += kFrameHeaderBytes + payloads[i].size();
      }
      return consumed;
    }());
  }
  EXPECT_EQ(fed, stream.size());
}

}  // namespace
}  // namespace scuba::serve
