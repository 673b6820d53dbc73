// Session-manager policy tests (src/serve/session.h) — socket-free by
// design, so the bounded-queue / slow-consumer / admission behavior is
// provable without a running server:
//
//  - one delta per round per ready subscribed session, stamped by its cursor;
//  - kCoalesce replaces a slow consumer's backlog with ONE snapshot, keeps
//    its memory bounded, and never stalls the fast sessions;
//  - kDisconnect dooms the slow consumer with a fatal error frame;
//  - a partially-written head frame survives coalescing (no torn stream);
//  - LoadShedder-backed admission refuses sessions over the memory budget.

#include "serve/session.h"

#include <gtest/gtest.h>

#include <string>

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

}  // namespace
}  // namespace scuba::serve
