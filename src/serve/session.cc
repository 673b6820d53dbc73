#include "serve/session.h"

#include <utility>

#include "common/check.h"

namespace scuba::serve {
namespace {

/// Admission control rides the existing LoadShedder in adaptive mode: engine
/// memory + queued bytes against the serve budget. theta_d is irrelevant here
/// (we only read eta as a pressure signal), so pin it to 1.
LoadSheddingOptions AdmissionShedderOptions(const ServeOptions& options) {
  LoadSheddingOptions shed;
  if (options.memory_budget_bytes > 0) {
    shed.mode = LoadSheddingMode::kAdaptive;
    shed.memory_budget_bytes = options.memory_budget_bytes;
  }
  return shed;
}

using MatchIt = std::vector<Match>::const_iterator;

/// Calls `sink(begin, end)` for each run of equal qids in `matches`
/// (ascending) whose qid is in `subscriptions`: one set lookup per distinct
/// qid, not one per match.
template <typename Sink>
void ForEachSubscribedRun(const std::set<QueryId>& subscriptions,
                          const std::vector<Match>& matches, Sink sink) {
  MatchIt run = matches.begin();
  while (run != matches.end()) {
    MatchIt end = run + 1;
    while (end != matches.end() && end->qid == run->qid) ++end;
    if (subscriptions.contains(run->qid)) sink(run, end);
    run = end;
  }
}

/// `global`'s matches restricted to the qids in `subscriptions`, with its
/// degraded provenance (the caller stamps round and time).
void FilterDelta(const std::set<QueryId>& subscriptions,
                 const ResultDelta& global, ResultDelta* out) {
  out->degraded_shards = global.degraded_shards;
  out->added.clear();
  out->removed.clear();
  ForEachSubscribedRun(subscriptions, global.added, [&](MatchIt b, MatchIt e) {
    out->added.insert(out->added.end(), b, e);
  });
  ForEachSubscribedRun(subscriptions, global.removed,
                       [&](MatchIt b, MatchIt e) {
                         out->removed.insert(out->removed.end(), b, e);
                       });
}

}  // namespace

std::string_view SlowConsumerPolicyName(SlowConsumerPolicy policy) {
  switch (policy) {
    case SlowConsumerPolicy::kDisconnect: return "disconnect";
    case SlowConsumerPolicy::kCoalesce: return "coalesce";
  }
  return "unknown";
}

Result<SlowConsumerPolicy> ParseSlowConsumerPolicy(std::string_view name) {
  if (name == "disconnect") return SlowConsumerPolicy::kDisconnect;
  if (name == "coalesce") return SlowConsumerPolicy::kCoalesce;
  return Status::InvalidArgument("unknown slow-consumer policy: " +
                                 std::string(name) +
                                 " (disconnect|coalesce)");
}

ServeMetrics ServeMetrics::Register(MetricsRegistry* registry) {
  ServeMetrics m;
  if (registry == nullptr) return m;
  m.sessions_total = registry->RegisterCounter(
      "scuba_serve_sessions_total", "Sessions accepted since server start");
  m.rounds_total = registry->RegisterCounter(
      "scuba_serve_rounds_total", "Evaluation rounds pushed to subscribers");
  m.batches_total = registry->RegisterCounter(
      "scuba_serve_batches_total", "Update batches ingested from sessions");
  m.deltas_pushed_total = registry->RegisterCounter(
      "scuba_serve_deltas_pushed_total", "Delta frames enqueued to sessions");
  m.delta_bytes_total = registry->RegisterCounter(
      "scuba_serve_delta_bytes_total", "Framed bytes of enqueued delta frames");
  m.snapshots_pushed_total = registry->RegisterCounter(
      "scuba_serve_snapshots_pushed_total",
      "Snapshot frames enqueued (slow-consumer coalescing)");
  m.snapshot_bytes_total = registry->RegisterCounter(
      "scuba_serve_snapshot_bytes_total",
      "Framed bytes of enqueued snapshot frames");
  m.coalesces_total = registry->RegisterCounter(
      "scuba_serve_coalesces_total",
      "Times a slow consumer's queue was coalesced to a snapshot");
  m.disconnects_total = registry->RegisterCounter(
      "scuba_serve_disconnects_total",
      "Sessions dropped by the slow-consumer disconnect policy");
  m.errors_total = registry->RegisterCounter(
      "scuba_serve_errors_total", "Error frames sent to sessions");
  m.sessions_active =
      registry->RegisterGauge("scuba_serve_sessions_active",
                              "Currently connected sessions");
  m.queue_bytes = registry->RegisterGauge(
      "scuba_serve_queue_bytes", "Total outbound bytes queued across sessions");
  Result<HistogramMetric> latency = registry->RegisterHistogram(
      "scuba_serve_push_latency_ms",
      "Delta/snapshot push latency: enqueue to kernel-accepted write",
      {0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250});
  if (latency.ok()) m.push_latency_ms = *latency;
  return m;
}

ResultSet Session::FilterResults(const ResultSet& global) const {
  if (subscribe_all_) return global;
  ResultSet filtered;
  // A subset of a normalized set taken in order stays normalized.
  ForEachSubscribedRun(subscriptions_, global.matches(),
                       [&](MatchIt run, MatchIt end) {
                         for (; run != end; ++run) {
                           filtered.Add(run->qid, run->oid);
                         }
                       });
  for (uint32_t s : global.degraded_shards()) filtered.MarkDegraded(s);
  return filtered;
}

SessionManager::SessionManager(const ServeOptions& options,
                               MetricsRegistry* registry)
    : options_(options),
      owned_registry_(registry == nullptr ? std::make_unique<MetricsRegistry>()
                                          : nullptr),
      registry_(registry != nullptr ? registry : owned_registry_.get()),
      metrics_(ServeMetrics::Register(registry_)),
      shedder_(AdmissionShedderOptions(options), /*theta_d=*/1.0) {}

Result<Session*> SessionManager::Accept(int fd) {
  if (sessions_.size() >= options_.max_sessions) {
    return Status::ResourceExhausted(
        "session limit reached (" + std::to_string(options_.max_sessions) +
        ")");
  }
  if (shedding()) {
    return Status::ResourceExhausted(
        "server is load shedding (memory budget exceeded); retry later");
  }
  auto session = std::make_unique<Session>(next_session_id_++, fd, &retained_);
  Session* raw = session.get();
  sessions_[fd] = std::move(session);
  metrics_.sessions_total.Increment();
  metrics_.sessions_active.Set(static_cast<double>(sessions_.size()));
  return raw;
}

Session* SessionManager::Find(int fd) {
  auto it = sessions_.find(fd);
  return it == sessions_.end() ? nullptr : it->second.get();
}

void SessionManager::Close(int fd) {
  auto it = sessions_.find(fd);
  if (it == sessions_.end()) return;
  total_queued_bytes_ -= it->second->queued_bytes_;
  sessions_.erase(it);
  metrics_.sessions_active.Set(static_cast<double>(sessions_.size()));
  metrics_.queue_bytes.Set(static_cast<double>(total_queued_bytes_));
}

void SessionManager::EnqueueMessage(Session* session, MessageType type,
                                    std::string_view payload) {
  Result<std::string> frame = EncodeFrame(payload);
  if (!frame.ok()) {
    FailSession(session, frame.status());
    return;
  }
  EnqueueFrame(session, type, std::move(*frame));
}

void SessionManager::FailSession(Session* session, const Status& error) {
  // Drop everything pending (keeping a partially-written head frame so the
  // stream is not torn); the only frame worth sending after it is the
  // explanation.
  CoalesceQueue(session);
  session->set_doomed();
  metrics_.disconnects_total.Increment();
  ErrorMsg err;
  err.code = static_cast<uint32_t>(error.code());
  err.message = error.message();
  err.fatal = true;
  // Error payloads are a short status string — always within the frame cap.
  Result<std::string> frame = EncodeFrame(EncodeError(err));
  if (frame.ok()) EnqueueFrame(session, MessageType::kError, std::move(*frame));
}

void SessionManager::EnqueueFrame(Session* session, MessageType type,
                                  std::string frame) {
  if (Admit(session, type, frame.size())) Push(session, type, std::move(frame));
}

bool SessionManager::Admit(Session* session, MessageType type, size_t bytes) {
  const bool is_result =
      type == MessageType::kDelta || type == MessageType::kSnapshot;
  // A doomed session takes only its farewell error: results are undeliverable
  // and further control frames would grow the flush queue past the doom point.
  if (session->doomed() && type != MessageType::kError) return false;
  if (!session->doomed() && !is_result &&
      session->queued_control_frames_ >= options_.max_queued_control_frames) {
    // A client that streams batches/ticks without ever reading accumulates
    // acks; coalescing frees only result frames, so the sole bound on control
    // frames is a disconnect.
    FailSession(session,
                Status::ResourceExhausted(
                    "slow consumer: " +
                    std::to_string(session->queued_control_frames_) +
                    " unread control frames queued"));
    return false;
  }
  if (!is_result ||
      session->queued_bytes_ + bytes <= options_.max_queue_bytes) {
    return true;
  }
  if (options_.slow_consumer == SlowConsumerPolicy::kDisconnect) {
    FailSession(session,
                Status::ResourceExhausted(
                    "slow consumer: outbound queue exceeded " +
                    std::to_string(options_.max_queue_bytes) + " bytes"));
    return false;
  }
  // Coalesce: throw away queued result frames, then enqueue one snapshot of
  // the cursor head in their place. A snapshot is exempt from the cap — it
  // REPLACES the backlog and there is at most one in flight, so memory stays
  // bounded by max(queue cap, one full result set).
  CoalesceQueue(session);
  if (type == MessageType::kSnapshot) return true;
  metrics_.coalesces_total.Increment();
  EnqueueSnapshot(session, /*coalesced=*/true);
  return false;
}

void SessionManager::Push(Session* session, MessageType type,
                          std::string frame) {
  const bool is_result =
      type == MessageType::kDelta || type == MessageType::kSnapshot;
  session->queued_bytes_ += frame.size();
  total_queued_bytes_ += frame.size();
  if (!is_result) ++session->queued_control_frames_;
  metrics_.queue_bytes.Set(static_cast<double>(total_queued_bytes_));
  // Counted here, where the frame is really enqueued: a delta the policy
  // replaced or dropped was never pushed.
  if (type == MessageType::kDelta) {
    metrics_.deltas_pushed_total.Increment();
    metrics_.delta_bytes_total.Increment(frame.size());
  }
  if (type == MessageType::kError) metrics_.errors_total.Increment();
  session->queue_.push_back(
      OutFrame{type, std::move(frame), std::chrono::steady_clock::now()});
}

void SessionManager::EnqueueSnapshot(Session* session, bool coalesced) {
  const ResultSet* held = &retained_;
  ResultSet filtered;
  if (session->base_) {
    held = &*session->base_;
  } else if (!session->subscribe_all()) {
    filtered = session->FilterResults(retained_);
    held = &filtered;
  }
  // Sized before encoding: a set too large for one frame encodes nothing.
  // Nothing smaller can stand in for it, so the session cannot be caught up —
  // disconnect it with the typed error.
  Result<std::string> frame = EncodeSnapshotFrame(
      session->rounds_, session->time_, coalesced, *held);
  if (!frame.ok()) {
    FailSession(session, frame.status());
    return;
  }
  if (coalesced) {
    metrics_.snapshots_pushed_total.Increment();
    metrics_.snapshot_bytes_total.Increment(frame->size());
  }
  if (Admit(session, MessageType::kSnapshot, frame->size())) {
    Push(session, MessageType::kSnapshot, std::move(*frame));
  }
}

void SessionManager::CoalesceQueue(Session* session) {
  std::deque<OutFrame> kept;
  for (OutFrame& f : session->queue_) {
    const bool is_result = f.type == MessageType::kDelta ||
                           f.type == MessageType::kSnapshot;
    // Never drop the head frame if partially written — a torn frame would
    // poison the client's decoder.
    const bool head_in_flight =
        kept.empty() && &f == &session->queue_.front() &&
        session->write_offset > 0;
    if (is_result && !head_in_flight) {
      session->queued_bytes_ -= f.bytes.size();
      total_queued_bytes_ -= f.bytes.size();
    } else {
      kept.push_back(std::move(f));
    }
  }
  session->queue_ = std::move(kept);
  metrics_.queue_bytes.Set(static_cast<double>(total_queued_bytes_));
}

ResultSet SessionManager::PushRound(uint64_t round, Timestamp now,
                                     ResultSet global) {
  // `round` is the server's global round counter; each session's delta is
  // stamped by its OWN cursor (a late subscriber starts at 1), so the global
  // round only drives metrics here.
  (void)round;
  metrics_.rounds_total.Increment();
  std::swap(retained_, global);  // `global` is now the previous round
  ResultDelta round_delta;       // previous → current, computed on first use
  bool diffed = false;
  ResultDelta session_delta;  // a filtered or rebased delta
  for (auto& [fd, session] : sessions_) {
    (void)fd;
    if (!session->ready() || session->doomed() || !session->WantsResults()) {
      continue;
    }
    ResultDelta* delta = &session_delta;
    if (session->base_) {
      // The subscription changed since the last push: diff what the client
      // holds against its new slice.
      session_delta = session->subscribe_all()
                          ? DiffResults(*session->base_, retained_)
                          : DiffResults(*session->base_,
                                        session->FilterResults(retained_));
      session->base_.reset();
    } else {
      if (!diffed) {
        round_delta = DiffResults(global, retained_);
        diffed = true;
      }
      if (session->subscribe_all()) {
        delta = &round_delta;
      } else {
        FilterDelta(session->subscriptions_, round_delta, &session_delta);
      }
    }
    ++session->rounds_;
    session->time_ = now;
    delta->round = session->rounds_;
    delta->time = now;
    // One delta frame per round per session, even when empty: subscribers use
    // the round stamps to align with ticks and detect gaps.
    PushDelta(session.get(), *delta);
  }
  return global;
}

void SessionManager::PushDelta(Session* session, const ResultDelta& delta) {
  // Every decision is made from the frame's size before it is encoded.
  const size_t bytes = DeltaFrameBytes(delta);
  Status fits = CheckFramePayload(bytes - kFrameHeaderBytes);
  if (!fits.ok()) {
    // A delta too large for one frame would poison the peer's decoder;
    // disconnect this session with the typed error instead (the cursor has
    // already advanced, but a doomed session never folds again).
    FailSession(session, fits);
    return;
  }
  if (!Admit(session, MessageType::kDelta, bytes)) return;
  Result<std::string> frame = EncodeDeltaFrame(delta);
  SCUBA_CHECK(frame.ok());  // its size was checked above
  Push(session, MessageType::kDelta, std::move(*frame));
}

void SessionManager::ObservePressure(size_t engine_memory_bytes) {
  shedder_.ObserveMemoryUsage(engine_memory_bytes + total_queued_bytes_);
}

bool SessionManager::ConsumeWritten(Session* session, size_t n) {
  if (session->queue_.empty()) return false;
  OutFrame& head = session->queue_.front();
  session->write_offset += n;
  session->queued_bytes_ -= n;
  total_queued_bytes_ -= n;
  if (session->write_offset < head.bytes.size()) return false;
  const auto elapsed = std::chrono::duration<double, std::milli>(
      std::chrono::steady_clock::now() - head.enqueued_at);
  if (head.type == MessageType::kDelta ||
      head.type == MessageType::kSnapshot) {
    metrics_.push_latency_ms.Observe(elapsed.count());
  } else {
    --session->queued_control_frames_;
  }
  session->queue_.pop_front();
  session->write_offset = 0;
  metrics_.queue_bytes.Set(static_cast<double>(total_queued_bytes_));
  return true;
}

}  // namespace scuba::serve
