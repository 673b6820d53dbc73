// Session state for the serving front-end (docs/ARCHITECTURE.md §14).
//
// A Session is one connected subscriber: its handshake state, subscribed
// query set, delta cursor (round and time stamps), and a bounded outbound
// frame queue. The SessionManager owns every session and implements the
// policies that keep one misbehaving client from hurting the rest:
//
//  - *One diff per round*: the manager retains the last pushed global result
//    set and diffs it against the new round ONCE; each session's delta is
//    that global delta filtered to its query ids (a subscribe-all session
//    gets it as is). No session keeps a copy of its answer, with one
//    exception: when its subscription changes, a session keeps the set its
//    client holds (its *base*, filtered from the retained set with the old
//    subscription) until its next push, which diffs base → new filtered set.
//  - *Bounded queues*: each session's outbound queue is capped at
//    max_queue_bytes. When a slow consumer falls behind, the configured
//    SlowConsumerPolicy fires: kDisconnect drops the session with a fatal
//    error frame; kCoalesce throws away its queued result frames and replaces
//    them with ONE full-set snapshot (its slice of the current round), so
//    memory stays bounded and the client can still catch up in one step. A
//    result frame's size follows from its counts, so the policy is decided
//    before anything is encoded.
//  - *Admission control*: a LoadShedder in adaptive mode watches engine
//    memory plus total queued bytes against serve_memory_budget; while it
//    sheds, new sessions are refused with kResourceExhausted.
//
// Everything here is plain state — no sockets — so the policies are unit
// testable; ScubaServer (server.h) wires sessions to file descriptors.

#ifndef SCUBA_SERVE_SESSION_H_
#define SCUBA_SERVE_SESSION_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "common/status.h"
#include "core/load_shedder.h"
#include "core/result_delta.h"
#include "obs/metrics.h"
#include "serve/protocol.h"

namespace scuba::serve {

enum class SlowConsumerPolicy : uint8_t {
  kDisconnect = 0,  ///< Drop the session that cannot keep up.
  kCoalesce = 1,    ///< Replace its queued result frames with one snapshot.
};

std::string_view SlowConsumerPolicyName(SlowConsumerPolicy policy);
Result<SlowConsumerPolicy> ParseSlowConsumerPolicy(std::string_view name);

struct ServeOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (see
  /// ScubaServer::port()).
  uint16_t port = 0;
  /// Hard cap on concurrent sessions; further connects get kResourceExhausted.
  uint32_t max_sessions = 64;
  /// Per-session outbound queue cap in bytes; crossing it fires
  /// slow_consumer.
  size_t max_queue_bytes = 1u << 20;
  SlowConsumerPolicy slow_consumer = SlowConsumerPolicy::kCoalesce;
  /// Cap on queued control frames (hello-ack, tick-ack, error) per session.
  /// Control frames are small and exempt from max_queue_bytes, but a client
  /// that streams batches without ever reading accumulates acks without
  /// bound; coalescing cannot shrink them, so crossing this cap disconnects.
  size_t max_queued_control_frames = 1024;
  /// Adaptive admission budget (engine memory + queued bytes). 0 disables
  /// load-shedder-based admission control.
  size_t memory_budget_bytes = 0;
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel default. Shrinking it
  /// moves backlog out of opaque kernel buffers into the server's accounted
  /// (and capped) per-session queue, making max_queue_bytes the real bound on
  /// a slow consumer's footprint.
  size_t socket_send_buffer_bytes = 0;
  std::string server_name = "scuba-serve";
};

/// One queued outbound frame (already length+CRC framed), tagged with its
/// message type so coalescing can drop result frames and keep control frames,
/// and with its enqueue time so the server can observe push latency.
struct OutFrame {
  MessageType type = MessageType::kError;
  std::string bytes;
  std::chrono::steady_clock::time_point enqueued_at;
};

/// Serve metric handles (telemetry schema v4). All registered against one
/// MetricsRegistry — the engine's when telemetry is on (so serve counters ride
/// the JSONL round stream), else the session manager's own. The registry is
/// the only place serve counts live: readers go through Counter::Value().
struct ServeMetrics {
  Counter sessions_total;
  Counter rounds_total;
  Counter batches_total;
  Counter deltas_pushed_total;
  Counter delta_bytes_total;
  Counter snapshots_pushed_total;
  Counter snapshot_bytes_total;
  Counter coalesces_total;
  Counter disconnects_total;
  Counter errors_total;
  Gauge sessions_active;
  Gauge queue_bytes;
  HistogramMetric push_latency_ms;

  static ServeMetrics Register(MetricsRegistry* registry);
};

class Session {
 public:
  /// `retained` is the manager's last pushed global result set (null for a
  /// standalone session that is never pushed).
  Session(uint32_t id, int fd, const ResultSet* retained = nullptr)
      : id_(id), fd_(fd), retained_(retained) {}

  uint32_t id() const { return id_; }
  int fd() const { return fd_; }

  /// Hello handshake completed; only ready sessions receive round pushes.
  bool ready() const { return ready_; }
  void set_ready(std::string name) {
    ready_ = true;
    name_ = std::move(name);
  }
  const std::string& name() const { return name_; }

  /// Marked for closure (fatal error / bye); the server flushes the queue
  /// best-effort and closes.
  bool doomed() const { return doomed_; }
  void set_doomed() { doomed_ = true; }

  /// Subscription changes. Each first keeps the set the client holds as the
  /// session's base (unless it already has one), so the next push diffs from
  /// what the client really folded, whatever the subscription was then.
  void SubscribeAll() {
    KeepBase();
    subscribe_all_ = true;
  }
  void Subscribe(QueryId qid) {
    KeepBase();
    subscriptions_.insert(qid);
  }
  void Unsubscribe(QueryId qid) {
    KeepBase();
    subscriptions_.erase(qid);
  }
  bool subscribe_all() const { return subscribe_all_; }
  const std::set<QueryId>& subscriptions() const { return subscriptions_; }
  bool WantsResults() const {
    return subscribe_all_ || !subscriptions_.empty();
  }

  /// This session's view of a round: the global set filtered to its
  /// subscriptions (a copy of the global set when subscribed to all).
  /// Degraded provenance is preserved.
  ResultSet FilterResults(const ResultSet& global) const;

  /// Delta cursor: pushes made to this session (its own round count, so a
  /// late subscriber starts at 1) and the time of the latest one.
  uint64_t rounds() const { return rounds_; }
  Timestamp time() const { return time_; }

  FrameDecoder& decoder() { return decoder_; }

  std::deque<OutFrame>& queue() { return queue_; }
  size_t queued_bytes() const { return queued_bytes_; }
  size_t queued_control_frames() const { return queued_control_frames_; }
  /// Bytes of the head frame already handed to the kernel (partial write).
  size_t write_offset = 0;

 private:
  friend class SessionManager;

  /// Without a base the client holds exactly FilterResults(*retained_): the
  /// session was pushed the retained round under its current subscription.
  /// A session starts with an empty base (it holds nothing), so retained_ is
  /// only read once a push has consumed a base, which only a manager does.
  void KeepBase() {
    if (!base_) base_ = FilterResults(*retained_);
  }

  uint32_t id_;
  int fd_;
  const ResultSet* retained_;
  bool ready_ = false;
  bool doomed_ = false;
  std::string name_;
  bool subscribe_all_ = false;
  std::set<QueryId> subscriptions_;
  uint64_t rounds_ = 0;
  Timestamp time_ = 0;
  /// The set the client holds, kept from the first subscription change after
  /// a push until the next push. Engaged (empty) before the first push.
  std::optional<ResultSet> base_ = ResultSet();
  FrameDecoder decoder_;
  std::deque<OutFrame> queue_;
  size_t queued_bytes_ = 0;
  size_t queued_control_frames_ = 0;
};

class SessionManager {
 public:
  /// Registers the serve metrics on `registry`, or on a registry the manager
  /// owns when `registry` is null.
  SessionManager(const ServeOptions& options, MetricsRegistry* registry);

  /// Admits a new connection: kResourceExhausted when at max_sessions or
  /// while the admission load shedder is shedding. The returned pointer is
  /// owned by the manager and valid until Close(fd).
  Result<Session*> Accept(int fd);
  Session* Find(int fd);
  void Close(int fd);

  /// Frames `payload` and appends it to `session`'s queue under the
  /// bounded-queue policy (see EnqueueFrame). A payload too large for one
  /// frame (kMaxFramePayload) can never reach the peer — its decoder would
  /// reject the length prefix and poison the stream — so the session is
  /// disconnected with a fatal typed error instead.
  void EnqueueMessage(Session* session, MessageType type,
                      std::string_view payload);

  /// Appends an already-framed message to `session`'s queue under the
  /// bounded-queue policy. Result frames (delta, snapshot) crossing
  /// max_queue_bytes fire the slow-consumer policy; control frames
  /// (hello-ack, tick-ack, error) are bounded by max_queued_control_frames
  /// and disconnect past it (coalescing cannot shrink them). A doomed
  /// session accepts only error frames (its farewell); everything else is
  /// dropped.
  void EnqueueFrame(Session* session, MessageType type, std::string frame);

  /// Pushes one evaluation round to every ready, subscribed session: diffs
  /// `global` against the retained set once, filters that delta per session,
  /// advances each cursor, and enqueues one kDelta frame stamped with the
  /// session's round and `now`. `global` becomes the retained set; the
  /// previously retained one is returned so the caller can reuse its buffer.
  ResultSet PushRound(uint64_t round, Timestamp now, ResultSet global);

  /// Enqueues a snapshot of the set `session`'s client holds once its queue
  /// is folded — its base, else its slice of the retained set — stamped with
  /// its cursor. Not coalesced: the subscribe ack (the client's fold base).
  /// Coalesced: the stand-in for a dropped backlog.
  void EnqueueSnapshot(Session* session, bool coalesced);

  /// Adaptive admission feedback; call once per round with the engine's
  /// estimated memory. Total queued bytes are added on top.
  void ObservePressure(size_t engine_memory_bytes);

  /// Dequeue accounting for the server's write path: `n` bytes of `session`'s
  /// head frame were written; pops the frame when complete and observes push
  /// latency. Returns true when the frame completed.
  bool ConsumeWritten(Session* session, size_t n);

  size_t total_queued_bytes() const { return total_queued_bytes_; }
  size_t session_count() const { return sessions_.size(); }
  uint64_t deltas_pushed() const {
    return metrics_.deltas_pushed_total.Value();
  }
  uint64_t coalesces() const { return metrics_.coalesces_total.Value(); }
  uint64_t disconnects() const { return metrics_.disconnects_total.Value(); }
  const ServeOptions& options() const { return options_; }
  ServeMetrics& metrics() { return metrics_; }
  const ServeMetrics& metrics() const { return metrics_; }
  /// The registry the serve metrics live in (the caller's or the owned one).
  const MetricsRegistry& registry() const { return *registry_; }
  /// Deterministic iteration order (by fd) for the poll loop.
  std::map<int, std::unique_ptr<Session>>& sessions() { return sessions_; }
  bool shedding() const { return shedder_.eta() > 0.0; }

 private:
  /// Applies the queue policies to a `bytes`-byte frame about to be queued.
  /// False when it must not be queued: dropped (doomed session), replaced by
  /// a coalesced snapshot, or the session was failed.
  bool Admit(Session* session, MessageType type, size_t bytes);
  /// Appends an admitted frame and counts it.
  void Push(Session* session, MessageType type, std::string frame);
  /// Sizes, admits, encodes and queues one stamped delta.
  void PushDelta(Session* session, const ResultDelta& delta);
  void CoalesceQueue(Session* session);
  /// Disconnect degrade: drops the session's queued result frames (keeping a
  /// partially-written head), dooms it, and queues one fatal error frame
  /// explaining `error`. Counts as a disconnect.
  void FailSession(Session* session, const Status& error);

  ServeOptions options_;
  std::unique_ptr<MetricsRegistry> owned_registry_;  ///< Null if given one.
  MetricsRegistry* registry_;
  ServeMetrics metrics_;
  LoadShedder shedder_;
  /// The last pushed global result set; every session points at it, so it
  /// is declared before (and outlives) sessions_.
  ResultSet retained_;
  std::map<int, std::unique_ptr<Session>> sessions_;
  uint32_t next_session_id_ = 1;
  size_t total_queued_bytes_ = 0;
};

}  // namespace scuba::serve

#endif  // SCUBA_SERVE_SESSION_H_
