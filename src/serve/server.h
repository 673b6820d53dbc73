// ScubaServer: the long-lived subscription serving front-end
// (docs/ARCHITECTURE.md §14).
//
// One event-loop thread multiplexes every client session over poll() on a
// loopback TCP listener, drives the engine through the QueryProcessor
// interface (the ScubaEngine or a baseline — the server does not care),
// and pushes per-session result deltas after every evaluation round.
//
// Round semantics mirror ReplayTrace (src/stream/pipeline.cc) exactly —
// screen → WAL-log → ingest → evaluate → push → round-complete, with the
// same strictly-increasing batch-time contract (kRepair resyncs, otherwise
// the offending batch is rejected before it touches the WAL or the engine) —
// so a client replaying a trace through the server reproduces the offline
// per-round ResultSets and final EngineStateHash bit-for-bit, and
// --durable-dir recovery works unchanged.
//
// Clients own round pacing: a batch's `evaluate` flag (or a kTick) closes a
// round. Engine-level failures after a batch is WAL-logged are terminal (the
// server refuses to serve from suspect state, exactly as an offline replay
// aborts); per-client protocol violations only cost that client its session.

#ifndef SCUBA_SERVE_SERVER_H_
#define SCUBA_SERVE_SERVER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "core/query_processor.h"
#include "serve/session.h"
#include "stream/pipeline.h"
#include "stream/update_validator.h"

namespace scuba::serve {

/// Collaborators, all unowned and outliving the server. Only `engine` is
/// required.
struct ServerDeps {
  QueryProcessor* engine = nullptr;
  /// Screens inbound batches under drop/repair policies (null = strict:
  /// engine-level validation failures are terminal, as in offline replay).
  UpdateValidator* screen = nullptr;
  /// WAL/snapshot sink; batches become durable before they mutate the engine.
  DurabilitySink* durability = nullptr;
  /// Registry for the scuba_serve_* metrics; null = one the session manager
  /// owns (readable via registry()). Pass the engine telemetry registry to
  /// make serve metrics ride the JSONL round stream (schema v4).
  MetricsRegistry* registry = nullptr;
};

/// What stats() reports. The counts are read from the serve metrics (the one
/// place they live); only the last round's outcome is kept by the server.
struct ServerStats {
  uint64_t rounds = 0;
  uint64_t batches = 0;
  uint64_t sessions_accepted = 0;
  uint64_t deltas_pushed = 0;
  uint64_t coalesces = 0;
  uint64_t disconnects = 0;
  uint64_t last_round_matches = 0;
  bool last_round_degraded = false;
};

class ScubaServer {
 public:
  /// Binds and listens on 127.0.0.1:options.port (0 = ephemeral; read the
  /// outcome from port()). The event loop starts with Start().
  static Result<std::unique_ptr<ScubaServer>> Create(
      const ServeOptions& options, const ServerDeps& deps);

  ~ScubaServer();
  ScubaServer(const ScubaServer&) = delete;
  ScubaServer& operator=(const ScubaServer&) = delete;

  uint16_t port() const { return port_; }

  /// Spawns the event-loop thread. kFailedPrecondition if already started.
  Status Start();

  /// Asks the loop to exit (thread-safe, idempotent). Queued frames get one
  /// best-effort flush. Wait() (or the destructor) joins.
  void RequestStop();

  /// Joins the event loop and returns its terminal status: OK after
  /// RequestStop() or a client kShutdown, the engine/durability error if
  /// serving aborted.
  Status Wait();

  ServerStats stats() const;

  /// The effective metrics registry (deps.registry or the session
  /// manager's own).
  const MetricsRegistry& registry() const { return sessions_.registry(); }

 private:
  ScubaServer(const ServeOptions& options, const ServerDeps& deps,
              int listen_fd, uint16_t port, int pipe_r, int pipe_w);

  void Loop();
  void AcceptPending();
  /// Reads from one session; decodes and handles every complete frame.
  void ReadSession(Session* session);
  void HandleMessage(Session* session, std::string_view payload);
  Status HandleBatch(Session* session, Timestamp time, bool evaluate,
                     std::vector<LocationUpdate>* objects,
                     std::vector<QueryUpdate>* queries);
  Status RunRound(Session* driver, Timestamp now);
  /// Flushes as much of the session's queue as the socket accepts.
  void WriteSession(Session* session);
  void SendError(Session* session, const Status& error, bool fatal);
  void CloseSession(int fd);

  ServeOptions options_;
  ServerDeps deps_;
  SessionManager sessions_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  int pipe_r_ = -1;  ///< Self-pipe: RequestStop wakes the poll loop.
  int pipe_w_ = -1;

  std::thread thread_;
  std::atomic<bool> stop_requested_{false};
  bool started_ = false;
  bool stopping_ = false;  ///< Graceful: drain queues, then exit.
  Status terminal_ = Status::OK();

  // Round state (event-loop thread only).
  Timestamp prev_time_;
  ResultSet results_;  ///< Evaluate's output buffer (swapped each round).
  uint64_t rounds_ = 0;

  mutable std::mutex stats_mu_;  ///< Guards the last-round fields.
  uint64_t last_round_matches_ = 0;
  bool last_round_degraded_ = false;
};

}  // namespace scuba::serve

#endif  // SCUBA_SERVE_SERVER_H_
