#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <utility>

namespace scuba::serve {
namespace {

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IoError(std::string("fcntl O_NONBLOCK: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

/// How long a graceful stop waits for queued farewell frames to drain.
constexpr auto kDrainGrace = std::chrono::seconds(3);

}  // namespace

Result<std::unique_ptr<ScubaServer>> ScubaServer::Create(
    const ServeOptions& options, const ServerDeps& deps) {
  if (deps.engine == nullptr) {
    return Status::InvalidArgument("serve: deps.engine must be non-null");
  }
  int listen_fd = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  if (bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status err = Status::IoError(std::string("bind 127.0.0.1:") +
                                 std::to_string(options.port) + ": " +
                                 std::strerror(errno));
    close(listen_fd);
    return err;
  }
  if (listen(listen_fd, 64) < 0) {
    Status err = Status::IoError(std::string("listen: ") +
                                 std::strerror(errno));
    close(listen_fd);
    return err;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    Status err = Status::IoError(std::string("getsockname: ") +
                                 std::strerror(errno));
    close(listen_fd);
    return err;
  }
  uint16_t port = ntohs(addr.sin_port);
  int pipe_fds[2];
  if (pipe(pipe_fds) < 0) {
    Status err = Status::IoError(std::string("pipe: ") + std::strerror(errno));
    close(listen_fd);
    return err;
  }
  for (int fd : {listen_fd, pipe_fds[0], pipe_fds[1]}) {
    Status st = SetNonBlocking(fd);
    if (!st.ok()) {
      close(listen_fd);
      close(pipe_fds[0]);
      close(pipe_fds[1]);
      return st;
    }
  }
  return std::unique_ptr<ScubaServer>(new ScubaServer(
      options, deps, listen_fd, port, pipe_fds[0], pipe_fds[1]));
}

ScubaServer::ScubaServer(const ServeOptions& options, const ServerDeps& deps,
                         int listen_fd, uint16_t port, int pipe_r, int pipe_w)
    : options_(options),
      deps_(deps),
      sessions_(options, deps.registry),
      listen_fd_(listen_fd),
      port_(port),
      pipe_r_(pipe_r),
      pipe_w_(pipe_w),
      prev_time_(std::numeric_limits<Timestamp>::min()) {}

ScubaServer::~ScubaServer() {
  RequestStop();
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) close(listen_fd_);
  if (pipe_r_ >= 0) close(pipe_r_);
  if (pipe_w_ >= 0) close(pipe_w_);
}

Status ScubaServer::Start() {
  if (started_) {
    return Status::FailedPrecondition("serve: server already started");
  }
  started_ = true;
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void ScubaServer::RequestStop() {
  stop_requested_.store(true);
  if (pipe_w_ >= 0) {
    char byte = 1;
    [[maybe_unused]] ssize_t n = write(pipe_w_, &byte, 1);
  }
}

Status ScubaServer::Wait() {
  if (thread_.joinable()) thread_.join();
  return terminal_;
}

ServerStats ScubaServer::stats() const {
  const ServeMetrics& m = sessions_.metrics();
  ServerStats st;
  st.rounds = m.rounds_total.Value();
  st.batches = m.batches_total.Value();
  st.sessions_accepted = m.sessions_total.Value();
  st.deltas_pushed = m.deltas_pushed_total.Value();
  st.coalesces = m.coalesces_total.Value();
  st.disconnects = m.disconnects_total.Value();
  std::lock_guard<std::mutex> lock(stats_mu_);
  st.last_round_matches = last_round_matches_;
  st.last_round_degraded = last_round_degraded_;
  return st;
}

void ScubaServer::Loop() {
  std::vector<pollfd> fds;
  std::chrono::steady_clock::time_point drain_deadline{};
  while (true) {
    if (stop_requested_.load() && !stopping_) {
      stopping_ = true;
    }
    if (!terminal_.ok()) break;
    if (stopping_) {
      if (drain_deadline == std::chrono::steady_clock::time_point{}) {
        drain_deadline = std::chrono::steady_clock::now() + kDrainGrace;
        // Tell every connected session the server is going away, then drain.
        for (auto& [fd, session] : sessions_.sessions()) {
          (void)fd;
          if (!session->doomed()) {
            SendError(session.get(),
                      Status::FailedPrecondition("server shutting down"),
                      /*fatal=*/true);
          }
        }
      }
      bool any_queued = false;
      for (auto& [fd, session] : sessions_.sessions()) {
        (void)fd;
        if (!session->queue().empty()) any_queued = true;
      }
      if (!any_queued || std::chrono::steady_clock::now() >= drain_deadline) {
        break;
      }
    }
    fds.clear();
    fds.push_back(pollfd{pipe_r_, POLLIN, 0});
    // Stop admitting new sessions once we are draining.
    fds.push_back(pollfd{stopping_ ? -1 : listen_fd_, POLLIN, 0});
    for (auto& [fd, session] : sessions_.sessions()) {
      short events = POLLIN;
      if (!session->queue().empty()) events |= POLLOUT;
      fds.push_back(pollfd{fd, events, 0});
    }
    int n = poll(fds.data(), fds.size(), /*timeout_ms=*/100);
    if (n < 0) {
      if (errno == EINTR) continue;
      terminal_ = Status::IoError(std::string("poll: ") +
                                  std::strerror(errno));
      break;
    }
    if (fds[0].revents & POLLIN) {
      char buf[64];
      while (read(pipe_r_, buf, sizeof(buf)) > 0) {
      }
    }
    if (fds[1].revents & POLLIN) AcceptPending();
    for (size_t i = 2; i < fds.size(); ++i) {
      const int fd = fds[i].fd;
      const short revents = fds[i].revents;
      if (revents == 0) continue;
      Session* session = sessions_.Find(fd);
      if (session == nullptr) continue;
      if (revents & (POLLIN | POLLHUP | POLLERR)) {
        // POLLHUP can still carry buffered bytes; the read path sees the EOF.
        ReadSession(session);
        session = sessions_.Find(fd);  // may have closed on EOF/terminal
      }
      if (session != nullptr && !session->queue().empty()) {
        WriteSession(session);
        session = sessions_.Find(fd);
      }
      if (session != nullptr && session->doomed() &&
          session->queue().empty()) {
        CloseSession(fd);
      }
      if (!terminal_.ok()) break;
    }
  }
  if (!terminal_.ok()) {
    // Serving aborted (engine/durability failure). One best-effort farewell so
    // clients see WHY instead of a bare hangup. WriteSession closes (erases) a
    // session whose client already hung up, so never iterate the map across
    // it: snapshot the fds, then re-find each one.
    std::vector<int> farewell_fds;
    farewell_fds.reserve(sessions_.sessions().size());
    for (const auto& [fd, session] : sessions_.sessions()) {
      (void)session;
      farewell_fds.push_back(fd);
    }
    for (int fd : farewell_fds) {
      Session* session = sessions_.Find(fd);
      if (session == nullptr) continue;
      if (!session->doomed()) {
        SendError(session, terminal_, /*fatal=*/true);
      }
      WriteSession(session);
    }
  }
  while (!sessions_.sessions().empty()) {
    CloseSession(sessions_.sessions().begin()->first);
  }
}

void ScubaServer::AcceptPending() {
  while (true) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient accept failures are not terminal
    }
    if (!SetNonBlocking(fd).ok()) {
      close(fd);
      continue;
    }
    if (options_.socket_send_buffer_bytes > 0) {
      const int sndbuf = static_cast<int>(options_.socket_send_buffer_bytes);
      setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
    }
    Result<Session*> session = sessions_.Accept(fd);
    if (!session.ok()) {
      // Refused (session cap / load shedding): one best-effort error frame,
      // then hang up. The socket is fresh, so a single write almost always
      // fits the kernel buffer.
      ErrorMsg err;
      err.code = static_cast<uint32_t>(session.status().code());
      err.message = session.status().message();
      err.fatal = true;
      Result<std::string> frame = EncodeFrame(EncodeError(err));
      if (frame.ok()) {
        [[maybe_unused]] ssize_t n =
            send(fd, frame->data(), frame->size(), MSG_NOSIGNAL);
      }
      close(fd);
    }
  }
}

void ScubaServer::ReadSession(Session* session) {
  const int fd = session->fd();
  bool eof = false;
  char buf[64 * 1024];
  while (true) {
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      session->decoder().Append(std::string_view(buf, static_cast<size_t>(n)));
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    eof = true;  // connection reset etc. — treat as gone
    break;
  }
  std::string payload;
  while (!session->doomed() && terminal_.ok() && !stopping_) {
    Result<bool> frame = session->decoder().Next(&payload);
    if (!frame.ok()) {
      SendError(session, frame.status(), /*fatal=*/true);
      break;
    }
    if (!*frame) break;
    HandleMessage(session, payload);
  }
  if (eof) {
    // Client hung up. Anything still queued is undeliverable.
    CloseSession(fd);
  }
}

void ScubaServer::HandleMessage(Session* session, std::string_view payload) {
  Result<MessageType> type = PeekType(payload);
  if (!type.ok()) {
    SendError(session, type.status(), /*fatal=*/true);
    return;
  }
  if (!session->ready() && *type != MessageType::kHello &&
      *type != MessageType::kBye) {
    SendError(session,
              Status::FailedPrecondition(
                  "handshake required: send hello before " +
                  std::string(MessageTypeName(*type))),
              /*fatal=*/true);
    return;
  }
  switch (*type) {
    case MessageType::kHello: {
      HelloMsg hello;
      Status st = DecodeHello(payload, &hello);
      if (!st.ok()) {
        SendError(session, st, /*fatal=*/true);
        return;
      }
      if (hello.version != kProtocolVersion) {
        SendError(session,
                  Status::FailedPrecondition(
                      "protocol version mismatch: client " +
                      std::to_string(hello.version) + ", server " +
                      std::to_string(kProtocolVersion)),
                  /*fatal=*/true);
        return;
      }
      session->set_ready(std::move(hello.client_name));
      HelloAckMsg ack;
      ack.server_name = options_.server_name;
      ack.session_id = session->id();
      sessions_.EnqueueMessage(session, MessageType::kHelloAck,
                               EncodeHelloAck(ack));
      return;
    }
    case MessageType::kRegister: {
      RegisterMsg msg;
      Status st = DecodeRegister(payload, &msg);
      if (!st.ok()) {
        SendError(session, st, /*fatal=*/true);
        return;
      }
      const QueryId qid = msg.query.qid;
      std::vector<QueryUpdate> queries{msg.query};
      std::vector<LocationUpdate> objects;
      // Registration is out-of-band with round pacing: screened with no batch
      // floor (several sessions may register at the same stamp), WAL-logged as
      // a non-evaluating batch, ingested, then subscribed. prev_time_ is
      // untouched, so a driver's batch clock is unaffected.
      if (deps_.screen != nullptr) {
        st = deps_.screen->ScreenBatch(kNoBatchTime, &objects, &queries);
        if (!st.ok()) {
          SendError(session, st, /*fatal=*/false);
          return;
        }
        if (queries.empty()) {
          SendError(session,
                    Status::InvalidArgument(
                        "query " + std::to_string(qid) +
                        " rejected by stream screening"),
                    /*fatal=*/false);
          return;
        }
      }
      if (deps_.durability != nullptr) {
        st = deps_.durability->LogBatch(msg.query.time, /*evaluate_after=*/
                                        false, objects, queries);
        if (!st.ok()) {
          terminal_ = st;
          return;
        }
      }
      st = deps_.engine->IngestBatch(objects, queries);
      if (!st.ok()) {
        terminal_ = st;
        return;
      }
      session->Subscribe(qid);
      return;
    }
    case MessageType::kCancel: {
      CancelMsg msg;
      Status st = DecodeCancel(payload, &msg);
      if (!st.ok()) {
        SendError(session, st, /*fatal=*/true);
        return;
      }
      // Cancel narrows this session's subscription; the engine keeps the
      // query (other sessions may be subscribed, and engine-side removal is
      // not part of the QueryProcessor contract).
      session->Unsubscribe(msg.qid);
      return;
    }
    case MessageType::kSubscribe: {
      SubscribeMsg msg;
      Status st = DecodeSubscribe(payload, &msg);
      if (!st.ok()) {
        SendError(session, st, /*fatal=*/true);
        return;
      }
      if (msg.all) session->SubscribeAll();
      for (QueryId qid : msg.qids) session->Subscribe(qid);
      // Ack with a snapshot of the session's cursor state. This makes
      // subscribing synchronous on the client (no race between a subscribe
      // frame and another session's batch closing a round) and hands a late
      // subscriber its fold base; round continuity is untouched because the
      // snapshot carries the cursor's round, not the global one.
      SnapshotMsg snap;
      snap.round = session->tracker().rounds();
      snap.time = session->tracker().time();
      snap.coalesced = false;
      const ResultSet& current = session->tracker().Current();
      snap.matches = current.matches();
      snap.degraded_shards = current.degraded_shards();
      sessions_.EnqueueMessage(session, MessageType::kSnapshot,
                               EncodeSnapshot(snap));
      return;
    }
    case MessageType::kUpdateBatch: {
      UpdateBatchMsg msg;
      Status st = DecodeUpdateBatch(payload, &msg);
      if (!st.ok()) {
        SendError(session, st, /*fatal=*/true);
        return;
      }
      st = HandleBatch(session, msg.time, msg.evaluate, &msg.objects,
                       &msg.queries);
      if (!st.ok()) terminal_ = st;
      return;
    }
    case MessageType::kTick: {
      TickMsg msg;
      Status st = DecodeTick(payload, &msg);
      if (!st.ok()) {
        SendError(session, st, /*fatal=*/true);
        return;
      }
      std::vector<LocationUpdate> objects;
      std::vector<QueryUpdate> queries;
      st = HandleBatch(session, msg.time, /*evaluate=*/true, &objects,
                       &queries);
      if (!st.ok()) terminal_ = st;
      return;
    }
    case MessageType::kBye:
      session->set_doomed();
      return;
    case MessageType::kShutdown:
      stopping_ = true;
      return;
    case MessageType::kHelloAck:
    case MessageType::kTickAck:
    case MessageType::kDelta:
    case MessageType::kSnapshot:
    case MessageType::kError:
      SendError(session,
                Status::InvalidArgument(
                    std::string(MessageTypeName(*type)) +
                    " is a server-to-client message"),
                /*fatal=*/true);
      return;
  }
  SendError(session,
            Status::Unimplemented("unhandled message type " +
                                  std::to_string(static_cast<int>(*type))),
            /*fatal=*/true);
}

Status ScubaServer::HandleBatch(Session* session, Timestamp time,
                                bool evaluate,
                                std::vector<LocationUpdate>* objects,
                                std::vector<QueryUpdate>* queries) {
  // Mirror of ReplayTrace's batch step (src/stream/pipeline.cc): the same
  // strictly-increasing time contract, the same screen → log → ingest →
  // evaluate order — this is what makes a served trace reproduce the offline
  // replay bit-for-bit.
  Timestamp batch_time = time;
  const bool resync =
      deps_.screen != nullptr &&
      deps_.screen->config().policy == BadUpdatePolicy::kRepair;
  if (batch_time <= prev_time_) {
    if (!resync) {
      // The batch never reached the WAL or the engine, so rejecting only it
      // (not the whole server, unlike an offline replay abort) keeps state
      // exactly aligned with a replay of the accepted prefix.
      SendError(session,
                Status::FailedPrecondition(
                    "batch time " + std::to_string(batch_time) +
                    " does not advance past " + std::to_string(prev_time_)),
                /*fatal=*/false);
      return Status::OK();
    }
    batch_time = prev_time_ + 1;
  }
  if (deps_.screen != nullptr) {
    Status st = deps_.screen->ScreenBatch(batch_time, objects, queries);
    if (!st.ok()) {
      // Strict screening: the tuple's tagged error goes to the sender and the
      // batch is rejected whole, before any durable or engine effect.
      SendError(session, st, /*fatal=*/false);
      return Status::OK();
    }
  }
  if (deps_.durability != nullptr) {
    SCUBA_RETURN_IF_ERROR(deps_.durability->LogBatch(batch_time, evaluate,
                                                     *objects, *queries));
  }
  SCUBA_RETURN_IF_ERROR(deps_.engine->IngestBatch(*objects, *queries));
  prev_time_ = batch_time;
  sessions_.metrics().batches_total.Increment();
  if (evaluate) return RunRound(session, batch_time);
  return Status::OK();
}

Status ScubaServer::RunRound(Session* driver, Timestamp now) {
  SCUBA_RETURN_IF_ERROR(deps_.engine->Evaluate(now, &results_));
  ++rounds_;
  // Push deltas first (the ResultSink analogue), then ack the driver: a
  // driver that is also subscribed sees its own delta before the tick-ack.
  sessions_.PushRound(rounds_, now, results_);
  TickAckMsg ack;
  ack.round = rounds_;
  ack.time = now;
  ack.matches = results_.size();
  ack.degraded = results_.degraded();
  sessions_.EnqueueMessage(driver, MessageType::kTickAck, EncodeTickAck(ack));
  if (deps_.durability != nullptr) {
    SCUBA_RETURN_IF_ERROR(deps_.durability->OnRoundComplete());
  }
  sessions_.ObservePressure(deps_.engine->EstimateMemoryUsage());
  std::lock_guard<std::mutex> lock(stats_mu_);
  last_round_matches_ = results_.size();
  last_round_degraded_ = results_.degraded();
  return Status::OK();
}

void ScubaServer::WriteSession(Session* session) {
  const int fd = session->fd();
  while (!session->queue().empty()) {
    const OutFrame& head = session->queue().front();
    const size_t offset = session->write_offset;
    ssize_t n = send(fd, head.bytes.data() + offset,
                     head.bytes.size() - offset, MSG_NOSIGNAL);
    if (n > 0) {
      sessions_.ConsumeWritten(session, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    CloseSession(fd);  // broken pipe / reset: the client is gone
    return;
  }
}

void ScubaServer::SendError(Session* session, const Status& error,
                            bool fatal) {
  ErrorMsg msg;
  msg.code = static_cast<uint32_t>(error.code());
  msg.message = error.message();
  msg.fatal = fatal;
  sessions_.EnqueueMessage(session, MessageType::kError, EncodeError(msg));
  if (fatal) session->set_doomed();
}

void ScubaServer::CloseSession(int fd) {
  sessions_.Close(fd);
  close(fd);
}

}  // namespace scuba::serve
