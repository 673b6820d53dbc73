#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace scuba::serve {
namespace {

/// A server-sent ErrorMsg reconstituted as a typed Status.
Status StatusFromError(const ErrorMsg& err) {
  return Status(static_cast<StatusCode>(err.code), err.message);
}

}  // namespace

Result<ScubaClient> ScubaClient::Connect(uint16_t port,
                                         const Options& options) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  if (options.recv_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = options.recv_timeout_ms / 1000;
    tv.tv_usec = (options.recv_timeout_ms % 1000) * 1000;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  // Batches and subscribes are small writes followed by a blocking wait for
  // the reply; Nagle would hold them behind the server's delayed ACK.
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options.recv_buffer_bytes > 0) {
    const int rcvbuf = static_cast<int>(options.recv_buffer_bytes);
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status err = Status::IoError(std::string("connect 127.0.0.1:") +
                                 std::to_string(port) + ": " +
                                 std::strerror(errno));
    close(fd);
    return err;
  }
  ScubaClient client;
  client.fd_ = fd;
  HelloMsg hello;
  hello.client_name = options.name;
  Status st = client.SendMessage(EncodeHello(hello));
  if (!st.ok()) return st;
  // The handshake reply must be the hello-ack — but the very first frame can
  // legally be an error (admission refused, version mismatch).
  std::string payload;
  st = client.ReadFrame(&payload);
  if (!st.ok()) return st;
  Result<MessageType> type = PeekType(payload);
  if (!type.ok()) return type.status();
  if (*type == MessageType::kError) {
    ErrorMsg err;
    SCUBA_RETURN_IF_ERROR(DecodeError(payload, &err));
    return StatusFromError(err);
  }
  if (*type != MessageType::kHelloAck) {
    return Status::FailedPrecondition(
        "handshake: expected hello-ack, got " +
        std::string(MessageTypeName(*type)));
  }
  HelloAckMsg ack;
  SCUBA_RETURN_IF_ERROR(DecodeHelloAck(payload, &ack));
  if (ack.version != kProtocolVersion) {
    return Status::FailedPrecondition(
        "protocol version mismatch: server " + std::to_string(ack.version) +
        ", client " + std::to_string(kProtocolVersion));
  }
  client.session_id_ = ack.session_id;
  client.server_name_ = ack.server_name;
  return client;
}

ScubaClient::ScubaClient(ScubaClient&& other) noexcept {
  *this = std::move(other);
}

ScubaClient& ScubaClient::operator=(ScubaClient&& other) noexcept {
  if (this == &other) return *this;
  if (fd_ >= 0) close(fd_);
  fd_ = std::exchange(other.fd_, -1);
  session_id_ = other.session_id_;
  server_name_ = std::move(other.server_name_);
  decoder_ = std::move(other.decoder_);
  folded_ = std::move(other.folded_);
  last_round_ = other.last_round_;
  last_time_ = other.last_time_;
  deltas_received_ = other.deltas_received_;
  snapshots_received_ = other.snapshots_received_;
  coalesced_snapshots_ = other.coalesced_snapshots_;
  result_bytes_received_ = other.result_bytes_received_;
  delta_matches_received_ = other.delta_matches_received_;
  return *this;
}

ScubaClient::~ScubaClient() {
  if (fd_ >= 0) close(fd_);
}

Status ScubaClient::SendMessage(std::string_view payload) {
  Result<std::string> frame = EncodeFrame(payload);
  SCUBA_RETURN_IF_ERROR(frame.status());
  return SendFrame(std::move(*frame));
}

Status ScubaClient::SendFrame(std::string frame) {
  size_t sent = 0;
  while (sent < frame.size()) {
    ssize_t n = send(fd_, frame.data() + sent, frame.size() - sent,
                     MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ScubaClient::ReadFrame(std::string* payload) {
  while (true) {
    Result<bool> frame = decoder_.Next(payload);
    SCUBA_RETURN_IF_ERROR(frame.status());
    if (*frame) return Status::OK();
    char buf[64 * 1024];
    ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      decoder_.Append(std::string_view(buf, static_cast<size_t>(n)));
      continue;
    }
    if (n == 0) {
      return Status::IoError("server closed the connection");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::IoError("timed out waiting for a server frame");
    }
    return Status::IoError(std::string("recv: ") + std::strerror(errno));
  }
}

Status ScubaClient::FoldDelta(std::string_view payload) {
  ResultDelta delta;
  SCUBA_RETURN_IF_ERROR(DecodeDelta(payload, &delta));
  // Deltas are a dense per-session sequence; a gap means a dropped frame and
  // an unusable fold (only a coalesced snapshot may jump rounds).
  if (delta.round != last_round_ + 1) {
    return Status::DataLoss("delta round " + std::to_string(delta.round) +
                            " does not follow folded round " +
                            std::to_string(last_round_));
  }
  folded_ = ApplyDelta(folded_, delta);
  last_round_ = delta.round;
  last_time_ = delta.time;
  ++deltas_received_;
  result_bytes_received_ += payload.size();
  delta_matches_received_ += delta.size();
  return Status::OK();
}

Status ScubaClient::FoldSnapshot(std::string_view payload) {
  SnapshotMsg snap;
  SCUBA_RETURN_IF_ERROR(DecodeSnapshot(payload, &snap));
  ResultSet next;
  next.Reserve(snap.matches.size());
  for (const Match& m : snap.matches) next.Add(m.qid, m.oid);
  for (uint32_t s : snap.degraded_shards) next.MarkDegraded(s);
  folded_ = std::move(next);
  last_round_ = snap.round;
  last_time_ = snap.time;
  ++snapshots_received_;
  if (snap.coalesced) ++coalesced_snapshots_;
  result_bytes_received_ += payload.size();
  return Status::OK();
}

Status ScubaClient::HandlePush(std::string_view payload, MessageType type,
                               bool* handled_result) {
  *handled_result = false;
  switch (type) {
    case MessageType::kDelta:
      *handled_result = true;
      return FoldDelta(payload);
    case MessageType::kSnapshot:
      *handled_result = true;
      return FoldSnapshot(payload);
    case MessageType::kError: {
      ErrorMsg err;
      SCUBA_RETURN_IF_ERROR(DecodeError(payload, &err));
      return StatusFromError(err);
    }
    default:
      return Status::FailedPrecondition(
          "unexpected server message: " +
          std::string(MessageTypeName(type)));
  }
}

Status ScubaClient::Register(const QueryUpdate& query) {
  RegisterMsg msg;
  msg.query = query;
  return SendMessage(EncodeRegister(msg));
}

Status ScubaClient::Cancel(QueryId qid) {
  CancelMsg msg;
  msg.qid = qid;
  return SendMessage(EncodeCancel(msg));
}

Status ScubaClient::SubscribeAll() {
  SubscribeMsg msg;
  msg.all = true;
  return SendSubscribe(msg);
}

Status ScubaClient::Subscribe(const std::vector<QueryId>& qids) {
  SubscribeMsg msg;
  msg.qids = qids;
  return SendSubscribe(msg);
}

Status ScubaClient::SendSubscribe(const SubscribeMsg& msg) {
  SCUBA_RETURN_IF_ERROR(SendMessage(EncodeSubscribe(msg)));
  // Block for the subscribe-ack snapshot (the session's cursor state, our
  // fold base). Once it arrives the server has installed the subscription,
  // so no round closed by another session can slip past unobserved. Earlier
  // in-flight pushes fold on the way.
  std::string payload;
  while (true) {
    SCUBA_RETURN_IF_ERROR(ReadFrame(&payload));
    Result<MessageType> type = PeekType(payload);
    SCUBA_RETURN_IF_ERROR(type.status());
    bool handled = false;
    SCUBA_RETURN_IF_ERROR(HandlePush(payload, *type, &handled));
    if (*type == MessageType::kSnapshot) return Status::OK();
  }
}

Result<TickAckMsg> ScubaClient::SendBatch(const UpdateBatchMsg& batch) {
  Result<std::string> frame = EncodeUpdateBatchFrame(batch);
  SCUBA_RETURN_IF_ERROR(frame.status());
  SCUBA_RETURN_IF_ERROR(SendFrame(std::move(*frame)));
  if (!batch.evaluate) return TickAckMsg{};
  // Block for the round's ack; our own delta (if subscribed) arrives first
  // and folds on the way.
  std::string payload;
  while (true) {
    SCUBA_RETURN_IF_ERROR(ReadFrame(&payload));
    Result<MessageType> type = PeekType(payload);
    SCUBA_RETURN_IF_ERROR(type.status());
    if (*type == MessageType::kTickAck) {
      TickAckMsg ack;
      SCUBA_RETURN_IF_ERROR(DecodeTickAck(payload, &ack));
      return ack;
    }
    bool handled = false;
    SCUBA_RETURN_IF_ERROR(HandlePush(payload, *type, &handled));
  }
}

Result<TickAckMsg> ScubaClient::Tick(Timestamp time) {
  UpdateBatchMsg batch;
  batch.time = time;
  batch.evaluate = true;
  return SendBatch(batch);
}

Result<uint64_t> ScubaClient::PumpRound() {
  std::string payload;
  while (true) {
    SCUBA_RETURN_IF_ERROR(ReadFrame(&payload));
    Result<MessageType> type = PeekType(payload);
    SCUBA_RETURN_IF_ERROR(type.status());
    bool handled = false;
    SCUBA_RETURN_IF_ERROR(HandlePush(payload, *type, &handled));
    if (handled) return last_round_;
  }
}

Status ScubaClient::PumpUntilRound(uint64_t round) {
  while (last_round_ < round) {
    SCUBA_RETURN_IF_ERROR(PumpRound().status());
  }
  return Status::OK();
}

Status ScubaClient::Bye() { return SendMessage(EncodeBye()); }

Status ScubaClient::Shutdown() { return SendMessage(EncodeShutdown()); }

}  // namespace scuba::serve
