#include "serve/protocol.h"

#include <cstring>

namespace scuba::serve {
namespace {

void PutLocationUpdate(ByteWriter* w, const LocationUpdate& u) {
  w->PutU32(u.oid);
  w->PutDouble(u.position.x);
  w->PutDouble(u.position.y);
  w->PutI64(u.time);
  w->PutDouble(u.speed);
  w->PutU32(u.dest_node);
  w->PutDouble(u.dest_position.x);
  w->PutDouble(u.dest_position.y);
  w->PutU64(u.attrs);
}

Status GetLocationUpdate(ByteReader* r, LocationUpdate* u) {
  SCUBA_RETURN_IF_ERROR(r->GetU32(&u->oid));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->position.x));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->position.y));
  SCUBA_RETURN_IF_ERROR(r->GetI64(&u->time));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->speed));
  SCUBA_RETURN_IF_ERROR(r->GetU32(&u->dest_node));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->dest_position.x));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->dest_position.y));
  return r->GetU64(&u->attrs);
}

void PutQueryUpdate(ByteWriter* w, const QueryUpdate& u) {
  w->PutU32(u.qid);
  w->PutDouble(u.position.x);
  w->PutDouble(u.position.y);
  w->PutI64(u.time);
  w->PutDouble(u.speed);
  w->PutU32(u.dest_node);
  w->PutDouble(u.dest_position.x);
  w->PutDouble(u.dest_position.y);
  w->PutDouble(u.range_width);
  w->PutDouble(u.range_height);
  w->PutU64(u.attrs);
  w->PutU64(u.required_attrs);
}

Status GetQueryUpdate(ByteReader* r, QueryUpdate* u) {
  SCUBA_RETURN_IF_ERROR(r->GetU32(&u->qid));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->position.x));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->position.y));
  SCUBA_RETURN_IF_ERROR(r->GetI64(&u->time));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->speed));
  SCUBA_RETURN_IF_ERROR(r->GetU32(&u->dest_node));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->dest_position.x));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->dest_position.y));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->range_width));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->range_height));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&u->attrs));
  return r->GetU64(&u->required_attrs);
}

/// Per-element minimum encoded sizes, used to bound hostile count prefixes
/// before reserving (an element cannot encode smaller than this).
constexpr uint64_t kLocationUpdateBytes = 60;
constexpr uint64_t kQueryUpdateBytes = 84;

Status CheckCount(uint64_t n, uint64_t element_bytes, size_t remaining,
                  const char* what) {
  // Divide, never multiply: a hostile 2^63-ish count must not overflow.
  if (n > remaining / element_bytes) {
    return Status::DataLoss(std::string(what) + " count " + std::to_string(n) +
                            " overruns the remaining payload");
  }
  return Status::OK();
}

ByteWriter BeginPayload(MessageType type) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(type));
  return w;
}

/// Starts a frame in one buffer: the header is reserved (zeros) and patched
/// by FinishFrame once the body is written, so the payload is never copied.
/// `payload_bytes` sizes the buffer (exact for the fixed-layout messages).
ByteWriter BeginFrame(MessageType type, size_t payload_bytes) {
  ByteWriter w;
  w.Reserve(kFrameHeaderBytes + payload_bytes);
  w.PutU32(0);
  w.PutU32(0);
  w.PutU8(static_cast<uint8_t>(type));
  return w;
}

Result<std::string> FinishFrame(ByteWriter w) {
  const std::string_view payload =
      std::string_view(w.bytes()).substr(kFrameHeaderBytes);
  SCUBA_RETURN_IF_ERROR(CheckFramePayload(payload.size()));
  w.PatchU32(sizeof(uint32_t), Crc32(payload));
  w.PatchU32(0, static_cast<uint32_t>(payload.size()));
  return w.Release();
}

void PutSnapshotBody(ByteWriter* w, uint64_t round, Timestamp time,
                     bool coalesced,
                     const std::vector<uint32_t>& degraded_shards,
                     const std::vector<Match>& matches) {
  w->PutU64(round);
  w->PutI64(time);
  w->PutBool(coalesced);
  w->PutU64(degraded_shards.size());
  for (uint32_t s : degraded_shards) w->PutU32(s);
  SaveMatches(matches, w);
}

void PutUpdateBatchBody(ByteWriter* w, const UpdateBatchMsg& msg) {
  w->PutI64(msg.time);
  w->PutBool(msg.evaluate);
  w->PutU64(msg.objects.size());
  for (const LocationUpdate& u : msg.objects) PutLocationUpdate(w, u);
  w->PutU64(msg.queries.size());
  for (const QueryUpdate& u : msg.queries) PutQueryUpdate(w, u);
}

/// Exact framed size of a snapshot of `matches` matches carrying
/// `degraded_shards` shard indices.
size_t SnapshotFrameBytes(size_t degraded_shards, size_t matches) {
  // type | round | time | coalesced | shard count | shards | match count |
  // matches
  return kFrameHeaderBytes + 1 + 2 * sizeof(uint64_t) + 1 +
         2 * sizeof(uint64_t) + degraded_shards * sizeof(uint32_t) +
         matches * sizeof(Match);
}

/// Checks the type byte and hands back a reader positioned at the body.
Result<ByteReader> BeginDecode(std::string_view payload, MessageType want) {
  ByteReader r(payload);
  uint8_t type = 0;
  SCUBA_RETURN_IF_ERROR(r.GetU8(&type));
  if (type != static_cast<uint8_t>(want)) {
    return Status::InvalidArgument(
        std::string("payload is not a ") +
        std::string(MessageTypeName(want)) + " message (type byte " +
        std::to_string(type) + ")");
  }
  return r;
}

/// Trailing bytes after a complete body mean the encoder and decoder disagree
/// about the message layout — reject rather than silently ignore.
Status FinishDecode(const ByteReader& r) {
  if (!r.AtEnd()) {
    return Status::Corruption(std::to_string(r.Remaining()) +
                              " trailing bytes after message body");
  }
  return Status::OK();
}

}  // namespace

std::string_view MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kHello: return "hello";
    case MessageType::kHelloAck: return "hello-ack";
    case MessageType::kRegister: return "register";
    case MessageType::kCancel: return "cancel";
    case MessageType::kSubscribe: return "subscribe";
    case MessageType::kUpdateBatch: return "update-batch";
    case MessageType::kTick: return "tick";
    case MessageType::kTickAck: return "tick-ack";
    case MessageType::kDelta: return "delta";
    case MessageType::kSnapshot: return "snapshot";
    case MessageType::kError: return "error";
    case MessageType::kBye: return "bye";
    case MessageType::kShutdown: return "shutdown";
  }
  return "unknown";
}

Status CheckFramePayload(size_t payload_bytes) {
  // Checked before the u32 cast: an oversized payload would both truncate the
  // length prefix and (if sent) poison the receiving decoder, which treats a
  // too-large prefix as a sticky fatal error.
  if (payload_bytes > kMaxFramePayload) {
    return Status::ResourceExhausted(
        "frame payload of " + std::to_string(payload_bytes) +
        " bytes exceeds the " + std::to_string(kMaxFramePayload) +
        "-byte frame cap");
  }
  return Status::OK();
}

Result<std::string> EncodeFrame(std::string_view payload) {
  SCUBA_RETURN_IF_ERROR(CheckFramePayload(payload.size()));
  ByteWriter w;
  w.Reserve(kFrameHeaderBytes + payload.size());
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU32(Crc32(payload));
  w.PutRawBytes(payload);
  return w.Release();
}

size_t DeltaFrameBytes(const ResultDelta& delta) {
  return kFrameHeaderBytes + 1 + delta.SavedBytes();
}

Result<std::string> EncodeDeltaFrame(const ResultDelta& delta) {
  const size_t bytes = DeltaFrameBytes(delta);
  SCUBA_RETURN_IF_ERROR(CheckFramePayload(bytes - kFrameHeaderBytes));
  ByteWriter w = BeginFrame(MessageType::kDelta, bytes - kFrameHeaderBytes);
  delta.Save(&w);
  return FinishFrame(std::move(w));
}

Result<std::string> EncodeSnapshotFrame(uint64_t round, Timestamp time,
                                        bool coalesced, const ResultSet& set) {
  const size_t bytes =
      SnapshotFrameBytes(set.degraded_shards().size(), set.size());
  SCUBA_RETURN_IF_ERROR(CheckFramePayload(bytes - kFrameHeaderBytes));
  ByteWriter w = BeginFrame(MessageType::kSnapshot, bytes - kFrameHeaderBytes);
  PutSnapshotBody(&w, round, time, coalesced, set.degraded_shards(),
                  set.matches());
  return FinishFrame(std::move(w));
}

Result<std::string> EncodeUpdateBatchFrame(const UpdateBatchMsg& msg) {
  // type | time | evaluate | object count | objects | query count | queries;
  // a location update encodes in 64 bytes, a query update in 88.
  ByteWriter w = BeginFrame(MessageType::kUpdateBatch,
                            1 + 8 + 1 + 8 + 64 * msg.objects.size() + 8 +
                                88 * msg.queries.size());
  PutUpdateBatchBody(&w, msg);
  return FinishFrame(std::move(w));
}

void FrameDecoder::Append(std::string_view bytes) {
  if (!error_.ok()) return;  // poisoned: don't buffer unboundedly
  if (head_ == buf_.size()) {
    buf_.clear();
    head_ = 0;
  } else if (head_ > buf_.size() / 2) {
    // Consumed frames are dropped lazily: one move per buffer's worth of
    // consumption instead of one per frame.
    buf_.erase(0, head_);
    head_ = 0;
  }
  buf_.append(bytes.data(), bytes.size());
}

Result<bool> FrameDecoder::Next(std::string* payload) {
  if (!error_.ok()) return error_;
  const std::string_view pending = std::string_view(buf_).substr(head_);
  if (pending.size() < kFrameHeaderBytes) return false;
  uint32_t len = 0;
  uint32_t crc = 0;
  std::memcpy(&len, pending.data(), sizeof(len));
  std::memcpy(&crc, pending.data() + sizeof(len), sizeof(crc));
  if (len > kMaxFramePayload) {
    error_ = Status::ResourceExhausted(
        "frame length prefix " + std::to_string(len) + " exceeds the " +
        std::to_string(kMaxFramePayload) + "-byte frame cap");
    return error_;
  }
  if (pending.size() < kFrameHeaderBytes + len) return false;
  const std::string_view body = pending.substr(kFrameHeaderBytes, len);
  if (Crc32(body) != crc) {
    error_ = Status::Corruption("frame CRC mismatch");
    return error_;
  }
  payload->assign(body);
  head_ += kFrameHeaderBytes + len;
  return true;
}

Result<MessageType> PeekType(std::string_view payload) {
  if (payload.empty()) return Status::DataLoss("empty message payload");
  const uint8_t type = static_cast<uint8_t>(payload[0]);
  if (type < static_cast<uint8_t>(MessageType::kHello) ||
      type > static_cast<uint8_t>(MessageType::kShutdown)) {
    return Status::Unimplemented("unknown message type " +
                                 std::to_string(type));
  }
  return static_cast<MessageType>(type);
}

std::string EncodeHello(const HelloMsg& msg) {
  ByteWriter w = BeginPayload(MessageType::kHello);
  w.PutU32(msg.version);
  w.PutString(msg.client_name);
  return w.Release();
}

Status DecodeHello(std::string_view payload, HelloMsg* msg) {
  Result<ByteReader> r = BeginDecode(payload, MessageType::kHello);
  if (!r.ok()) return r.status();
  SCUBA_RETURN_IF_ERROR(r->GetU32(&msg->version));
  SCUBA_RETURN_IF_ERROR(r->GetString(&msg->client_name));
  return FinishDecode(*r);
}

std::string EncodeHelloAck(const HelloAckMsg& msg) {
  ByteWriter w = BeginPayload(MessageType::kHelloAck);
  w.PutU32(msg.version);
  w.PutString(msg.server_name);
  w.PutU32(msg.session_id);
  return w.Release();
}

Status DecodeHelloAck(std::string_view payload, HelloAckMsg* msg) {
  Result<ByteReader> r = BeginDecode(payload, MessageType::kHelloAck);
  if (!r.ok()) return r.status();
  SCUBA_RETURN_IF_ERROR(r->GetU32(&msg->version));
  SCUBA_RETURN_IF_ERROR(r->GetString(&msg->server_name));
  SCUBA_RETURN_IF_ERROR(r->GetU32(&msg->session_id));
  return FinishDecode(*r);
}

std::string EncodeRegister(const RegisterMsg& msg) {
  ByteWriter w = BeginPayload(MessageType::kRegister);
  PutQueryUpdate(&w, msg.query);
  return w.Release();
}

Status DecodeRegister(std::string_view payload, RegisterMsg* msg) {
  Result<ByteReader> r = BeginDecode(payload, MessageType::kRegister);
  if (!r.ok()) return r.status();
  SCUBA_RETURN_IF_ERROR(GetQueryUpdate(&*r, &msg->query));
  return FinishDecode(*r);
}

std::string EncodeCancel(const CancelMsg& msg) {
  ByteWriter w = BeginPayload(MessageType::kCancel);
  w.PutU32(msg.qid);
  return w.Release();
}

Status DecodeCancel(std::string_view payload, CancelMsg* msg) {
  Result<ByteReader> r = BeginDecode(payload, MessageType::kCancel);
  if (!r.ok()) return r.status();
  SCUBA_RETURN_IF_ERROR(r->GetU32(&msg->qid));
  return FinishDecode(*r);
}

std::string EncodeSubscribe(const SubscribeMsg& msg) {
  ByteWriter w = BeginPayload(MessageType::kSubscribe);
  w.PutBool(msg.all);
  w.PutU64(msg.qids.size());
  for (QueryId q : msg.qids) w.PutU32(q);
  return w.Release();
}

Status DecodeSubscribe(std::string_view payload, SubscribeMsg* msg) {
  Result<ByteReader> r = BeginDecode(payload, MessageType::kSubscribe);
  if (!r.ok()) return r.status();
  SCUBA_RETURN_IF_ERROR(r->GetBool(&msg->all));
  uint64_t n = 0;
  SCUBA_RETURN_IF_ERROR(r->GetU64(&n));
  SCUBA_RETURN_IF_ERROR(CheckCount(n, 4, r->Remaining(), "subscribe qid"));
  msg->qids.clear();
  msg->qids.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    QueryId q = 0;
    SCUBA_RETURN_IF_ERROR(r->GetU32(&q));
    msg->qids.push_back(q);
  }
  return FinishDecode(*r);
}

std::string EncodeUpdateBatch(const UpdateBatchMsg& msg) {
  ByteWriter w = BeginPayload(MessageType::kUpdateBatch);
  PutUpdateBatchBody(&w, msg);
  return w.Release();
}

Status DecodeUpdateBatch(std::string_view payload, UpdateBatchMsg* msg) {
  Result<ByteReader> r = BeginDecode(payload, MessageType::kUpdateBatch);
  if (!r.ok()) return r.status();
  SCUBA_RETURN_IF_ERROR(r->GetI64(&msg->time));
  SCUBA_RETURN_IF_ERROR(r->GetBool(&msg->evaluate));
  uint64_t n = 0;
  SCUBA_RETURN_IF_ERROR(r->GetU64(&n));
  SCUBA_RETURN_IF_ERROR(
      CheckCount(n, kLocationUpdateBytes, r->Remaining(), "object update"));
  msg->objects.clear();
  msg->objects.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    LocationUpdate u;
    SCUBA_RETURN_IF_ERROR(GetLocationUpdate(&*r, &u));
    msg->objects.push_back(u);
  }
  SCUBA_RETURN_IF_ERROR(r->GetU64(&n));
  SCUBA_RETURN_IF_ERROR(
      CheckCount(n, kQueryUpdateBytes, r->Remaining(), "query update"));
  msg->queries.clear();
  msg->queries.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    QueryUpdate u;
    SCUBA_RETURN_IF_ERROR(GetQueryUpdate(&*r, &u));
    msg->queries.push_back(u);
  }
  return FinishDecode(*r);
}

std::string EncodeTick(const TickMsg& msg) {
  ByteWriter w = BeginPayload(MessageType::kTick);
  w.PutI64(msg.time);
  return w.Release();
}

Status DecodeTick(std::string_view payload, TickMsg* msg) {
  Result<ByteReader> r = BeginDecode(payload, MessageType::kTick);
  if (!r.ok()) return r.status();
  SCUBA_RETURN_IF_ERROR(r->GetI64(&msg->time));
  return FinishDecode(*r);
}

std::string EncodeTickAck(const TickAckMsg& msg) {
  ByteWriter w = BeginPayload(MessageType::kTickAck);
  w.PutU64(msg.round);
  w.PutI64(msg.time);
  w.PutU64(msg.matches);
  w.PutBool(msg.degraded);
  return w.Release();
}

Status DecodeTickAck(std::string_view payload, TickAckMsg* msg) {
  Result<ByteReader> r = BeginDecode(payload, MessageType::kTickAck);
  if (!r.ok()) return r.status();
  SCUBA_RETURN_IF_ERROR(r->GetU64(&msg->round));
  SCUBA_RETURN_IF_ERROR(r->GetI64(&msg->time));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&msg->matches));
  SCUBA_RETURN_IF_ERROR(r->GetBool(&msg->degraded));
  return FinishDecode(*r);
}

std::string EncodeDelta(const ResultDelta& delta) {
  ByteWriter w = BeginPayload(MessageType::kDelta);
  delta.Save(&w);
  return w.Release();
}

Status DecodeDelta(std::string_view payload, ResultDelta* delta) {
  Result<ByteReader> r = BeginDecode(payload, MessageType::kDelta);
  if (!r.ok()) return r.status();
  SCUBA_RETURN_IF_ERROR(ResultDelta::Load(&*r, delta));
  return FinishDecode(*r);
}

std::string EncodeSnapshot(const SnapshotMsg& msg) {
  ByteWriter w = BeginPayload(MessageType::kSnapshot);
  PutSnapshotBody(&w, msg.round, msg.time, msg.coalesced,
                  msg.degraded_shards, msg.matches);
  return w.Release();
}

Status DecodeSnapshot(std::string_view payload, SnapshotMsg* msg) {
  Result<ByteReader> r = BeginDecode(payload, MessageType::kSnapshot);
  if (!r.ok()) return r.status();
  SCUBA_RETURN_IF_ERROR(r->GetU64(&msg->round));
  SCUBA_RETURN_IF_ERROR(r->GetI64(&msg->time));
  SCUBA_RETURN_IF_ERROR(r->GetBool(&msg->coalesced));
  uint64_t shards = 0;
  SCUBA_RETURN_IF_ERROR(r->GetU64(&shards));
  SCUBA_RETURN_IF_ERROR(
      CheckCount(shards, 4, r->Remaining(), "degraded shard"));
  msg->degraded_shards.clear();
  msg->degraded_shards.reserve(static_cast<size_t>(shards));
  for (uint64_t i = 0; i < shards; ++i) {
    uint32_t s = 0;
    SCUBA_RETURN_IF_ERROR(r->GetU32(&s));
    msg->degraded_shards.push_back(s);
  }
  SCUBA_RETURN_IF_ERROR(LoadMatches(&*r, "snapshot match", &msg->matches));
  return FinishDecode(*r);
}

std::string EncodeError(const ErrorMsg& msg) {
  ByteWriter w = BeginPayload(MessageType::kError);
  w.PutU32(msg.code);
  w.PutString(msg.message);
  w.PutBool(msg.fatal);
  return w.Release();
}

Status DecodeError(std::string_view payload, ErrorMsg* msg) {
  Result<ByteReader> r = BeginDecode(payload, MessageType::kError);
  if (!r.ok()) return r.status();
  SCUBA_RETURN_IF_ERROR(r->GetU32(&msg->code));
  SCUBA_RETURN_IF_ERROR(r->GetString(&msg->message));
  SCUBA_RETURN_IF_ERROR(r->GetBool(&msg->fatal));
  return FinishDecode(*r);
}

std::string EncodeBye() {
  return BeginPayload(MessageType::kBye).Release();
}

std::string EncodeShutdown() {
  return BeginPayload(MessageType::kShutdown).Release();
}

}  // namespace scuba::serve
