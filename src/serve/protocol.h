// Wire protocol for the subscription serving front-end
// (docs/ARCHITECTURE.md §14).
//
// Two layers, both built from the common Serializer vocabulary:
//
//  *Frame layer* — every message travels as
//      u32 payload_len | u32 crc32(payload) | payload
//  (little-endian), the same length-prefix + CRC discipline the WAL uses for
//  its records. A frame whose CRC mismatches, whose length prefix exceeds
//  kMaxFramePayload, or whose payload is torn yields a typed error — never
//  undefined behavior — and poisons the stream (there is no resync; the
//  connection must be dropped).
//
//  *Message layer* — the payload is one type byte followed by the message
//  body. The protocol is versioned by kProtocolVersion, negotiated in
//  hello/hello-ack; a server refuses a client speaking a different version.
//
// Messages (client → server unless noted):
//   kHello / kHelloAck(s→c)  version handshake; ack carries the session id
//   kRegister                ingest one continuous query + subscribe to it
//   kCancel                  unsubscribe a query id
//   kSubscribe               widen the subscription set ({all} or query ids);
//                            acked with a kSnapshot of the session's cursor
//                            state, so subscribing is synchronous
//   kUpdateBatch             one tick batch {time, evaluate, objects, queries}
//   kTick                    evaluate-only heartbeat (empty batch)
//   kTickAck(s→c)            round summary for the session that drove it
//   kDelta(s→c)              per-session ResultDelta push (the results API)
//   kSnapshot(s→c)           full-set fallback (slow-consumer coalescing)
//   kError(s→c)              StatusCode + message; fatal errors close
//   kBye                     clean client disconnect
//   kShutdown                stop the server (loopback tooling/CI)

#ifndef SCUBA_SERVE_PROTOCOL_H_
#define SCUBA_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/serializer.h"
#include "common/status.h"
#include "core/result_delta.h"
#include "gen/update.h"

namespace scuba::serve {

/// Bumped on any incompatible frame/message change. v1: initial protocol.
inline constexpr uint32_t kProtocolVersion = 1;

/// Frame header: u32 payload length + u32 CRC32 of the payload.
inline constexpr size_t kFrameHeaderBytes = 2 * sizeof(uint32_t);

/// Upper bound on a single frame's payload. Large enough for a full-result
/// snapshot of millions of matches; small enough that a hostile length prefix
/// cannot drive an allocation bomb.
inline constexpr uint32_t kMaxFramePayload = 8u << 20;

enum class MessageType : uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kRegister = 3,
  kCancel = 4,
  kSubscribe = 5,
  kUpdateBatch = 6,
  kTick = 7,
  kTickAck = 8,
  kDelta = 9,
  kSnapshot = 10,
  kError = 11,
  kBye = 12,
  kShutdown = 13,
};

/// Stable lowercase name, "unknown" for unmapped values.
std::string_view MessageTypeName(MessageType type);

// ---------------------------------------------------------------------------
// Frame layer

/// kResourceExhausted when a payload of `payload_bytes` exceeds
/// kMaxFramePayload: the peer's FrameDecoder would reject the length prefix
/// and poison its stream, so such a frame must never be sent (senders degrade
/// — the server disconnects the session with a typed error). Senders that
/// know a frame's size before encoding (DeltaFrameBytes, the snapshot encoder)
/// check it first and encode nothing that would be refused.
Status CheckFramePayload(size_t payload_bytes);

/// Wraps `payload` in the length + CRC header (CheckFramePayload's error when
/// it is too large).
Result<std::string> EncodeFrame(std::string_view payload);

/// Incremental frame reassembly over an arbitrary byte stream (reads from a
/// socket arrive torn at any boundary). Feed bytes in, pull frames out. Any
/// decode error (oversized length prefix, CRC mismatch) is sticky: the stream
/// cannot be resynchronized, so every later Next() repeats the error.
class FrameDecoder {
 public:
  void Append(std::string_view bytes);

  /// True + fills `payload` when a complete, CRC-verified frame is buffered;
  /// false when more bytes are needed. kCorruption on a CRC mismatch,
  /// kResourceExhausted on a length prefix beyond kMaxFramePayload.
  Result<bool> Next(std::string* payload);

  size_t buffered_bytes() const { return buf_.size() - head_; }
  bool poisoned() const { return !error_.ok(); }

 private:
  std::string buf_;
  size_t head_ = 0;  ///< Start of the first unconsumed frame in buf_.
  Status error_ = Status::OK();
};

// ---------------------------------------------------------------------------
// Message layer

struct HelloMsg {
  uint32_t version = kProtocolVersion;
  std::string client_name;
};

struct HelloAckMsg {
  uint32_t version = kProtocolVersion;
  std::string server_name;
  uint32_t session_id = 0;
};

struct RegisterMsg {
  QueryUpdate query;
};

struct CancelMsg {
  QueryId qid = 0;
};

struct SubscribeMsg {
  bool all = false;  ///< Subscribe to every query (monitoring consumers).
  std::vector<QueryId> qids;
};

struct UpdateBatchMsg {
  Timestamp time = 0;
  /// Evaluate after ingesting this batch (the client owns round pacing, so a
  /// replayed trace evaluates at exactly the offline ReplayTrace boundaries).
  bool evaluate = false;
  std::vector<LocationUpdate> objects;
  std::vector<QueryUpdate> queries;
};

struct TickMsg {
  Timestamp time = 0;
};

struct TickAckMsg {
  uint64_t round = 0;
  Timestamp time = 0;
  uint64_t matches = 0;  ///< Global result-set size this round.
  bool degraded = false;
};

/// kDelta's body is exactly ResultDelta::Save — no extra wrapper.

/// Full-set push: the subscribe ack (the session's cursor state, the
/// client's fold base) or a slow-consumer coalescing replacement.
struct SnapshotMsg {
  uint64_t round = 0;
  Timestamp time = 0;
  bool coalesced = false;  ///< True when replacing dropped delta frames.
  std::vector<uint32_t> degraded_shards;
  std::vector<Match> matches;  ///< Ascending, duplicate-free.
};

struct ErrorMsg {
  uint32_t code = 0;  ///< StatusCode numeric value.
  std::string message;
  bool fatal = false;  ///< Server closes the session after a fatal error.
};

// kBye / kShutdown have empty bodies.

/// The type byte of a decoded payload. kDataLoss on an empty payload,
/// kUnimplemented on a value outside the known range.
Result<MessageType> PeekType(std::string_view payload);

/// Each Encode* returns the message *payload* (type byte + body); wrap with
/// EncodeFrame before writing to a socket. Each Decode* verifies the type
/// byte, decodes the body, and rejects trailing bytes as kCorruption.
std::string EncodeHello(const HelloMsg& msg);
Status DecodeHello(std::string_view payload, HelloMsg* msg);
std::string EncodeHelloAck(const HelloAckMsg& msg);
Status DecodeHelloAck(std::string_view payload, HelloAckMsg* msg);
std::string EncodeRegister(const RegisterMsg& msg);
Status DecodeRegister(std::string_view payload, RegisterMsg* msg);
std::string EncodeCancel(const CancelMsg& msg);
Status DecodeCancel(std::string_view payload, CancelMsg* msg);
std::string EncodeSubscribe(const SubscribeMsg& msg);
Status DecodeSubscribe(std::string_view payload, SubscribeMsg* msg);
std::string EncodeUpdateBatch(const UpdateBatchMsg& msg);
Status DecodeUpdateBatch(std::string_view payload, UpdateBatchMsg* msg);
std::string EncodeTick(const TickMsg& msg);
Status DecodeTick(std::string_view payload, TickMsg* msg);
std::string EncodeTickAck(const TickAckMsg& msg);
Status DecodeTickAck(std::string_view payload, TickAckMsg* msg);
std::string EncodeDelta(const ResultDelta& delta);
Status DecodeDelta(std::string_view payload, ResultDelta* delta);
std::string EncodeSnapshot(const SnapshotMsg& msg);
Status DecodeSnapshot(std::string_view payload, SnapshotMsg* msg);
std::string EncodeError(const ErrorMsg& msg);
Status DecodeError(std::string_view payload, ErrorMsg* msg);
std::string EncodeBye();
std::string EncodeShutdown();

// One-buffer framed encoders for the large messages: the header is reserved,
// the body written after it, then the length and CRC are patched in — the
// same bytes as EncodeFrame(Encode*(msg)) without copying the payload. Each
// fails like EncodeFrame on a payload over kMaxFramePayload; the delta and
// snapshot encoders know their size from the counts and refuse before
// writing anything.

/// Exact framed size of EncodeDeltaFrame(delta), from its counts.
size_t DeltaFrameBytes(const ResultDelta& delta);

Result<std::string> EncodeDeltaFrame(const ResultDelta& delta);
/// A kSnapshot frame of `set` (its matches and degraded provenance).
Result<std::string> EncodeSnapshotFrame(uint64_t round, Timestamp time,
                                        bool coalesced, const ResultSet& set);
Result<std::string> EncodeUpdateBatchFrame(const UpdateBatchMsg& msg);

}  // namespace scuba::serve

#endif  // SCUBA_SERVE_PROTOCOL_H_
