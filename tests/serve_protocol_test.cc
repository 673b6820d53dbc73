// Wire-protocol robustness for the serving front-end (src/serve/protocol.h).
//
// The decoding surface faces arbitrary bytes from a socket; the contract is
// typed errors, never undefined behavior: torn frames wait, CRC mismatches
// and trailing bytes are kCorruption, hostile length prefixes are
// kResourceExhausted, unknown message types are kUnimplemented, and every
// truncation of every message body is a clean decode failure. CI runs this
// binary under ASan, so "no UB" is enforced, not assumed.

#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serializer.h"

namespace scuba::serve {
namespace {

UpdateBatchMsg SampleBatch() {
  UpdateBatchMsg msg;
  msg.time = 42;
  msg.evaluate = true;
  LocationUpdate obj;
  obj.oid = 7;
  obj.position = {12.5, -3.25};
  obj.time = 42;
  obj.speed = 1.5;
  obj.dest_node = 99;
  obj.dest_position = {100.0, 200.0};
  obj.attrs = 0b1010;
  msg.objects.push_back(obj);
  obj.oid = 8;
  obj.position = {-1.0, 0.0};
  msg.objects.push_back(obj);
  QueryUpdate qry;
  qry.qid = 3;
  qry.position = {5.0, 5.0};
  qry.time = 42;
  qry.speed = 0.25;
  qry.dest_node = 4;
  qry.dest_position = {6.0, 7.0};
  qry.range_width = 50.0;
  qry.range_height = 25.0;
  qry.attrs = 1;
  qry.required_attrs = 0b11;
  msg.queries.push_back(qry);
  return msg;
}

TEST(FrameTest, RoundTripsThroughDecoder) {
  const std::string payload = EncodeHello(HelloMsg{kProtocolVersion, "cli"});
  const std::string frame = *EncodeFrame(payload);
  EXPECT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
  FrameDecoder decoder;
  decoder.Append(frame);
  std::string out;
  Result<bool> got = decoder.Next(&out);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(*got);
  EXPECT_EQ(out, payload);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  got = decoder.Next(&out);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(*got);
}

TEST(FrameTest, TornDeliveryReassembles) {
  // Socket reads tear at arbitrary boundaries: feeding one byte at a time
  // must yield exactly the original frames, in order.
  std::string stream = *EncodeFrame(EncodeBye()) +
                       *EncodeFrame(EncodeTick(TickMsg{9})) +
                       *EncodeFrame(EncodeShutdown());
  FrameDecoder decoder;
  std::vector<std::string> frames;
  std::string out;
  for (char c : stream) {
    decoder.Append(std::string_view(&c, 1));
    while (true) {
      Result<bool> got = decoder.Next(&out);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      if (!*got) break;
      frames.push_back(out);
    }
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(*PeekType(frames[0]), MessageType::kBye);
  EXPECT_EQ(*PeekType(frames[1]), MessageType::kTick);
  EXPECT_EQ(*PeekType(frames[2]), MessageType::kShutdown);
}

TEST(FrameTest, IncompleteFrameWaits) {
  const std::string frame = *EncodeFrame(EncodeBye());
  FrameDecoder decoder;
  decoder.Append(std::string_view(frame).substr(0, frame.size() - 1));
  std::string out;
  Result<bool> got = decoder.Next(&out);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(*got);
  EXPECT_FALSE(decoder.poisoned());
  EXPECT_GT(decoder.buffered_bytes(), 0u);
}

TEST(FrameTest, BadCrcIsStickyCorruption) {
  std::string frame = *EncodeFrame(EncodeTick(TickMsg{5}));
  frame.back() ^= 0x40;  // flip a payload bit
  FrameDecoder decoder;
  decoder.Append(frame);
  std::string out;
  Result<bool> got = decoder.Next(&out);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
  EXPECT_TRUE(decoder.poisoned());
  // No resync: later appends are ignored and the error repeats.
  decoder.Append(*EncodeFrame(EncodeBye()));
  got = decoder.Next(&out);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
}

TEST(FrameTest, OversizedLengthPrefixIsResourceExhausted) {
  // A hostile length prefix must be rejected from the header alone — no
  // allocation of the claimed size.
  const uint32_t huge = kMaxFramePayload + 1;
  std::string header(kFrameHeaderBytes, '\0');
  std::memcpy(header.data(), &huge, sizeof(huge));
  FrameDecoder decoder;
  decoder.Append(header);
  std::string out;
  Result<bool> got = decoder.Next(&out);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(decoder.poisoned());
}

TEST(FrameTest, EncodeFrameEnforcesTheCapOnTheSendSide) {
  // A frame the decoder would reject must be impossible to produce: an
  // oversized payload is refused at encode time with the same typed error,
  // instead of poisoning the peer's stream (or truncating the u32 prefix).
  std::string payload(kMaxFramePayload + 1, 'x');
  Result<std::string> frame = EncodeFrame(payload);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kResourceExhausted);

  // Exactly at the cap still encodes and round-trips.
  payload.resize(64);
  frame = EncodeFrame(payload);
  ASSERT_TRUE(frame.ok());
  FrameDecoder decoder;
  decoder.Append(*frame);
  std::string out;
  Result<bool> got = decoder.Next(&out);
  ASSERT_TRUE(got.ok() && *got);
  EXPECT_EQ(out, payload);
}

TEST(MessageTest, PeekTypeRejectsEmptyAndUnknown) {
  Result<MessageType> type = PeekType("");
  ASSERT_FALSE(type.ok());
  EXPECT_EQ(type.status().code(), StatusCode::kDataLoss);
  const char zero = 0;
  type = PeekType(std::string_view(&zero, 1));
  ASSERT_FALSE(type.ok());
  EXPECT_EQ(type.status().code(), StatusCode::kUnimplemented);
  const char big = 99;
  type = PeekType(std::string_view(&big, 1));
  ASSERT_FALSE(type.ok());
  EXPECT_EQ(type.status().code(), StatusCode::kUnimplemented);
}

TEST(MessageTest, WrongTypeByteIsInvalidArgument) {
  const std::string cancel = EncodeCancel(CancelMsg{12});
  HelloMsg hello;
  Status s = DecodeHello(cancel, &hello);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(MessageTest, TrailingBytesAreCorruption) {
  std::string payload = EncodeCancel(CancelMsg{12});
  payload.push_back('\0');
  CancelMsg msg;
  Status s = DecodeCancel(payload, &msg);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST(MessageTest, AllMessagesRoundTrip) {
  {
    HelloMsg in{kProtocolVersion, "bench-client"};
    HelloMsg out;
    ASSERT_TRUE(DecodeHello(EncodeHello(in), &out).ok());
    EXPECT_EQ(out.version, in.version);
    EXPECT_EQ(out.client_name, in.client_name);
  }
  {
    HelloAckMsg in{kProtocolVersion, "srv", 17};
    HelloAckMsg out;
    ASSERT_TRUE(DecodeHelloAck(EncodeHelloAck(in), &out).ok());
    EXPECT_EQ(out.server_name, "srv");
    EXPECT_EQ(out.session_id, 17u);
  }
  {
    RegisterMsg in;
    in.query = SampleBatch().queries[0];
    RegisterMsg out;
    ASSERT_TRUE(DecodeRegister(EncodeRegister(in), &out).ok());
    EXPECT_EQ(out.query.qid, in.query.qid);
    EXPECT_EQ(out.query.range_width, in.query.range_width);
    EXPECT_EQ(out.query.required_attrs, in.query.required_attrs);
    EXPECT_EQ(out.query.dest_node, in.query.dest_node);
  }
  {
    CancelMsg out;
    ASSERT_TRUE(DecodeCancel(EncodeCancel(CancelMsg{8}), &out).ok());
    EXPECT_EQ(out.qid, 8u);
  }
  {
    SubscribeMsg in;
    in.all = false;
    in.qids = {3, 1, 9};
    SubscribeMsg out;
    ASSERT_TRUE(DecodeSubscribe(EncodeSubscribe(in), &out).ok());
    EXPECT_FALSE(out.all);
    EXPECT_EQ(out.qids, in.qids);
  }
  {
    UpdateBatchMsg in = SampleBatch();
    UpdateBatchMsg out;
    ASSERT_TRUE(DecodeUpdateBatch(EncodeUpdateBatch(in), &out).ok());
    EXPECT_EQ(out.time, in.time);
    EXPECT_TRUE(out.evaluate);
    ASSERT_EQ(out.objects.size(), 2u);
    EXPECT_EQ(out.objects[0].oid, 7u);
    EXPECT_EQ(out.objects[0].position.x, 12.5);
    EXPECT_EQ(out.objects[0].attrs, 0b1010u);
    ASSERT_EQ(out.queries.size(), 1u);
    EXPECT_EQ(out.queries[0].range_height, 25.0);
  }
  {
    TickAckMsg in{12, 34, 56, true};
    TickAckMsg out;
    ASSERT_TRUE(DecodeTickAck(EncodeTickAck(in), &out).ok());
    EXPECT_EQ(out.round, 12u);
    EXPECT_EQ(out.time, 34);
    EXPECT_EQ(out.matches, 56u);
    EXPECT_TRUE(out.degraded);
  }
  {
    ResultDelta in;
    in.round = 5;
    in.time = 10;
    in.added = {{1, 2}, {3, 4}};
    in.removed = {{2, 2}};
    in.degraded_shards = {1};
    ResultDelta out;
    ASSERT_TRUE(DecodeDelta(EncodeDelta(in), &out).ok());
    EXPECT_EQ(out, in);
  }
  {
    SnapshotMsg in;
    in.round = 9;
    in.time = 18;
    in.coalesced = true;
    in.degraded_shards = {2, 0};
    in.matches = {{1, 1}, {1, 2}, {4, 1}};
    SnapshotMsg out;
    ASSERT_TRUE(DecodeSnapshot(EncodeSnapshot(in), &out).ok());
    EXPECT_EQ(out.round, 9u);
    EXPECT_TRUE(out.coalesced);
    EXPECT_EQ(out.degraded_shards, in.degraded_shards);
    EXPECT_EQ(out.matches, in.matches);
  }
  {
    ErrorMsg in{7, "boom", true};
    ErrorMsg out;
    ASSERT_TRUE(DecodeError(EncodeError(in), &out).ok());
    EXPECT_EQ(out.code, 7u);
    EXPECT_EQ(out.message, "boom");
    EXPECT_TRUE(out.fatal);
  }
}

TEST(MessageTest, SnapshotRejectsUnorderedMatches) {
  SnapshotMsg in;
  in.matches = {{4, 1}, {1, 1}};  // descending: invalid on the wire
  SnapshotMsg out;
  Status s = DecodeSnapshot(EncodeSnapshot(in), &out);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST(MessageTest, EveryTruncationFailsCleanly) {
  // Cutting any encoded message at any byte must yield a typed error —
  // the count-prefixed vector decoders must never read past the end or
  // allocate from an unchecked count.
  std::vector<std::string> payloads = {
      EncodeHello(HelloMsg{kProtocolVersion, "name"}),
      EncodeHelloAck(HelloAckMsg{kProtocolVersion, "srv", 1}),
      EncodeRegister(RegisterMsg{SampleBatch().queries[0]}),
      EncodeCancel(CancelMsg{1}),
      EncodeSubscribe(SubscribeMsg{false, {1, 2, 3}}),
      EncodeUpdateBatch(SampleBatch()),
      EncodeTick(TickMsg{1}),
      EncodeTickAck(TickAckMsg{1, 2, 3, false}),
      EncodeSnapshot(SnapshotMsg{1, 2, false, {0}, {{1, 1}}}),
      EncodeError(ErrorMsg{1, "m", false}),
  };
  {
    ResultDelta d;
    d.round = 1;
    d.added = {{1, 1}};
    payloads.push_back(EncodeDelta(d));
  }
  for (const std::string& payload : payloads) {
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      const std::string_view torn(payload.data(), cut);
      Result<MessageType> type = PeekType(payload);
      ASSERT_TRUE(type.ok());
      Status s;
      switch (*type) {
        case MessageType::kHello: {
          HelloMsg m;
          s = DecodeHello(torn, &m);
          break;
        }
        case MessageType::kHelloAck: {
          HelloAckMsg m;
          s = DecodeHelloAck(torn, &m);
          break;
        }
        case MessageType::kRegister: {
          RegisterMsg m;
          s = DecodeRegister(torn, &m);
          break;
        }
        case MessageType::kCancel: {
          CancelMsg m;
          s = DecodeCancel(torn, &m);
          break;
        }
        case MessageType::kSubscribe: {
          SubscribeMsg m;
          s = DecodeSubscribe(torn, &m);
          break;
        }
        case MessageType::kUpdateBatch: {
          UpdateBatchMsg m;
          s = DecodeUpdateBatch(torn, &m);
          break;
        }
        case MessageType::kTick: {
          TickMsg m;
          s = DecodeTick(torn, &m);
          break;
        }
        case MessageType::kTickAck: {
          TickAckMsg m;
          s = DecodeTickAck(torn, &m);
          break;
        }
        case MessageType::kDelta: {
          ResultDelta m;
          s = DecodeDelta(torn, &m);
          break;
        }
        case MessageType::kSnapshot: {
          SnapshotMsg m;
          s = DecodeSnapshot(torn, &m);
          break;
        }
        case MessageType::kError: {
          ErrorMsg m;
          s = DecodeError(torn, &m);
          break;
        }
        default:
          continue;
      }
      EXPECT_FALSE(s.ok()) << MessageTypeName(*type) << " cut at " << cut;
    }
  }
}

/// A batch of `objects` + `queries` updates whose every field comes from
/// `seed`: raw 64-bit patterns for the doubles too, so NaN payloads and
/// negative zeros are on the wire.
UpdateBatchMsg SeededBatch(uint64_t seed, size_t objects, size_t queries) {
  Rng rng(seed);
  auto next_double = [&rng] {
    const uint64_t bits = rng.NextU64();
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
  };
  UpdateBatchMsg msg;
  msg.time = static_cast<Timestamp>(rng.NextU64());
  msg.evaluate = rng.NextBool();
  for (size_t i = 0; i < objects; ++i) {
    LocationUpdate u;
    u.oid = static_cast<ObjectId>(rng.NextU64());
    u.position = {next_double(), next_double()};
    u.time = static_cast<Timestamp>(rng.NextU64());
    u.speed = next_double();
    u.dest_node = static_cast<NodeId>(rng.NextU64());
    u.dest_position = {next_double(), next_double()};
    u.attrs = rng.NextU64();
    msg.objects.push_back(u);
  }
  for (size_t i = 0; i < queries; ++i) {
    QueryUpdate u;
    u.qid = static_cast<QueryId>(rng.NextU64());
    u.position = {next_double(), next_double()};
    u.time = static_cast<Timestamp>(rng.NextU64());
    u.speed = next_double();
    u.dest_node = static_cast<NodeId>(rng.NextU64());
    u.dest_position = {next_double(), next_double()};
    u.range_width = next_double();
    u.range_height = next_double();
    u.attrs = rng.NextU64();
    u.required_attrs = rng.NextU64();
    msg.queries.push_back(u);
  }
  return msg;
}

TEST(MessageTest, UpdateBytesMatchTheGoldenEncoding) {
  // The wire bytes of an update batch and a register message are pinned by
  // length and CRC, taken from the field-by-field encoder: a change to how
  // updates are packed must not change a byte.
  const UpdateBatchMsg batch = SeededBatch(2101, 37, 23);
  const std::string bytes = EncodeUpdateBatch(batch);
  EXPECT_EQ(bytes.size(), 1 + 8 + 1 + 8 + 37 * 64 + 8 + 23 * 88);
  EXPECT_EQ(Crc32(bytes), 1781173823u);
  RegisterMsg reg;
  reg.query = batch.queries[5];
  const std::string reg_bytes = EncodeRegister(reg);
  EXPECT_EQ(reg_bytes.size(), 1 + 88);
  EXPECT_EQ(Crc32(reg_bytes), 405992216u);

  // And the bytes decode back to the same fields, bit for bit.
  UpdateBatchMsg out;
  ASSERT_TRUE(DecodeUpdateBatch(bytes, &out).ok());
  EXPECT_EQ(EncodeUpdateBatch(out), bytes);
  ASSERT_EQ(out.objects.size(), batch.objects.size());
  ASSERT_EQ(out.queries.size(), batch.queries.size());
  EXPECT_EQ(out.objects[3].oid, batch.objects[3].oid);
  EXPECT_EQ(out.objects[3].attrs, batch.objects[3].attrs);
  EXPECT_EQ(out.queries[7].required_attrs, batch.queries[7].required_attrs);
  EXPECT_EQ(std::memcmp(&out.queries[7].range_height,
                        &batch.queries[7].range_height, sizeof(double)),
            0);
}

TEST(MessageTest, HostileUpdateCountsAreRefusedBeforeReserving) {
  // One update more than the remaining bytes can hold: the count check
  // refuses it up front (a typed error naming the count), instead of
  // reserving for it and failing on a truncated update later. The batch
  // sizes are large enough that an understated element size (60 or 84
  // bytes) would let the hostile count through.
  for (int kind = 0; kind < 2; ++kind) {
    const UpdateBatchMsg batch =
        kind == 0 ? SeededBatch(7, 20, 0) : SeededBatch(7, 0, 23);
    std::string bytes = EncodeUpdateBatch(batch);
    // type | time | evaluate | object count ...
    const size_t count_at = kind == 0 ? 1 + 8 + 1 : 1 + 8 + 1 + 8;
    const size_t element = kind == 0 ? 64 : 88;
    const size_t remaining = bytes.size() - count_at - 8;
    const uint64_t hostile = remaining / element + 1;
    std::memcpy(bytes.data() + count_at, &hostile, sizeof(hostile));
    UpdateBatchMsg out;
    const Status s = DecodeUpdateBatch(bytes, &out);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
    EXPECT_NE(s.message().find("count " + std::to_string(hostile) +
                               " overruns"),
              std::string::npos)
        << s.ToString();
    EXPECT_EQ(out.objects.capacity() + out.queries.capacity(), 0u)
        << "reserved for a count the payload cannot hold";
  }
}

TEST(FuzzTest, RandomBytesNeverMisbehave) {
  // Raw garbage into the frame decoder: every outcome is a typed status.
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    FrameDecoder decoder;
    std::string out;
    for (int iter = 0; iter < 200 && !decoder.poisoned(); ++iter) {
      std::string junk(rng.NextBounded(64) + 1, '\0');
      for (char& c : junk) c = static_cast<char>(rng.NextBounded(256));
      decoder.Append(junk);
      while (true) {
        Result<bool> got = decoder.Next(&out);
        if (!got.ok()) {
          EXPECT_TRUE(got.status().code() == StatusCode::kCorruption ||
                      got.status().code() == StatusCode::kResourceExhausted)
              << got.status().ToString();
          break;
        }
        if (!*got) break;
      }
    }
  }
}

TEST(FuzzTest, RandomPayloadsDecodeToTypedErrors) {
  // Correctly framed random payloads (valid CRC, hostile body): the message
  // layer must hand back typed errors for every type byte.
  for (uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    for (int iter = 0; iter < 300; ++iter) {
      std::string payload(rng.NextBounded(96) + 1, '\0');
      for (char& c : payload) c = static_cast<char>(rng.NextBounded(256));
      FrameDecoder decoder;
      decoder.Append(*EncodeFrame(payload));
      std::string out;
      Result<bool> got = decoder.Next(&out);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(*got);
      Result<MessageType> type = PeekType(out);
      if (!type.ok()) continue;
      // Exercise the matching decoder; the status may be OK for a luckily
      // well-formed body — the property under test is "no UB, typed errors".
      switch (*type) {
        case MessageType::kUpdateBatch: {
          UpdateBatchMsg m;
          (void)DecodeUpdateBatch(out, &m);
          break;
        }
        case MessageType::kSnapshot: {
          SnapshotMsg m;
          (void)DecodeSnapshot(out, &m);
          break;
        }
        case MessageType::kDelta: {
          ResultDelta m;
          (void)DecodeDelta(out, &m);
          break;
        }
        case MessageType::kSubscribe: {
          SubscribeMsg m;
          (void)DecodeSubscribe(out, &m);
          break;
        }
        case MessageType::kRegister: {
          RegisterMsg m;
          (void)DecodeRegister(out, &m);
          break;
        }
        case MessageType::kError: {
          ErrorMsg m;
          (void)DecodeError(out, &m);
          break;
        }
        default: {
          HelloMsg m;
          (void)DecodeHello(out, &m);
          break;
        }
      }
    }
  }
}

}  // namespace
}  // namespace scuba::serve
