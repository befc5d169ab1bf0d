// pds::net codec: round-trips for every message type, and the totality
// guarantee — truncated, mutated, oversized or trailing-garbage frames
// return Status errors without crashes or partial state (exercised under
// ASan by the sanitizer CI job).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "net/codec.h"

namespace pds::net {
namespace {

Bytes SomeCiphertext(uint8_t tag, size_t n) {
  Bytes ct(n);
  for (size_t i = 0; i < n; ++i) {
    ct[i] = static_cast<uint8_t>(tag + i);
  }
  return ct;
}

std::vector<Message> AllMessageTypes() {
  std::vector<Message> msgs;
  msgs.push_back({ChallengeMsg{SomeCiphertext(1, 16)}});
  HelloMsg hello;
  hello.token_id = 42;
  for (size_t i = 0; i < hello.proof.size(); ++i) {
    hello.proof[i] = static_cast<uint8_t>(i * 3);
  }
  msgs.push_back({hello});
  msgs.push_back({HelloAckMsg{true}});
  RoundRequestMsg req;
  req.header = {7, RoundKind::kAggregate, global::AggFunc::kAvg};
  req.batch = {SomeCiphertext(2, 40), SomeCiphertext(3, 64)};
  msgs.push_back({req});
  PartitionMapMsg pm;
  pm.round_id = 9;
  pm.parts = {{0, 2, 100}, {1, 0, 56}};
  msgs.push_back({pm});
  TupleBatchMsg tb;
  tb.round_id = 7;
  tb.token_ops = 12;
  tb.batch = {SomeCiphertext(4, 33)};
  msgs.push_back({tb});
  AggResultMsg ar;
  ar.round_id = 8;
  ar.token_ops = 5;
  ar.entries = {{"lyon", 123.5, 4}, {"paris", -2.25, 9}};
  msgs.push_back({ar});
  msgs.push_back({ErrorMsg{3, "boom"}});
  msgs.push_back({ByeMsg{}});
  msgs.push_back({StatsRequestMsg{}});
  msgs.push_back({StatsReplyMsg{"{\"sessions\": []}"}});
  return msgs;
}

TEST(NetCodecTest, RoundTripEveryMessageType) {
  for (const Message& m : AllMessageTypes()) {
    Bytes frame = EncodeMessage(m);
    ASSERT_GE(frame.size(), kFrameHeaderSize);
    auto header = DecodeFrameHeader(frame);
    ASSERT_TRUE(header.ok()) << header.status().ToString();
    EXPECT_EQ(header->type, m.type());
    EXPECT_EQ(header->payload_len, frame.size() - kFrameHeaderSize);
    auto decoded = DecodeMessage(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(*decoded == m) << "type "
                               << static_cast<int>(m.type());
  }
}

TEST(NetCodecTest, PackedCollectRoundKindRoundTrips) {
  RoundRequestMsg req;
  req.header = {11, RoundKind::kPackedCollect, global::AggFunc::kSum};
  // The batch carries the public domain labels in slot order.
  req.batch = {SomeCiphertext(5, 6), SomeCiphertext(6, 6)};
  Bytes frame = EncodeRoundRequest(req);
  auto decoded = DecodeAs<RoundRequestMsg>(ByteView(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(*decoded == req);

  // The kind byte sits after the header and the u32 round id; values past
  // kClassAggregate are still corruption.
  frame[kFrameHeaderSize + 4] = 8;
  EXPECT_FALSE(DecodeMessage(ByteView(frame)).ok());
}

TEST(NetCodecTest, PackedDomainRejectsOversizedSlotCount) {
  // The packed round's label list is sized by a wire-declared count; the
  // decoder must reject counts past kMaxPackedSlots before sizing anything.
  RoundRequestMsg req;
  req.header = {12, RoundKind::kPackedCollect, global::AggFunc::kSum};
  for (size_t i = 0; i <= kMaxPackedSlots; ++i) {
    req.batch.push_back(SomeCiphertext(static_cast<uint8_t>(i), 4));
  }
  Bytes frame = EncodeRoundRequest(req);
  EXPECT_EQ(DecodeMessage(frame).status().code(), StatusCode::kCorruption);

  // The same count is fine on the ordinary aggregate path, which is bounded
  // by kMaxBatchTuples rather than the packed slot layout.
  req.header.kind = RoundKind::kAggregate;
  Bytes ok_frame = EncodeRoundRequest(req);
  auto decoded = DecodeMessage(ok_frame);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
}

TEST(NetCodecTest, HeaderRejectsBadMagic) {
  Bytes frame = EncodeBye();
  frame[0] ^= 0xFF;
  EXPECT_EQ(DecodeMessage(frame).status().code(), StatusCode::kCorruption);
}

TEST(NetCodecTest, HeaderRejectsWrongVersion) {
  Bytes frame = EncodeBye();
  frame[2] = kWireVersionTraced + 1;
  EXPECT_EQ(DecodeMessage(frame).status().code(), StatusCode::kCorruption);
}

TEST(NetCodecTest, UntracedFramesStillDecodeWithoutTraceContext) {
  // Back-compat: every v1 frame decodes exactly as before, with no trace
  // context attached.
  for (const Message& m : AllMessageTypes()) {
    Bytes frame = EncodeMessage(m);
    EXPECT_EQ(frame[2], kWireVersion);
    auto decoded = DecodeMessage(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_FALSE(decoded->trace.has_value());
  }
}

TEST(NetCodecTest, TraceContextRoundTripsOnEveryMessageType) {
  const TraceContext ctx{0x1122334455667788ULL, 0xAABBCCDDEEFF0011ULL, true};
  for (const Message& m : AllMessageTypes()) {
    Bytes traced = AttachTraceContext(EncodeMessage(m), ctx);
    auto header = DecodeFrameHeader(traced);
    ASSERT_TRUE(header.ok()) << header.status().ToString();
    EXPECT_EQ(header->version, kWireVersionTraced);
    auto decoded = DecodeMessage(traced);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_TRUE(decoded->trace.has_value());
    EXPECT_EQ(*decoded->trace, ctx);
    EXPECT_TRUE(decoded->body == m.body)
        << "type " << static_cast<int>(m.type());
  }
}

TEST(NetCodecTest, TracedHeaderRejectsTruncatedTraceBlock) {
  // A v2 frame whose declared payload cannot even hold the trace block is
  // rejected from the header alone, before any allocation.
  Bytes frame = EncodeBye();  // payload_len = 0
  frame[2] = kWireVersionTraced;
  EXPECT_EQ(DecodeFrameHeader(frame).status().code(),
            StatusCode::kCorruption);

  // One byte short of a full trace block: still a header-level reject.
  Bytes traced = AttachTraceContext(EncodeBye(), TraceContext{1, 2, true});
  traced.pop_back();
  EncodeU32(traced.data() + 4,
            static_cast<uint32_t>(traced.size() - kFrameHeaderSize));
  EXPECT_EQ(DecodeFrameHeader(traced).status().code(),
            StatusCode::kCorruption);
}

TEST(NetCodecTest, TraceContextRejectsUndefinedFlagBits) {
  Bytes traced = AttachTraceContext(EncodeBye(), TraceContext{1, 2, false});
  // The flags byte is the last byte of the 17-byte trace block.
  traced[kFrameHeaderSize + kTraceContextSize - 1] = 0x02;
  EXPECT_EQ(DecodeMessage(traced).status().code(), StatusCode::kCorruption);
}

TEST(NetCodecTest, TraceContextTruncationSweepNeverSucceeds) {
  Bytes traced = AttachTraceContext(
      EncodeStatsReply(StatsReplyMsg{"{\"fleet\": {}}"}),
      TraceContext{3, 4, true});
  for (size_t len = 0; len < traced.size(); ++len) {
    EXPECT_FALSE(DecodeMessage(ByteView(traced.data(), len)).ok())
        << "prefix " << len;
  }
}

TEST(NetCodecTest, StatsReplyRejectsOversizedDeclaredJson) {
  // A lying JSON length past kMaxStatsJsonBytes must be rejected before the
  // decoder sizes the string.
  Bytes frame;
  PutU16(&frame, kMagic);
  frame.push_back(kWireVersion);
  frame.push_back(static_cast<uint8_t>(MsgType::kStatsReply));
  PutU32(&frame, 4);  // payload: just the string length
  PutU32(&frame, static_cast<uint32_t>(kMaxStatsJsonBytes + 1));
  auto decoded = DecodeMessage(frame);
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(NetCodecTest, HeaderRejectsUnknownType) {
  Bytes frame = EncodeBye();
  frame[3] = 200;
  EXPECT_EQ(DecodeMessage(frame).status().code(), StatusCode::kCorruption);
}

TEST(NetCodecTest, HeaderRejectsOversizedDeclaredLength) {
  // A lying length field must be rejected from the 8 header bytes alone,
  // before any payload allocation.
  Bytes frame = EncodeBye();
  EncodeU32(frame.data() + 4, static_cast<uint32_t>(kMaxFramePayload + 1));
  EXPECT_EQ(DecodeFrameHeader(frame).status().code(),
            StatusCode::kCorruption);
}

TEST(NetCodecTest, RejectsLengthMismatch) {
  TupleBatchMsg tb;
  tb.round_id = 1;
  tb.batch = {SomeCiphertext(1, 10)};
  Bytes frame = EncodeTupleBatch(tb);
  frame.push_back(0);  // trailing junk beyond the declared payload
  EXPECT_EQ(DecodeMessage(frame).status().code(), StatusCode::kCorruption);
}

TEST(NetCodecTest, RejectsTrailingBytesInsidePayload) {
  // Junk *inside* the declared payload (decoder finishes early).
  Bytes frame = EncodeHelloAck(HelloAckMsg{true});
  frame.push_back(0xAB);
  EncodeU32(frame.data() + 4,
            static_cast<uint32_t>(frame.size() - kFrameHeaderSize));
  EXPECT_EQ(DecodeMessage(frame).status().code(), StatusCode::kCorruption);
}

TEST(NetCodecTest, RejectsBatchCountAboveBound) {
  // Hand-build a TupleBatch whose declared item count exceeds
  // kMaxBatchTuples while the frame itself stays tiny.
  Bytes frame;
  PutU16(&frame, kMagic);
  frame.push_back(kWireVersion);
  frame.push_back(static_cast<uint8_t>(MsgType::kTupleBatch));
  PutU32(&frame, 4 + 8 + 4);  // round_id + token_ops + count
  PutU32(&frame, 1);          // round_id
  PutU64(&frame, 0);          // token_ops
  PutU32(&frame, static_cast<uint32_t>(kMaxBatchTuples + 1));
  auto decoded = DecodeMessage(frame);
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(decoded.status().message().find("kMaxBatchTuples"),
            std::string::npos);
}

TEST(NetCodecTest, TruncationSweepNeverSucceeds) {
  for (const Message& m : AllMessageTypes()) {
    Bytes frame = EncodeMessage(m);
    for (size_t len = 0; len < frame.size(); ++len) {
      auto decoded = DecodeMessage(ByteView(frame.data(), len));
      EXPECT_FALSE(decoded.ok())
          << "type " << static_cast<int>(m.type()) << " prefix " << len;
    }
  }
}

TEST(NetCodecTest, MutationSweepIsErrorClean) {
  // Flip every byte of every message type two ways. A mutation may still
  // decode (e.g. a flipped bit inside a counter value) but must never
  // crash, read out of bounds, or leave a half-built message — and
  // whatever decodes must re-encode cleanly.
  for (const Message& m : AllMessageTypes()) {
    Bytes frame = EncodeMessage(m);
    for (size_t i = 0; i < frame.size(); ++i) {
      for (uint8_t flip : {uint8_t{0x01}, uint8_t{0xFF}}) {
        Bytes mutated = frame;
        mutated[i] ^= flip;
        auto decoded = DecodeMessage(mutated);
        if (decoded.ok()) {
          Bytes reencoded = EncodeMessage(*decoded);
          EXPECT_GE(reencoded.size(), kFrameHeaderSize);
        }
      }
    }
  }
}

TEST(NetCodecTest, DecodeAsEnforcesType) {
  Bytes frame = EncodeHelloAck(HelloAckMsg{true});
  auto wrong = DecodeAs<TupleBatchMsg>(frame);
  EXPECT_EQ(wrong.status().code(), StatusCode::kFailedPrecondition);
  auto right = DecodeAs<HelloAckMsg>(frame);
  ASSERT_TRUE(right.ok());
  EXPECT_TRUE(right->accepted);
}

TEST(NetCodecTest, DecodeAsSurfacesPeerError) {
  Bytes frame = EncodeError(ErrorMsg{1, "token on fire"});
  auto got = DecodeAs<TupleBatchMsg>(frame);
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(got.status().message().find("token on fire"), std::string::npos);
}

TEST(NetCodecTest, EmptyBatchAndEmptyEntriesRoundTrip) {
  RoundRequestMsg req;
  req.header = {1, RoundKind::kCollect, global::AggFunc::kSum};
  auto decoded = DecodeMessage(EncodeRoundRequest(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(std::get<RoundRequestMsg>(decoded->body).batch.empty());

  AggResultMsg ar;
  ar.round_id = 2;
  auto decoded2 = DecodeMessage(EncodeAggResult(ar));
  ASSERT_TRUE(decoded2.ok());
  EXPECT_TRUE(std::get<AggResultMsg>(decoded2->body).entries.empty());
}

TEST(NetCodecTest, DetParamsRejectNonFiniteOrNegativeRatio) {
  // The ratio comes from the untrusted SSI; the token casts
  // real_count * ratio to a count, so NaN or a negative value must never
  // decode.
  DetParams p;
  ASSERT_TRUE(DecodeDetParams(ByteView(EncodeDetParams(p))).ok());
  for (double ratio : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                       std::numeric_limits<double>::infinity()}) {
    p.noise_ratio = ratio;
    auto decoded = DecodeDetParams(ByteView(EncodeDetParams(p)));
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption) << ratio;
  }
}

TEST(NetCodecTest, DetSendListSizeBoundsEveryVariant) {
  constexpr size_t kMaxPairs = kMaxBatchTuples / 2;
  DetParams white;
  white.variant = DetVariant::kWhiteNoise;
  white.noise_ratio = 0.5;
  EXPECT_EQ(DetSendListSize(white, 10, 0).value(), 15u);  // 10 + floor(5)
  white.noise_ratio = 1e12;
  EXPECT_EQ(DetSendListSize(white, 10, 0).status().code(),
            StatusCode::kInvalidArgument);
  for (double ratio : {std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    white.noise_ratio = ratio;
    EXPECT_EQ(DetSendListSize(white, 10, 0).status().code(),
              StatusCode::kInvalidArgument)
        << ratio;
  }

  DetParams domain;
  domain.variant = DetVariant::kDomainNoise;
  domain.fakes_per_value = 2;
  EXPECT_EQ(DetSendListSize(domain, 3, 5).value(), 13u);
  domain.fakes_per_value = UINT32_MAX;
  EXPECT_EQ(DetSendListSize(domain, 3, 5).status().code(),
            StatusCode::kInvalidArgument);

  DetParams histogram;
  histogram.variant = DetVariant::kHistogram;
  EXPECT_EQ(DetSendListSize(histogram, kMaxPairs, 0).value(), kMaxPairs);
  EXPECT_FALSE(DetSendListSize(histogram, kMaxPairs + 1, 0).ok());
}

}  // namespace
}  // namespace pds::net
