// pds::net codec: round-trips for every message type under every flag
// combination (plain, traced, checksummed, both), the checksum's exact
// single-bit-flip detection, and the totality guarantee — truncated,
// mutated, oversized or trailing-garbage frames return Status errors
// without crashes or partial state (exercised under ASan by the sanitizer
// CI job).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

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

constexpr TraceContext kTrace{0x1122334455667788ULL, 0xAABBCCDDEEFF0011ULL};

/// `m` with or without the trace block and the checksum trailer.
Message Framed(Message m, bool traced, bool checksummed) {
  if (traced) {
    m.trace = kTrace;
  }
  m.checksummed = checksummed;
  return m;
}

/// Every message type, checksummed and not, all traced or all untraced.
std::vector<Message> AllFrames(bool traced) {
  std::vector<Message> out;
  for (const Message& m : AllMessageTypes()) {
    for (bool checksummed : {false, true}) {
      out.push_back(Framed(m, traced, checksummed));
    }
  }
  return out;
}

/// Every message type under all four flag combinations.
std::vector<Message> AllFrames() {
  std::vector<Message> out = AllFrames(/*traced=*/false);
  for (Message& m : AllFrames(/*traced=*/true)) {
    out.push_back(std::move(m));
  }
  return out;
}

std::string Label(const Message& m) {
  return "type " + std::to_string(static_cast<int>(m.type())) +
         (m.trace.has_value() ? " traced" : "") +
         (m.checksummed ? " checksummed" : "");
}

/// The header's flag bits announce the trace block and trailer, each adds
/// exactly its own size to the plain frame, and the decoded message carries
/// the trace context and checksum bit it was encoded with.
void ExpectRoundTrip(const Message& m) {
  SCOPED_TRACE(Label(m));
  Bytes frame = EncodeMessage(m);
  ASSERT_GE(frame.size(), kFrameHeaderSize);
  auto header = DecodeFrameHeader(frame);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->type, m.type());
  EXPECT_EQ(header->flags, (m.trace.has_value() ? kFrameTraced : 0) |
                               (m.checksummed ? kFrameChecksummed : 0));
  EXPECT_EQ(header->payload_len, frame.size() - kFrameHeaderSize);
  EXPECT_EQ(frame.size(), EncodeMessage({m.body}).size() +
                              (m.trace.has_value() ? kTraceContextSize : 0) +
                              (m.checksummed ? kFrameChecksumSize : 0));
  auto decoded = DecodeMessage(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(*decoded == m);
}

/// No proper prefix of any frame decodes.
void ExpectTruncationsFail(const Message& m) {
  Bytes frame = EncodeMessage(m);
  for (size_t len = 0; len < frame.size(); ++len) {
    auto decoded = DecodeMessage(ByteView(frame.data(), len));
    EXPECT_FALSE(decoded.ok()) << Label(m) << " prefix " << len;
  }
}

TEST(NetCodecTest, RoundTripEveryMessageType) {
  // Plain and checksummed; the traced combinations are below.
  for (const Message& m : AllFrames(/*traced=*/false)) {
    ExpectRoundTrip(m);
  }
}

TEST(NetCodecTest, TraceContextRoundTripsOnEveryMessageType) {
  // Traced, with and without the checksum trailer.
  for (const Message& m : AllFrames(/*traced=*/true)) {
    ExpectRoundTrip(m);
  }
}

TEST(NetCodecTest, UntracedFramesStillDecodeWithoutTraceContext) {
  // Only the header's trace bit announces a trace block, so a frame without
  // it decodes with no trace context. The block is purely additive: cutting
  // it out of a traced frame and clearing the bit gives the untraced frame
  // byte for byte — unless a trailer covers it, which then fails to verify.
  for (const Message& m : AllMessageTypes()) {
    for (bool checksummed : {false, true}) {
      const Message untraced = Framed(m, /*traced=*/false, checksummed);
      const Bytes frame = EncodeMessage(untraced);
      auto decoded = DecodeMessage(frame);
      ASSERT_TRUE(decoded.ok()) << Label(untraced) << ": "
                                << decoded.status().ToString();
      EXPECT_FALSE(decoded->trace.has_value()) << Label(untraced);

      Bytes cut = EncodeMessage(Framed(m, /*traced=*/true, checksummed));
      cut.erase(cut.begin() + kFrameHeaderSize,
                cut.begin() + kFrameHeaderSize + kTraceContextSize);
      cut[2] &= static_cast<uint8_t>(~kFrameTraced);
      EncodeU32(cut.data() + 4,
                static_cast<uint32_t>(cut.size() - kFrameHeaderSize));
      if (checksummed) {
        EXPECT_EQ(DecodeMessage(cut).status().code(), StatusCode::kCorruption)
            << Label(untraced);
      } else {
        EXPECT_EQ(cut, frame) << Label(untraced);
      }
    }
  }
}

TEST(NetCodecTest, PackedCollectRoundKindRoundTrips) {
  RoundRequestMsg req;
  req.header = {11, RoundKind::kPackedCollect, global::AggFunc::kSum};
  // The batch carries the public domain labels in slot order.
  req.batch = {SomeCiphertext(5, 6), SomeCiphertext(6, 6)};
  Bytes frame = EncodeMessage({req});
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
  Bytes frame = EncodeMessage({req});
  EXPECT_EQ(DecodeMessage(frame).status().code(), StatusCode::kCorruption);

  // The same count is fine on the ordinary aggregate path, which is bounded
  // by kMaxBatchTuples rather than the packed slot layout.
  req.header.kind = RoundKind::kAggregate;
  Bytes ok_frame = EncodeMessage({req});
  auto decoded = DecodeMessage(ok_frame);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
}

TEST(NetCodecTest, HeaderRejectsBadMagic) {
  Bytes frame = EncodeMessage({ByeMsg{}});
  frame[0] ^= 0xFF;
  EXPECT_EQ(DecodeMessage(frame).status().code(), StatusCode::kCorruption);
}

TEST(NetCodecTest, HeaderRejectsWrongVersion) {
  // The byte that held the wire version is the flags byte, and only bit 0
  // (trace block) and bit 1 (checksum trailer) are defined: every other
  // value — what another format revision would write there — makes an
  // otherwise valid untraced frame Corruption from the header alone.
  TupleBatchMsg tb;
  tb.round_id = 3;
  tb.batch = {SomeCiphertext(7, 12)};
  constexpr uint8_t kDefined = kFrameTraced | kFrameChecksummed;
  for (bool checksummed : {false, true}) {
    const Message m = Framed({tb}, /*traced=*/false, checksummed);
    const Bytes frame = EncodeMessage(m);
    ASSERT_TRUE(DecodeMessage(frame).ok()) << Label(m);
    for (int value = 0; value < 256; ++value) {
      if ((value & ~kDefined) == 0) {
        continue;
      }
      Bytes other = frame;
      other[2] = static_cast<uint8_t>(value);
      EXPECT_EQ(DecodeFrameHeader(other).status().code(),
                StatusCode::kCorruption)
          << Label(m) << " flags " << value;
      EXPECT_EQ(DecodeMessage(other).status().code(), StatusCode::kCorruption)
          << Label(m) << " flags " << value;
    }
  }
}

TEST(NetCodecTest, TraceContextRejectsUndefinedFlagBits) {
  // The trace block has no flags byte of its own; its frame's undefined
  // header bits are rejected like any other frame's, traced and checksummed
  // or not.
  TupleBatchMsg tb;
  tb.round_id = 3;
  tb.batch = {SomeCiphertext(7, 12)};
  for (bool checksummed : {false, true}) {
    const Message m = Framed({tb}, /*traced=*/true, checksummed);
    const Bytes frame = EncodeMessage(m);
    ASSERT_TRUE(DecodeMessage(frame).ok()) << Label(m);
    for (int bit = 2; bit < 8; ++bit) {
      Bytes flagged = frame;
      flagged[2] |= static_cast<uint8_t>(1u << bit);
      EXPECT_EQ(DecodeFrameHeader(flagged).status().code(),
                StatusCode::kCorruption)
          << Label(m) << " bit " << bit;
      EXPECT_EQ(DecodeMessage(flagged).status().code(),
                StatusCode::kCorruption)
          << Label(m) << " bit " << bit;
    }
  }
}

TEST(NetCodecTest, HeaderRejectsPayloadTooShortForFlaggedBlocks) {
  // A traced or checksummed frame whose declared payload cannot hold its
  // trace block and trailer is rejected from the header alone, before any
  // allocation; one that can passes the header check.
  const Bytes bye = EncodeMessage({ByeMsg{}});  // payload_len = 0
  for (uint8_t flags : {kFrameTraced, kFrameChecksummed,
                        static_cast<uint8_t>(kFrameTraced |
                                             kFrameChecksummed)}) {
    const size_t need =
        ((flags & kFrameTraced) != 0 ? kTraceContextSize : 0) +
        ((flags & kFrameChecksummed) != 0 ? kFrameChecksumSize : 0);
    Bytes frame = bye;
    frame[2] = flags;
    for (size_t len = 0; len < need; ++len) {
      EncodeU32(frame.data() + 4, static_cast<uint32_t>(len));
      EXPECT_EQ(DecodeFrameHeader(frame).status().code(),
                StatusCode::kCorruption)
          << "flags " << int{flags} << " payload_len " << len;
    }
    EncodeU32(frame.data() + 4, static_cast<uint32_t>(need));
    EXPECT_TRUE(DecodeFrameHeader(frame).ok()) << "flags " << int{flags};
  }
}

TEST(NetCodecTest, ChecksumRejectsEverySingleBitFlip) {
  // The trailer covers header, trace block and body, and each FNV-1a64 step
  // is a bijection, so every single-bit flip of a checksummed frame —
  // traced or not, in any field, the trailer included — is rejected, even
  // one that leaves a plain frame decodable (a round-kind or counter bit).
  size_t checked = 0;
  for (const Message& m : AllFrames()) {
    if (!m.checksummed) {
      continue;
    }
    const Bytes frame = EncodeMessage(m);
    for (size_t i = 0; i < frame.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        Bytes flipped = frame;
        flipped[i] ^= static_cast<uint8_t>(1u << bit);
        EXPECT_FALSE(DecodeMessage(flipped).ok())
            << Label(m) << " byte " << i << " bit " << bit;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u);

  // Header coverage: Bye and StatsRequest both have empty bodies, so a
  // retyped frame is caught by the trailer alone.
  Bytes retyped = EncodeMessage({ByeMsg{}, {}, true});
  retyped[3] = static_cast<uint8_t>(MsgType::kStatsRequest);
  EXPECT_EQ(DecodeMessage(retyped).status().code(), StatusCode::kCorruption);
  retyped = EncodeMessage({ByeMsg{}});
  retyped[3] = static_cast<uint8_t>(MsgType::kStatsRequest);
  EXPECT_TRUE(DecodeMessage(retyped).ok());  // a plain frame cannot tell
}

TEST(NetCodecTest, StatsReplyRejectsOversizedDeclaredJson) {
  // A lying JSON length past kMaxStatsJsonBytes must be rejected before the
  // decoder sizes the string.
  Bytes frame;
  PutU16(&frame, kMagic);
  frame.push_back(0);  // flags: a plain frame
  frame.push_back(static_cast<uint8_t>(MsgType::kStatsReply));
  PutU32(&frame, 4);  // payload: just the string length
  PutU32(&frame, static_cast<uint32_t>(kMaxStatsJsonBytes + 1));
  auto decoded = DecodeMessage(frame);
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(NetCodecTest, HeaderRejectsUnknownType) {
  Bytes frame = EncodeMessage({ByeMsg{}});
  frame[3] = 200;
  EXPECT_EQ(DecodeMessage(frame).status().code(), StatusCode::kCorruption);
}

TEST(NetCodecTest, HeaderRejectsOversizedDeclaredLength) {
  // A lying length field must be rejected from the 8 header bytes alone,
  // before any payload allocation.
  Bytes frame = EncodeMessage({ByeMsg{}});
  EncodeU32(frame.data() + 4, static_cast<uint32_t>(kMaxFramePayload + 1));
  EXPECT_EQ(DecodeFrameHeader(frame).status().code(),
            StatusCode::kCorruption);
}

TEST(NetCodecTest, RejectsLengthMismatch) {
  TupleBatchMsg tb;
  tb.round_id = 1;
  tb.batch = {SomeCiphertext(1, 10)};
  Bytes frame = EncodeMessage({tb});
  frame.push_back(0);  // trailing junk beyond the declared payload
  EXPECT_EQ(DecodeMessage(frame).status().code(), StatusCode::kCorruption);
}

TEST(NetCodecTest, RejectsTrailingBytesInsidePayload) {
  // Junk *inside* the declared payload (decoder finishes early).
  Bytes frame = EncodeMessage({HelloAckMsg{true}});
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
  frame.push_back(0);  // flags: a plain frame
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
  // Every proper prefix of every untraced frame, checksummed or not.
  for (const Message& m : AllFrames(/*traced=*/false)) {
    ExpectTruncationsFail(m);
  }
}

TEST(NetCodecTest, TraceContextTruncationSweepNeverSucceeds) {
  // Every proper prefix of every traced frame, checksummed or not.
  for (const Message& m : AllFrames(/*traced=*/true)) {
    ExpectTruncationsFail(m);
  }
}

TEST(NetCodecTest, MutationSweepIsErrorClean) {
  // Flip every byte of every message type two ways. A mutation may still
  // decode (e.g. a flipped bit inside a counter value) but must never
  // crash, read out of bounds, or leave a half-built message — and
  // whatever decodes must re-encode cleanly.
  for (const Message& m : AllFrames()) {
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
  Bytes frame = EncodeMessage({HelloAckMsg{true}});
  auto wrong = DecodeAs<TupleBatchMsg>(frame);
  EXPECT_EQ(wrong.status().code(), StatusCode::kFailedPrecondition);
  auto right = DecodeAs<HelloAckMsg>(frame);
  ASSERT_TRUE(right.ok());
  EXPECT_TRUE(right->accepted);
}

TEST(NetCodecTest, DecodeAsSurfacesPeerError) {
  Bytes frame = EncodeMessage({ErrorMsg{1, "token on fire"}});
  auto got = DecodeAs<TupleBatchMsg>(frame);
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(got.status().message().find("token on fire"), std::string::npos);
}

TEST(NetCodecTest, EmptyBatchAndEmptyEntriesRoundTrip) {
  RoundRequestMsg req;
  req.header = {1, RoundKind::kCollect, global::AggFunc::kSum};
  auto decoded = DecodeMessage(EncodeMessage({req}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(std::get<RoundRequestMsg>(decoded->body).batch.empty());

  AggResultMsg ar;
  ar.round_id = 2;
  auto decoded2 = DecodeMessage(EncodeMessage({ar}));
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
