#ifndef PDS_NET_CODEC_H_
#define PDS_NET_CODEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/sha256.h"
#include "global/common.h"

/// pds::net codec — the length-prefixed binary wire format of the
/// token <-> SSI link.
///
/// Every frame is
///
///   [magic u16][flags u8][type u8][payload_len u32][payload bytes]
///
/// (little endian, 8-byte header). Two flag bits say what wraps the message
/// body inside the payload, and they combine freely:
///
///   bit 0 (kFrameTraced)       a 16-byte trace block, trace_id u64 and
///                              parent_span_id u64, opens the payload;
///   bit 1 (kFrameChecksummed)  an 8-byte FNV-1a64 trailer over the header,
///                              trace block and body closes it.
///
/// Any other bit is Corruption. Both blocks count inside payload_len, so
/// transports stream every frame alike. Deserialization is total: any
/// truncated, oversized or corrupt input returns a Status — never UB, never
/// a partial message. Every declared length is checked against a
/// compile-time maximum (kMax*) *before* any allocation, so a hostile peer
/// cannot make the SSI or a token allocate from a lying length field.
namespace pds::net {

inline constexpr uint16_t kMagic = 0x50D5;
inline constexpr size_t kFrameHeaderSize = 8;
inline constexpr uint8_t kFrameTraced = 1u << 0;
/// The checksum is an *accident* detector for damaged links — it is not a
/// MAC and detects no adversary; the integrity layer
/// (global::IntegrityVerdict) owns tamper detection.
inline constexpr uint8_t kFrameChecksummed = 1u << 1;
/// trace_id u64 + parent_span_id u64.
inline constexpr size_t kTraceContextSize = 16;
/// FNV-1a64 trailer of a checksummed frame.
inline constexpr size_t kFrameChecksumSize = 8;

/// Compile-time bounds a decoder must check declared lengths against before
/// allocating (the pdslint `net-bounded-frame` rule enforces the pattern).
inline constexpr size_t kMaxFramePayload = 1u << 20;  // 1 MiB per frame
inline constexpr size_t kMaxBatchTuples = 1u << 16;   // cts per batch
inline constexpr size_t kMaxTupleBytes = 1u << 16;    // one ciphertext
inline constexpr size_t kMaxGroupBytes = 1u << 10;    // one group label
inline constexpr size_t kMaxPartitions = 1u << 16;    // partition map rows
inline constexpr size_t kMaxNonceBytes = 64;          // handshake nonce
inline constexpr size_t kMaxPackedSlots = 256;        // packed-round domain labels
inline constexpr size_t kMaxPackedCiphertextBytes = 2048;  // one packed ct (n^2)
inline constexpr size_t kMaxStatsJsonBytes = 1u << 16;     // kStats reply JSON

enum class MsgType : uint8_t {
  kChallenge = 1,     // SSI -> token: prove fleet membership for this nonce
  kHello = 2,         // token -> SSI: token id + attestation proof
  kHelloAck = 3,      // SSI -> token: session accepted or refused
  kRoundRequest = 4,  // SSI -> token: protocol round header (+ batch)
  kPartitionMap = 5,  // SSI -> token: partition layout of this round
  kTupleBatch = 6,    // token -> SSI: encrypted tuple/partial-agg batch
  kAggResult = 7,     // token -> SSI: plaintext final aggregate
  kError = 8,         // either direction
  kBye = 9,           // SSI -> token: session over
  kStatsRequest = 10, // admin -> SSI: ask for the live stats snapshot
  kStatsReply = 11,   // SSI -> admin: registry + telemetry JSON
};

enum class RoundKind : uint8_t {
  kCollect = 1,    // encrypt and send your authorized tuples
  kAggregate = 2,  // decrypt batch, aggregate by group, re-encrypt partials
  kFinalize = 3,   // decrypt batch, return the plaintext aggregate
  // Slot-packed Paillier round: the request's batch carries the public
  // group domain (one label per entry, slot order); the token folds its
  // tuples into per-domain (sum, count) counters, packs them into ONE
  // Paillier plaintext and replies with a single-ciphertext TupleBatch.
  kPackedCollect = 4,
  // Sealed collect: like kCollect, but every ciphertext is wrapped in a
  // MAC'd global::SealedTuple and the reply batch opens with the token's
  // signed contribution manifest, so the querier can audit a weakly-
  // malicious SSI (substitution/replay/omission all fail verification).
  kSealedCollect = 5,
  // Deterministic-encryption collect for the [TNP14] white-noise /
  // domain-noise / histogram protocols: batch entry 0 is an encoded
  // DetParams blob, entries 1.. are domain labels (domain-noise only).
  kDetCollect = 6,
  // Class aggregation: decrypt the batch (entry 0 = deterministic group
  // ciphertext, entries 1.. = payloads), aggregate, return the plaintext
  // class aggregate — fake classes return an empty result.
  kClassAggregate = 7,
};

/// Which deterministic-encryption [TNP14] protocol a kDetCollect round runs.
enum class DetVariant : uint8_t {
  kWhiteNoise = 1,   // noise_ratio fake tuples per real tuple, random labels
  kDomainNoise = 2,  // fakes_per_value fakes per public domain value
  kHistogram = 3,    // plaintext FNV bucket of the group, num_buckets wide
};

/// Public per-round parameters of a kDetCollect request, carried as batch
/// entry 0 (a fixed 25-byte blob, no allocation on decode). Nothing in here
/// is secret: noise seeds only make *fake-tuple labels* reproducible.
struct DetParams {
  DetVariant variant = DetVariant::kWhiteNoise;
  double noise_ratio = 0.2;      // white noise: fakes per real tuple
  uint64_t noise_seed = 7;       // white noise: per-token label stream seed
  uint32_t fakes_per_value = 1;  // domain noise: fakes per domain value
  uint32_t num_buckets = 16;     // histogram: bucket count
  bool operator==(const DetParams&) const = default;
};

/// Fixed encoded size of a DetParams blob.
inline constexpr size_t kDetParamsSize = 25;

struct ChallengeMsg {
  Bytes nonce;
  bool operator==(const ChallengeMsg&) const = default;
};

struct HelloMsg {
  uint64_t token_id = 0;
  crypto::Sha256::Digest proof{};
  bool operator==(const HelloMsg&) const = default;
};

struct HelloAckMsg {
  bool accepted = false;
  bool operator==(const HelloAckMsg&) const = default;
};

/// Protocol round header: identifies one logical request. Retries of the
/// same request reuse the round id, so a late duplicate reply is detectable.
struct RoundHeader {
  uint32_t round_id = 0;
  RoundKind kind = RoundKind::kCollect;
  global::AggFunc func = global::AggFunc::kSum;
  bool operator==(const RoundHeader&) const = default;
};

struct RoundRequestMsg {
  RoundHeader header;
  std::vector<Bytes> batch;  // empty for kCollect
  bool operator==(const RoundRequestMsg&) const = default;
};

struct PartitionAssignment {
  uint32_t partition = 0;  // partition index within the round
  uint32_t session = 0;    // session index that aggregates it
  uint32_t num_items = 0;  // ciphertexts in the partition
  bool operator==(const PartitionAssignment&) const = default;
};

struct PartitionMapMsg {
  uint32_t round_id = 0;
  std::vector<PartitionAssignment> parts;
  bool operator==(const PartitionMapMsg&) const = default;
};

struct TupleBatchMsg {
  uint32_t round_id = 0;
  uint64_t token_ops = 0;  // crypto ops spent producing this batch
  std::vector<Bytes> batch;
  bool operator==(const TupleBatchMsg&) const = default;
};

struct AggResultEntry {
  std::string group;
  double sum = 0;
  uint64_t count = 0;
  bool operator==(const AggResultEntry&) const = default;
};

struct AggResultMsg {
  uint32_t round_id = 0;
  uint64_t token_ops = 0;
  std::vector<AggResultEntry> entries;
  bool operator==(const AggResultMsg&) const = default;
};

struct ErrorMsg {
  uint8_t code = 0;
  std::string message;
  bool operator==(const ErrorMsg&) const = default;
};

struct ByeMsg {
  bool operator==(const ByeMsg&) const = default;
};

/// Admin frame: ask the SSI for its live stats snapshot. Carries nothing —
/// the reply is gated on which transport it arrives over, not on payload.
struct StatsRequestMsg {
  bool operator==(const StatsRequestMsg&) const = default;
};

/// Live stats snapshot: a JSON document (registry metrics, per-session
/// telemetry, delta-snapshot ring). Bounded by kMaxStatsJsonBytes on decode.
struct StatsReplyMsg {
  std::string json;
  bool operator==(const StatsReplyMsg&) const = default;
};

/// Distributed-trace context carried by traced frames: the sender's span
/// id that receiver-side spans should parent under. A sender attaches it
/// only to sampled operations, so its presence is the sampling decision.
/// Trace ids must come from the *non-secret* RNG — the block travels in
/// cleartext, and EncodeMessage is a secret-flow sink.
struct TraceContext {
  uint64_t trace_id = 0;        // one id per distributed operation
  uint64_t parent_span_id = 0;  // sender-side span to parent under
  bool operator==(const TraceContext&) const = default;
};

/// Decoded frame: the variant order matches the MsgType values.
using MessageBody =
    std::variant<ChallengeMsg, HelloMsg, HelloAckMsg, RoundRequestMsg,
                 PartitionMapMsg, TupleBatchMsg, AggResultMsg, ErrorMsg,
                 ByeMsg, StatsRequestMsg, StatsReplyMsg>;

struct Message {
  MessageBody body;
  /// Encoded as the trace block (flag bit 0) when set; DecodeMessage sets
  /// it iff the frame was traced.
  std::optional<TraceContext> trace = std::nullopt;
  /// Encoded with the checksum trailer (flag bit 1) when true;
  /// DecodeMessage sets it iff the frame carried a trailer that verified.
  bool checksummed = false;
  [[nodiscard]] MsgType type() const {
    return static_cast<MsgType>(body.index() + 1);
  }
  bool operator==(const Message&) const = default;
};

/// Parsed frame header (magic and flag bits already verified).
struct FrameHeader {
  uint8_t flags = 0;
  MsgType type = MsgType::kError;
  uint32_t payload_len = 0;
};

/// Serializes one message into a complete frame in one pass: the header,
/// the trace block when `m.trace` is set, the body, and the checksum
/// trailer when `m.checksummed`.
///
/// The one encoder is a secret-flow sink: bytes handed to it cross the
/// token/SSI trust boundary onto the wire, so anything secret-tagged must
/// pass through Encrypt*/Hmac first or carry an explicit declassify.
// pdslint: sink(EncodeMessage)
[[nodiscard]] Bytes EncodeMessage(const Message& m);

/// Encodes DetParams into its fixed 25-byte blob (batch entry 0 of a
/// kDetCollect request) — not a frame, carries no header.
[[nodiscard]] Bytes EncodeDetParams(const DetParams& p);

/// Decodes a DetParams blob; the blob must be exactly kDetParamsSize bytes
/// with a known variant and a finite, non-negative noise ratio.
[[nodiscard]] Result<DetParams> DecodeDetParams(ByteView blob);

/// Number of tuples a token sends in a kDetCollect round: its `real_count`
/// tuples plus the fakes `p` asks for (white noise: real_count *
/// noise_ratio, rounded down; domain noise: fakes_per_value per value of a
/// `domain_size` domain). InvalidArgument when the ratio is not a finite
/// non-negative number, or when the list would not fit one reply batch
/// (kMaxBatchTuples / 2 key+payload pairs). The token's guard against
/// hostile parameters from the untrusted SSI; the in-process protocols run
/// the same check on their Config before any frame is sent.
[[nodiscard]] Result<size_t> DetSendListSize(const DetParams& p,
                                             size_t real_count,
                                             size_t domain_size);

/// Validates magic, flag bits and type, and that the declared payload
/// length is within kMaxFramePayload and holds the trace block and trailer
/// the flags announce. `bytes` must hold at least kFrameHeaderSize bytes;
/// the declared length may exceed what follows (streaming callers use the
/// header to know how much more to read).
[[nodiscard]] Result<FrameHeader> DecodeFrameHeader(ByteView bytes);

/// Decodes one complete frame. The payload must be exactly the declared
/// length, a checksum trailer must verify before the body is parsed, and
/// every contained field must be in bounds; trailing bytes are a Corruption
/// error.
[[nodiscard]] Result<Message> DecodeMessage(ByteView frame);

/// Decodes a frame and requires it to be the given message type, otherwise
/// FailedPrecondition (or the peer's ErrorMsg turned into a Status).
template <typename T>
[[nodiscard]] Result<T> DecodeAs(ByteView frame) {
  PDS_ASSIGN_OR_RETURN(Message m, DecodeMessage(frame));
  if (const ErrorMsg* err = std::get_if<ErrorMsg>(&m.body);
      err != nullptr && !std::is_same_v<T, ErrorMsg>) {
    return Status::FailedPrecondition("peer error: " + err->message);
  }
  T* got = std::get_if<T>(&m.body);
  if (got == nullptr) {
    return Status::FailedPrecondition(
        "unexpected message type " +
        std::to_string(static_cast<int>(m.type())));
  }
  return std::move(*got);
}

}  // namespace pds::net

#endif  // PDS_NET_CODEC_H_
