#include "net/codec.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "common/hash.h"

namespace pds::net {

namespace {

/// Appends payload bytes after an 8-byte header placeholder; Seal() patches
/// the header once the payload length is known.
class Writer {
 public:
  explicit Writer(MsgType type) : type_(type) {
    out_.resize(kFrameHeaderSize);
  }

  void U8(uint8_t v) { out_.push_back(v); }
  void U32(uint32_t v) { PutU32(&out_, v); }
  void U64(uint64_t v) { PutU64(&out_, v); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    PutU64(&out_, bits);
  }
  void Blob(ByteView v) {
    PutU32(&out_, static_cast<uint32_t>(v.size()));
    out_.insert(out_.end(), v.data(), v.data() + v.size());
  }

  [[nodiscard]] Bytes Seal() && {
    uint32_t payload_len =
        static_cast<uint32_t>(out_.size() - kFrameHeaderSize);
    uint8_t* p = out_.data();
    p[0] = static_cast<uint8_t>(kMagic & 0xff);
    p[1] = static_cast<uint8_t>(kMagic >> 8);
    p[2] = kWireVersion;
    p[3] = static_cast<uint8_t>(type_);
    EncodeU32(p + 4, payload_len);
    return std::move(out_);
  }

 private:
  MsgType type_;
  Bytes out_;
};

/// Bounds-checked cursor over a frame payload. Every read returns a Status
/// on truncation; Blob/Str reject declared lengths above the caller's
/// compile-time maximum before touching (or allocating) anything.
class Reader {
 public:
  explicit Reader(ByteView in) : in_(in) {}

  [[nodiscard]] Result<uint8_t> U8() {
    PDS_RETURN_IF_ERROR(Need(1));
    return in_[pos_++];
  }
  [[nodiscard]] Result<uint32_t> U32() {
    PDS_RETURN_IF_ERROR(Need(4));
    uint32_t v = GetU32(in_.data() + pos_);
    pos_ += 4;
    return v;
  }
  [[nodiscard]] Result<uint64_t> U64() {
    PDS_RETURN_IF_ERROR(Need(8));
    uint64_t v = GetU64(in_.data() + pos_);
    pos_ += 8;
    return v;
  }
  [[nodiscard]] Result<double> F64() {
    PDS_ASSIGN_OR_RETURN(uint64_t bits, U64());
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  /// Length-prefixed blob; `max` is the field's compile-time bound.
  [[nodiscard]] Result<Bytes> Blob(size_t max) {
    PDS_ASSIGN_OR_RETURN(uint32_t len, U32());
    if (len > max) {
      return Status::Corruption("blob length " + std::to_string(len) +
                                " exceeds bound " + std::to_string(max));
    }
    PDS_RETURN_IF_ERROR(Need(len));
    Bytes out(in_.data() + pos_, in_.data() + pos_ + len);
    pos_ += len;
    return out;
  }
  [[nodiscard]] Result<std::string> Str(size_t max) {
    PDS_ASSIGN_OR_RETURN(Bytes b, Blob(max));
    return std::string(b.begin(), b.end());
  }
  /// Decoders must end exactly at the payload boundary; trailing bytes mean
  /// a corrupt or mis-framed message.
  [[nodiscard]] Status AtEnd() const {
    if (pos_ != in_.size()) {
      return Status::Corruption("trailing bytes after message payload");
    }
    return Status::Ok();
  }

 private:
  [[nodiscard]] Status Need(size_t n) const {
    if (in_.size() - pos_ < n) {
      return Status::Corruption("truncated message payload");
    }
    return Status::Ok();
  }

  ByteView in_;
  size_t pos_ = 0;
};

[[nodiscard]] Result<ChallengeMsg> DecodeChallenge(Reader* r) {
  ChallengeMsg m;
  PDS_ASSIGN_OR_RETURN(m.nonce, r->Blob(kMaxNonceBytes));
  return m;
}

[[nodiscard]] Result<HelloMsg> DecodeHello(Reader* r) {
  HelloMsg m;
  PDS_ASSIGN_OR_RETURN(m.token_id, r->U64());
  PDS_ASSIGN_OR_RETURN(Bytes proof, r->Blob(crypto::Sha256::kDigestSize));
  if (proof.size() != crypto::Sha256::kDigestSize) {
    return Status::Corruption("hello proof is not a digest");
  }
  std::memcpy(m.proof.data(), proof.data(), proof.size());
  return m;
}

[[nodiscard]] Result<HelloAckMsg> DecodeHelloAck(Reader* r) {
  HelloAckMsg m;
  PDS_ASSIGN_OR_RETURN(uint8_t accepted, r->U8());
  m.accepted = accepted != 0;
  return m;
}

[[nodiscard]] Result<RoundHeader> DecodeRoundHeader(Reader* r) {
  RoundHeader h;
  PDS_ASSIGN_OR_RETURN(h.round_id, r->U32());
  PDS_ASSIGN_OR_RETURN(uint8_t kind, r->U8());
  if (kind < 1 || kind > static_cast<uint8_t>(RoundKind::kClassAggregate)) {
    return Status::Corruption("bad round kind");
  }
  h.kind = static_cast<RoundKind>(kind);
  PDS_ASSIGN_OR_RETURN(uint8_t func, r->U8());
  if (func > 2) {
    return Status::Corruption("bad agg func");
  }
  h.func = static_cast<global::AggFunc>(func);
  return h;
}

[[nodiscard]] Result<std::vector<Bytes>> DecodeBatch(Reader* r) {
  PDS_ASSIGN_OR_RETURN(uint32_t n, r->U32());
  if (n > kMaxBatchTuples) {
    return Status::Corruption("batch count exceeds kMaxBatchTuples");
  }
  std::vector<Bytes> batch;
  batch.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    PDS_ASSIGN_OR_RETURN(Bytes ct, r->Blob(kMaxTupleBytes));
    batch.push_back(std::move(ct));
  }
  return batch;
}

/// Packed-collect requests carry the slot domain labels, one per slot pair,
/// not ciphertexts: a much tighter count bound applies (kMaxPackedSlots vs
/// kMaxBatchTuples) and each entry is a group label, not a tuple blob.
[[nodiscard]] Result<std::vector<Bytes>> DecodePackedDomain(Reader* r) {
  PDS_ASSIGN_OR_RETURN(uint32_t n, r->U32());
  if (n > kMaxPackedSlots) {
    return Status::Corruption("packed domain exceeds kMaxPackedSlots");
  }
  std::vector<Bytes> domain;
  domain.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    PDS_ASSIGN_OR_RETURN(Bytes label, r->Blob(kMaxGroupBytes));
    domain.push_back(std::move(label));
  }
  return domain;
}

[[nodiscard]] Result<RoundRequestMsg> DecodeRoundRequest(Reader* r) {
  RoundRequestMsg m;
  PDS_ASSIGN_OR_RETURN(m.header, DecodeRoundHeader(r));
  if (m.header.kind == RoundKind::kPackedCollect) {
    PDS_ASSIGN_OR_RETURN(m.batch, DecodePackedDomain(r));
  } else {
    PDS_ASSIGN_OR_RETURN(m.batch, DecodeBatch(r));
  }
  return m;
}

[[nodiscard]] Result<PartitionMapMsg> DecodePartitionMap(Reader* r) {
  PartitionMapMsg m;
  PDS_ASSIGN_OR_RETURN(m.round_id, r->U32());
  PDS_ASSIGN_OR_RETURN(uint32_t n, r->U32());
  if (n > kMaxPartitions) {
    return Status::Corruption("partition count exceeds kMaxPartitions");
  }
  m.parts.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    PartitionAssignment a;
    PDS_ASSIGN_OR_RETURN(a.partition, r->U32());
    PDS_ASSIGN_OR_RETURN(a.session, r->U32());
    PDS_ASSIGN_OR_RETURN(a.num_items, r->U32());
    m.parts.push_back(a);
  }
  return m;
}

[[nodiscard]] Result<TupleBatchMsg> DecodeTupleBatch(Reader* r) {
  TupleBatchMsg m;
  PDS_ASSIGN_OR_RETURN(m.round_id, r->U32());
  PDS_ASSIGN_OR_RETURN(m.token_ops, r->U64());
  PDS_ASSIGN_OR_RETURN(m.batch, DecodeBatch(r));
  return m;
}

[[nodiscard]] Result<AggResultMsg> DecodeAggResult(Reader* r) {
  AggResultMsg m;
  PDS_ASSIGN_OR_RETURN(m.round_id, r->U32());
  PDS_ASSIGN_OR_RETURN(m.token_ops, r->U64());
  PDS_ASSIGN_OR_RETURN(uint32_t n, r->U32());
  if (n > kMaxBatchTuples) {
    return Status::Corruption("result count exceeds kMaxBatchTuples");
  }
  m.entries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    AggResultEntry e;
    PDS_ASSIGN_OR_RETURN(e.group, r->Str(kMaxGroupBytes));
    PDS_ASSIGN_OR_RETURN(e.sum, r->F64());
    PDS_ASSIGN_OR_RETURN(e.count, r->U64());
    m.entries.push_back(std::move(e));
  }
  return m;
}

[[nodiscard]] Result<ErrorMsg> DecodeError(Reader* r) {
  ErrorMsg m;
  PDS_ASSIGN_OR_RETURN(m.code, r->U8());
  PDS_ASSIGN_OR_RETURN(m.message, r->Str(kMaxGroupBytes));
  return m;
}

[[nodiscard]] Result<StatsReplyMsg> DecodeStatsReply(Reader* r) {
  StatsReplyMsg m;
  PDS_ASSIGN_OR_RETURN(m.json, r->Str(kMaxStatsJsonBytes));
  return m;
}

/// Fixed-size trace block at the head of a version-2 payload. No
/// allocation; the flags byte must only carry defined bits.
[[nodiscard]] Result<TraceContext> DecodeTraceContext(Reader* r) {
  TraceContext ctx;
  PDS_ASSIGN_OR_RETURN(ctx.trace_id, r->U64());
  PDS_ASSIGN_OR_RETURN(ctx.parent_span_id, r->U64());
  PDS_ASSIGN_OR_RETURN(uint8_t flags, r->U8());
  if ((flags & ~uint8_t{1}) != 0) {
    return Status::Corruption("undefined trace-context flag bits");
  }
  ctx.sampled = (flags & 1) != 0;
  return ctx;
}

void PutBatch(Writer* w, const std::vector<Bytes>& batch) {
  w->U32(static_cast<uint32_t>(batch.size()));
  for (const Bytes& ct : batch) {
    w->Blob(ct);
  }
}

}  // namespace

Bytes EncodeChallenge(const ChallengeMsg& m) {
  Writer w(MsgType::kChallenge);
  w.Blob(m.nonce);
  return std::move(w).Seal();
}

Bytes EncodeHello(const HelloMsg& m) {
  Writer w(MsgType::kHello);
  w.U64(m.token_id);
  w.Blob(ByteView(m.proof.data(), m.proof.size()));
  return std::move(w).Seal();
}

Bytes EncodeHelloAck(const HelloAckMsg& m) {
  Writer w(MsgType::kHelloAck);
  w.U8(m.accepted ? 1 : 0);
  return std::move(w).Seal();
}

Bytes EncodeRoundRequest(const RoundRequestMsg& m) {
  Writer w(MsgType::kRoundRequest);
  w.U32(m.header.round_id);
  w.U8(static_cast<uint8_t>(m.header.kind));
  w.U8(static_cast<uint8_t>(m.header.func));
  PutBatch(&w, m.batch);
  return std::move(w).Seal();
}

Bytes EncodePartitionMap(const PartitionMapMsg& m) {
  Writer w(MsgType::kPartitionMap);
  w.U32(m.round_id);
  w.U32(static_cast<uint32_t>(m.parts.size()));
  for (const PartitionAssignment& a : m.parts) {
    w.U32(a.partition);
    w.U32(a.session);
    w.U32(a.num_items);
  }
  return std::move(w).Seal();
}

Bytes EncodeTupleBatch(const TupleBatchMsg& m) {
  Writer w(MsgType::kTupleBatch);
  w.U32(m.round_id);
  w.U64(m.token_ops);
  PutBatch(&w, m.batch);
  return std::move(w).Seal();
}

Bytes EncodeAggResult(const AggResultMsg& m) {
  Writer w(MsgType::kAggResult);
  w.U32(m.round_id);
  w.U64(m.token_ops);
  w.U32(static_cast<uint32_t>(m.entries.size()));
  for (const AggResultEntry& e : m.entries) {
    w.Blob(ByteView(std::string_view(e.group)));
    w.F64(e.sum);
    w.U64(e.count);
  }
  return std::move(w).Seal();
}

Bytes EncodeError(const ErrorMsg& m) {
  Writer w(MsgType::kError);
  w.U8(m.code);
  w.Blob(ByteView(std::string_view(m.message)));
  return std::move(w).Seal();
}

Bytes EncodeBye() { return std::move(Writer(MsgType::kBye)).Seal(); }

Bytes EncodeStatsRequest() {
  return std::move(Writer(MsgType::kStatsRequest)).Seal();
}

Bytes EncodeStatsReply(const StatsReplyMsg& m) {
  Writer w(MsgType::kStatsReply);
  w.Blob(ByteView(std::string_view(m.json)));
  return std::move(w).Seal();
}

Bytes AppendFrameChecksum(const Bytes& v1_frame) {
  Bytes out;
  out.reserve(v1_frame.size() + kFrameChecksumSize);
  out = v1_frame;
  out[2] = kWireVersionChecksummed;
  EncodeU32(out.data() + 4,
            static_cast<uint32_t>(out.size() - kFrameHeaderSize +
                                  kFrameChecksumSize));
  // Checksum covers the patched header too, so a flipped version or length
  // byte is also caught.
  uint64_t sum = Fnv1a64(ByteView(out.data(), out.size()));
  PutU64(&out, sum);
  return out;
}

Bytes EncodeDetParams(const DetParams& p) {
  Bytes out;
  out.reserve(kDetParamsSize);
  out.push_back(static_cast<uint8_t>(p.variant));
  uint64_t bits;
  std::memcpy(&bits, &p.noise_ratio, 8);
  PutU64(&out, bits);
  PutU64(&out, p.noise_seed);
  PutU32(&out, p.fakes_per_value);
  PutU32(&out, p.num_buckets);
  return out;
}

Result<DetParams> DecodeDetParams(ByteView blob) {
  if (blob.size() != kDetParamsSize) {
    return Status::Corruption("det-params blob is not " +
                              std::to_string(kDetParamsSize) + " bytes");
  }
  DetParams p;
  uint8_t variant = blob[0];
  if (variant < 1 || variant > static_cast<uint8_t>(DetVariant::kHistogram)) {
    return Status::Corruption("bad det variant");
  }
  p.variant = static_cast<DetVariant>(variant);
  uint64_t bits = GetU64(blob.data() + 1);
  std::memcpy(&p.noise_ratio, &bits, 8);
  if (!std::isfinite(p.noise_ratio) || p.noise_ratio < 0) {
    return Status::Corruption("det noise ratio is not finite and >= 0");
  }
  p.noise_seed = GetU64(blob.data() + 9);
  p.fakes_per_value = GetU32(blob.data() + 17);
  p.num_buckets = GetU32(blob.data() + 21);
  return p;
}

Result<size_t> DetSendListSize(const DetParams& p, size_t real_count,
                               size_t domain_size) {
  if (!std::isfinite(p.noise_ratio) || p.noise_ratio < 0) {
    return Status::InvalidArgument(
        "noise ratio must be a finite non-negative number");
  }
  // Counted in double so no product can overflow before the bound check.
  double fakes = 0;
  if (p.variant == DetVariant::kWhiteNoise) {
    fakes = std::floor(static_cast<double>(real_count) * p.noise_ratio);
  } else if (p.variant == DetVariant::kDomainNoise) {
    fakes = static_cast<double>(domain_size) *
            static_cast<double>(p.fakes_per_value);
  }
  constexpr size_t kMaxPairs = kMaxBatchTuples / 2;
  if (static_cast<double>(real_count) + fakes >
      static_cast<double>(kMaxPairs)) {
    return Status::InvalidArgument(
        "det send list exceeds one reply batch (kMaxBatchTuples / 2 pairs)");
  }
  return real_count + static_cast<size_t>(fakes);
}

Bytes AttachTraceContext(const Bytes& v1_frame, const TraceContext& ctx) {
  Bytes out;
  out.reserve(v1_frame.size() + kTraceContextSize);
  out.insert(out.end(), v1_frame.begin(),
             v1_frame.begin() + kFrameHeaderSize);
  out[2] = kWireVersionTraced;
  PutU64(&out, ctx.trace_id);
  PutU64(&out, ctx.parent_span_id);
  out.push_back(ctx.sampled ? uint8_t{1} : uint8_t{0});
  out.insert(out.end(), v1_frame.begin() + kFrameHeaderSize, v1_frame.end());
  EncodeU32(out.data() + 4,
            static_cast<uint32_t>(out.size() - kFrameHeaderSize));
  return out;
}

Bytes EncodeMessage(const Message& m) {
  return std::visit(
      [](const auto& body) -> Bytes {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, ChallengeMsg>) {
          return EncodeChallenge(body);
        } else if constexpr (std::is_same_v<T, HelloMsg>) {
          return EncodeHello(body);
        } else if constexpr (std::is_same_v<T, HelloAckMsg>) {
          return EncodeHelloAck(body);
        } else if constexpr (std::is_same_v<T, RoundRequestMsg>) {
          return EncodeRoundRequest(body);
        } else if constexpr (std::is_same_v<T, PartitionMapMsg>) {
          return EncodePartitionMap(body);
        } else if constexpr (std::is_same_v<T, TupleBatchMsg>) {
          return EncodeTupleBatch(body);
        } else if constexpr (std::is_same_v<T, AggResultMsg>) {
          return EncodeAggResult(body);
        } else if constexpr (std::is_same_v<T, ErrorMsg>) {
          return EncodeError(body);
        } else if constexpr (std::is_same_v<T, StatsRequestMsg>) {
          return EncodeStatsRequest();
        } else if constexpr (std::is_same_v<T, StatsReplyMsg>) {
          return EncodeStatsReply(body);
        } else {
          return EncodeBye();
        }
      },
      m.body);
}

Result<FrameHeader> DecodeFrameHeader(ByteView bytes) {
  if (bytes.size() < kFrameHeaderSize) {
    return Status::Corruption("frame header truncated");
  }
  if (GetU16(bytes.data()) != kMagic) {
    return Status::Corruption("bad frame magic");
  }
  FrameHeader h;
  h.version = bytes[2];
  if (h.version != kWireVersion && h.version != kWireVersionTraced &&
      h.version != kWireVersionChecksummed) {
    return Status::Corruption("unsupported wire version " +
                              std::to_string(h.version));
  }
  uint8_t type = bytes[3];
  if (type < 1 || type > static_cast<uint8_t>(MsgType::kStatsReply)) {
    return Status::Corruption("unknown message type " + std::to_string(type));
  }
  h.type = static_cast<MsgType>(type);
  h.payload_len = GetU32(bytes.data() + 4);
  if (h.payload_len > kMaxFramePayload) {
    return Status::Corruption("declared payload length " +
                              std::to_string(h.payload_len) +
                              " exceeds kMaxFramePayload");
  }
  // A traced frame must declare room for the fixed trace block; rejecting
  // here means a truncated trace header never reaches payload allocation.
  if (h.version == kWireVersionTraced && h.payload_len < kTraceContextSize) {
    return Status::Corruption(
        "traced frame declares payload shorter than the trace context");
  }
  // Likewise a checksummed frame must declare room for its trailer.
  if (h.version == kWireVersionChecksummed &&
      h.payload_len < kFrameChecksumSize) {
    return Status::Corruption(
        "checksummed frame declares payload shorter than the checksum");
  }
  return h;
}

Result<Message> DecodeMessage(ByteView frame) {
  PDS_ASSIGN_OR_RETURN(FrameHeader h, DecodeFrameHeader(frame));
  if (frame.size() - kFrameHeaderSize != h.payload_len) {
    return Status::Corruption("frame length does not match declared payload");
  }
  size_t body_len = h.payload_len;
  Message m;
  if (h.version == kWireVersionChecksummed) {
    body_len -= kFrameChecksumSize;
    uint64_t claimed = GetU64(frame.data() + kFrameHeaderSize + body_len);
    uint64_t actual =
        Fnv1a64(ByteView(frame.data(), kFrameHeaderSize + body_len));
    if (claimed != actual) {
      return Status::Corruption("frame checksum mismatch");
    }
    m.checksummed = true;
  }
  Reader r(frame.subview(kFrameHeaderSize, body_len));
  if (h.version == kWireVersionTraced) {
    PDS_ASSIGN_OR_RETURN(TraceContext ctx, DecodeTraceContext(&r));
    m.trace = ctx;
  }
  switch (h.type) {
    case MsgType::kChallenge: {
      PDS_ASSIGN_OR_RETURN(m.body, DecodeChallenge(&r));
      break;
    }
    case MsgType::kHello: {
      PDS_ASSIGN_OR_RETURN(m.body, DecodeHello(&r));
      break;
    }
    case MsgType::kHelloAck: {
      PDS_ASSIGN_OR_RETURN(m.body, DecodeHelloAck(&r));
      break;
    }
    case MsgType::kRoundRequest: {
      PDS_ASSIGN_OR_RETURN(m.body, DecodeRoundRequest(&r));
      break;
    }
    case MsgType::kPartitionMap: {
      PDS_ASSIGN_OR_RETURN(m.body, DecodePartitionMap(&r));
      break;
    }
    case MsgType::kTupleBatch: {
      PDS_ASSIGN_OR_RETURN(m.body, DecodeTupleBatch(&r));
      break;
    }
    case MsgType::kAggResult: {
      PDS_ASSIGN_OR_RETURN(m.body, DecodeAggResult(&r));
      break;
    }
    case MsgType::kError: {
      PDS_ASSIGN_OR_RETURN(m.body, DecodeError(&r));
      break;
    }
    case MsgType::kBye:
      m.body = ByeMsg{};
      break;
    case MsgType::kStatsRequest:
      m.body = StatsRequestMsg{};
      break;
    case MsgType::kStatsReply: {
      PDS_ASSIGN_OR_RETURN(m.body, DecodeStatsReply(&r));
      break;
    }
  }
  PDS_RETURN_IF_ERROR(r.AtEnd());
  return m;
}

}  // namespace pds::net
