#include "net/codec.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "common/hash.h"

namespace pds::net {

namespace {

/// Appends payload bytes after an 8-byte header placeholder; Seal() patches
/// the header once the payload length is known and, on a checksummed frame,
/// appends the trailer over everything written before it.
class Writer {
 public:
  Writer(MsgType type, uint8_t flags) : type_(type), flags_(flags) {
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
    const bool checksummed = (flags_ & kFrameChecksummed) != 0;
    uint32_t payload_len = static_cast<uint32_t>(
        out_.size() - kFrameHeaderSize +
        (checksummed ? kFrameChecksumSize : 0));
    uint8_t* p = out_.data();
    p[0] = static_cast<uint8_t>(kMagic & 0xff);
    p[1] = static_cast<uint8_t>(kMagic >> 8);
    p[2] = flags_;
    p[3] = static_cast<uint8_t>(type_);
    EncodeU32(p + 4, payload_len);
    if (checksummed) {
      // The trailer covers the header too, so a flipped flag, type or
      // length byte is caught like any other.
      PutU64(&out_, Fnv1a64(ByteView(out_.data(), out_.size())));
    }
    return std::move(out_);
  }

 private:
  MsgType type_;
  uint8_t flags_;
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

void PutBatch(Writer* w, const std::vector<Bytes>& batch) {
  w->U32(static_cast<uint32_t>(batch.size()));
  for (const Bytes& ct : batch) {
    w->Blob(ct);
  }
}

void PutBody(Writer* w, const ChallengeMsg& m) { w->Blob(m.nonce); }

void PutBody(Writer* w, const HelloMsg& m) {
  w->U64(m.token_id);
  w->Blob(ByteView(m.proof.data(), m.proof.size()));
}

void PutBody(Writer* w, const HelloAckMsg& m) { w->U8(m.accepted ? 1 : 0); }

void PutBody(Writer* w, const RoundRequestMsg& m) {
  w->U32(m.header.round_id);
  w->U8(static_cast<uint8_t>(m.header.kind));
  w->U8(static_cast<uint8_t>(m.header.func));
  PutBatch(w, m.batch);
}

void PutBody(Writer* w, const TupleBatchMsg& m) {
  w->U32(m.round_id);
  w->U64(m.token_ops);
  PutBatch(w, m.batch);
}

void PutBody(Writer* w, const AggResultMsg& m) {
  w->U32(m.round_id);
  w->U64(m.token_ops);
  w->U32(static_cast<uint32_t>(m.entries.size()));
  for (const AggResultEntry& e : m.entries) {
    w->Blob(ByteView(std::string_view(e.group)));
    w->F64(e.sum);
    w->U64(e.count);
  }
}

void PutBody(Writer* w, const ErrorMsg& m) {
  w->U8(m.code);
  w->Blob(ByteView(std::string_view(m.message)));
}

void PutBody(Writer* /*w*/, const ByeMsg& /*m*/) {}

void PutBody(Writer* /*w*/, const StatsRequestMsg& /*m*/) {}

void PutBody(Writer* w, const StatsReplyMsg& m) {
  w->Blob(ByteView(std::string_view(m.json)));
}

}  // namespace

Bytes EncodeMessage(const Message& m) {
  const uint8_t flags =
      static_cast<uint8_t>((m.trace.has_value() ? kFrameTraced : 0) |
                           (m.checksummed ? kFrameChecksummed : 0));
  Writer w(m.type(), flags);
  if (m.trace.has_value()) {
    w.U64(m.trace->trace_id);
    w.U64(m.trace->parent_span_id);
  }
  std::visit([&w](const auto& body) { PutBody(&w, body); }, m.body);
  return std::move(w).Seal();
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

Result<FrameHeader> DecodeFrameHeader(ByteView bytes) {
  if (bytes.size() < kFrameHeaderSize) {
    return Status::Corruption("frame header truncated");
  }
  if (GetU16(bytes.data()) != kMagic) {
    return Status::Corruption("bad frame magic");
  }
  FrameHeader h;
  h.flags = bytes[2];
  if ((h.flags & ~(kFrameTraced | kFrameChecksummed)) != 0) {
    return Status::Corruption("undefined frame flag bits " +
                              std::to_string(h.flags));
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
  // The declared payload must hold the trace block and trailer the flags
  // announce; rejecting here means a truncated block never reaches payload
  // allocation.
  const size_t framing =
      ((h.flags & kFrameTraced) != 0 ? kTraceContextSize : 0) +
      ((h.flags & kFrameChecksummed) != 0 ? kFrameChecksumSize : 0);
  if (h.payload_len < framing) {
    return Status::Corruption(
        "frame declares payload shorter than its trace block and checksum");
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
  if ((h.flags & kFrameChecksummed) != 0) {
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
  if ((h.flags & kFrameTraced) != 0) {
    TraceContext ctx;
    PDS_ASSIGN_OR_RETURN(ctx.trace_id, r.U64());
    PDS_ASSIGN_OR_RETURN(ctx.parent_span_id, r.U64());
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
