#include "net/token_client.h"

#include <chrono>
#include <map>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "global/integrity.h"
#include "obs/obs.h"

namespace pds::net {

namespace {

/// Sum/count accumulation per group.
struct GroupState {
  double sum = 0;
  uint64_t count = 0;
};

/// Bound on malformed frames tolerated per session before the token gives
/// up on the stream — a hostile or broken SSI must not spin us forever.
constexpr uint32_t kMaxMalformedFrames = 8;

/// Decrypts a ciphertext batch into per-group partial aggregates, counting
/// one token op per decryption.
Result<std::map<std::string, GroupState>> DecryptAndAggregate(
    mcu::SecureToken* token, const std::vector<Bytes>& batch,
    uint64_t* token_ops) {
  std::map<std::string, GroupState> partial;
  for (const Bytes& ct : batch) {
    PDS_ASSIGN_OR_RETURN(Bytes payload, token->DecryptNonDet(ByteView(ct)));
    ++*token_ops;
    PDS_ASSIGN_OR_RETURN(global::AggPayload p,
                         global::DecodeAggPayload(ByteView(payload)));
    partial[p.group].sum += p.sum;
    partial[p.group].count += p.count;
  }
  return partial;
}

/// A handler failure that indicts the REQUEST, not the session: answered
/// with ErrorMsg{3} so the session survives a malformed round.
bool IsRequestFault(const Status& s) {
  return s.code() == StatusCode::kInvalidArgument ||
         s.code() == StatusCode::kCorruption ||
         s.code() == StatusCode::kOutOfRange;
}

}  // namespace

// ---------------------------------------------------------------------------
// TokenSession

Result<TokenSession::Outcome> TokenSession::OnFrame(ByteView frame) {
  auto decoded = DecodeMessage(frame);
  if (!decoded.ok()) {
    if (state_ != State::kServing) {
      return decoded.status();
    }
    // A garbled frame indicts the frame, not the session — answer with a
    // transient error so the SSI can retry, but give up on a stream that
    // keeps producing garbage.
    if (++malformed_seen_ > kMaxMalformedFrames) {
      return Status::Corruption("too many malformed frames from the SSI");
    }
    Outcome out;
    out.reply = EncodeMessage({ErrorMsg{3, "malformed frame"}});
    return out;
  }
  // Every reply carries the checksum bit of the frame it answers (an
  // undecodable frame has none, so its error reply above is plain).
  const Message& m = decoded.value();
  return state_ == State::kServing ? OnServingFrame(m) : OnHandshakeFrame(m);
}

Result<TokenSession::Outcome> TokenSession::OnHandshakeFrame(
    const Message& m) {
  Outcome out;
  if (const ErrorMsg* err = std::get_if<ErrorMsg>(&m.body)) {
    return Status::FailedPrecondition("peer error: " + err->message);
  }
  if (state_ == State::kAwaitChallenge) {
    const ChallengeMsg* challenge = std::get_if<ChallengeMsg>(&m.body);
    if (challenge == nullptr) {
      return Status::FailedPrecondition("handshake expected a challenge");
    }
    HelloMsg hello;
    hello.token_id = token_->id();
    PDS_ASSIGN_OR_RETURN(hello.proof,
                         token_->Attest(ByteView(challenge->nonce)));
    out.reply = EncodeMessage({hello, {}, m.checksummed});
    state_ = State::kAwaitAck;
    return out;
  }
  const HelloAckMsg* ack = std::get_if<HelloAckMsg>(&m.body);
  if (ack == nullptr) {
    return Status::FailedPrecondition("handshake expected a hello ack");
  }
  if (!ack->accepted) {
    return Status::PermissionDenied("SSI refused the session");
  }
  state_ = State::kServing;
  return out;
}

Result<TokenSession::Outcome> TokenSession::OnServingFrame(const Message& m) {
  Outcome out;
  if (std::get_if<ByeMsg>(&m.body) != nullptr) {
    out.done = true;
    return out;
  }
  if (std::get_if<PartitionMapMsg>(&m.body) != nullptr) {
    return out;  // layout announcement; the requests follow
  }
  const RoundRequestMsg* req = std::get_if<RoundRequestMsg>(&m.body);
  if (req == nullptr) {
    out.reply = EncodeMessage(
        {ErrorMsg{1, "unexpected message type"}, {}, m.checksummed});
    return out;
  }
  if (req->header.round_id < highest_round_) {
    // Replay of an already-answered round (an equal id is the SSI's
    // legitimate retry of a request we never answered).
    out.reply = EncodeMessage(
        {ErrorMsg{4, "stale round replay rejected"}, {}, m.checksummed});
    return out;
  }
  highest_round_ = req->header.round_id;
  if (swallow_budget_ > 0) {
    --swallow_budget_;  // fault plan: swallow the request silently
    out.swallowed_round = req->header.round_id;
    return out;
  }
  if (req->header.kind == RoundKind::kPackedCollect && packed_ == nullptr) {
    out.reply = EncodeMessage(
        {ErrorMsg{2, "token has no packed-Paillier context"}, {},
         m.checksummed});
    return out;
  }
  // Parent this round's handler span under the SSI's round-trip span
  // when the frame carried trace context (the SSI traces only sampled
  // rounds); the merged Chrome trace then shows one cross-process timeline
  // per round.
  obs::RemoteParent remote;
  if (m.trace.has_value()) {
    remote.span_id = m.trace->parent_span_id;
    remote.sampled = true;
  }
  Result<Bytes> handled = Status::Ok();
  switch (req->header.kind) {
    case RoundKind::kCollect: {
      obs::Span span("net.round.collect", "net", remote);
      handled = HandleCollect(*req, m.checksummed);
      break;
    }
    case RoundKind::kAggregate: {
      obs::Span span("net.round.aggregate", "net", remote);
      handled = HandleAggregate(*req, m.checksummed);
      break;
    }
    case RoundKind::kFinalize: {
      obs::Span span("net.round.finalize", "net", remote);
      handled = HandleFinalize(*req, m.checksummed);
      break;
    }
    case RoundKind::kPackedCollect: {
      obs::Span span("net.round.packed-collect", "net", remote);
      handled = HandlePackedCollect(*req, m.checksummed);
      break;
    }
    case RoundKind::kSealedCollect: {
      obs::Span span("net.round.sealed-collect", "net", remote);
      handled = HandleSealedCollect(*req, m.checksummed);
      break;
    }
    case RoundKind::kDetCollect: {
      obs::Span span("net.round.det-collect", "net", remote);
      handled = HandleDetCollect(*req, m.checksummed);
      break;
    }
    case RoundKind::kClassAggregate: {
      obs::Span span("net.round.class-aggregate", "net", remote);
      handled = HandleClassAggregate(*req, m.checksummed);
      break;
    }
  }
  if (!handled.ok()) {
    if (!IsRequestFault(handled.status())) {
      return handled.status();
    }
    if (++malformed_seen_ > kMaxMalformedFrames) {
      return Status::Corruption("too many malformed rounds from the SSI");
    }
    out.reply = EncodeMessage(
        {ErrorMsg{3, "malformed round request"}, {}, m.checksummed});
    return out;
  }
  out.reply = std::move(handled).value();
  out.answered = true;
  return out;
}

// pdslint: secret(reply)
Bytes TokenSession::SealAggResult(AggResultMsg reply, bool checksummed) const {
  // Finalize/class rounds return the decrypted per-group aggregate to the
  // querier by design -- the [TNP14] protocols' output step; only sums and
  // counts leave the token, never the tuples they were folded from.
  return EncodeMessage({std::move(reply), {}, checksummed});  // pdslint: declassify([TNP14] aggregate output step)
}

Result<Bytes> TokenSession::HandleCollect(const RoundRequestMsg& req,
                                          bool checksummed) {
  mcu::SecureToken* tok = token_;
  TupleBatchMsg reply;
  reply.round_id = req.header.round_id;
  reply.batch.reserve(tuples_->size());
  for (const global::SourceTuple& t : *tuples_) {
    Bytes payload = global::EncodeAggPayload(false, t.value, 1, t.group);
    PDS_ASSIGN_OR_RETURN(Bytes ct, tok->EncryptNonDet(ByteView(payload)));
    ++reply.token_ops;
    reply.batch.push_back(std::move(ct));
  }
  return EncodeMessage({std::move(reply), {}, checksummed});
}

Result<Bytes> TokenSession::HandlePackedCollect(const RoundRequestMsg& req,
                                                bool checksummed) {
  mcu::SecureToken* tok = token_;
  // The request's batch is the public group domain in slot order; fold
  // this token's tuples into per-domain (sum, count) counters.
  std::map<std::string, size_t> slot_of;
  for (size_t i = 0; i < req.batch.size(); ++i) {
    slot_of[ByteView(req.batch[i]).ToString()] = i;
  }
  std::vector<uint64_t> counters(2 * req.batch.size(), 0);
  for (const global::SourceTuple& t : *tuples_) {
    auto it = slot_of.find(t.group);
    if (it == slot_of.end()) {
      return Status::InvalidArgument("tuple group outside the packed domain");
    }
    if (t.value < 0 ||
        t.value != static_cast<double>(static_cast<uint64_t>(t.value))) {
      return Status::InvalidArgument(
          "packed round requires non-negative integer values");
    }
    counters[2 * it->second] += static_cast<uint64_t>(t.value);
    counters[2 * it->second + 1] += 1;
  }
  PDS_ASSIGN_OR_RETURN(crypto::BigInt ct,
                       tok->EncryptPacked(*packed_, counters));
  TupleBatchMsg reply;
  reply.round_id = req.header.round_id;
  reply.token_ops = 1;  // one packed encryption, whatever the domain size
  reply.batch.push_back(ct.ToBytes());
  return EncodeMessage({std::move(reply), {}, checksummed});
}

Result<Bytes> TokenSession::HandleAggregate(const RoundRequestMsg& req,
                                            bool checksummed) {
  mcu::SecureToken* tok = token_;
  TupleBatchMsg reply;
  reply.round_id = req.header.round_id;
  PDS_ASSIGN_OR_RETURN(
      auto partial, DecryptAndAggregate(tok, req.batch, &reply.token_ops));
  reply.batch.reserve(partial.size());
  for (const auto& [group, state] : partial) {
    Bytes payload =
        global::EncodeAggPayload(false, state.sum, state.count, group);
    PDS_ASSIGN_OR_RETURN(Bytes ct, tok->EncryptNonDet(ByteView(payload)));
    ++reply.token_ops;
    reply.batch.push_back(std::move(ct));
  }
  return EncodeMessage({std::move(reply), {}, checksummed});
}

Result<Bytes> TokenSession::HandleFinalize(const RoundRequestMsg& req,
                                           bool checksummed) {
  mcu::SecureToken* tok = token_;
  AggResultMsg reply;
  reply.round_id = req.header.round_id;
  PDS_ASSIGN_OR_RETURN(
      auto final_state, DecryptAndAggregate(tok, req.batch, &reply.token_ops));
  reply.entries.reserve(final_state.size());
  for (const auto& [group, state] : final_state) {
    reply.entries.push_back({group, state.sum, state.count});
  }
  return SealAggResult(std::move(reply), checksummed);
}

Result<Bytes> TokenSession::HandleDetCollect(const RoundRequestMsg& req,
                                             bool checksummed) {
  mcu::SecureToken* tok = token_;
  if (req.batch.empty()) {
    return Status::InvalidArgument("det collect carries no parameter blob");
  }
  PDS_ASSIGN_OR_RETURN(DetParams params,
                       DecodeDetParams(ByteView(req.batch[0])));
  // The parameters come from the untrusted SSI: refuse any send list one
  // reply batch cannot carry before generating a single fake.
  const size_t real_count = tuples_->size();
  PDS_ASSIGN_OR_RETURN(
      size_t send_count,
      DetSendListSize(params, real_count, req.batch.size() - 1));
  TupleBatchMsg reply;
  reply.round_id = req.header.round_id;

  if (params.variant == DetVariant::kHistogram) {
    // Bucket id travels in plaintext (that IS the histogram leakage); the
    // payload keeps the true group inside the non-deterministic ciphertext.
    if (params.num_buckets == 0) {
      return Status::InvalidArgument("histogram needs >= 1 bucket");
    }
    reply.batch.reserve(2 * tuples_->size());
    for (const global::SourceTuple& t : *tuples_) {
      uint32_t bucket = static_cast<uint32_t>(
          Fnv1a64(std::string_view(t.group)) % params.num_buckets);
      Bytes key(4);
      EncodeU32(key.data(), bucket);
      Bytes payload = global::EncodeAggPayload(false, t.value, 1, t.group);
      PDS_ASSIGN_OR_RETURN(Bytes ct, tok->EncryptNonDet(ByteView(payload)));
      ++reply.token_ops;
      reply.batch.push_back(std::move(key));
      reply.batch.push_back(std::move(ct));
    }
    return EncodeMessage({std::move(reply), {}, checksummed});
  }

  // White/domain noise: real tuples first, then this token's fakes.
  std::vector<std::pair<std::string, double>> send_list;
  send_list.reserve(send_count);
  for (const global::SourceTuple& t : *tuples_) {
    send_list.emplace_back(t.group, t.value);
  }
  if (params.variant == DetVariant::kWhiteNoise) {
    // Each token draws fake labels from its own stream, seeded from
    // (noise_seed, token id), and prefixes the id, so labels stay distinct
    // across the fleet without any cross-token coordination.
    Rng noise_rng(params.noise_seed + tok->id());
    for (size_t i = real_count; i < send_count; ++i) {
      send_list.emplace_back(std::string(global::kFakeGroupPrefix) +
                                 std::to_string(tok->id()) + "-" +
                                 std::to_string(noise_rng.Next()),
                             0.0);
    }
  } else {  // kDomainNoise
    if (req.batch.size() < 2) {
      return Status::InvalidArgument("domain noise carries no domain");
    }
    // Real groups must belong to the announced domain.
    for (size_t i = 0; i < real_count; ++i) {
      bool in_domain = false;
      for (size_t d = 1; d < req.batch.size() && !in_domain; ++d) {
        in_domain = ByteView(req.batch[d]).ToString() == send_list[i].first;
      }
      if (!in_domain) {
        return Status::InvalidArgument("group outside the announced domain");
      }
    }
    for (size_t d = 1; d < req.batch.size(); ++d) {
      for (uint32_t i = 0; i < params.fakes_per_value; ++i) {
        send_list.emplace_back(ByteView(req.batch[d]).ToString(), 0.0);
      }
    }
  }

  reply.batch.reserve(2 * send_list.size());
  for (size_t i = 0; i < send_list.size(); ++i) {
    bool fake = i >= real_count;
    const auto& [group, value] = send_list[i];
    PDS_ASSIGN_OR_RETURN(Bytes key,
                         tok->EncryptDet(ByteView(std::string_view(group))));
    Bytes payload = global::EncodeAggPayload(fake, value, fake ? 0 : 1, "");
    PDS_ASSIGN_OR_RETURN(Bytes ct, tok->EncryptNonDet(ByteView(payload)));
    reply.token_ops += 2;
    reply.batch.push_back(std::move(key));
    reply.batch.push_back(std::move(ct));
  }
  return EncodeMessage({std::move(reply), {}, checksummed});
}

Result<Bytes> TokenSession::HandleClassAggregate(const RoundRequestMsg& req,
                                                 bool checksummed) {
  mcu::SecureToken* tok = token_;
  if (req.batch.empty()) {
    return Status::InvalidArgument("class aggregate carries no class key");
  }
  AggResultMsg reply;
  reply.round_id = req.header.round_id;
  PDS_ASSIGN_OR_RETURN(Bytes group_plain,
                       tok->DecryptDet(ByteView(req.batch[0])));
  ++reply.token_ops;
  std::string group = ByteView(group_plain).ToString();
  const size_t n = req.batch.size() - 1;
  if (group.rfind(global::kFakeGroupPrefix, 0) == 0) {
    // Whole class is noise; discard inside the token, charging one
    // decrypt-and-drop op per noise tuple.
    reply.token_ops += n;
    return SealAggResult(std::move(reply), checksummed);
  }
  GroupState gs;
  for (size_t i = 1; i < req.batch.size(); ++i) {
    PDS_ASSIGN_OR_RETURN(Bytes payload,
                         tok->DecryptNonDet(ByteView(req.batch[i])));
    ++reply.token_ops;
    PDS_ASSIGN_OR_RETURN(global::AggPayload p,
                         global::DecodeAggPayload(ByteView(payload)));
    if (!p.fake) {
      gs.sum += p.sum;
      gs.count += p.count;
    }
  }
  reply.entries.push_back({group, gs.sum, gs.count});
  return SealAggResult(std::move(reply), checksummed);
}

Result<Bytes> TokenSession::HandleSealedCollect(const RoundRequestMsg& req,
                                                bool checksummed) {
  mcu::SecureToken* tok = token_;
  TupleBatchMsg reply;
  reply.round_id = req.header.round_id;
  std::vector<Bytes> cts;
  cts.reserve(tuples_->size());
  for (const global::SourceTuple& t : *tuples_) {
    Bytes payload = global::EncodeAggPayload(false, t.value, 1, t.group);
    PDS_ASSIGN_OR_RETURN(Bytes ct, tok->EncryptNonDet(ByteView(payload)));
    ++reply.token_ops;
    cts.push_back(std::move(ct));
  }
  PDS_ASSIGN_OR_RETURN(std::vector<global::SealedTuple> sealed,
                       global::SealTuples(tok, tok->id(), cts));
  reply.token_ops += sealed.size();  // one MAC per sealed tuple
  PDS_ASSIGN_OR_RETURN(
      global::Manifest manifest,
      global::MakeManifest(tok, tok->id(), sealed.size()));
  ++reply.token_ops;  // manifest MAC
  reply.batch.reserve(1 + sealed.size());
  reply.batch.push_back(global::EncodeManifest(manifest));
  for (const global::SealedTuple& t : sealed) {
    reply.batch.push_back(global::EncodeSealedTuple(t));
  }
  return EncodeMessage({std::move(reply), {}, checksummed});
}

// ---------------------------------------------------------------------------
// TokenClient

namespace {

mcu::SecureToken* ConfiguredToken(const TokenClient::Config& config) {
  return config.pds_node != nullptr ? &config.pds_node->token()
                                    : config.token;
}

}  // namespace

TokenClient::TokenClient(std::unique_ptr<Transport> transport, Config config)
    : transport_(std::move(transport)),
      config_(std::move(config)),
      clock_(config_.clock != nullptr ? config_.clock : WallClock()),
      session_(ConfiguredToken(config_), &tuples_, config_.packed,
               config_.faults.swallow_first),
      rng_(config_.faults.seed) {}

TokenClient::~TokenClient() {
  Stop();
  if (thread_.joinable()) {
    thread_.join();
  }
}

Status TokenClient::PrepareTuples() {
  if (ConfiguredToken(config_) == nullptr) {
    return Status::InvalidArgument("TokenClient needs a token or a PdsNode");
  }
  if (config_.pds_node != nullptr) {
    // Policy-checked export: only tuples the owner authorized for sharing
    // ever reach the runtime, and they stay inside the token until
    // encrypted.
    std::vector<std::pair<std::string, double>> exported;
    PDS_RETURN_IF_ERROR(config_.pds_node->ExportAs(
        config_.subject, config_.table, config_.group_column,
        config_.value_column, &exported));
    tuples_.clear();
    tuples_.reserve(exported.size());
    for (auto& [group, value] : exported) {
      tuples_.push_back({std::move(group), value});
    }
  } else {
    tuples_ = config_.tuples;
  }
  return Status::Ok();
}

Status TokenClient::Connect() {
  PDS_RETURN_IF_ERROR(PrepareTuples());
  return Handshake();
}

Status TokenClient::Handshake() {
  obs::Span span("net.token-connect", "net");
  bool done = false;
  while (!session_.serving()) {
    PDS_ASSIGN_OR_RETURN(Bytes frame, transport_->Recv(config_.deadline_ms));
    PDS_RETURN_IF_ERROR(Deliver(frame, &done));
  }
  return Status::Ok();
}

Status TokenClient::Deliver(const Bytes& frame, bool* done) {
  if (session_.serving()) {
    ++frame_index_;
  }
  PDS_ASSIGN_OR_RETURN(TokenSession::Outcome out, session_.OnFrame(frame));
  *done = out.done;
  if (out.swallowed_round.has_value()) {
    log_.Add({frame_index_, FaultKind::kSwallowRequest, "token",
              "round " + std::to_string(*out.swallowed_round) +
                  " swallowed"});
  }
  if (out.reply.has_value()) {
    PDS_RETURN_IF_ERROR(transport_->Send(*out.reply));
  }
  if (!out.answered) {
    return Status::Ok();
  }
  ++replies_since_connect_;
  return MaybeChurn();
}

Status TokenClient::MaybeChurn() {
  const FaultPlan& fp = config_.faults;
  if (fp.disconnect_after_replies == 0 ||
      replies_since_connect_ < fp.disconnect_after_replies ||
      reconnects_done_ >= config_.max_reconnects) {
    return Status::Ok();
  }
  ++reconnects_done_;
  transport_->Close();
  log_.Add({frame_index_, FaultKind::kChurn, "token",
            "disconnected after " + std::to_string(replies_since_connect_) +
                " replies; reconnect attempt " +
                std::to_string(reconnects_done_)});
  if (config_.reconnect == nullptr) {
    // Nobody to dial: stay gone and let the SSI degrade to quorum.
    return Status::Ok();
  }
  uint32_t backoff =
      config_.reconnect_backoff_ms * reconnects_done_ +
      static_cast<uint32_t>(rng_.Uniform(config_.reconnect_backoff_ms + 1));
  clock_->SleepMs(backoff);
  PDS_ASSIGN_OR_RETURN(std::unique_ptr<Transport> fresh, config_.reconnect());
  transport_ = std::move(fresh);
  replies_since_connect_ = 0;
  // Fresh challenge, fresh proof: membership is re-verified, a recorded
  // proof from the first handshake would be rejected.
  session_.Reconnect();
  return Handshake();
}

Status TokenClient::ServeLoop() {
  while (!stop_.load()) {
    auto frame = transport_->Recv(config_.poll_ms);
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kDeadlineExceeded) {
        continue;  // nothing pending; poll again unless stopped
      }
      // Peer closed (or the link died): a closed transport after rounds is
      // the socket-level equivalent of Bye.
      return Status::Ok();
    }
    bool done = false;
    PDS_RETURN_IF_ERROR(Deliver(frame.value(), &done));
    if (done) {
      return Status::Ok();
    }
  }
  return Status::Ok();
}

Status TokenClient::StartPumped() {
  if (config_.reconnect != nullptr) {
    return Status::InvalidArgument(
        "pumped mode cannot re-dial from inside the event loop; use a null "
        "reconnect factory (churned tokens stay gone)");
  }
  if (pump_state_ != PumpState::kIdle) {
    return Status::FailedPrecondition("StartPumped called twice");
  }
  PDS_RETURN_IF_ERROR(PrepareTuples());
  pump_state_ = PumpState::kRunning;
  return Status::Ok();
}

Result<bool> TokenClient::PumpOnce() {
  if (pump_state_ == PumpState::kIdle) {
    return Status::FailedPrecondition("PumpOnce before StartPumped");
  }
  if (pump_state_ == PumpState::kDone) {
    return false;
  }
  auto frame = transport_->Recv(0);
  if (!frame.ok()) {
    if (frame.status().code() == StatusCode::kDeadlineExceeded) {
      return true;  // nothing pending right now
    }
    // Transport closed: the socket-level equivalent of Bye (same clean
    // outcome the blocking ServeLoop reports).
    pump_state_ = PumpState::kDone;
    loop_status_ = Status::Ok();
    return false;
  }
  bool done = false;
  Status st = Deliver(frame.value(), &done);
  if (!st.ok()) {
    pump_state_ = PumpState::kDone;
    loop_status_ = st;
    return st;
  }
  if (done) {
    pump_state_ = PumpState::kDone;
    loop_status_ = Status::Ok();
    return false;
  }
  return true;
}

void TokenClient::Start() {
  thread_ = std::thread([this] {
    Status st = Connect();
    if (st.ok()) {
      st = ServeLoop();
    }
    loop_status_ = std::move(st);
  });
}

void TokenClient::Stop() { stop_.store(true); }

Status TokenClient::Join() {
  if (thread_.joinable()) {
    thread_.join();
  }
  return loop_status_;
}

}  // namespace pds::net
