#include "net/ssi_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <thread>

#include "common/clock.h"
#include "common/rng.h"
#include "global/observer.h"
#include "obs/obs.h"

namespace pds::net {

namespace {

using global::AggFunc;
using global::AggOutput;
using global::Metrics;

/// Sum/count accumulation per group.
struct GroupState {
  double sum = 0;
  uint64_t count = 0;
};

std::map<std::string, double> Finalize(
    const std::map<std::string, GroupState>& states, AggFunc func) {
  std::map<std::string, double> out;
  for (const auto& [group, s] : states) {
    if (s.count == 0) {
      continue;
    }
    switch (func) {
      case AggFunc::kSum:
        out[group] = s.sum;
        break;
      case AggFunc::kCount:
        out[group] = static_cast<double>(s.count);
        break;
      case AggFunc::kAvg:
        out[group] = s.sum / static_cast<double>(s.count);
        break;
    }
  }
  return out;
}

/// Round-robin unit assignment: unit u goes to token (first + u) %
/// num_tokens, and each token runs its units in increasing order (so a
/// token's RNG and op counters advance the same at any executor width).
std::vector<std::vector<size_t>> RoundRobin(size_t num_units,
                                            size_t num_tokens, size_t first) {
  std::vector<std::vector<size_t>> by_token(num_tokens);
  for (auto& units : by_token) {
    units.reserve(num_units / num_tokens + 1);
  }
  for (size_t u = 0; u < num_units; ++u) {
    by_token[(first + u) % num_tokens].push_back(u);
  }
  return by_token;
}

/// Fleet-wide wire counters; resolved once, then plain atomic adds
/// (registry lookups must stay out of protocol loops).
struct NetObs {
  obs::Counter* frames_sent;
  obs::Counter* frames_received;
  obs::Counter* deadline_hits;
  obs::Counter* retries;
  obs::Counter* quorum_shortfalls;
  obs::Counter* missing_tokens;
  obs::Counter* frame_rejects;
  obs::Histogram* round_trip_us;
};

const NetObs& NetHooks() {
  static const NetObs hooks = [] {
    obs::Registry& reg = obs::Registry::Global();
    return NetObs{reg.GetCounter("net.frames_sent", "ops"),
                  reg.GetCounter("net.frames_received", "ops"),
                  reg.GetCounter("net.deadline_hits", "ops"),
                  reg.GetCounter("net.retries", "ops"),
                  reg.GetCounter("net.quorum_shortfalls", "ops"),
                  reg.GetCounter("net.missing_tokens", "ops"),
                  reg.GetCounter("net.frame_rejects", "ops"),
                  reg.GetHistogram("net.round_trip_us", "us")};
  }();
  return hooks;
}

/// RAII flag for "a protocol run is in flight" (readmission refused).
class RunGuard {
 public:
  explicit RunGuard(std::atomic<bool>* flag) : flag_(flag) {
    flag_->store(true);
  }
  ~RunGuard() { flag_->store(false); }
  RunGuard(const RunGuard&) = delete;
  RunGuard& operator=(const RunGuard&) = delete;

 private:
  std::atomic<bool>* flag_;
};

/// The round id a reply message answers, or nullptr for non-reply types.
const uint32_t* ReplyRoundId(const Message& m) {
  if (const TupleBatchMsg* tb = std::get_if<TupleBatchMsg>(&m.body)) {
    return &tb->round_id;
  }
  if (const AggResultMsg* ar = std::get_if<AggResultMsg>(&m.body)) {
    return &ar->round_id;
  }
  return nullptr;
}

}  // namespace

/// Per-work-unit wire accounting, merged into the run's Metrics in index
/// order afterwards (every field is a sum, so ordered merging reproduces
/// serial counters exactly).
struct SsiServer::WireCost {
  Metrics wire;
  uint64_t deadline_hits = 0;
  uint64_t retries = 0;
  uint64_t frame_rejects = 0;

  void MergeInto(Metrics* m, RoundReport* r) const {
    m->messages += wire.messages;
    m->bytes += wire.bytes;
    m->token_crypto_ops += wire.token_crypto_ops;
    m->bytes_token_to_ssi += wire.bytes_token_to_ssi;
    m->bytes_ssi_to_token += wire.bytes_ssi_to_token;
    r->deadline_hits += deadline_hits;
    r->retries += retries;
    r->frame_rejects += frame_rejects;
  }
};

SsiServer::SsiServer(const Config& config)
    : config_(config),
      clock_(config.clock != nullptr ? config.clock : WallClock()),
      trace_rng_(config.nonce_seed ^ 0x7472616365ULL) {}

bool SsiServer::IsStragglerFailure(const Status& s) {
  // A token that timed out, whose transport died, or whose byte stream
  // desynchronized (a truncating/bit-flipping link breaks socket framing)
  // is gone for the run; quorum decides whether the protocol proceeds.
  return s.code() == StatusCode::kDeadlineExceeded ||
         s.code() == StatusCode::kIoError ||
         s.code() == StatusCode::kCorruption;
}

Result<size_t> SsiServer::Handshake(std::unique_ptr<Transport> transport,
                                    bool readmit) {
  if (config_.verifier == nullptr) {
    return Status::FailedPrecondition("SsiServer has no verifier token");
  }
  obs::Span span(readmit ? "net.readmit-session" : "net.accept-session",
                 "net");
  // Deterministic nonce stream (tests); entropy is not the point here — the
  // challenge only needs to be fresh per handshake, which the monotonic
  // counter guarantees across readmissions too.
  Rng nonce_rng(config_.nonce_seed + nonce_counter_++);
  ChallengeMsg challenge;
  challenge.nonce.resize(16);
  nonce_rng.FillBytes(challenge.nonce.data(), challenge.nonce.size());

  PDS_RETURN_IF_ERROR(transport->Send(
      EncodeMessage({challenge, {}, config_.checksum_frames})));
  PDS_ASSIGN_OR_RETURN(Bytes reply,
                       transport->Recv(config_.deadline_ms));
  PDS_ASSIGN_OR_RETURN(HelloMsg hello, DecodeAs<HelloMsg>(reply));

  PDS_ASSIGN_OR_RETURN(
      bool ok_proof,
      config_.verifier->VerifyAttestation(ByteView(challenge.nonce),
                                          hello.proof));
  HelloAckMsg ack{ok_proof};
  PDS_RETURN_IF_ERROR(
      transport->Send(EncodeMessage({ack, {}, config_.checksum_frames})));
  if (!ok_proof) {
    transport->Close();
    return Status::PermissionDenied(
        "token failed fleet attestation; session refused");
  }

  if (readmit) {
    for (size_t i = 0; i < sessions_.size(); ++i) {
      Session* s = sessions_[i].get();
      if (s->token_id != hello.token_id) {
        continue;
      }
      // The returning token picks up its old round sequence: the next
      // request it sees continues where the session left off, so stale
      // replies from before the churn stay detectable.
      s->transport->Close();
      s->transport = std::move(transport);
      s->alive = true;
      return i;
    }
  }
  auto session = std::make_unique<Session>();
  session->transport = std::move(transport);
  session->token_id = hello.token_id;
  session->alive = true;
  if (!config_.lean_sessions) {
    session->stats = std::make_unique<SessionStats>();
  }
  sessions_.push_back(std::move(session));
  return sessions_.size() - 1;
}

Result<size_t> SsiServer::AcceptSession(std::unique_ptr<Transport> transport) {
  return Handshake(std::move(transport), /*readmit=*/false);
}

Result<size_t> SsiServer::ReadmitSession(
    std::unique_ptr<Transport> transport) {
  if (run_active_) {
    return Status::FailedPrecondition(
        "cannot readmit a token while a protocol run is in flight; the "
        "abandoned round degrades to quorum instead");
  }
  return Handshake(std::move(transport), /*readmit=*/true);
}

Result<Message> SsiServer::RoundTrip(Session* s, RoundRequestMsg request,
                                     WireCost* cost) {
  const NetObs& hooks = NetHooks();
  const uint32_t round_id = request.header.round_id;
  // One span per logical round trip (retries included). When recorded, its
  // id rides the wire as the trace-context parent so the token's handler
  // span hangs under it in the merged cross-process trace.
  obs::Span rt_span("net.round-trip", "net");
  Message msg{std::move(request), std::nullopt, config_.checksum_frames};
  if (rt_span.id() != 0) {
    msg.trace = TraceContext{run_trace_id_, rt_span.id()};
  }
  const Bytes frame = EncodeMessage(msg);
  // Admission-control gauge: bytes of this session's in-flight request.
  SessionStats* stats = s->stats.get();
  if (stats != nullptr) {
    stats->buffer_bytes.Set(static_cast<double>(frame.size()));
  }
  for (uint32_t attempt = 0; attempt <= config_.max_retries; ++attempt) {
    if (attempt > 0) {
      ++cost->retries;
      hooks.retries->Add(1);
      if (stats != nullptr) {
        stats->retries.Add(1);
      }
      clock_->SleepMs(config_.backoff_ms * attempt);
    }
    uint64_t attempt_start_ns = clock_->NowNs();
    PDS_RETURN_IF_ERROR(s->transport->Send(frame));
    cost->wire.AddSsiToToken(frame.size());
    hooks.frames_sent->Add(1);

    const uint64_t deadline_ns =
        clock_->NowNs() +
        static_cast<uint64_t>(config_.deadline_ms) * 1000000ull;
    bool timed_out = false;
    while (!timed_out) {
      uint64_t now_ns = clock_->NowNs();
      uint64_t left =
          now_ns < deadline_ns ? (deadline_ns - now_ns) / 1000000ull : 0;
      if (left == 0) {
        timed_out = true;
        break;
      }
      auto recv =
          s->transport->Recv(static_cast<uint32_t>(left));
      if (!recv.ok()) {
        if (recv.status().code() == StatusCode::kDeadlineExceeded) {
          timed_out = true;
          break;
        }
        if (stats != nullptr) {
          stats->buffer_bytes.Set(0);
        }
        return recv.status();
      }
      Bytes reply = std::move(recv).value();
      cost->wire.AddTokenToSsi(reply.size());
      hooks.frames_received->Add(1);
      auto decoded = DecodeMessage(reply);
      if (!decoded.ok() ||
          (config_.checksum_frames && !decoded.value().checksummed)) {
        // A frame the link corrupted in-payload (the stream itself is still
        // framed, or Recv would have failed) or, on a checksummed wire, one
        // without a verified trailer (such as the token's plain error for a
        // request it could not decode): discard it and keep waiting — the
        // retry budget, not one flipped bit, decides this session's fate.
        ++cost->frame_rejects;
        hooks.frame_rejects->Add(1);
        continue;
      }
      Message m = std::move(decoded).value();
      if (const ErrorMsg* err = std::get_if<ErrorMsg>(&m.body)) {
        if (err->code == 3) {
          // The token rejected a frame it could not decode (our request was
          // mangled in flight). Transient: let the deadline drive a retry.
          ++cost->frame_rejects;
          hooks.frame_rejects->Add(1);
          continue;
        }
        if (stats != nullptr) {
          stats->buffer_bytes.Set(0);
        }
        return Status::FailedPrecondition("peer error: " + err->message);
      }
      const uint32_t* got = ReplyRoundId(m);
      if (got == nullptr) {
        if (stats != nullptr) {
          stats->buffer_bytes.Set(0);
        }
        return Status::FailedPrecondition("unexpected reply message type");
      }
      if (*got < round_id) {
        continue;  // stale answer to an earlier attempt/round; discard
      }
      if (*got > round_id) {
        if (stats != nullptr) {
          stats->buffer_bytes.Set(0);
        }
        return Status::Corruption("reply from a future round");
      }
      double rtt_us =
          static_cast<double>(clock_->NowNs() - attempt_start_ns) / 1000.0;
      if (stats != nullptr) {
        stats->rtt_us.Record(rtt_us);
        stats->round_trips.Add(1);
      }
      rtt_us_.Record(rtt_us);
      hooks.round_trip_us->Record(rtt_us);
      if (stats != nullptr) {
        stats->buffer_bytes.Set(0);
      }
      return m;
    }
    ++cost->deadline_hits;
    hooks.deadline_hits->Add(1);
    if (stats != nullptr) {
      stats->deadline_hits.Add(1);
    }
  }
  if (stats != nullptr) {
    stats->buffer_bytes.Set(0);
  }
  return Status::DeadlineExceeded("token did not answer round " +
                                  std::to_string(round_id) + " after " +
                                  std::to_string(config_.max_retries + 1) +
                                  " attempts");
}

void SsiServer::DropStraggler(Session* s) {
  s->alive = false;  // gone for the rest of the run
  if (s->stats != nullptr) {
    s->stats->stragglers.Add(1);
  }
}

Result<SsiServer::Collected> SsiServer::CollectRound(
    const RoundRequestMsg& request, Metrics* metrics) {
  std::vector<size_t> live;
  live.reserve(sessions_.size());
  for (size_t i = 0; i < sessions_.size(); ++i) {
    if (sessions_[i]->alive) {
      live.push_back(i);
    }
  }
  if (live.empty()) {
    return Status::InvalidArgument("no live sessions");
  }
  report_ = RoundReport{};
  report_.sessions = live.size();
  run_trace_id_ = trace_rng_.Next();

  const size_t nl = live.size();
  Collected out;
  out.batches.resize(nl);
  std::vector<uint8_t> answered(nl, 0);
  std::vector<WireCost> costs(nl);
  {
    obs::Span phase_span("net.collect", "net");
    phase_span.AddArg("sessions", static_cast<double>(nl));
    PDS_RETURN_IF_ERROR(global::FleetExecutor::Run(
        config_.executor, nl, [&](size_t li) -> Status {
          Session* s = sessions_[live[li]].get();
          RoundRequestMsg req = request;
          req.header.round_id = s->next_round_id++;
          auto reply = RoundTrip(s, std::move(req), &costs[li]);
          if (!reply.ok()) {
            if (IsStragglerFailure(reply.status())) {
              DropStraggler(s);
              return Status::Ok();
            }
            return reply.status();
          }
          TupleBatchMsg* batch =
              std::get_if<TupleBatchMsg>(&reply.value().body);
          if (batch == nullptr) {
            return Status::FailedPrecondition(
                "collect round expected a tuple batch");
          }
          costs[li].wire.token_crypto_ops += batch->token_ops;
          out.batches[li] = std::move(*batch);
          answered[li] = 1;
          return Status::Ok();
        }));
  }

  // Keep the responders' batches, compacted in session order.
  out.sessions.reserve(nl);
  for (size_t li = 0; li < nl; ++li) {
    costs[li].MergeInto(metrics, &report_);
    if (answered[li] != 0) {
      if (out.sessions.size() != li) {
        out.batches[out.sessions.size()] = std::move(out.batches[li]);
      }
      out.sessions.push_back(live[li]);
    }
  }
  out.batches.resize(out.sessions.size());
  ++metrics->rounds;

  const size_t responders = out.sessions.size();
  report_.responders = responders;
  report_.missing_tokens = nl - responders;
  metrics->tokens_missing = report_.missing_tokens;
  const NetObs& hooks = NetHooks();
  size_t need = static_cast<size_t>(
      std::ceil(config_.quorum * static_cast<double>(nl)));
  need = std::max<size_t>(need, 1);
  if (report_.missing_tokens > 0) {
    hooks.missing_tokens->Add(report_.missing_tokens);
  }
  if (responders < need) {
    hooks.quorum_shortfalls->Add(1);
    return Status::FailedPrecondition(
        "quorum not reached: " + std::to_string(responders) + "/" +
        std::to_string(nl) + " tokens answered, need " +
        std::to_string(need));
  }
  return out;
}

Result<AggOutput> SsiServer::RunSecureAggregation(AggFunc func) {
  if (config_.partition_capacity == 0) {
    return Status::InvalidArgument("partition capacity must be >= 1");
  }
  RunGuard run_guard(&run_active_);
  AggOutput out;
  global::HbcObserver observer;
  obs::Span protocol_span("net.secure-agg", "net");

  // Phase 1: collect — every live token encrypts and sends its authorized
  // tuples.
  RoundRequestMsg collect;
  collect.header.kind = RoundKind::kCollect;
  collect.header.func = func;
  PDS_ASSIGN_OR_RETURN(Collected collected,
                       CollectRound(collect, &out.metrics));
  std::vector<Bytes> items;
  for (TupleBatchMsg& batch : collected.batches) {
    for (Bytes& ct : batch.batch) {
      observer.ObserveTuple(ByteView(ct));
      items.push_back(std::move(ct));
    }
  }

  // Phase 2: iterative partition-and-aggregate over the responding tokens,
  // partitions round-robin in session order. A token that vanishes now
  // takes its partition's data with it, so this phase has no quorum:
  // retry, then fail the run.
  const std::vector<size_t>& active = collected.sessions;
  const size_t na = active.size();
  size_t worker = 0;
  while (items.size() > config_.partition_capacity) {
    obs::Span phase_span("net.aggregate-round", "net");
    phase_span.AddArg("items", static_cast<double>(items.size()));
    size_t before = items.size();
    const size_t cap = config_.partition_capacity;
    const size_t num_parts = (items.size() + cap - 1) / cap;
    std::vector<std::vector<size_t>> parts_by_session =
        RoundRobin(num_parts, na, worker);
    worker += num_parts;

    struct PartOut {
      std::vector<Bytes> cts;
      WireCost cost;
    };
    std::vector<PartOut> parts(num_parts);
    std::vector<WireCost> map_cost(na);
    PDS_RETURN_IF_ERROR(global::FleetExecutor::Run(
        config_.executor, na, [&](size_t ai) -> Status {
          if (parts_by_session[ai].empty()) {
            return Status::Ok();
          }
          Session* s = sessions_[active[ai]].get();
          // Announce this session's slice of the layout, then stream its
          // partitions in increasing order (token RNG order).
          PartitionMapMsg pm;
          pm.round_id = s->next_round_id;
          pm.parts.reserve(parts_by_session[ai].size());
          for (size_t pi : parts_by_session[ai]) {
            size_t start = pi * cap;
            size_t end = std::min(items.size(), start + cap);
            pm.parts.push_back(
                {static_cast<uint32_t>(pi), static_cast<uint32_t>(ai),
                 static_cast<uint32_t>(end - start)});
          }
          Bytes pm_frame =
              EncodeMessage({std::move(pm), {}, config_.checksum_frames});
          PDS_RETURN_IF_ERROR(s->transport->Send(pm_frame));
          map_cost[ai].wire.AddSsiToToken(pm_frame.size());
          NetHooks().frames_sent->Add(1);

          for (size_t pi : parts_by_session[ai]) {
            PartOut& po = parts[pi];
            size_t start = pi * cap;
            size_t end = std::min(items.size(), start + cap);
            RoundRequestMsg req;
            req.header.round_id = s->next_round_id++;
            req.header.kind = RoundKind::kAggregate;
            req.header.func = func;
            req.batch.reserve(end - start);
            for (size_t i = start; i < end; ++i) {
              req.batch.push_back(items[i]);
            }
            PDS_ASSIGN_OR_RETURN(Message reply,
                                 RoundTrip(s, std::move(req), &po.cost));
            TupleBatchMsg* batch = std::get_if<TupleBatchMsg>(&reply.body);
            if (batch == nullptr) {
              return Status::FailedPrecondition(
                  "aggregate round expected a tuple batch");
            }
            po.cost.wire.token_crypto_ops += batch->token_ops;
            po.cts = std::move(batch->batch);
          }
          return Status::Ok();
        }));

    std::vector<Bytes> next;
    next.reserve(items.size());
    for (size_t ai = 0; ai < na; ++ai) {
      map_cost[ai].MergeInto(&out.metrics, &report_);
    }
    for (size_t pi = 0; pi < num_parts; ++pi) {
      parts[pi].cost.MergeInto(&out.metrics, &report_);
      for (Bytes& ct : parts[pi].cts) {
        observer.ObserveTuple(ByteView(ct));
        next.push_back(std::move(ct));
      }
      ++out.metrics.ssi_ops;  // partition bookkeeping
    }
    ++out.metrics.rounds;
    if (next.size() >= before) {
      return Status::InvalidArgument(
          "partition capacity too small for the number of distinct groups");
    }
    items = std::move(next);
  }

  // Phase 3: final aggregation inside the first responding token.
  obs::Span final_span("net.finalize", "net");
  final_span.AddArg("items", static_cast<double>(items.size()));
  Session* s0 = sessions_[active[0]].get();
  WireCost final_cost;
  RoundRequestMsg fin;
  fin.header.round_id = s0->next_round_id++;
  fin.header.kind = RoundKind::kFinalize;
  fin.header.func = func;
  fin.batch = std::move(items);
  PDS_ASSIGN_OR_RETURN(Message reply,
                       RoundTrip(s0, std::move(fin), &final_cost));
  AggResultMsg* result = std::get_if<AggResultMsg>(&reply.body);
  if (result == nullptr) {
    return Status::FailedPrecondition("finalize round expected an agg result");
  }
  final_cost.wire.token_crypto_ops += result->token_ops;
  final_cost.MergeInto(&out.metrics, &report_);
  ++out.metrics.rounds;

  std::map<std::string, GroupState> final_state;
  for (const AggResultEntry& e : result->entries) {
    final_state[e.group].sum += e.sum;
    final_state[e.group].count += e.count;
  }
  out.groups = Finalize(final_state, func);
  if (config_.adversary.action == AdversaryAction::kForgeAggregate &&
      !out.groups.empty()) {
    // The weakly-malicious SSI shaves the first group's value. Without a
    // sealed round to audit against, the querier catches this by
    // re-running the aggregate through AuditSealedBatch and comparing.
    out.groups.begin()->second += 1.0;
  }
  out.leakage = observer.Report();
  global::RecordProtocolRun("net-secure-agg", out.metrics, out.leakage);
  stats_ring_.Capture(obs::Registry::Global());
  return out;
}

Result<AggOutput> SsiServer::RunPackedAggregation(
    AggFunc func, const crypto::PackedAggregate& agg,
    const std::vector<std::string>& domain) {
  if (domain.empty()) {
    return Status::InvalidArgument("packed round requires the value domain");
  }
  if (domain.size() > kMaxPackedSlots) {
    return Status::InvalidArgument("packed domain exceeds kMaxPackedSlots");
  }
  if (agg.layout().num_slots != 2 * domain.size()) {
    return Status::InvalidArgument(
        "packed layout does not match the domain (need 2 slots per value)");
  }
  RunGuard run_guard(&run_active_);
  AggOutput out;
  global::HbcObserver observer;
  obs::Span protocol_span("net.packed-paillier", "net");
  protocol_span.AddArg("domain", static_cast<double>(domain.size()));

  // The single round: every token packs its counters into one ciphertext.
  // The request batch carries the domain labels in slot order. The
  // "packed-encrypt" and "ssi-fold" spans time the tokens' encryptions and
  // the SSI's fold for tools that read them by name.
  RoundRequestMsg request;
  request.header.kind = RoundKind::kPackedCollect;
  request.header.func = func;
  request.batch.reserve(domain.size());
  for (const std::string& g : domain) {
    request.batch.push_back(ByteView(std::string_view(g)).ToBytes());
  }
  Collected collected;
  {
    obs::Span encrypt_span("packed-encrypt", "protocol");
    PDS_ASSIGN_OR_RETURN(collected, CollectRound(request, &out.metrics));
  }
  PDS_RETURN_IF_ERROR(agg.CheckAddBudget(collected.sessions.size()));

  // SSI: blind homomorphic fold (cheap modular multiplications).
  crypto::BigInt acc;
  {
    obs::Span fold_span("ssi-fold", "protocol");
    for (size_t i = 0; i < collected.batches.size(); ++i) {
      const std::vector<Bytes>& batch = collected.batches[i].batch;
      if (batch.size() != 1) {
        return Status::FailedPrecondition(
            "packed round expected exactly one ciphertext");
      }
      if (batch[0].size() > kMaxPackedCiphertextBytes) {
        return Status::Corruption(
            "packed ciphertext exceeds kMaxPackedCiphertextBytes");
      }
      observer.ObserveTuple(ByteView(batch[0]));
      crypto::BigInt ct = crypto::BigInt::FromBytes(ByteView(batch[0]));
      if (i == 0) {
        acc = std::move(ct);
      } else {
        acc = agg.Add(acc, ct);
        ++out.metrics.ssi_ops;
      }
    }
  }

  // Querier: one decrypt-unpack yields every (sum, count) total.
  // pdslint: declassify(the querier role decrypts only the aggregate sum
  // and count per slot -- the protocol's intended output, never a per-token
  // value; [TNP14] section 4's HbC guarantee is exactly this boundary)
  PDS_ASSIGN_OR_RETURN(std::vector<uint64_t> totals, agg.DecryptUnpack(acc));
  ++out.metrics.token_crypto_ops;

  std::map<std::string, GroupState> state;
  for (size_t i = 0; i < domain.size(); ++i) {
    GroupState& gs = state[domain[i]];
    gs.sum = static_cast<double>(totals[2 * i]);
    gs.count = totals[2 * i + 1];
  }
  out.groups = Finalize(state, func);
  out.leakage = observer.Report();
  global::RecordProtocolRun("net-packed-paillier", out.metrics, out.leakage);
  stats_ring_.Capture(obs::Registry::Global());
  return out;
}

Result<AggOutput> SsiServer::RunDetAggregation(AggFunc func,
                                               const DetRunConfig& det) {
  if (det.variant == DetVariant::kDomainNoise && det.domain.empty()) {
    return Status::InvalidArgument("domain-noise run requires the domain");
  }
  if (det.variant == DetVariant::kHistogram && det.num_buckets == 0) {
    return Status::InvalidArgument("histogram run requires num_buckets >= 1");
  }
  const DetParams params = det.params();
  // Parameters every token would refuse fail here, before any frame.
  PDS_RETURN_IF_ERROR(DetSendListSize(params, 0, det.domain.size()).status());

  RunGuard run_guard(&run_active_);
  AggOutput out;
  global::HbcObserver observer;
  obs::Span protocol_span("net.det-agg", "net");
  protocol_span.AddArg("variant", static_cast<double>(det.variant));

  // Phase 1: kDetCollect fan-out. Batch entry 0 carries the public round
  // parameters; domain-noise rounds append the domain labels.
  RoundRequestMsg request;
  request.header.kind = RoundKind::kDetCollect;
  request.header.func = func;
  request.batch.push_back(EncodeDetParams(params));
  if (det.variant == DetVariant::kDomainNoise) {
    for (const std::string& g : det.domain) {
      request.batch.push_back(ByteView(std::string_view(g)).ToBytes());
    }
  }
  PDS_ASSIGN_OR_RETURN(Collected collected,
                       CollectRound(request, &out.metrics));

  // Equality classes in deterministic-ciphertext order; histogram rounds
  // key by the plaintext bucket id instead.
  std::map<Bytes, std::vector<Bytes>> classes;
  std::map<uint32_t, std::vector<Bytes>> buckets;
  const bool histogram = det.variant == DetVariant::kHistogram;
  for (TupleBatchMsg& reply : collected.batches) {
    std::vector<Bytes>& batch = reply.batch;
    if (batch.size() % 2 != 0) {
      return Status::Corruption(
          "det collect batch must hold (key, payload) pairs");
    }
    for (size_t i = 0; i + 1 < batch.size(); i += 2) {
      Bytes& key = batch[i];
      Bytes& payload = batch[i + 1];
      observer.ObserveTuple(ByteView(key));
      ++out.metrics.ssi_ops;
      if (histogram) {
        if (key.size() != 4) {
          return Status::Corruption("histogram bucket key must be 4 bytes");
        }
        buckets[GetU32(key.data())].push_back(std::move(payload));
      } else {
        classes[key].push_back(std::move(payload));
      }
    }
  }
  const std::vector<size_t>& active = collected.sessions;

  // Phase 2: one class/bucket aggregation request per equality class,
  // distributed round-robin over the responding sessions in class order. A
  // session that vanishes mid-phase fails over: its unfinished classes go
  // to the next live responder.
  struct ClassUnit {
    RoundKind kind = RoundKind::kClassAggregate;
    std::vector<Bytes> batch;  // [key, payloads...] or [payloads...]
  };
  std::vector<ClassUnit> units;
  units.reserve(histogram ? buckets.size() : classes.size());
  if (histogram) {
    for (auto& [bucket, payloads] : buckets) {
      ClassUnit u;
      u.kind = RoundKind::kFinalize;
      u.batch = std::move(payloads);
      units.push_back(std::move(u));
    }
  } else {
    for (auto& [key, payloads] : classes) {
      ClassUnit u;
      u.kind = RoundKind::kClassAggregate;
      u.batch.reserve(payloads.size() + 1);
      u.batch.push_back(key);
      for (Bytes& p : payloads) {
        u.batch.push_back(std::move(p));
      }
      units.push_back(std::move(u));
    }
  }

  const size_t na = active.size();
  const size_t num_units = units.size();
  std::vector<AggResultMsg> results(num_units);
  std::vector<uint8_t> done(num_units, 0);
  std::vector<WireCost> unit_cost(num_units);
  std::vector<std::vector<size_t>> by_session = RoundRobin(num_units, na, 0);

  auto run_unit = [&](Session* s, size_t ui) -> Status {
    RoundRequestMsg req;
    req.header.round_id = s->next_round_id++;
    req.header.kind = units[ui].kind;
    req.header.func = func;
    req.batch = units[ui].batch;
    PDS_ASSIGN_OR_RETURN(Message reply,
                         RoundTrip(s, std::move(req), &unit_cost[ui]));
    AggResultMsg* result = std::get_if<AggResultMsg>(&reply.body);
    if (result == nullptr) {
      return Status::FailedPrecondition(
          "class aggregation expected an agg result");
    }
    unit_cost[ui].wire.token_crypto_ops += result->token_ops;
    results[ui] = std::move(*result);
    done[ui] = 1;
    return Status::Ok();
  };

  {
    obs::Span phase_span("net.class-aggregate", "net");
    phase_span.AddArg("classes", static_cast<double>(num_units));
    PDS_RETURN_IF_ERROR(global::FleetExecutor::Run(
        config_.executor, na, [&](size_t ai) -> Status {
          Session* s = sessions_[active[ai]].get();
          for (size_t ui : by_session[ai]) {
            Status st = run_unit(s, ui);
            if (!st.ok()) {
              if (IsStragglerFailure(st)) {
                DropStraggler(s);  // failover picks up this session's rest
                return Status::Ok();
              }
              return st;
            }
          }
          return Status::Ok();
        }));
    // Failover pass (serial): reassign unfinished classes to any session
    // that is still alive, in active order.
    for (size_t ui = 0; ui < num_units; ++ui) {
      if (done[ui] != 0) {
        continue;
      }
      bool recovered = false;
      for (size_t ai = 0; ai < na && !recovered; ++ai) {
        Session* s = sessions_[active[ai]].get();
        if (!s->alive) {
          continue;
        }
        Status st = run_unit(s, ui);
        if (st.ok()) {
          recovered = true;
        } else if (IsStragglerFailure(st)) {
          DropStraggler(s);
        } else {
          return st;
        }
      }
      if (!recovered) {
        return Status::FailedPrecondition(
            "every responding token vanished before class " +
            std::to_string(ui) + " could be aggregated");
      }
    }
  }

  // Merge in class order (map order).
  std::map<std::string, GroupState> state;
  for (size_t ui = 0; ui < num_units; ++ui) {
    unit_cost[ui].MergeInto(&out.metrics, &report_);
    for (const AggResultEntry& e : results[ui].entries) {
      state[e.group].sum += e.sum;
      state[e.group].count += e.count;
    }
  }
  ++out.metrics.rounds;

  out.groups = Finalize(state, func);
  if (config_.adversary.action == AdversaryAction::kForgeAggregate &&
      !out.groups.empty()) {
    out.groups.begin()->second += 1.0;
  }
  out.leakage = observer.Report();
  switch (det.variant) {
    case DetVariant::kWhiteNoise:
      global::RecordProtocolRun("net-white-noise", out.metrics, out.leakage);
      break;
    case DetVariant::kDomainNoise:
      global::RecordProtocolRun("net-domain-noise", out.metrics, out.leakage);
      break;
    case DetVariant::kHistogram:
      global::RecordProtocolRun("net-histogram", out.metrics, out.leakage);
      break;
  }
  stats_ring_.Capture(obs::Registry::Global());
  return out;
}

Result<SsiServer::SealedCollect> SsiServer::RunSealedCollect() {
  RunGuard run_guard(&run_active_);
  SealedCollect out;
  global::HbcObserver observer;
  obs::Span protocol_span("net.sealed-collect", "net");

  RoundRequestMsg request;
  request.header.kind = RoundKind::kSealedCollect;
  request.header.func = global::AggFunc::kSum;
  PDS_ASSIGN_OR_RETURN(Collected collected,
                       CollectRound(request, &out.metrics));
  out.manifests.reserve(collected.batches.size());
  for (const TupleBatchMsg& reply : collected.batches) {
    if (reply.batch.empty()) {
      return Status::FailedPrecondition(
          "sealed collect expected [manifest, sealed tuples...]");
    }
    PDS_ASSIGN_OR_RETURN(global::Manifest manifest,
                         global::DecodeManifest(ByteView(reply.batch[0])));
    out.manifests.push_back(manifest);
    for (size_t i = 1; i < reply.batch.size(); ++i) {
      PDS_ASSIGN_OR_RETURN(global::SealedTuple t,
                           global::DecodeSealedTuple(ByteView(reply.batch[i])));
      observer.ObserveTuple(ByteView(t.payload_ct));
      ++out.metrics.ssi_ops;
      out.tuples.push_back(std::move(t));
    }
  }

  // The weakly-malicious SSI acts here, after honest tokens sealed their
  // contributions and before the pool reaches the querier.
  out.adversary_note =
      ApplySealedTampering(config_.adversary, &out.tuples, &out.manifests);

  out.leakage = observer.Report();
  global::RecordProtocolRun("net-sealed-collect", out.metrics, out.leakage);
  stats_ring_.Capture(obs::Registry::Global());
  return out;
}

Result<std::string> SsiServer::InjectStaleRound(size_t idx) {
  if (idx >= sessions_.size() || !sessions_[idx]->alive) {
    return Status::InvalidArgument("no live session at this index");
  }
  Session* s = sessions_[idx].get();
  if (s->next_round_id < 2) {
    return Status::FailedPrecondition(
        "session has no completed round to replay");
  }
  RoundRequestMsg req;
  req.header.round_id = s->next_round_id - 2;  // strictly below the latest
  req.header.kind = RoundKind::kCollect;
  req.header.func = global::AggFunc::kSum;
  PDS_RETURN_IF_ERROR(
      s->transport->Send(EncodeMessage({req, {}, config_.checksum_frames})));
  PDS_ASSIGN_OR_RETURN(Bytes reply, s->transport->Recv(config_.deadline_ms));
  PDS_ASSIGN_OR_RETURN(Message m, DecodeMessage(reply));
  const ErrorMsg* err = std::get_if<ErrorMsg>(&m.body);
  if (err == nullptr || err->code != 4) {
    return Status::IntegrityViolation(
        "token ANSWERED a replayed stale round instead of rejecting it");
  }
  return "stale round " + std::to_string(req.header.round_id) +
         " rejected: " + err->message;
}

Result<std::string> SsiServer::InjectOversizedFrame(size_t idx) {
  if (idx >= sessions_.size() || !sessions_[idx]->alive) {
    return Status::InvalidArgument("no live session at this index");
  }
  Session* s = sessions_[idx].get();
  // A bare header declaring an impossible payload. Depending on the
  // transport the token either sees the header-only frame (in-process) and
  // rejects it, or its socket layer refuses the header before allocation
  // and the session dies cleanly — both are the defence working.
  Bytes frame(kFrameHeaderSize, 0);  // flags byte 0: a plain frame
  frame[0] = static_cast<uint8_t>(kMagic & 0xff);
  frame[1] = static_cast<uint8_t>(kMagic >> 8);
  frame[3] = static_cast<uint8_t>(MsgType::kRoundRequest);
  EncodeU32(frame.data() + 4, static_cast<uint32_t>(kMaxFramePayload) + 1);
  PDS_RETURN_IF_ERROR(s->transport->Send(frame));
  auto reply = s->transport->Recv(config_.deadline_ms);
  if (!reply.ok()) {
    if (IsStragglerFailure(reply.status())) {
      s->alive = false;
      return std::string(
          "token refused the oversized frame; session closed cleanly");
    }
    return reply.status();
  }
  PDS_ASSIGN_OR_RETURN(Message m, DecodeMessage(reply.value()));
  const ErrorMsg* err = std::get_if<ErrorMsg>(&m.body);
  if (err == nullptr || err->code != 3) {
    return Status::IntegrityViolation(
        "token accepted a frame declaring an oversized payload");
  }
  return "oversized frame rejected before allocation: " + err->message;
}

Result<std::string> SsiServer::InjectMalformedFrame(size_t idx) {
  if (idx >= sessions_.size() || !sessions_[idx]->alive) {
    return Status::InvalidArgument("no live session at this index");
  }
  Session* s = sessions_[idx].get();
  // Valid header, garbage payload: must fail structured decode on the
  // token without killing its serve loop.
  constexpr size_t kGarbage = 16;
  Bytes frame(kFrameHeaderSize + kGarbage, 0xFF);
  frame[0] = static_cast<uint8_t>(kMagic & 0xff);
  frame[1] = static_cast<uint8_t>(kMagic >> 8);
  frame[2] = 0;  // no flags: a plain frame
  frame[3] = static_cast<uint8_t>(MsgType::kRoundRequest);
  EncodeU32(frame.data() + 4, kGarbage);
  PDS_RETURN_IF_ERROR(s->transport->Send(frame));
  PDS_ASSIGN_OR_RETURN(Bytes reply, s->transport->Recv(config_.deadline_ms));
  PDS_ASSIGN_OR_RETURN(Message m, DecodeMessage(reply));
  const ErrorMsg* err = std::get_if<ErrorMsg>(&m.body);
  if (err == nullptr || err->code != 3) {
    return Status::IntegrityViolation(
        "token did not reject a malformed round request");
  }
  return "malformed frame rejected: " + err->message;
}

std::vector<SsiServer::SessionTelemetry> SsiServer::Telemetry() const {
  std::vector<SessionTelemetry> out;
  out.reserve(sessions_.size());
  for (const auto& s : sessions_) {
    SessionTelemetry t;
    t.token_id = s->token_id;
    t.alive = s->alive;
    if (s->stats != nullptr) {
      t.round_trips = s->stats->round_trips.Value();
      t.retries = s->stats->retries.Value();
      t.deadline_hits = s->stats->deadline_hits.Value();
      t.stragglers = s->stats->stragglers.Value();
      t.rtt_p50_us = s->stats->rtt_us.Percentile(50.0);
      t.rtt_p90_us = s->stats->rtt_us.Percentile(90.0);
      t.rtt_p99_us = s->stats->rtt_us.Percentile(99.0);
      t.rtt_p999_us = s->stats->rtt_us.Percentile(99.9);
      t.buffer_bytes = s->stats->buffer_bytes.Value();
      t.buffer_high_water = s->stats->buffer_bytes.max();
    }
    out.push_back(t);
  }
  return out;
}

namespace {

void JsonF64(std::ostream& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", std::isfinite(v) ? v : 0.0);
  out << buf;
}

}  // namespace

std::string SsiServer::StatsJson() const {
  std::ostringstream out;
  out << "{\n\"sessions\": [";
  bool first = true;
  for (const SessionTelemetry& t : Telemetry()) {
    if (!first) out << ',';
    first = false;
    out << "\n  {\"token_id\": " << t.token_id
        << ", \"alive\": " << (t.alive ? "true" : "false")
        << ", \"round_trips\": " << t.round_trips
        << ", \"retries\": " << t.retries
        << ", \"deadline_hits\": " << t.deadline_hits
        << ", \"stragglers\": " << t.stragglers << ", \"rtt_p50_us\": ";
    JsonF64(out, t.rtt_p50_us);
    out << ", \"rtt_p90_us\": ";
    JsonF64(out, t.rtt_p90_us);
    out << ", \"rtt_p99_us\": ";
    JsonF64(out, t.rtt_p99_us);
    out << ", \"rtt_p999_us\": ";
    JsonF64(out, t.rtt_p999_us);
    out << ", \"buffer_bytes\": ";
    JsonF64(out, t.buffer_bytes);
    out << ", \"buffer_high_water\": ";
    JsonF64(out, t.buffer_high_water);
    out << '}';
  }
  out << "\n],\n\"fleet\": {\"round_trips\": " << rtt_us_.count()
      << ", \"rtt_p50_us\": ";
  JsonF64(out, rtt_us_.Percentile(50.0));
  out << ", \"rtt_p90_us\": ";
  JsonF64(out, rtt_us_.Percentile(90.0));
  out << ", \"rtt_p99_us\": ";
  JsonF64(out, rtt_us_.Percentile(99.0));
  out << ", \"rtt_p999_us\": ";
  JsonF64(out, rtt_us_.Percentile(99.9));
  out << "},\n\"registry\": " << obs::Registry::Global().MetricsJson();
  out << ",\n\"ring\": " << stats_ring_.Json();
  out << "}\n";
  return out.str();
}

Status SsiServer::ServeStats(Transport* transport) {
  PDS_ASSIGN_OR_RETURN(Bytes frame, transport->Recv(config_.deadline_ms));
  PDS_ASSIGN_OR_RETURN(Message m, DecodeMessage(frame));
  if (!std::holds_alternative<StatsRequestMsg>(m.body)) {
    (void)transport->Send(EncodeMessage(
        {ErrorMsg{1, "stats channel accepts only kStatsRequest"}}));
    return Status::FailedPrecondition(
        "stats channel received a non-stats message");
  }
  std::string json = StatsJson();
  if (json.size() > kMaxStatsJsonBytes) {
    // The reply must stay decodable by a bounds-checking peer; a registry
    // large enough to overflow the bound is a deployment error worth
    // surfacing over silently truncated JSON.
    json = "{\"error\": \"stats snapshot exceeds kMaxStatsJsonBytes\"}";
  }
  return transport->Send(EncodeMessage({StatsReplyMsg{std::move(json)}}));
}

void SsiServer::Shutdown() {
  for (auto& s : sessions_) {
    if (s->alive && !s->transport->closed()) {
      // Best-effort farewell; the transport may already be gone.
      (void)s->transport->Send(
          EncodeMessage({ByeMsg{}, {}, config_.checksum_frames}));
    }
    s->transport->Close();
    s->alive = false;
  }
}

}  // namespace pds::net
