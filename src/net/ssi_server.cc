#include "net/ssi_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
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
using global::GroupState;
using global::Metrics;

/// Seed of the handshake-challenge nonce stream and of the trace-id stream
/// (deterministic tests; neither needs to be secret).
constexpr uint64_t kNonceSeed = 42;

/// The querier's answer from the tokens' AggResultMsg replies: entries
/// merged per group, then finalized for `func`.
std::map<std::string, double> MergeResults(
    const std::vector<MessageBody>& replies, AggFunc func) {
  std::map<std::string, GroupState> state;
  for (const MessageBody& reply : replies) {
    for (const AggResultEntry& e : std::get<AggResultMsg>(reply).entries) {
      state[e.group].sum += e.sum;
      state[e.group].count += e.count;
    }
  }
  return global::FinalizeGroups(state, func);
}

/// A request of a round that follows collect, held as the Message that
/// RunUnits hands to RoundTrip.
Message UnitRequest(RoundKind kind, AggFunc func, std::vector<Bytes> batch) {
  RoundRequestMsg request;
  request.header.kind = kind;
  request.header.func = func;
  request.batch = std::move(batch);
  return Message{std::move(request)};
}

/// The name a det variant's runs are recorded under.
const char* DetRunName(DetVariant variant) {
  switch (variant) {
    case DetVariant::kWhiteNoise:
      return "net-white-noise";
    case DetVariant::kDomainNoise:
      return "net-domain-noise";
    case DetVariant::kHistogram:
      return "net-histogram";
  }
  return "net-det";
}

/// The registry's wire and protocol counters; resolved once, then plain
/// atomic adds (registry lookups must stay out of protocol loops).
struct NetObs {
  obs::Counter* frames_sent;
  obs::Counter* frames_received;
  obs::Counter* deadline_hits;
  obs::Counter* retries;
  obs::Counter* quorum_shortfalls;
  obs::Counter* missing_tokens;
  obs::Counter* frame_rejects;
  obs::Histogram* round_trip_us;
  obs::Counter* protocol_runs;
  obs::Counter* protocol_rounds;
  obs::Counter* token_to_ssi_bytes;
  obs::Counter* ssi_to_token_bytes;
  obs::Counter* token_crypto_ops;
  obs::Counter* ssi_ops;
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
                  reg.GetHistogram("net.round_trip_us", "us"),
                  reg.GetCounter("protocol.runs", "ops"),
                  reg.GetCounter("protocol.rounds", "ops"),
                  reg.GetCounter("wire.token_to_ssi_bytes", "bytes"),
                  reg.GetCounter("wire.ssi_to_token_bytes", "bytes"),
                  reg.GetCounter("protocol.token_crypto_ops", "ops"),
                  reg.GetCounter("protocol.ssi_ops", "ops")};
  }();
  return hooks;
}

/// Holds a session's in-flight gauge at a request's frame size until the
/// round trip returns, whichever way it returns. A lean session has no
/// gauge (null) and is left alone.
class InFlightBytes {
 public:
  InFlightBytes(obs::Gauge* gauge, size_t bytes) : gauge_(gauge) {
    if (gauge_ != nullptr) {
      gauge_->Set(static_cast<double>(bytes));
    }
  }
  ~InFlightBytes() {
    if (gauge_ != nullptr) {
      gauge_->Set(0);
    }
  }
  InFlightBytes(const InFlightBytes&) = delete;
  InFlightBytes& operator=(const InFlightBytes&) = delete;

 private:
  obs::Gauge* gauge_;
};

/// The unsigned lexicographic order std::less<Bytes> gives: memcmp over the
/// shorter length, then the shorter key first. Spelled out because GCC 12's
/// inlined three-way compare of vector iterators warns
/// (-Wstringop-overread).
struct BytesLess {
  bool operator()(const Bytes& a, const Bytes& b) const {
    const size_t n = std::min(a.size(), b.size());
    const int c = n == 0 ? 0 : std::memcmp(a.data(), b.data(), n);
    return c != 0 ? c < 0 : a.size() < b.size();
  }
};

}  // namespace

/// One session's wire facts over one round. RoundTrip writes only the slot
/// of the session it runs on, so a slot has one writer and needs no lock.
struct SsiServer::WireCost {
  struct Direction {
    uint64_t frames = 0;
    uint64_t bytes = 0;
    void Add(size_t frame_bytes) {
      ++frames;
      bytes += frame_bytes;
    }
  };
  Direction sent;      // SSI -> token
  Direction received;  // token -> SSI
  uint64_t token_ops = 0;
  uint64_t retries = 0;
  uint64_t deadline_hits = 0;
  uint64_t frame_rejects = 0;
};

/// The slots of one round, one per session it talks to, and their one fold:
/// when the round returns, whichever way, every slot goes into the run's
/// Metrics and the RoundReport, into its session's telemetry, and into the
/// registry's net.* and wire.* counters. Every field is a sum, so the fold
/// needs no order.
class SsiServer::RoundSlots {
 public:
  RoundSlots(SsiServer* server, const std::vector<size_t>* sessions,
             Metrics* metrics)
      : server_(server), sessions_(sessions), metrics_(metrics),
        slots_(sessions->size()) {}
  ~RoundSlots();
  RoundSlots(const RoundSlots&) = delete;
  RoundSlots& operator=(const RoundSlots&) = delete;

  /// The slot of (*sessions)[i].
  WireCost* slot(size_t i) { return &slots_[i]; }

 private:
  SsiServer* server_;
  const std::vector<size_t>* sessions_;
  Metrics* metrics_;
  std::vector<WireCost> slots_;
};

SsiServer::RoundSlots::~RoundSlots() {
  const NetObs& hooks = NetHooks();
  RoundReport& report = server_->report_;
  for (size_t i = 0; i < slots_.size(); ++i) {
    const WireCost& c = slots_[i];
    if (c.sent.frames == 0) {
      continue;  // nothing went out, so nothing happened on this session
    }
    metrics_->messages += c.sent.frames + c.received.frames;
    metrics_->bytes += c.sent.bytes + c.received.bytes;
    metrics_->bytes_ssi_to_token += c.sent.bytes;
    metrics_->bytes_token_to_ssi += c.received.bytes;
    metrics_->token_crypto_ops += c.token_ops;
    report.retries += c.retries;
    report.deadline_hits += c.deadline_hits;
    report.frame_rejects += c.frame_rejects;
    SessionStats* stats = server_->sessions_[(*sessions_)[i]]->stats.get();
    if (stats != nullptr) {
      stats->retries.Add(c.retries);
      stats->deadline_hits.Add(c.deadline_hits);
    }
    hooks.frames_sent->Add(c.sent.frames);
    hooks.frames_received->Add(c.received.frames);
    hooks.retries->Add(c.retries);
    hooks.deadline_hits->Add(c.deadline_hits);
    hooks.frame_rejects->Add(c.frame_rejects);
    hooks.ssi_to_token_bytes->Add(c.sent.bytes);
    hooks.token_to_ssi_bytes->Add(c.received.bytes);
  }
}

/// The frame every protocol run executes in: readmission is refused while
/// it lives, the run's span is open, and `observer` records every class key
/// the SSI sees. Close is the one epilogue of every Run*: the leakage
/// report, the protocol.* counters, the leakage and wire trace instants
/// (named `run_name`, a static literal) and a stats-ring capture. A failed
/// run skips Close; its frames are in net.* and wire.* already.
class SsiServer::RunScope {
 public:
  RunScope(SsiServer* server, const char* span_name)
      : span(span_name, "net"), server_(server) {
    server_->run_active_.store(true);
  }
  ~RunScope() { server_->run_active_.store(false); }
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

  template <typename Out>
  [[nodiscard]] Out Close(Out out, const char* run_name) {
    out.leakage = observer.Report();
    const Metrics& m = out.metrics;
    const NetObs& hooks = NetHooks();
    hooks.protocol_runs->Add(1);
    hooks.protocol_rounds->Add(m.rounds);
    hooks.token_crypto_ops->Add(m.token_crypto_ops);
    hooks.ssi_ops->Add(m.ssi_ops);
    obs::Tracer::Global().Instant(
        run_name, "leakage", "distinct_classes",
        static_cast<double>(out.leakage.distinct_classes),
        "max_class_fraction", out.leakage.MaxClassFraction());
    obs::Tracer::Global().Instant(
        run_name, "wire", "token_to_ssi_bytes",
        static_cast<double>(m.bytes_token_to_ssi), "ssi_to_token_bytes",
        static_cast<double>(m.bytes_ssi_to_token));
    server_->stats_ring_.Capture(obs::Registry::Global());
    return out;
  }

  obs::Span span;
  global::HbcObserver observer;

 private:
  SsiServer* server_;
};

SsiServer::SsiServer(const Config& config)
    : config_(config),
      clock_(config.clock != nullptr ? config.clock : WallClock()),
      trace_rng_(kNonceSeed ^ 0x7472616365ULL) {}

size_t SsiServer::LeanSessionBytes() {
  return sizeof(std::unique_ptr<Session>) + sizeof(Session);
}

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
  Rng nonce_rng(kNonceSeed + nonce_counter_++);
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

Result<Message> SsiServer::RoundTrip(Session* s, Message* request,
                                     WireCost* cost) {
  RoundHeader& header = std::get<RoundRequestMsg>(request->body).header;
  header.round_id = s->next_round_id++;
  const uint32_t round_id = header.round_id;
  // Finalize and class rounds are answered with the plaintext aggregate,
  // every other kind with a tuple batch.
  const bool wants_result = header.kind == RoundKind::kFinalize ||
                            header.kind == RoundKind::kClassAggregate;
  // One span per logical round trip (retries included). When recorded, its
  // id rides the wire as the trace-context parent so the token's handler
  // span hangs under it in the merged cross-process trace.
  obs::Span rt_span("net.round-trip", "net");
  request->trace = std::nullopt;
  if (rt_span.id() != 0) {
    request->trace = TraceContext{run_trace_id_, rt_span.id()};
  }
  request->checksummed = config_.checksum_frames;
  const Bytes frame = EncodeMessage(*request);
  SessionStats* stats = s->stats.get();
  // Each answered attempt's latency, read at three scopes: the session's
  // tail (kStats), the server's percentiles (BENCH_net, BENCH_sim) and the
  // registry's histogram (BENCH_obs, kStats).
  obs::Histogram* const rtt_sinks[] = {
      stats != nullptr ? &stats->rtt_us : nullptr, &rtt_us_,
      NetHooks().round_trip_us};
  // Admission-control gauge: bytes of this session's in-flight request.
  const InFlightBytes in_flight(
      stats != nullptr ? &stats->buffer_bytes : nullptr, frame.size());
  for (uint32_t attempt = 0; attempt <= config_.max_retries; ++attempt) {
    if (attempt > 0) {
      ++cost->retries;
      clock_->SleepMs(config_.backoff_ms * attempt);
    }
    uint64_t attempt_start_ns = clock_->NowNs();
    PDS_RETURN_IF_ERROR(s->transport->Send(frame));
    cost->sent.Add(frame.size());

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
        return recv.status();
      }
      Bytes reply = std::move(recv).value();
      cost->received.Add(reply.size());
      auto decoded = DecodeMessage(reply);
      const ErrorMsg* err =
          decoded.ok() ? std::get_if<ErrorMsg>(&decoded.value().body)
                       : nullptr;
      if (!decoded.ok() ||
          (config_.checksum_frames && !decoded.value().checksummed) ||
          (err != nullptr && err->code == 3)) {
        // A frame the link corrupted in-payload (the stream itself is still
        // framed, or Recv would have failed), one without a verified trailer
        // on a checksummed wire, or the token's error for a request mangled
        // in flight: discard it and keep waiting — the retry budget, not one
        // flipped bit, decides this session's fate.
        ++cost->frame_rejects;
        continue;
      }
      if (err != nullptr) {
        return Status::FailedPrecondition("peer error: " + err->message);
      }
      Message m = std::move(decoded).value();
      const TupleBatchMsg* batch = std::get_if<TupleBatchMsg>(&m.body);
      const AggResultMsg* result = std::get_if<AggResultMsg>(&m.body);
      if (batch == nullptr && result == nullptr) {
        return Status::FailedPrecondition("unexpected reply message type");
      }
      const uint32_t got = batch != nullptr ? batch->round_id : result->round_id;
      if (got < round_id) {
        continue;  // stale answer to an earlier attempt/round; discard
      }
      if (got > round_id) {
        return Status::Corruption("reply from a future round");
      }
      const double rtt_us =
          static_cast<double>(clock_->NowNs() - attempt_start_ns) / 1000.0;
      for (obs::Histogram* sink : rtt_sinks) {
        if (sink != nullptr) sink->Record(rtt_us);
      }
      if ((result != nullptr) != wants_result) {
        return Status::FailedPrecondition(
            wants_result ? "round expected an agg result"
                         : "round expected a tuple batch");
      }
      cost->token_ops +=
          batch != nullptr ? batch->token_ops : result->token_ops;
      return m;
    }
    ++cost->deadline_hits;
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
  // Refused before any frame: ceil(quorum * n) below is a count only for a
  // quorum in [0, 1] (the negated test also catches NaN).
  if (!(config_.quorum >= 0.0 && config_.quorum <= 1.0)) {
    return Status::InvalidArgument("quorum must lie in [0, 1]");
  }
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
  RoundSlots round(this, &live, metrics);
  {
    obs::Span phase_span("net.collect", "net");
    phase_span.AddArg("sessions", static_cast<double>(nl));
    PDS_RETURN_IF_ERROR(global::FleetExecutor::Run(
        config_.executor, nl, [&](size_t li) -> Status {
          Session* s = sessions_[live[li]].get();
          Message req{request};
          auto reply = RoundTrip(s, &req, round.slot(li));
          if (!reply.ok()) {
            if (IsStragglerFailure(reply.status())) {
              DropStraggler(s);
              return Status::Ok();
            }
            return reply.status();
          }
          out.batches[li] =
              std::get<TupleBatchMsg>(std::move(reply.value().body));
          answered[li] = 1;
          return Status::Ok();
        }));
  }

  // Keep the responders' batches, compacted in session order.
  out.sessions.reserve(nl);
  for (size_t li = 0; li < nl; ++li) {
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

Result<std::vector<MessageBody>> SsiServer::RunUnits(
    std::vector<Message>* units, const std::vector<size_t>& responders,
    size_t offset, Metrics* metrics) {
  const size_t n = responders.size();
  const size_t lanes = std::min(n, units->size());
  std::vector<MessageBody> replies(units->size());
  std::vector<uint8_t> done(units->size(), 0);
  // Runs unit u on the session at `idx`, sending the unit where it lies (a
  // failover re-sends the same Message). A straggler failure drops the
  // session for the rest of the run and leaves u for the failover pass.
  auto run = [&](size_t idx, size_t u, WireCost* cost) -> Status {
    Session* s = sessions_[idx].get();
    auto reply = RoundTrip(s, &(*units)[u], cost);
    if (!reply.ok()) {
      if (!IsStragglerFailure(reply.status())) {
        return reply.status();
      }
      DropStraggler(s);
      return Status::Ok();
    }
    replies[u] = std::move(reply.value().body);
    done[u] = 1;
    return Status::Ok();
  };

  // Lane l serves responder (offset + l) % n: units l, l + n, ... in order,
  // until its session is dropped (possibly in an earlier round of this run).
  // Responders dealt no unit are not visited.
  std::vector<size_t> lane_sessions(lanes);
  for (size_t l = 0; l < lanes; ++l) {
    lane_sessions[l] = responders[(offset + l) % n];
  }
  RoundSlots round(this, &lane_sessions, metrics);
  PDS_RETURN_IF_ERROR(global::FleetExecutor::Run(
      config_.executor, lanes, [&](size_t l) -> Status {
        const size_t idx = lane_sessions[l];
        for (size_t u = l; sessions_[idx]->alive && u < units->size();
             u += n) {
          PDS_RETURN_IF_ERROR(run(idx, u, round.slot(l)));
        }
        return Status::Ok();
      }));
  if (std::find(done.begin(), done.end(), 0) == done.end()) {
    return replies;
  }

  // Failover (serial, only when a unit is left over): each unfinished unit,
  // in order, goes to the first responder that is still alive.
  RoundSlots failover(this, &responders, metrics);
  for (size_t u = 0; u < units->size(); ++u) {
    for (size_t a = 0; a < n && done[u] == 0; ++a) {
      if (sessions_[responders[a]]->alive) {
        PDS_RETURN_IF_ERROR(run(responders[a], u, failover.slot(a)));
      }
    }
    if (done[u] == 0) {
      return Status::FailedPrecondition(
          "every responding token vanished before unit " + std::to_string(u) +
          " could run");
    }
  }
  return replies;
}

Result<AggOutput> SsiServer::RunSecureAggregation(AggFunc func) {
  if (config_.partition_capacity == 0) {
    return Status::InvalidArgument("partition capacity must be >= 1");
  }
  RunScope run(this, "net.secure-agg");
  AggOutput out;

  // Phase 1: collect — every live token encrypts and sends its authorized
  // tuples.
  RoundRequestMsg collect;
  collect.header.kind = RoundKind::kCollect;
  collect.header.func = func;
  PDS_ASSIGN_OR_RETURN(Collected collected,
                       CollectRound(collect, &out.metrics));
  size_t collected_tuples = 0;
  for (const TupleBatchMsg& batch : collected.batches) {
    collected_tuples += batch.batch.size();
  }
  std::vector<Bytes> items;
  items.reserve(collected_tuples);
  for (TupleBatchMsg& batch : collected.batches) {
    for (Bytes& ct : batch.batch) {
      run.observer.ObserveTuple(ByteView(ct));
      items.push_back(std::move(ct));
    }
  }

  // Phase 2: iterative partition-and-aggregate over the responders. Each
  // round deals its partitions round-robin from where the last one ended.
  const size_t cap = config_.partition_capacity;
  size_t offset = 0;
  while (items.size() > cap) {
    obs::Span phase_span("net.aggregate-round", "net");
    phase_span.AddArg("items", static_cast<double>(items.size()));
    const size_t before = items.size();
    std::vector<Message> parts;
    parts.reserve((before + cap - 1) / cap);
    for (size_t start = 0; start < before; start += cap) {
      auto first = std::make_move_iterator(items.begin() + start);
      auto last = std::make_move_iterator(items.begin() +
                                          std::min(before, start + cap));
      parts.push_back(UnitRequest(RoundKind::kAggregate, func, {first, last}));
    }
    PDS_ASSIGN_OR_RETURN(
        std::vector<MessageBody> replies,
        RunUnits(&parts, collected.sessions, offset, &out.metrics));
    offset += parts.size();
    items.clear();
    for (MessageBody& reply : replies) {
      for (Bytes& ct : std::get<TupleBatchMsg>(reply).batch) {
        run.observer.ObserveTuple(ByteView(ct));
        items.push_back(std::move(ct));
      }
      ++out.metrics.ssi_ops;  // partition bookkeeping
    }
    ++out.metrics.rounds;
    if (items.size() >= before) {
      return Status::InvalidArgument(
          "partition capacity too small for the number of distinct groups");
    }
  }

  // Phase 3: final aggregation, one unit dealt to the first responder.
  obs::Span final_span("net.finalize", "net");
  final_span.AddArg("items", static_cast<double>(items.size()));
  std::vector<Message> finalize;
  finalize.push_back(UnitRequest(RoundKind::kFinalize, func, std::move(items)));
  PDS_ASSIGN_OR_RETURN(
      std::vector<MessageBody> result,
      RunUnits(&finalize, collected.sessions, 0, &out.metrics));
  ++out.metrics.rounds;
  out.groups = MergeResults(result, func);
  return run.Close(std::move(out), "net-secure-agg");
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
  RunScope run(this, "net.packed-paillier");
  run.span.AddArg("domain", static_cast<double>(domain.size()));
  AggOutput out;

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
      run.observer.ObserveTuple(ByteView(batch[0]));
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
  out.groups = global::FinalizeGroups(state, func);
  return run.Close(std::move(out), "net-packed-paillier");
}

Result<AggOutput> SsiServer::RunDetAggregation(
    AggFunc func, const DetParams& params,
    const std::vector<std::string>& domain) {
  if (params.variant == DetVariant::kDomainNoise && domain.empty()) {
    return Status::InvalidArgument("domain-noise run requires the domain");
  }
  if (params.variant == DetVariant::kHistogram && params.num_buckets == 0) {
    return Status::InvalidArgument("histogram run requires num_buckets >= 1");
  }
  // Parameters every token would refuse fail here, before any frame.
  PDS_RETURN_IF_ERROR(DetSendListSize(params, 0, domain.size()).status());

  RunScope run(this, "net.det-agg");
  run.span.AddArg("variant", static_cast<double>(params.variant));
  AggOutput out;

  // Phase 1: kDetCollect fan-out. Batch entry 0 carries the public round
  // parameters; domain-noise rounds append the domain labels.
  RoundRequestMsg request;
  request.header.kind = RoundKind::kDetCollect;
  request.header.func = func;
  request.batch.push_back(EncodeDetParams(params));
  if (params.variant == DetVariant::kDomainNoise) {
    for (const std::string& g : domain) {
      request.batch.push_back(ByteView(std::string_view(g)).ToBytes());
    }
  }
  PDS_ASSIGN_OR_RETURN(Collected collected,
                       CollectRound(request, &out.metrics));

  // Equality classes in deterministic-ciphertext order; histogram rounds
  // key by the plaintext bucket id instead.
  std::map<Bytes, std::vector<Bytes>, BytesLess> classes;
  std::map<uint32_t, std::vector<Bytes>> buckets;
  const bool histogram = params.variant == DetVariant::kHistogram;
  for (TupleBatchMsg& reply : collected.batches) {
    std::vector<Bytes>& batch = reply.batch;
    if (batch.size() % 2 != 0) {
      return Status::Corruption(
          "det collect batch must hold (key, payload) pairs");
    }
    for (size_t i = 0; i + 1 < batch.size(); i += 2) {
      Bytes& key = batch[i];
      Bytes& payload = batch[i + 1];
      run.observer.ObserveTuple(ByteView(key));
      ++out.metrics.ssi_ops;
      if (histogram) {
        if (key.size() != 4) {
          return Status::Corruption("histogram bucket key must be 4 bytes");
        }
        buckets[GetU32(key.data())].push_back(std::move(payload));
      } else {
        std::vector<Bytes>& unit = classes[key];
        if (unit.empty()) {
          unit.push_back(key);  // entry 0: the class key
        }
        unit.push_back(std::move(payload));
      }
    }
  }

  // Phase 2: one class/bucket aggregation request per equality class, in
  // class order, dealt round-robin over the responders.
  std::vector<Message> units;
  units.reserve(histogram ? buckets.size() : classes.size());
  for (auto& [bucket, payloads] : buckets) {
    units.push_back(
        UnitRequest(RoundKind::kFinalize, func, std::move(payloads)));
  }
  for (auto& [key, batch] : classes) {
    units.push_back(
        UnitRequest(RoundKind::kClassAggregate, func, std::move(batch)));
  }
  std::vector<MessageBody> results;
  {
    obs::Span phase_span("net.class-aggregate", "net");
    phase_span.AddArg("classes", static_cast<double>(units.size()));
    PDS_ASSIGN_OR_RETURN(
        results, RunUnits(&units, collected.sessions, 0, &out.metrics));
  }
  ++out.metrics.rounds;
  out.groups = MergeResults(results, func);
  return run.Close(std::move(out), DetRunName(params.variant));
}

Result<SsiServer::SealedCollect> SsiServer::RunSealedCollect() {
  RunScope run(this, "net.sealed-collect");
  SealedCollect out;

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
      run.observer.ObserveTuple(ByteView(t.payload_ct));
      ++out.metrics.ssi_ops;
      out.tuples.push_back(std::move(t));
    }
  }
  return run.Close(std::move(out), "net-sealed-collect");
}

std::vector<SsiServer::SessionTelemetry> SsiServer::Telemetry() const {
  std::vector<SessionTelemetry> out;
  out.reserve(sessions_.size());
  for (const auto& s : sessions_) {
    SessionTelemetry t;
    t.token_id = s->token_id;
    t.alive = s->alive;
    if (s->stats != nullptr) {
      t.round_trips = s->stats->rtt_us.count();
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

/// Writes `, "key": v` (non-finite values as 0).
void JsonF64(std::ostream& out, const char* key, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", std::isfinite(v) ? v : 0.0);
  out << ", \"" << key << "\": " << buf;
}

}  // namespace

std::string SsiServer::StatsJson() const {
  std::ostringstream rest;
  rest << ",\n\"fleet\": {\"round_trips\": " << rtt_us_.count();
  JsonF64(rest, "rtt_p50_us", rtt_us_.Percentile(50.0));
  JsonF64(rest, "rtt_p90_us", rtt_us_.Percentile(90.0));
  JsonF64(rest, "rtt_p99_us", rtt_us_.Percentile(99.0));
  JsonF64(rest, "rtt_p999_us", rtt_us_.Percentile(99.9));
  rest << "},\n\"registry\": " << obs::Registry::Global().MetricsJson();
  rest << ",\n\"ring\": " << stats_ring_.Json();
  rest << "}\n";
  const std::string tail = rest.str();

  const std::vector<SessionTelemetry> telemetry = Telemetry();
  auto counts = [&](size_t listed) {
    return "\n],\n\"sessions_total\": " + std::to_string(telemetry.size()) +
           ", \"sessions_listed\": " + std::to_string(listed);
  };
  const std::string head = "{\n\"sessions\": [";
  // The session list takes what the rest of the document leaves of
  // kMaxStatsJsonBytes, so a fleet of any size fits one kStats reply.
  const size_t fixed = head.size() + counts(telemetry.size()).size() +
                       tail.size();
  const size_t budget =
      kMaxStatsJsonBytes - std::min(fixed, kMaxStatsJsonBytes);
  std::string sessions;
  size_t listed = 0;
  for (const SessionTelemetry& t : telemetry) {
    std::ostringstream entry;
    if (listed > 0) entry << ',';
    entry << "\n  {\"token_id\": " << t.token_id
          << ", \"alive\": " << (t.alive ? "true" : "false")
          << ", \"round_trips\": " << t.round_trips
          << ", \"retries\": " << t.retries
          << ", \"deadline_hits\": " << t.deadline_hits
          << ", \"stragglers\": " << t.stragglers;
    JsonF64(entry, "rtt_p50_us", t.rtt_p50_us);
    JsonF64(entry, "rtt_p90_us", t.rtt_p90_us);
    JsonF64(entry, "rtt_p99_us", t.rtt_p99_us);
    JsonF64(entry, "rtt_p999_us", t.rtt_p999_us);
    JsonF64(entry, "buffer_bytes", t.buffer_bytes);
    JsonF64(entry, "buffer_high_water", t.buffer_high_water);
    entry << '}';
    const std::string text = entry.str();
    if (sessions.size() + text.size() > budget) {
      break;
    }
    sessions += text;
    ++listed;
  }
  return head + sessions + counts(listed) + tail;
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
    // The reply must stay decodable by a bounds-checking peer. The session
    // list already fits the bound; a registry large enough to overflow it
    // on its own is a deployment error worth surfacing over silently
    // truncated JSON.
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
