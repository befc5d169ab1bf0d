#include "net/scenario.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "common/clock.h"
#include "global/integrity.h"
#include "net/codec.h"
#include "net/ssi_server.h"
#include "net/token_client.h"
#include "net/transport.h"

namespace pds::net {

namespace {

using global::AggFunc;
using global::AggOutput;
using global::Participant;

/// The fault label of a cell for reports: single-kind cells by design.
std::string FaultLabel(const ScenarioSpec& spec) {
  if (spec.adversary.action != AdversaryAction::kNone) {
    return AdversaryActionName(spec.adversary.action);
  }
  if (spec.faults.disconnect_after_replies > 0) return "churn";
  if (spec.faults.drop_rate > 0) return "drop";
  if (spec.faults.delay_rate > 0) return "delay";
  if (spec.faults.duplicate_rate > 0) return "duplicate";
  if (spec.faults.reorder_rate > 0) return "reorder";
  if (spec.faults.truncate_rate > 0) return "truncate";
  if (spec.faults.bitflip_rate > 0) return "bitflip";
  return "none";
}

bool IsProbeAction(AdversaryAction a) {
  return a == AdversaryAction::kReplayStaleRound ||
         a == AdversaryAction::kOversizedFrame ||
         a == AdversaryAction::kMalformedFrame;
}

Result<std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>>
MakePair(bool use_socket) {
  if (use_socket) {
    PDS_ASSIGN_OR_RETURN(auto pair, SocketTransport::CreateUnixPair());
    return std::make_pair(
        std::unique_ptr<Transport>(std::move(pair.first)),
        std::unique_ptr<Transport>(std::move(pair.second)));
  }
  auto pair = InProcessTransport::CreatePair();
  return std::make_pair(std::unique_ptr<Transport>(std::move(pair.first)),
                        std::unique_ptr<Transport>(std::move(pair.second)));
}

Result<AggOutput> RunWireProtocol(SsiServer* server,
                                  const ScenarioSpec& spec) {
  switch (spec.protocol) {
    case WireProtocol::kSecureAgg:
      return server->RunSecureAggregation(spec.func);
    case WireProtocol::kWhiteNoise:
    case WireProtocol::kDomainNoise:
    case WireProtocol::kHistogram: {
      DetParams params;
      params.variant = spec.protocol == WireProtocol::kWhiteNoise
                           ? DetVariant::kWhiteNoise
                           : (spec.protocol == WireProtocol::kDomainNoise
                                  ? DetVariant::kDomainNoise
                                  : DetVariant::kHistogram);
      params.noise_ratio = spec.noise_ratio;
      params.noise_seed = spec.noise_seed;
      params.fakes_per_value = spec.fakes_per_value;
      params.num_buckets = spec.num_buckets;
      return server->RunDetAggregation(spec.func, params, spec.domain);
    }
    case WireProtocol::kPacked:
      if (spec.packed == nullptr) {
        return Status::InvalidArgument("packed cell needs a packed context");
      }
      return server->RunPackedAggregation(spec.func, *spec.packed,
                                          spec.domain);
  }
  return Status::InvalidArgument("unknown wire protocol");
}

/// The header of an encoded empty RoundRequestMsg with only its closing
/// payload_len field rewritten to `payload_len`, followed by `garbage`
/// bytes of 0xFF: a hostile frame whose magic, flags and type codec.cc
/// wrote.
Bytes HostileRoundRequest(uint32_t payload_len, size_t garbage) {
  Bytes frame = EncodeMessage({RoundRequestMsg{}});
  frame.resize(kFrameHeaderSize);
  EncodeU32(frame.data() + kFrameHeaderSize - sizeof(uint32_t), payload_len);
  frame.resize(kFrameHeaderSize + garbage, 0xFF);
  return frame;
}

/// Sends the hostile `frame` on `link`, the SSI's end of a session, and
/// judges the token's answer. ErrorMsg `code` is the defence: the verdict
/// is `verdict` followed by the token's error text. Any other answer is
/// the IntegrityViolation `breach`. With `closed_verdict` set, a token
/// that closes the session instead (a deadline, a dead link or a broken
/// stream) defends too: the link is closed and `closed_verdict` returned.
/// Any other Status means the probe could not run.
Result<std::string> Probe(Transport* link, const Bytes& frame,
                          uint32_t deadline_ms, uint8_t code,
                          std::string verdict, const char* breach,
                          const char* closed_verdict = nullptr) {
  PDS_RETURN_IF_ERROR(link->Send(frame));
  auto reply = link->Recv(deadline_ms);
  if (!reply.ok()) {
    const StatusCode closed = reply.status().code();
    if (closed_verdict != nullptr &&
        (closed == StatusCode::kDeadlineExceeded ||
         closed == StatusCode::kIoError ||
         closed == StatusCode::kCorruption)) {
      link->Close();
      return std::string(closed_verdict);
    }
    return reply.status();
  }
  PDS_ASSIGN_OR_RETURN(Message m, DecodeMessage(reply.value()));
  const ErrorMsg* err = std::get_if<ErrorMsg>(&m.body);
  if (err == nullptr || err->code != code) {
    return Status::IntegrityViolation(breach);
  }
  return verdict + err->message;
}

/// The hostile-frame probe `action` on `link`, the tap on session 0's SSI
/// end, after the run. The stale-round probe re-sends round 1, the collect
/// request every session answers first; it has nothing stale to replay
/// unless the session answered a later round too (beyond the hello and the
/// collect reply, the tap saw another frame come in).
Result<std::string> RunProbe(AdversaryAction action, FrameTap* link,
                             uint32_t deadline_ms, bool checksummed) {
  switch (action) {
    case AdversaryAction::kReplayStaleRound: {
      const std::vector<FrameTap::Entry>& seen = link->entries();
      const auto received =
          std::count_if(seen.begin(), seen.end(),
                        [](const FrameTap::Entry& e) { return !e.outbound; });
      if (received < 3) {
        return Status::FailedPrecondition(
            "session 0 answered no round after its collect round; there is "
            "no stale round to replay");
      }
      RoundRequestMsg stale;
      stale.header.round_id = 1;
      stale.header.kind = RoundKind::kCollect;
      stale.header.func = AggFunc::kSum;
      return Probe(link, EncodeMessage({stale, {}, checksummed}), deadline_ms,
                   4, "stale round 1 rejected: ",
                   "token ANSWERED a replayed stale round instead of "
                   "rejecting it");
    }
    case AdversaryAction::kOversizedFrame:
      // A bare header declaring an impossible payload. Depending on the
      // transport the token either sees the header-only frame (in-process)
      // and rejects it, or its socket layer refuses the header before
      // allocation and the session dies cleanly: both are the defence.
      return Probe(link, HostileRoundRequest(kMaxFramePayload + 1, 0),
                   deadline_ms, 3,
                   "oversized frame rejected before allocation: ",
                   "token accepted a frame declaring an oversized payload",
                   "token refused the oversized frame; session closed "
                   "cleanly");
    default: {
      // Valid header, garbage payload: must fail structured decode on the
      // token without killing its serve loop.
      constexpr uint32_t kGarbage = 16;
      return Probe(link, HostileRoundRequest(kGarbage, kGarbage),
                   deadline_ms, 3, "malformed frame rejected: ",
                   "token did not reject a malformed round request");
    }
  }
}

void AppendJsonBool(std::ostringstream* os, const char* key, bool v,
                    bool trailing_comma = true) {
  *os << "\"" << key << "\": " << (v ? "true" : "false");
  if (trailing_comma) *os << ", ";
}

}  // namespace

const char* WireProtocolName(WireProtocol protocol) {
  switch (protocol) {
    case WireProtocol::kSecureAgg:
      return "secure-agg";
    case WireProtocol::kWhiteNoise:
      return "white-noise";
    case WireProtocol::kDomainNoise:
      return "domain-noise";
    case WireProtocol::kHistogram:
      return "histogram";
    case WireProtocol::kPacked:
      return "packed-paillier";
  }
  return "unknown";
}

Result<ScenarioResult> RunScenarioCell(const ScenarioSpec& spec) {
  if (spec.participants.empty()) {
    return Status::InvalidArgument("scenario needs participants");
  }
  if (spec.verifier == nullptr) {
    return Status::InvalidArgument("scenario needs a verifier token");
  }
  ScenarioResult res;
  res.name = spec.name;
  res.protocol = spec.sealed_round ? "sealed-collect"
                                   : WireProtocolName(spec.protocol);
  res.fault = FaultLabel(spec);
  res.benign = !spec.faults.has_faults() &&
               spec.adversary.action == AdversaryAction::kNone;
  // Damaging link faults run over the checksummed wire: a flipped bit can
  // land in a field like the round kind and still decode as a valid frame,
  // so framing alone cannot catch it — the FNV trailer can.
  const bool damaging_link =
      spec.faults.truncate_rate > 0 || spec.faults.bitflip_rate > 0;
  res.expects_detection = spec.adversary.action != AdversaryAction::kNone ||
                          damaging_link ||
                          spec.faults.disconnect_after_replies > 0;

  const uint32_t deadline =
      spec.deadline_ms != 0 ? spec.deadline_ms : ScaledMs(100);
  const bool churn_cell = spec.faults.disconnect_after_replies > 0;

  InjectionLog link_log;

  SsiServer::Config scfg;
  scfg.deadline_ms = deadline;
  scfg.max_retries = spec.max_retries;
  scfg.backoff_ms = 1;
  scfg.quorum = spec.quorum;
  scfg.verifier = spec.verifier;
  scfg.checksum_frames = damaging_link;
  SsiServer server(scfg);
  // In probe cells, the tap on session 0's SSI end (owned by the server):
  // the hostile frames go out on it after the run. A readmission would
  // replace it, so it is read before the churn step.
  FrameTap* tap0 = nullptr;

  std::vector<std::unique_ptr<TokenClient>> clients;
  clients.reserve(spec.participants.size());
  auto shutdown = [&] {
    server.Shutdown();
    for (auto& c : clients) c->Stop();
    for (auto& c : clients) (void)c->Join();
  };

  // Starts a client for participant i on a fresh link and returns the
  // link's SSI end.
  auto dial = [&](size_t i) -> Result<std::unique_ptr<Transport>> {
    PDS_ASSIGN_OR_RETURN(auto pair, MakePair(spec.use_socket));
    TokenClient::Config ccfg;
    ccfg.token = spec.participants[i].token;
    ccfg.tuples = spec.participants[i].tuples;
    ccfg.deadline_ms = ScaledMs(2000);
    ccfg.poll_ms = 5;
    ccfg.packed = spec.packed;
    clients.push_back(std::make_unique<TokenClient>(std::move(pair.second),
                                                    std::move(ccfg)));
    clients.back()->Start();
    return std::move(pair.first);
  };

  for (size_t i = 0; i < spec.participants.size(); ++i) {
    auto server_side = dial(i);
    if (!server_side.ok()) {
      shutdown();
      return server_side.status();
    }
    std::unique_ptr<Transport> ssi_end = std::move(server_side).value();
    if (i == 0 && spec.faults.has_faults()) {
      FaultPlan link = spec.faults;
      link.skip_first = 2;  // let the attestation handshake through
      ssi_end = std::make_unique<FaultInjectingTransport>(std::move(ssi_end),
                                                          link, &link_log);
    }
    if (i == 0 && IsProbeAction(spec.adversary.action)) {
      auto tap = std::make_unique<FrameTap>(std::move(ssi_end));
      tap0 = tap.get();
      ssi_end = std::move(tap);
    }
    auto idx = server.AcceptSession(std::move(ssi_end));
    if (!idx.ok()) {
      shutdown();
      return idx.status();
    }
  }

  // --- Wire run -----------------------------------------------------------
  if (spec.sealed_round) {
    auto sealed = server.RunSealedCollect();
    if (!sealed.ok()) {
      res.error = sealed.status().ToString();
    } else {
      res.ran_ok = true;
      SsiServer::SealedCollect& pool = sealed.value();
      res.leakage = pool.leakage;
      // The weakly-malicious SSI acts here, after honest tokens sealed
      // their contributions and before the pool reaches the querier.
      const std::string ssi_did = ApplySealedTampering(
          spec.adversary, &pool.tuples, &pool.manifests);
      auto audit = global::AuditSealedBatch(spec.verifier, pool.tuples,
                                            pool.manifests, spec.func);
      if (!audit.ok()) {
        res.error = audit.status().ToString();
        res.ran_ok = false;
      } else {
        res.detected = !audit.value().verdict.ok;
        res.detection = audit.value().verdict.problem;
        if (!ssi_did.empty()) {
          res.detection += res.detection.empty() ? "" : " ";
          res.detection += "[ssi did: " + ssi_did + "]";
        }
        res.groups = audit.value().groups;
        if (audit.value().verdict.ok) {
          auto tele = server.Telemetry();
          std::vector<Participant> subset;
          for (size_t i = 0;
               i < tele.size() && i < spec.participants.size(); ++i) {
            if (tele[i].alive) subset.push_back(spec.participants[i]);
          }
          res.byte_identical =
              res.groups == global::PlainAggregate(subset, spec.func);
        }
      }
    }
  }

  if (!spec.sealed_round) {
    auto wire = RunWireProtocol(&server, spec);
    if (!wire.ok()) {
      res.error = wire.status().ToString();
    } else {
      res.ran_ok = true;
      res.groups = wire.value().groups;
      res.leakage = wire.value().leakage;
      if (spec.adversary.action == AdversaryAction::kForgeAggregate &&
          !res.groups.empty()) {
        // The forging SSI skews the first group it claims. Without a sealed
        // round to audit against, the querier catches this by comparing
        // with the aggregate it recomputes.
        res.groups.begin()->second += 1.0;
      }
      // Compare with the plaintext truth over the tokens that answered.
      // A churn cell compares its full-fleet rerun below instead: run 1
      // legitimately diverges (the churned token's collect data has no
      // class answers).
      if (!churn_cell) {
        auto tele = server.Telemetry();
        std::vector<Participant> subset;
        for (size_t i = 0; i < tele.size() && i < spec.participants.size();
             ++i) {
          if (tele[i].alive) subset.push_back(spec.participants[i]);
        }
        const auto expected = global::PlainAggregate(subset, spec.func);
        res.byte_identical = res.groups == expected;
        if (spec.adversary.action == AdversaryAction::kForgeAggregate) {
          global::IntegrityVerdict verdict =
              CompareAggregates(res.groups, expected);
          res.detected = !verdict.ok;
          res.detection = verdict.problem;
        }
      }
      // Link damage must leave forensics: either frames were rejected in
      // place or the faulty session was dropped to quorum.
      if (spec.faults.truncate_rate > 0 || spec.faults.bitflip_rate > 0) {
        const SsiServer::RoundReport& report = server.last_report();
        res.detected =
            report.frame_rejects > 0 || report.missing_tokens > 0;
        res.detection = "frame_rejects=" +
                        std::to_string(report.frame_rejects) +
                        " missing_tokens=" +
                        std::to_string(report.missing_tokens);
      }
    }
  }

  // --- Adversarial probes (attack the session protocol directly) ----------
  if (IsProbeAction(spec.adversary.action) && res.ran_ok) {
    Result<std::string> probe =
        RunProbe(spec.adversary.action, tap0, deadline, damaging_link);
    res.detected = probe.ok();
    res.detection = probe.ok() ? probe.value() : probe.status().ToString();
  }

  // --- Churn: token 0 returns as a fresh client on a fresh link ----------
  if (churn_cell && res.ran_ok) {
    auto fresh = dial(0);
    if (!fresh.ok()) {
      shutdown();
      return fresh.status();
    }
    auto idx = server.ReadmitSession(std::move(fresh).value());
    if (!idx.ok()) {
      res.detected = false;
      res.detection = "readmit failed: " + idx.status().ToString();
    } else {
      auto second = RunWireProtocol(&server, spec);
      if (!second.ok()) {
        res.detected = false;
        res.detection =
            "post-churn run failed: " + second.status().ToString();
      } else {
        res.detected = second.value().groups ==
                       global::PlainAggregate(spec.participants, spec.func);
        res.detection =
            "token re-admitted after churn; full-fleet rerun matches";
        res.groups = second.value().groups;
        // res.groups now holds the full-fleet rerun, so byte-identity is
        // against the full reference; run 1's divergence (the churned
        // token's collect data with no class answers) is expected.
        res.byte_identical = res.detected;
      }
    }
  }

  const SsiServer::RoundReport& report = server.last_report();
  res.sessions = report.sessions;
  res.responders = report.responders;
  res.frame_rejects = report.frame_rejects;
  res.retries = report.retries;
  res.deadline_hits = report.deadline_hits;

  shutdown();

  res.injection_log = link_log.ToString();
  res.injections = link_log.size();
  return res;
}

std::vector<ScenarioSpec> DefaultMatrix(uint64_t seed, bool use_socket) {
  std::vector<ScenarioSpec> out;
  // Fixed-size matrix: 5 protocols x (benign + 6 link faults) + 5 sealed
  // cells + 4 hostile-frame cells + churn.
  out.reserve(5 * 7 + 5 + 4 + 1);
  const WireProtocol protocols[] = {
      WireProtocol::kSecureAgg, WireProtocol::kWhiteNoise,
      WireProtocol::kDomainNoise, WireProtocol::kHistogram,
      WireProtocol::kPacked};

  struct LinkCell {
    const char* label;
    double FaultPlan::* rate;
    uint64_t max_injections;
    double quorum;
  };
  const LinkCell link_cells[] = {
      // Recoverable faults: retries absorb them, byte-identity must hold.
      {"drop", &FaultPlan::drop_rate, 1, 1.0},
      {"delay", &FaultPlan::delay_rate, 0, 1.0},
      {"duplicate", &FaultPlan::duplicate_rate, 0, 1.0},
      {"reorder", &FaultPlan::reorder_rate, 1, 1.0},
      // Damage faults (over the checksummed wire, see RunScenarioCell):
      // session 0 is lost, the run degrades to quorum.
      {"truncate", &FaultPlan::truncate_rate, 0, 0.6},
      {"bitflip", &FaultPlan::bitflip_rate, 0, 0.6},
  };

  for (WireProtocol protocol : protocols) {
    ScenarioSpec benign;
    benign.name = std::string(WireProtocolName(protocol)) + "/benign";
    benign.protocol = protocol;
    benign.use_socket = use_socket;
    benign.faults.seed = seed;
    out.push_back(benign);
    for (const LinkCell& cell : link_cells) {
      ScenarioSpec s;
      s.name = std::string(WireProtocolName(protocol)) + "/" + cell.label;
      s.protocol = protocol;
      s.use_socket = use_socket;
      s.faults.seed = seed;
      s.faults.*cell.rate = 1.0;
      s.faults.max_injections = cell.max_injections;
      s.quorum = cell.quorum;
      out.push_back(s);
    }
  }

  // Sealed-batch tampering: one cell per ApplySealedTampering action, plus
  // a benign sealed round proving the audit passes honest pools.
  const AdversaryAction sealed_actions[] = {
      AdversaryAction::kNone, AdversaryAction::kSubstituteCiphertext,
      AdversaryAction::kReplayCiphertext, AdversaryAction::kOmitCiphertext,
      AdversaryAction::kForgeManifest};
  for (AdversaryAction action : sealed_actions) {
    ScenarioSpec s;
    s.name = std::string("sealed/") + (action == AdversaryAction::kNone
                                           ? "benign"
                                           : AdversaryActionName(action));
    s.sealed_round = true;
    s.adversary.action = action;
    s.adversary.seed = seed;
    s.use_socket = use_socket;
    s.faults.seed = seed;
    out.push_back(s);
  }

  // Protocol-level adversary: forged aggregate + hostile session frames.
  const AdversaryAction wire_actions[] = {
      AdversaryAction::kForgeAggregate, AdversaryAction::kReplayStaleRound,
      AdversaryAction::kOversizedFrame, AdversaryAction::kMalformedFrame};
  for (AdversaryAction action : wire_actions) {
    ScenarioSpec s;
    s.name = std::string("secure-agg/") + AdversaryActionName(action);
    s.protocol = WireProtocol::kSecureAgg;
    s.adversary.action = action;
    s.adversary.seed = seed;
    s.use_socket = use_socket;
    s.faults.seed = seed;
    out.push_back(s);
  }

  // Token churn mid-run: white-noise has per-class failover, so the run
  // degrades gracefully, then the token rejoins via re-handshake.
  {
    ScenarioSpec s;
    s.name = "white-noise/churn";
    s.protocol = WireProtocol::kWhiteNoise;
    s.use_socket = use_socket;
    s.faults.seed = seed;
    s.faults.disconnect_after_replies = 1;
    s.quorum = 0.6;
    out.push_back(s);
  }
  return out;
}

std::string MatrixJson(const std::vector<ScenarioResult>& results) {
  size_t detection_expected = 0;
  size_t detection_caught = 0;
  size_t benign_cells = 0;
  bool benign_byte_identical = true;
  std::ostringstream os;
  os << "{\"cells\": [";
  for (size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    if (r.expects_detection) {
      ++detection_expected;
      if (r.detected) ++detection_caught;
    }
    if (r.benign) {
      ++benign_cells;
      benign_byte_identical =
          benign_byte_identical && r.ran_ok && r.byte_identical;
    }
    if (i > 0) os << ", ";
    os << "{\"name\": \"" << r.name << "\", \"protocol\": \"" << r.protocol
       << "\", \"fault\": \"" << r.fault << "\", ";
    AppendJsonBool(&os, "benign", r.benign);
    AppendJsonBool(&os, "ran_ok", r.ran_ok);
    AppendJsonBool(&os, "byte_identical", r.byte_identical);
    AppendJsonBool(&os, "expects_detection", r.expects_detection);
    AppendJsonBool(&os, "detected", r.detected);
    os << "\"injections\": " << r.injections
       << ", \"frame_rejects\": " << r.frame_rejects
       << ", \"responders\": " << r.responders
       << ", \"sessions\": " << r.sessions << "}";
  }
  os << "], \"cells_total\": " << results.size()
     << ", \"detection_expected\": " << detection_expected
     << ", \"detection_caught\": " << detection_caught
     << ", \"detection_rate\": "
     << (detection_expected == 0
             ? 1.0
             : static_cast<double>(detection_caught) /
                   static_cast<double>(detection_expected))
     << ", \"benign_cells\": " << benign_cells << ", ";
  AppendJsonBool(&os, "benign_byte_identical", benign_byte_identical,
                 /*trailing_comma=*/false);
  os << "}";
  return os.str();
}

}  // namespace pds::net
