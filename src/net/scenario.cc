#include "net/scenario.h"

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/clock.h"
#include "global/integrity.h"
#include "net/ssi_server.h"
#include "net/token_client.h"
#include "net/transport.h"

namespace pds::net {

namespace {

using global::AggFunc;
using global::AggOutput;
using global::Participant;

/// Rendezvous between a churned TokenClient's reconnect callback (running
/// on the client thread) and the harness main thread, which creates the
/// fresh transport pair and drives SsiServer::ReadmitSession.
struct ReconnectRendezvous {
  std::mutex mu;
  std::condition_variable cv;
  std::unique_ptr<Transport> client_side;
};

/// The fault label of a cell for reports: single-kind cells by design.
std::string FaultLabel(const ScenarioSpec& spec) {
  if (spec.adversary.action != AdversaryAction::kNone) {
    return AdversaryActionName(spec.adversary.action);
  }
  if (spec.faults.disconnect_after_replies > 0) return "churn";
  if (spec.faults.swallow_first > 0) return "swallow-request";
  if (spec.faults.drop_rate > 0) return "drop";
  if (spec.faults.delay_rate > 0) return "delay";
  if (spec.faults.duplicate_rate > 0) return "duplicate";
  if (spec.faults.reorder_rate > 0) return "reorder";
  if (spec.faults.truncate_rate > 0) return "truncate";
  if (spec.faults.bitflip_rate > 0) return "bitflip";
  return "none";
}

bool IsSealedTampering(AdversaryAction a) {
  return a == AdversaryAction::kSubstituteCiphertext ||
         a == AdversaryAction::kReplayCiphertext ||
         a == AdversaryAction::kOmitCiphertext ||
         a == AdversaryAction::kForgeManifest;
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
  auto pair = InProcessTransport::CreatePair(/*max_queued=*/1024);
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
      SsiServer::DetRunConfig det;
      det.variant = spec.protocol == WireProtocol::kWhiteNoise
                        ? DetVariant::kWhiteNoise
                        : (spec.protocol == WireProtocol::kDomainNoise
                               ? DetVariant::kDomainNoise
                               : DetVariant::kHistogram);
      det.noise_ratio = spec.noise_ratio;
      det.noise_seed = spec.noise_seed;
      det.fakes_per_value = spec.fakes_per_value;
      det.domain = spec.domain;
      det.num_buckets = spec.num_buckets;
      return server->RunDetAggregation(spec.func, det);
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
  res.benign = !spec.faults.has_link_faults() &&
               spec.faults.swallow_first == 0 &&
               spec.faults.disconnect_after_replies == 0 &&
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
  auto rendezvous = std::make_shared<ReconnectRendezvous>();

  SsiServer::Config scfg;
  scfg.deadline_ms = deadline;
  scfg.max_retries = spec.max_retries;
  scfg.backoff_ms = 1;
  scfg.quorum = spec.quorum;
  scfg.verifier = spec.verifier;
  scfg.checksum_frames = damaging_link;
  scfg.adversary = spec.adversary;
  SsiServer server(scfg);

  std::vector<std::unique_ptr<TokenClient>> clients;
  clients.reserve(spec.participants.size());
  auto shutdown = [&] {
    server.Shutdown();
    for (auto& c : clients) c->Stop();
    for (auto& c : clients) (void)c->Join();
  };

  for (size_t i = 0; i < spec.participants.size(); ++i) {
    auto pair = MakePair(spec.use_socket);
    if (!pair.ok()) {
      shutdown();
      return pair.status();
    }
    std::unique_ptr<Transport> server_side = std::move(pair.value().first);
    std::unique_ptr<Transport> client_side = std::move(pair.value().second);
    if (i == 0 && spec.faults.has_link_faults()) {
      FaultPlan link = spec.faults;
      link.skip_first = 2;  // let the attestation handshake through
      server_side = std::make_unique<FaultInjectingTransport>(
          std::move(server_side), link, &link_log);
    }
    TokenClient::Config ccfg;
    ccfg.token = spec.participants[i].token;
    ccfg.tuples = spec.participants[i].tuples;
    ccfg.deadline_ms = ScaledMs(2000);
    ccfg.poll_ms = 5;
    ccfg.packed = spec.packed;
    if (i == 0) {
      // Token-level faults target participant 0 only, mirroring the link
      // wrapper on its session.
      ccfg.faults.seed = spec.faults.seed;
      ccfg.faults.swallow_first = spec.faults.swallow_first;
      ccfg.faults.disconnect_after_replies =
          spec.faults.disconnect_after_replies;
      ccfg.max_reconnects = 1;
      ccfg.reconnect_backoff_ms = 1;
      if (churn_cell) {
        ccfg.reconnect =
            [rendezvous]() -> Result<std::unique_ptr<Transport>> {
          std::unique_lock<std::mutex> lock(rendezvous->mu);
          if (!rendezvous->cv.wait_for(
                  lock, std::chrono::milliseconds(ScaledMs(5000)),
                  [&] { return rendezvous->client_side != nullptr; })) {
            return Status::DeadlineExceeded("SSI never offered a readmit");
          }
          return std::move(rendezvous->client_side);
        };
      }
    }
    clients.push_back(
        std::make_unique<TokenClient>(std::move(client_side),
                                      std::move(ccfg)));
    clients.back()->Start();
    auto idx = server.AcceptSession(std::move(server_side));
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
      res.leakage = sealed.value().leakage;
      auto audit = global::AuditSealedBatch(spec.verifier,
                                            sealed.value().tuples,
                                            sealed.value().manifests,
                                            spec.func);
      if (!audit.ok()) {
        res.error = audit.status().ToString();
        res.ran_ok = false;
      } else {
        res.detected = !audit.value().verdict.ok;
        res.detection = audit.value().verdict.problem;
        if (!sealed.value().adversary_note.empty()) {
          res.detection += res.detection.empty() ? "" : " ";
          res.detection += "[ssi did: " + sealed.value().adversary_note + "]";
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
    Result<std::string> probe = Status::Internal("unset");
    switch (spec.adversary.action) {
      case AdversaryAction::kReplayStaleRound:
        probe = server.InjectStaleRound(0);
        break;
      case AdversaryAction::kOversizedFrame:
        probe = server.InjectOversizedFrame(0);
        break;
      default:
        probe = server.InjectMalformedFrame(0);
        break;
    }
    res.detected = probe.ok();
    res.detection = probe.ok() ? probe.value() : probe.status().ToString();
  }

  // --- Churn: hand the waiting token a fresh link, readmit, run again -----
  if (churn_cell && res.ran_ok) {
    auto pair = MakePair(spec.use_socket);
    if (!pair.ok()) {
      shutdown();
      return pair.status();
    }
    {
      std::lock_guard<std::mutex> lock(rendezvous->mu);
      rendezvous->client_side = std::move(pair.value().second);
    }
    rendezvous->cv.notify_all();
    auto idx = server.ReadmitSession(std::move(pair.value().first));
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
  if (!clients.empty()) {
    res.injection_log += clients[0]->injection_log().ToString();
    res.injections += clients[0]->injection_log().size();
  }
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

  // Sealed-batch tampering: one cell per TamperingSsi-style action, plus a
  // benign sealed round proving the audit passes honest pools.
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
