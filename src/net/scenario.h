#ifndef PDS_NET_SCENARIO_H_
#define PDS_NET_SCENARIO_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "crypto/paillier.h"
#include "global/common.h"
#include "mcu/secure_token.h"
#include "net/adversary.h"
#include "net/fault_injection.h"

/// Adversarial-wire scenario harness: one cell = one protocol run over real
/// transports under one fault or adversary configuration, compared with the
/// plaintext aggregate (global::PlainAggregate) of the tokens that
/// answered, and a verdict.
///
/// The harness owns the plumbing (transport pairs, fault wrappers, client
/// threads, reconnect rendezvous) but never constructs tokens or keys —
/// callers supply global::Participant pointers, so all secret material
/// stays in the layers built for it.
namespace pds::net {

/// Which wire protocol a cell runs ([TNP14] family + the packed round).
enum class WireProtocol : uint8_t {
  kSecureAgg = 0,
  kWhiteNoise = 1,
  kDomainNoise = 2,
  kHistogram = 3,
  kPacked = 4,
};

const char* WireProtocolName(WireProtocol protocol);

/// One scenario-matrix cell. DefaultMatrix() emits skeletons (name,
/// protocol, faults, adversary, quorum); the caller fills participants,
/// verifier, domain and the packed context before running.
struct ScenarioSpec {
  std::string name;
  WireProtocol protocol = WireProtocol::kSecureAgg;
  global::AggFunc func = global::AggFunc::kSum;
  /// Link-level rates apply to the SERVER side of session 0 via a
  /// FaultInjectingTransport; the token-level fields (swallow_first,
  /// disconnect_after_replies) go to participant 0's TokenClient.
  FaultPlan faults;
  /// SSI misbehaviour for this cell (kNone = honest server).
  AdversaryPlan adversary;
  bool use_socket = false;
  /// Run a sealed collection round + querier-side audit instead of an
  /// aggregation protocol (the cells for sealed-batch tampering actions).
  bool sealed_round = false;
  double quorum = 1.0;
  /// Per-round-trip deadline; 0 means ScaledMs(100).
  uint32_t deadline_ms = 0;
  uint32_t max_retries = 2;

  // Protocol parameters.
  std::vector<std::string> domain;  // domain noise + packed slot order
  double noise_ratio = 0.5;         // white noise
  uint64_t noise_seed = 7;
  uint32_t fakes_per_value = 1;     // domain noise
  uint32_t num_buckets = 8;         // histogram
  /// Querier-side packed context for kPacked (wire run + token configs).
  const crypto::PackedAggregate* packed = nullptr;

  /// The fleet: token pointers plus authorized tuples, session order.
  std::vector<global::Participant> participants;
  /// Membership verifier for the handshake; doubles as the querier token
  /// for sealed-batch audits.
  mcu::SecureToken* verifier = nullptr;
};

/// Outcome of one cell, ready for assertions and the verdict artifact.
struct ScenarioResult {
  std::string name;
  std::string protocol;
  std::string fault;  // fault kind, adversary action, "churn", or "none"
  /// No faults, no adversary: the cell must be byte-identical.
  bool benign = false;
  /// The wire run completed (possibly degraded to quorum).
  bool ran_ok = false;
  std::string error;  // failure detail when !ran_ok
  /// Wire groups bit-equal to the plaintext aggregate over the tokens
  /// that actually responded (integer-valued data keeps this exact).
  bool byte_identical = false;
  /// This cell configures something the defences MUST catch (tampering,
  /// damaged frames, churn): `detected` is asserted for exactly these.
  bool expects_detection = false;
  /// The defence caught the configured adversary action (only meaningful
  /// for adversary cells; link-fault cells report detected when the wire
  /// layer logged rejects or dropped the faulty session).
  bool detected = false;
  std::string detection;  // human-readable evidence
  /// Seed-reproducible realized faults (link wrapper + token-level).
  std::string injection_log;
  uint64_t injections = 0;
  size_t sessions = 0;
  size_t responders = 0;
  uint64_t frame_rejects = 0;
  uint64_t retries = 0;
  uint64_t deadline_hits = 0;
  std::map<std::string, double> groups;  // the wire run's (claimed) result
  global::LeakageReport leakage;         // what the SSI observed
};

/// Runs one cell end to end: wire run (with faults/adversary), comparison
/// with the plaintext aggregate of the responding subset, verdicts. A returned error means the
/// harness could not run the cell — a failed detection is reported inside
/// the ScenarioResult, not as a Status.
[[nodiscard]] Result<ScenarioResult> RunScenarioCell(const ScenarioSpec& spec);

/// The default scenario matrix: every protocol crossed with benign + six
/// link-fault kinds, plus the adversary cells (sealed tampering, forged
/// aggregate, stale replay, oversized/malformed frames) and a churn cell.
/// Participants/verifier/domain/packed are left empty for the caller.
[[nodiscard]] std::vector<ScenarioSpec> DefaultMatrix(uint64_t seed,
                                                      bool use_socket);

/// The `fault_scenarios` record consumed by bench/validate_bench.py:
/// per-cell verdicts plus the aggregate detection_rate (over cells that
/// expect detection) and benign_byte_identical flag.
[[nodiscard]] std::string MatrixJson(
    const std::vector<ScenarioResult>& results);

}  // namespace pds::net

#endif  // PDS_NET_SCENARIO_H_
