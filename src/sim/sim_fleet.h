#ifndef PDS_SIM_SIM_FLEET_H_
#define PDS_SIM_SIM_FLEET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "global/common.h"
#include "mcu/secure_token.h"
#include "net/ssi_server.h"
#include "net/token_client.h"
#include "sim/link_model.h"
#include "sim/sim_clock.h"
#include "sim/sim_transport.h"

/// SimFleet — a whole [TNP14] token fleet in one process, on virtual time.
///
/// The harness instantiates the REAL protocol endpoints — net::SsiServer
/// and one net::TokenClient + mcu::SecureToken per simulated token — and
/// wires them over SimTransport pairs. No protocol logic is reimplemented:
/// the server runs unmodified and drives the event queue from inside its
/// blocking Recv/backoff calls, while every token runs in pumped mode
/// (TokenClient::PumpOnce from the link's delivery callback). Memory is the
/// only thing engineered for scale: lean server sessions, event logging
/// off, one tuple per token by default — about 2 KiB per simulated token
/// all-in, so a million-token fleet fits in a few GiB.
namespace pds::sim {

struct SimFleetConfig {
  size_t num_tokens = 1000;
  size_t tuples_per_token = 1;
  /// Tuples draw their group from "city-0".."city-<num_groups-1>".
  size_t num_groups = 5;
  /// Master seed: workload generation, link realizations, and token RNGs
  /// all derive from it, so one integer reproduces the entire fleet run.
  uint64_t seed = 55;
  LinkModel link;
  double quorum = 1.0;
  size_t partition_capacity = 4096;
  uint32_t deadline_ms = 2000;
  uint32_t max_retries = 2;
  uint32_t backoff_ms = 5;
  /// Drop per-session server telemetry (a must at 10^6 sessions).
  bool lean_sessions = true;
  /// Every Nth token (0 disables) swallows all round requests forever —
  /// the deterministic straggler population for quorum-sensitivity runs.
  size_t dropout_every = 0;
  /// Keep the per-frame SimEventLog (off by default: a million-token round
  /// logs tens of millions of events).
  bool log_events = false;
};

class SimFleet {
 public:
  explicit SimFleet(const SimFleetConfig& config);
  ~SimFleet();

  SimFleet(const SimFleet&) = delete;
  SimFleet& operator=(const SimFleet&) = delete;

  /// Creates tokens, pumped clients, and transports, and runs the real
  /// attestation handshake for every session.
  [[nodiscard]] Status Build();

  /// One secure-aggregation protocol run over the live fleet, driven
  /// entirely on virtual time.
  [[nodiscard]] Result<global::AggOutput> RunSecureAggregation(
      global::AggFunc func);

  /// Churns every Nth token between runs: closes its link (the client
  /// object dies with it), then re-admits a fresh client for the SAME
  /// token through SsiServer::ReadmitSession's fresh-challenge handshake.
  /// The next run must complete at full strength — that is the
  /// churn-tolerance property the bench records.
  [[nodiscard]] Status ChurnAndReadmit(size_t churn_every);

  [[nodiscard]] SimClock& clock() { return *clock_; }
  [[nodiscard]] SimNet& net() { return *net_; }
  [[nodiscard]] net::SsiServer& server() { return *server_; }
  [[nodiscard]] const SimFleetConfig& config() const { return config_; }
  [[nodiscard]] uint64_t total_tuples() const { return total_tuples_; }
  /// Tokens configured to swallow rounds (the dropout population).
  [[nodiscard]] size_t dropped_tokens() const { return dropped_tokens_; }
  /// Sessions re-admitted by the last ChurnAndReadmit call.
  [[nodiscard]] size_t churned_tokens() const { return churned_tokens_; }
  /// Fatal pump errors observed across all clients (0 on a clean run).
  [[nodiscard]] size_t pump_errors() const { return pump_errors_; }

  /// Aggregate-memory accounting for the fleet.
  struct MemoryStats {
    /// Sum of the resident structures the fleet allocates per token
    /// (token + client + link + tuples), from sizeof arithmetic.
    uint64_t bytes_estimate = 0;
    /// Peak RSS of the whole process (VmHWM, Linux only; 0 elsewhere).
    uint64_t vm_hwm_kb = 0;
    uint64_t bytes_per_token = 0;  // bytes_estimate / num_tokens
  };
  [[nodiscard]] MemoryStats Memory() const;

 private:
  void PumpToken(size_t i);
  /// Builds client i over a fresh link and hands the server end to
  /// `admit` (AcceptSession or ReadmitSession).
  [[nodiscard]] Status ConnectToken(size_t i, bool readmit);

  SimFleetConfig config_;
  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<SimNet> net_;
  std::unique_ptr<mcu::SecureToken> verifier_;
  std::unique_ptr<net::SsiServer> server_;
  std::vector<std::unique_ptr<mcu::SecureToken>> tokens_;
  std::vector<std::vector<global::SourceTuple>> tuples_;
  std::vector<std::unique_ptr<net::TokenClient>> clients_;
  /// Raw client-side endpoints (owned by the TokenClient) for churn close.
  std::vector<SimTransport*> client_ends_;
  uint64_t total_tuples_ = 0;
  size_t dropped_tokens_ = 0;
  size_t churned_tokens_ = 0;
  size_t pump_errors_ = 0;
};

}  // namespace pds::sim

#endif  // PDS_SIM_SIM_FLEET_H_
