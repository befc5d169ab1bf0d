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
/// and one net::TokenSession + mcu::SecureToken per simulated token — and
/// joins them with SimNet::ConnectSession links. No protocol logic is
/// reimplemented: the server runs unmodified and drives the event queue
/// from inside its blocking Recv/backoff calls, while every token's session
/// answers each frame where it lands, as the in-process DirectTokenLink
/// does. Memory is the only thing engineered for scale: lean server
/// sessions, one tuple per token by default, and one copy of it, which the
/// token's session points at.
namespace pds::sim {

struct SimFleetConfig {
  size_t num_tokens = 1000;
  size_t tuples_per_token = 1;
  /// Tuples draw their group from "city-0".."city-<num_groups-1>".
  size_t num_groups = 5;
  /// Master seed: workload generation and every link realization (jitter,
  /// loss) derive from it, and token RNGs from the token ids, so one
  /// integer reproduces the entire fleet run.
  uint64_t seed = 55;
  LinkModel link;
  /// Per-frame loss on every token's link once its handshake is done: a
  /// FaultInjectingTransport drop on the SSI's end, in both directions.
  double loss_rate = 0.0;
  double quorum = 1.0;
  uint32_t deadline_ms = 2000;
  uint32_t max_retries = 2;
  /// Every Nth token (0 disables) sits behind a link whose SSI end drops
  /// every frame after the handshake, so it never answers a round — the
  /// deterministic straggler population for quorum-sensitivity runs. A
  /// dropout stays one across churn.
  size_t dropout_every = 0;
};

class SimFleet {
 public:
  explicit SimFleet(const SimFleetConfig& config);
  ~SimFleet();

  SimFleet(const SimFleet&) = delete;
  SimFleet& operator=(const SimFleet&) = delete;

  /// Creates tokens, their sessions and links, and runs the real
  /// attestation handshake for every session.
  [[nodiscard]] Status Build();

  /// One secure-aggregation protocol run over the live fleet, driven
  /// entirely on virtual time.
  [[nodiscard]] Result<global::AggOutput> RunSecureAggregation(
      global::AggFunc func);

  /// Churns every Nth token between runs: closes its link (the session
  /// dies with it), then re-admits a fresh session for the SAME token
  /// through SsiServer::ReadmitSession's fresh-challenge handshake.
  /// The next run must complete at full strength — that is the
  /// churn-tolerance property the bench records.
  [[nodiscard]] Status ChurnAndReadmit(size_t churn_every);

  [[nodiscard]] SimClock& clock() { return *clock_; }
  [[nodiscard]] SimNet& net() { return *net_; }
  [[nodiscard]] net::SsiServer& server() { return *server_; }
  [[nodiscard]] const SimFleetConfig& config() const { return config_; }
  [[nodiscard]] uint64_t total_tuples() const { return total_tuples_; }
  /// Tokens behind a dropping link (the dropout population).
  [[nodiscard]] size_t dropped_tokens() const { return dropped_tokens_; }
  /// Sessions re-admitted by the last ChurnAndReadmit call.
  [[nodiscard]] size_t churned_tokens() const { return churned_tokens_; }
  /// Token sessions silenced by a fatal error (0 on a clean run).
  [[nodiscard]] size_t pump_errors() const {
    return net_->stats().session_errors;
  }

  /// Aggregate-memory accounting for the fleet.
  struct MemoryStats {
    /// Sum of the resident structures the fleet allocates per token
    /// (token + session + link + tuples), from sizeof arithmetic.
    uint64_t bytes_estimate = 0;
    /// Peak RSS of the whole process (VmHWM, Linux only; 0 elsewhere).
    uint64_t vm_hwm_kb = 0;
    uint64_t bytes_per_token = 0;  // bytes_estimate / num_tokens
  };
  [[nodiscard]] MemoryStats Memory() const;

 private:
  /// Starts token i's session on a fresh link and admits the link's SSI
  /// end (AcceptSession, or ReadmitSession on churn), behind the
  /// FaultInjectingTransport that realizes the link's loss, if it has any.
  [[nodiscard]] Status ConnectToken(size_t i, bool readmit);
  /// Token i sits behind a dropout link (SimFleetConfig::dropout_every).
  [[nodiscard]] bool IsDropout(size_t i) const {
    return config_.dropout_every > 0 && i % config_.dropout_every == 0;
  }

  SimFleetConfig config_;
  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<SimNet> net_;
  std::unique_ptr<mcu::SecureToken> verifier_;
  std::unique_ptr<net::SsiServer> server_;
  std::vector<std::unique_ptr<mcu::SecureToken>> tokens_;
  std::vector<std::vector<global::SourceTuple>> tuples_;
  /// One per token, never reallocated: links point at them.
  std::vector<net::TokenSession> sessions_;
  /// The SSI end of each token's link (owned by the server) for churn.
  std::vector<SimTransport*> links_;
  uint64_t total_tuples_ = 0;
  size_t dropped_tokens_ = 0;
  size_t churned_tokens_ = 0;
};

}  // namespace pds::sim

#endif  // PDS_SIM_SIM_FLEET_H_
