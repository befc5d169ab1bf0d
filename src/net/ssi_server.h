#ifndef PDS_NET_SSI_SERVER_H_
#define PDS_NET_SSI_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "global/common.h"
#include "global/fleet_executor.h"
#include "global/integrity.h"
#include "mcu/secure_token.h"
#include "net/adversary.h"
#include "net/codec.h"
#include "net/transport.h"
#include "obs/obs.h"

/// The SSI side of the wire and the one implementation of the [TNP14]
/// aggregation protocols: it hosts one protocol session per connected token
/// and runs each protocol's rounds over framed messages. Every caller goes
/// through here — the wire runtime over in-process or socket transports,
/// the simulator over SimTransport links, and the in-process
/// global::*Protocol::Execute adapters over DirectTokenLink — so Metrics
/// wire counters always measure the frames actually sent and received
/// (headers included), and the HbcObserver leakage report is built from
/// the frames the SSI received. Rounds have deadlines, bounded retry with
/// backoff, and a configurable quorum.
namespace pds::net {

class SsiServer {
 public:
  struct Config {
    /// Max ciphertext tuples per aggregation partition (token RAM bound).
    size_t partition_capacity = 256;
    /// Per-request deadline for one token round trip.
    uint32_t deadline_ms = 2000;
    /// Additional attempts after the first request times out.
    uint32_t max_retries = 2;
    /// Backoff before retry k is backoff_ms * k.
    uint32_t backoff_ms = 5;
    /// Fraction of live tokens that must answer the collect round for the
    /// protocol to proceed (1.0 = everyone; 0.9 tolerates stragglers).
    double quorum = 1.0;
    /// Optional fan-out of per-session wire work; null means serial.
    global::FleetExecutor* executor = nullptr;
    /// Fleet-provisioned token the SSI hands challenge/proof pairs to for
    /// membership verification (the SSI itself never holds the fleet key).
    mcu::SecureToken* verifier = nullptr;
    /// Seed for handshake challenge nonces (deterministic tests).
    uint64_t nonce_seed = 42;
    /// Close every session frame with an FNV-1a64 checksum trailer (flag
    /// bit 1, alongside any trace context). Tokens answer each frame with
    /// its own checksum bit, and a reply without a verified trailer counts
    /// as a frame reject. Detects *accidental* corruption early —
    /// adversarial detection stays with the integrity layer.
    bool checksum_frames = false;
    /// Weakly-malicious misbehaviour this server performs during runs (the
    /// scenario harness turns this on to prove querier-side detection).
    AdversaryPlan adversary;
    /// Clock behind every deadline, retry backoff, and round-trip latency
    /// measurement. Null means the process wall clock; the simulation tier
    /// injects a sim::SimClock here so timeouts run in virtual time.
    Clock* clock = nullptr;
    /// Skip per-session telemetry (the ~2 KiB SessionStats histogram per
    /// session). Million-session simulated fleets turn this on; Telemetry()
    /// then reports zeroed counters. The fleet-wide rtt histogram and the
    /// RoundReport stay exact either way.
    bool lean_sessions = false;
  };

  /// What happened on the wire during the last protocol run.
  struct RoundReport {
    size_t sessions = 0;          // live sessions when the run started
    size_t responders = 0;        // sessions that answered the collect round
    uint64_t deadline_hits = 0;   // individual request timeouts
    uint64_t retries = 0;         // re-sent requests
    uint64_t missing_tokens = 0;  // sessions dropped for the whole run
    uint64_t frame_rejects = 0;   // undecodable frames discarded in-place
  };

  explicit SsiServer(const Config& config);

  /// Runs the challenge/hello/ack handshake over `transport` and, on
  /// success, registers the session. Returns the session index.
  [[nodiscard]] Result<size_t> AcceptSession(
      std::unique_ptr<Transport> transport);

  /// Re-admits a returning (churned) token: runs the full handshake with a
  /// FRESH challenge — a stale proof replayed from the original handshake
  /// must fail attestation — and, if the token id matches an existing
  /// session, swaps in the new transport while keeping that session's round
  /// counter and telemetry, so the token re-enters the same round sequence.
  /// Refused while a protocol run is in flight (the round a churned token
  /// abandoned cannot be rejoined; quorum handles that degradation).
  [[nodiscard]] Result<size_t> ReadmitSession(
      std::unique_ptr<Transport> transport);

  [[nodiscard]] size_t num_sessions() const { return sessions_.size(); }

  /// Executes the secure-aggregation protocol over all live sessions.
  /// Collect-round stragglers are tolerated down to the configured quorum;
  /// a token that vanishes mid-aggregation fails the run (its partition's
  /// data cannot be recovered).
  [[nodiscard]] Result<global::AggOutput> RunSecureAggregation(
      global::AggFunc func);

  /// Executes the slot-packed Paillier round over all live sessions: ONE
  /// kPackedCollect request per token (carrying the public domain), one
  /// ciphertext back per token, a blind homomorphic fold on the SSI, and a
  /// single decrypt-unpack by the querier's `agg`. Stragglers are tolerated
  /// down to the quorum — slot-packed ciphertexts are independent, so a
  /// missing token merely shrinks the aggregate.
  [[nodiscard]] Result<global::AggOutput> RunPackedAggregation(
      global::AggFunc func, const crypto::PackedAggregate& agg,
      const std::vector<std::string>& domain);

  /// Parameters of one deterministic-encryption protocol run (the [TNP14]
  /// white-noise / domain-noise / histogram family) over the wire.
  struct DetRunConfig {
    DetVariant variant = DetVariant::kWhiteNoise;
    double noise_ratio = 0.2;      // white noise: fakes per real tuple
    uint64_t noise_seed = 7;       // white noise: fake-label stream seed
    uint32_t fakes_per_value = 1;  // domain noise: fakes per domain value
    std::vector<std::string> domain;  // domain noise: the public domain
    uint32_t num_buckets = 16;     // histogram: bucket count

    /// The public parameter blob of this run's kDetCollect request.
    [[nodiscard]] DetParams params() const {
      return {variant, noise_ratio, noise_seed, fakes_per_value, num_buckets};
    }
  };

  /// Executes one det-encryption protocol over all live sessions: a
  /// kDetCollect fan-out (stragglers tolerated down to quorum), SSI-side
  /// grouping by deterministic ciphertext (or plaintext bucket id), then
  /// per-class kClassAggregate / per-bucket kFinalize rounds distributed
  /// round-robin over the responding tokens, with failover to the next
  /// live token when a class's assignee vanishes mid-round.
  [[nodiscard]] Result<global::AggOutput> RunDetAggregation(
      global::AggFunc func, const DetRunConfig& det);

  /// One sealed collection round: every live token MAC-seals its
  /// ciphertexts and signs a contribution manifest. The returned pool is
  /// what the *SSI* claims arrived — when Config::adversary configures a
  /// sealed tampering action it has already been applied, and
  /// `adversary_note` says what the SSI did (empty for an honest run).
  /// Feed the pool to global::AuditSealedBatch inside the querier token;
  /// detection of every tampering action is the test's assertion.
  struct SealedCollect {
    std::vector<global::SealedTuple> tuples;
    std::vector<global::Manifest> manifests;
    global::Metrics metrics;
    global::LeakageReport leakage;
    std::string adversary_note;
  };
  [[nodiscard]] Result<SealedCollect> RunSealedCollect();

  /// Adversarial probes (AdversaryPlan actions that attack the session
  /// protocol itself rather than a sealed batch). Each sends one hostile
  /// frame on session `idx` and reports the observed token-side defence —
  /// an error reply, or the clean death of the session. A Status return
  /// means the probe could not run, not that the token survived.
  [[nodiscard]] Result<std::string> InjectStaleRound(size_t idx);
  [[nodiscard]] Result<std::string> InjectOversizedFrame(size_t idx);
  [[nodiscard]] Result<std::string> InjectMalformedFrame(size_t idx);

  [[nodiscard]] const RoundReport& last_report() const { return report_; }

  /// Point-in-time per-session telemetry: round-trip tail latencies from
  /// the session's log-bucketed histogram plus retry/deadline/straggler
  /// accounting and the request-buffer gauge (admission-control groundwork
  /// for the event-loop SSI).
  struct SessionTelemetry {
    uint64_t token_id = 0;
    bool alive = false;
    uint64_t round_trips = 0;
    uint64_t retries = 0;
    uint64_t deadline_hits = 0;
    uint64_t stragglers = 0;  // runs this session was dropped from
    double rtt_p50_us = 0;
    double rtt_p90_us = 0;
    double rtt_p99_us = 0;
    double rtt_p999_us = 0;
    double buffer_bytes = 0;       // request bytes currently in flight
    double buffer_high_water = 0;  // max ever in flight on this session
  };
  [[nodiscard]] std::vector<SessionTelemetry> Telemetry() const;

  /// Fleet-wide round-trip latency distribution (microseconds), across all
  /// sessions and every attempt that got an answer.
  [[nodiscard]] const obs::Histogram& rtt_histogram() const { return rtt_us_; }

  /// The live stats document served by the kStats admin frame: per-session
  /// telemetry, fleet round-trip percentiles, the full metrics registry,
  /// and the recent delta-snapshot ring (one capture per protocol run).
  [[nodiscard]] std::string StatsJson() const;

  /// Answers one kStatsRequest arriving on `transport` with a kStatsReply.
  /// The stats channel is read-only and carries no token data, so it does
  /// not require the attestation handshake.
  [[nodiscard]] Status ServeStats(Transport* transport);

  /// Sends Bye on every live session and closes the transports.
  void Shutdown();

 private:
  /// Per-session accounting, bumped on the round-trip hot path with plain
  /// atomic ops (no registry lookups).
  struct SessionStats {
    obs::Histogram rtt_us;  // one sample per answered attempt, µs
    obs::Counter round_trips;
    obs::Counter retries;
    obs::Counter deadline_hits;
    obs::Counter stragglers;
    obs::Gauge buffer_bytes;  // bytes of the in-flight request frame
  };
  struct Session {
    std::unique_ptr<Transport> transport;
    uint64_t token_id = 0;
    bool alive = false;
    uint32_t next_round_id = 1;
    /// Null under Config::lean_sessions (million-session fleets).
    std::unique_ptr<SessionStats> stats;
  };
  struct WireCost;  // per-work-unit wire accounting (defined in the .cc)

  /// Sends `request` on the session, encoded once with this round trip's
  /// trace context and Config::checksum_frames, and waits for the reply
  /// carrying its round id, retrying per config on timeouts. Stale replies
  /// (a lower round id, e.g. a late answer to an earlier retry) and
  /// undecodable frames are discarded in place — a lossy or bit-flipping
  /// link must not kill the session while the stream itself stays framed.
  /// `cost` accumulates the measured frame bytes both ways.
  [[nodiscard]] Result<Message> RoundTrip(Session* s, RoundRequestMsg request,
                                          WireCost* cost);

  /// Shared handshake body of AcceptSession/ReadmitSession.
  [[nodiscard]] Result<size_t> Handshake(std::unique_ptr<Transport> transport,
                                         bool readmit);

  /// True when `s` should be dropped from the run as a straggler for this
  /// failure (timeout, dead transport, or a desynchronized byte stream).
  [[nodiscard]] static bool IsStragglerFailure(const Status& s);
  static void DropStraggler(Session* s);

  /// The replies of a run's opening collect round.
  struct Collected {
    std::vector<size_t> sessions;        // responders, in session order
    std::vector<TupleBatchMsg> batches;  // their reply batches, same order
  };
  /// The collect round every protocol run opens with: resets the
  /// RoundReport, sends each live session `request` under its own round id
  /// (fanned out over the executor), drops sessions that fail as
  /// stragglers, merges the measured wire cost into `metrics`, counts the
  /// round, and fails unless the quorum answered.
  [[nodiscard]] Result<Collected> CollectRound(const RoundRequestMsg& request,
                                               global::Metrics* metrics);

  Config config_;
  Clock* clock_;  // never null: Config::clock or the wall clock
  std::vector<std::unique_ptr<Session>> sessions_;
  RoundReport report_;
  /// Monotonic handshake-challenge counter: a re-handshake must never see
  /// a repeated nonce, or a recorded proof could be replayed.
  uint64_t nonce_counter_ = 0;
  /// A protocol run is in flight (readmission is refused meanwhile).
  /// Atomic: set by the protocol thread, read by whichever thread drives
  /// ReadmitSession.
  std::atomic<bool> run_active_{false};
  obs::Histogram rtt_us_;  // fleet-wide round-trip latency, µs
  obs::SnapshotRing stats_ring_{8};
  /// Trace ids for outgoing trace-context blocks. Seeded from the public
  /// nonce seed — deliberately the *non-secret* RNG: trace ids travel in
  /// cleartext (EncodeMessage is a secret-flow sink).
  Rng trace_rng_;
  uint64_t run_trace_id_ = 0;
};

}  // namespace pds::net

#endif  // PDS_NET_SSI_SERVER_H_
