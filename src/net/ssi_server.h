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
/// backoff, and a configurable quorum. Per tuple the SSI pays one digest
/// into the observer and one move of the ciphertext; a request's batch is
/// encoded where it lies, never copied first.
///
/// The server runs the protocol and nothing else. The SSI is the untrusted
/// party, but its defences live in the tokens and the querier (sealed MACs
/// and manifests, the round-sequence check, bounded decoding), so the
/// weakly-malicious SSI that tests them is played by the scenario harness
/// (net/scenario.h) on what this server returns and on its links.
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
    /// protocol to proceed (1.0 = everyone; 0.9 tolerates stragglers). A
    /// run refuses NaN or a value outside [0, 1] with InvalidArgument
    /// before sending a frame.
    double quorum = 1.0;
    /// Optional fan-out of per-session wire work; null means serial.
    global::FleetExecutor* executor = nullptr;
    /// Fleet-provisioned token the SSI hands challenge/proof pairs to for
    /// membership verification (the SSI itself never holds the fleet key).
    mcu::SecureToken* verifier = nullptr;
    /// Close every session frame with an FNV-1a64 checksum trailer (flag
    /// bit 1, alongside any trace context). Tokens answer each frame with
    /// its own checksum bit, and a reply without a verified trailer counts
    /// as a frame reject. Detects *accidental* corruption early —
    /// adversarial detection stays with the integrity layer.
    bool checksum_frames = false;
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

  /// Bytes the server keeps per admitted session under
  /// Config::lean_sessions, its transport aside: the session list's slot
  /// and the record it points to.
  [[nodiscard]] static size_t LeanSessionBytes();

  /// Executes the secure-aggregation protocol over all live sessions.
  /// Collect-round stragglers are tolerated down to the configured quorum.
  /// The partition and finalize rounds run through RunUnits: the units of
  /// a token that vanishes after collect fail over to the first live
  /// responder, since the SSI still holds their ciphertexts and every fleet
  /// token can aggregate them.
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

  /// Executes one det-encryption protocol over all live sessions: a
  /// kDetCollect fan-out (stragglers tolerated down to quorum), SSI-side
  /// grouping by deterministic ciphertext (or plaintext bucket id), then
  /// per-class kClassAggregate / per-bucket kFinalize rounds run through
  /// RunUnits, with the same failover as secure-agg's partitions. `params`
  /// travel as the request's first batch entry; `domain` (domain noise
  /// only) follows them, one label per entry.
  [[nodiscard]] Result<global::AggOutput> RunDetAggregation(
      global::AggFunc func, const DetParams& params,
      const std::vector<std::string>& domain);

  /// One sealed collection round: every live token MAC-seals its
  /// ciphertexts and signs a contribution manifest. The returned pool is
  /// what arrived; the querier token checks it with
  /// global::AuditSealedBatch, which catches any ciphertext or manifest
  /// the SSI altered, replayed or withheld on the way.
  struct SealedCollect {
    std::vector<global::SealedTuple> tuples;
    std::vector<global::Manifest> manifests;
    global::Metrics metrics;
    global::LeakageReport leakage;
  };
  [[nodiscard]] Result<SealedCollect> RunSealedCollect();

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
  /// The session list holds the first `sessions_listed` of
  /// `sessions_total` sessions: as many as fit in kMaxStatsJsonBytes beside
  /// the rest of the document.
  [[nodiscard]] std::string StatsJson() const;

  /// Answers one kStatsRequest arriving on `transport` with a kStatsReply.
  /// The stats channel is read-only and carries no token data, so it does
  /// not require the attestation handshake.
  [[nodiscard]] Status ServeStats(Transport* transport);

  /// Sends Bye on every live session and closes the transports.
  void Shutdown();

 private:
  /// Per-session telemetry: RoundTrip's latency samples and in-flight gauge,
  /// plus the retries and deadline hits each round's fold adds.
  struct SessionStats {
    obs::Histogram rtt_us;  // one sample per answered attempt, µs
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
  struct WireCost;   // one session's wire facts in one round (in the .cc)
  class RoundSlots;  // one round's WireCost per session, and their fold
  class RunScope;    // one protocol run's frame and epilogue (in the .cc)

  /// Sends `*request`, a RoundRequestMsg, on the session under the
  /// session's next round id, and waits for the reply carrying that id,
  /// retrying per config on timeouts. The request is stamped (round id,
  /// this round trip's trace context, Config::checksum_frames) and encoded
  /// once where it lies, so its batch is never copied. Stale replies
  /// (a lower round id, e.g. a late answer to an earlier retry) and
  /// undecodable frames are discarded in place — a lossy or bit-flipping
  /// link must not kill the session while the stream itself stays framed.
  /// The reply must be the type the request's kind expects: an AggResultMsg
  /// for kFinalize and kClassAggregate, a TupleBatchMsg for every other
  /// kind. Each wire fact is counted once, into `cost`, the slot of `s` in
  /// the calling round; besides it, RoundTrip only sets the in-flight gauge
  /// and records each answered attempt's latency.
  [[nodiscard]] Result<Message> RoundTrip(Session* s, Message* request,
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
  /// stragglers, counts the round, and fails unless the quorum answered.
  /// The round's wire costs fold on every return, failures included.
  [[nodiscard]] Result<Collected> CollectRound(const RoundRequestMsg& request,
                                               global::Metrics* metrics);

  /// Every round that follows collect. Each unit is one RoundRequestMsg: a
  /// secure-agg partition (kAggregate) or finalize (kFinalize), or a det
  /// class (kClassAggregate) or bucket (kFinalize). Unit u goes to
  /// responder (offset + u) % n of the collect round's `responders`. It
  /// runs min(n, units) lanes on the executor: lane l serves responder
  /// (offset + l) % n and runs units l, l + n, ... in order, so token RNGs
  /// and op counters advance alike at any executor width, and a responder
  /// dealt no unit is not visited. Each unit is sent where it lies, never
  /// copied. A straggler failure drops the session; a serial pass then
  /// hands each unfinished unit, in order, to the first live responder.
  /// Any other failure, or a unit no live responder is left to take, fails
  /// the run. Wire costs are kept per lane, and per responder in the
  /// failover pass (a failed-over unit's frames belong to two sessions),
  /// and fold on every return, failures included. Returns one reply body
  /// per unit, of the type RoundTrip checked for its kind.
  [[nodiscard]] Result<std::vector<MessageBody>> RunUnits(
      std::vector<Message>* units, const std::vector<size_t>& responders,
      size_t offset, global::Metrics* metrics);

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
  /// handshake nonce seed — deliberately the *non-secret* RNG: trace ids
  /// travel in cleartext (EncodeMessage is a secret-flow sink).
  Rng trace_rng_;
  uint64_t run_trace_id_ = 0;
};

}  // namespace pds::net

#endif  // PDS_NET_SSI_SERVER_H_
