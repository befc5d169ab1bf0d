#ifndef PDS_NET_TOKEN_CLIENT_H_
#define PDS_NET_TOKEN_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ac/policy.h"
#include "common/clock.h"
#include "common/rng.h"
#include "global/common.h"
#include "net/codec.h"
#include "net/fault_injection.h"
#include "net/transport.h"
#include "pds/pds_node.h"

/// The token side of the wire. TokenSession is the token's whole protocol
/// logic: it turns each frame the SSI sends into at most one reply frame.
/// TokenClient runs a session over a real transport (its own thread, or
/// pumped by the simulator); DirectTokenLink (net/direct_link.h) runs one
/// inside Send() for the in-process global::*Protocol::Execute adapters.
///
/// All plaintext handling happens in TokenSession — "inside" the token;
/// only ciphertext and final (authorized) aggregates leave as replies.
namespace pds::net {

/// The token's side of one SSI session with the transport taken out: the
/// challenge/hello/ack handshake, the replay check, and the [TNP14] round
/// handlers. Nothing here blocks, sleeps, or owns a thread.
class TokenSession {
 public:
  /// `tuples` (the token's authorized tuples) and `packed` (the querier's
  /// public packing context; null refuses kPackedCollect rounds) are
  /// pointed at, not copied, and must outlive the session. The first
  /// `swallow_first` valid round requests get no reply (a token-level
  /// fault from FaultPlan).
  TokenSession(mcu::SecureToken* token,
               const std::vector<global::SourceTuple>* tuples,
               const crypto::PackedAggregate* packed,
               uint32_t swallow_first = 0)
      : token_(token),
        tuples_(tuples),
        packed_(packed),
        swallow_budget_(swallow_first) {}

  /// What one inbound frame produced.
  struct Outcome {
    std::optional<Bytes> reply;  // the frame to send back, if any
    bool answered = false;  // a round handler ran and replied
    bool done = false;      // Bye: the session ended cleanly
    /// Set when the fault plan swallowed this round request.
    std::optional<uint32_t> swallowed_round;
  };

  /// Advances the session by one inbound frame. An error is fatal to the
  /// session; a malformed frame or round is answered with an ErrorMsg
  /// instead, up to a bound.
  [[nodiscard]] Result<Outcome> OnFrame(ByteView frame);

  /// True once the handshake completed.
  [[nodiscard]] bool serving() const { return state_ == State::kServing; }

  /// A new connection: the next frame must be a fresh challenge. The
  /// highest answered round survives, so a replay from before the
  /// reconnect is still refused.
  void Reconnect() { state_ = State::kAwaitChallenge; }

 private:
  enum class State : uint8_t { kAwaitChallenge, kAwaitAck, kServing };

  [[nodiscard]] Result<Outcome> OnHandshakeFrame(const Message& m);
  [[nodiscard]] Result<Outcome> OnServingFrame(const Message& m);
  /// Single egress point for decrypted per-group aggregates.
  [[nodiscard]] Bytes SealAggResult(AggResultMsg reply,
                                    bool checksummed) const;
  /// The round handlers. Each encodes its reply with `checksummed`, the
  /// checksum bit of the request it answers.
  [[nodiscard]] Result<Bytes> HandleCollect(const RoundRequestMsg& req,
                                            bool checksummed);
  [[nodiscard]] Result<Bytes> HandleAggregate(const RoundRequestMsg& req,
                                              bool checksummed);
  [[nodiscard]] Result<Bytes> HandleFinalize(const RoundRequestMsg& req,
                                             bool checksummed);
  [[nodiscard]] Result<Bytes> HandlePackedCollect(const RoundRequestMsg& req,
                                                  bool checksummed);
  [[nodiscard]] Result<Bytes> HandleDetCollect(const RoundRequestMsg& req,
                                               bool checksummed);
  [[nodiscard]] Result<Bytes> HandleClassAggregate(const RoundRequestMsg& req,
                                                   bool checksummed);
  [[nodiscard]] Result<Bytes> HandleSealedCollect(const RoundRequestMsg& req,
                                                  bool checksummed);

  mcu::SecureToken* token_;
  const std::vector<global::SourceTuple>* tuples_;
  const crypto::PackedAggregate* packed_;
  uint32_t swallow_budget_;
  /// Highest round id answered so far: a request below it is a replay of an
  /// already-answered round and gets refused (an equal id is the SSI's
  /// legitimate retry of an unanswered request).
  uint32_t highest_round_ = 0;
  uint32_t malformed_seen_ = 0;
  State state_ = State::kAwaitChallenge;
};

/// Runs a TokenSession over a transport: connects to the SSI, proves fleet
/// membership, and answers protocol rounds until told to stop. Adds what a
/// real token runtime needs around the session: the policy-checked tuple
/// export of a PdsNode, token-level fault injection, and churn/reconnect.
class TokenClient {
 public:
  struct Config {
    /// Either a bare token with pre-exported tuples...
    mcu::SecureToken* token = nullptr;
    std::vector<global::SourceTuple> tuples;
    /// ...or a full PdsNode whose tuples are policy-exported on Connect().
    node::PdsNode* pds_node = nullptr;
    ac::Subject subject;
    std::string table;
    std::string group_column;
    std::string value_column;
    /// Handshake receive deadline.
    uint32_t deadline_ms = 2000;
    /// Poll granularity of the serve loop (Stop() latency bound).
    uint32_t poll_ms = 50;
    /// Seed-driven token-level fault plan. `swallow_first` and
    /// `disconnect_after_replies` are consumed here; the link-level rates
    /// belong on a FaultInjectingTransport wrapping the transport instead.
    /// Every realized fault lands in injection_log() — print it on test
    /// failure and the scenario reproduces from the seed alone.
    FaultPlan faults;
    /// Reconnect factory for churn: returns a fresh transport whose peer
    /// end the harness has handed to SsiServer::ReadmitSession. Null means
    /// a churned client simply stays gone (the SSI degrades to quorum).
    std::function<Result<std::unique_ptr<Transport>>()> reconnect;
    /// Reconnect attempt k sleeps backoff*k plus a seeded jitter in
    /// [0, backoff] before dialing — a thundering herd of churned tokens
    /// must not re-arrive in lockstep.
    uint32_t reconnect_backoff_ms = 5;
    /// Bound on reconnect attempts across the client's lifetime.
    uint32_t max_reconnects = 2;
    /// Packed-Paillier context (the querier's public packing parameters,
    /// distributed out of band before the round). Required to answer
    /// kPackedCollect rounds; null tokens refuse them with an ErrorMsg.
    const crypto::PackedAggregate* packed = nullptr;
    /// Clock behind the reconnect backoff sleep. Null means the process
    /// wall clock; the simulation tier injects a sim::SimClock here.
    Clock* clock = nullptr;
  };

  TokenClient(std::unique_ptr<Transport> transport, Config config);
  ~TokenClient();

  TokenClient(const TokenClient&) = delete;
  TokenClient& operator=(const TokenClient&) = delete;

  /// Runs the challenge/hello/ack handshake (and, with a PdsNode, the
  /// policy-checked export of the authorized tuples).
  [[nodiscard]] Status Connect();

  /// Answers rounds until Bye, transport close, or Stop(). Returns Ok on a
  /// clean shutdown. A transport that closes mid-session triggers the
  /// reconnect/backoff loop when the fault plan churned us and a reconnect
  /// factory is configured; otherwise close is a clean goodbye.
  [[nodiscard]] Status ServeLoop();

  /// Connect() + ServeLoop() on a background thread.
  void Start();
  void Stop();
  /// Joins the background thread and returns its final status.
  [[nodiscard]] Status Join();

  /// Single-frame ("pumped") mode for the discrete-event simulator: no
  /// thread, no blocking Recv — the event loop delivers frames one at a
  /// time. StartPumped() runs Connect()'s tuple export and arms the
  /// handshake state machine (the challenge has not necessarily arrived
  /// yet); each PumpOnce() polls the transport once (Recv with a zero
  /// deadline) and advances exactly one frame through the same
  /// handshake/serve logic the blocking path uses. Requires a null
  /// reconnect factory — a churned pumped client stays gone by design
  /// (re-dialing from inside the event loop would recurse into it).
  [[nodiscard]] Status StartPumped();

  /// One pump step. Returns true while the session is live (including
  /// "nothing pending right now"), false once it ended cleanly (Bye, or
  /// transport closed after rounds), or the fatal error that killed it.
  [[nodiscard]] Result<bool> PumpOnce();

  [[nodiscard]] const Transport& transport() const { return *transport_; }

  /// Token-level realized faults (swallows, churns) for scenario repro.
  [[nodiscard]] const InjectionLog& injection_log() const { return log_; }

 private:
  /// Where the pumped session stands; blocking mode never leaves kIdle.
  enum class PumpState { kIdle, kRunning, kDone };

  /// The tuple-export half of Connect(): policy-checked ExportAs from a
  /// PdsNode, or the pre-exported Config::tuples.
  [[nodiscard]] Status PrepareTuples();
  /// The handshake half of Connect(), reused on reconnect: a returning
  /// token must re-prove fleet membership against a FRESH challenge.
  [[nodiscard]] Status Handshake();
  /// Feeds one received frame (handshake or round) to the session, sends
  /// its reply, and applies the token-level fault plan. Sets *done when the
  /// session ended cleanly (Bye).
  [[nodiscard]] Status Deliver(const Bytes& frame, bool* done);
  /// Fault-plan churn: after enough replies, close the transport, back off
  /// with seeded jitter, and re-handshake over a fresh connection.
  [[nodiscard]] Status MaybeChurn();

  std::unique_ptr<Transport> transport_;
  Config config_;
  Clock* clock_;  // never null: Config::clock or the wall clock
  PumpState pump_state_ = PumpState::kIdle;
  std::vector<global::SourceTuple> tuples_;
  TokenSession session_;  // points at tuples_
  InjectionLog log_;
  Rng rng_;  // jitter + fault draws, seeded from the fault plan
  uint64_t frame_index_ = 0;          // frames received this session
  uint64_t replies_since_connect_ = 0;
  uint32_t reconnects_done_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  Status loop_status_;
};

}  // namespace pds::net

#endif  // PDS_NET_TOKEN_CLIENT_H_
