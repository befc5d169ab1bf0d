#ifndef PDS_NET_TOKEN_CLIENT_H_
#define PDS_NET_TOKEN_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "global/common.h"
#include "net/codec.h"
#include "net/transport.h"

/// The token side of the wire. TokenSession is the token's whole protocol
/// logic: it turns each frame the SSI sends into at most one reply frame.
/// Three hosts run it unchanged: TokenClient over a real transport on its
/// own thread; DirectTokenLink (net/direct_link.h) inside Send() for the
/// in-process global::*Protocol::Execute adapters; and the simulator's
/// sim::SimNet::ConnectSession where each frame lands on a modeled link.
///
/// All plaintext handling happens in TokenSession — "inside" the token;
/// only ciphertext and final (authorized) aggregates leave as replies.
/// The token side injects no faults: stragglers and churn are realized on
/// the link, by a FaultInjectingTransport on the SSI's end.
namespace pds::net {

/// The token's side of one SSI session with the transport taken out: the
/// challenge/hello/ack handshake, the replay check, and the [TNP14] round
/// handlers. Nothing here blocks, sleeps, or owns a thread.
class TokenSession {
 public:
  /// `tuples` (the token's authorized tuples) and `packed` (the querier's
  /// public packing context; null refuses kPackedCollect rounds) are
  /// pointed at, not copied, and must outlive the session.
  TokenSession(mcu::SecureToken* token,
               const std::vector<global::SourceTuple>* tuples,
               const crypto::PackedAggregate* packed)
      : token_(token), tuples_(tuples), packed_(packed) {}

  /// What one inbound frame produced.
  struct Outcome {
    std::optional<Bytes> reply;  // the frame to send back, if any
    bool done = false;           // Bye: the session ended cleanly
  };

  /// Advances the session by one inbound frame. An error is fatal to the
  /// session; a malformed frame or round is answered with an ErrorMsg
  /// instead, up to a bound.
  [[nodiscard]] Result<Outcome> OnFrame(ByteView frame);

  /// True once the handshake completed.
  [[nodiscard]] bool serving() const { return state_ == State::kServing; }

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
  /// Highest round id answered so far: a request below it is a replay of an
  /// already-answered round and gets refused (an equal id is the SSI's
  /// legitimate retry of an unanswered request).
  uint32_t highest_round_ = 0;
  uint32_t malformed_seen_ = 0;
  State state_ = State::kAwaitChallenge;
};

/// Runs a TokenSession over a transport on its own thread: connects to the
/// SSI, proves fleet membership, and answers protocol rounds until Bye, the
/// link closes, or Stop(). A token that returns after churn is a fresh
/// client on a fresh link, whose SSI end the harness hands to
/// SsiServer::ReadmitSession.
class TokenClient {
 public:
  struct Config {
    /// The token and the tuples its owner authorized for sharing (for a
    /// PdsNode: its token() and what ExportAs returned before dialing).
    mcu::SecureToken* token = nullptr;
    std::vector<global::SourceTuple> tuples;
    /// Handshake receive deadline.
    uint32_t deadline_ms = 2000;
    /// Poll granularity of the serve loop (Stop() latency bound).
    uint32_t poll_ms = 50;
    /// Packed-Paillier context (the querier's public packing parameters,
    /// distributed out of band before the round). Required to answer
    /// kPackedCollect rounds; null tokens refuse them with an ErrorMsg.
    const crypto::PackedAggregate* packed = nullptr;
  };

  TokenClient(std::unique_ptr<Transport> transport, Config config);
  ~TokenClient();

  TokenClient(const TokenClient&) = delete;
  TokenClient& operator=(const TokenClient&) = delete;

  /// Runs the challenge/hello/ack handshake.
  [[nodiscard]] Status Connect();

  /// Answers rounds until Bye, transport close, or Stop(). Returns Ok on a
  /// clean shutdown; a closed transport is a clean goodbye.
  [[nodiscard]] Status ServeLoop();

  /// Connect() + ServeLoop() on a background thread.
  void Start();
  void Stop();
  /// Joins the background thread and returns its final status.
  [[nodiscard]] Status Join();

 private:
  /// Feeds one received frame (handshake or round) to the session and sends
  /// its reply. Sets *done when the session ended cleanly (Bye).
  [[nodiscard]] Status Deliver(const Bytes& frame, bool* done);

  std::unique_ptr<Transport> transport_;
  Config config_;
  TokenSession session_;  // points at config_.tuples
  std::atomic<bool> stop_{false};
  std::thread thread_;
  Status loop_status_;
};

}  // namespace pds::net

#endif  // PDS_NET_TOKEN_CLIENT_H_
