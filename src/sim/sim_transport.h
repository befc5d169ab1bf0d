#ifndef PDS_SIM_SIM_TRANSPORT_H_
#define PDS_SIM_SIM_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/transport.h"
#include "sim/link_model.h"
#include "sim/sim_clock.h"

namespace pds::net {
class TokenSession;
}  // namespace pds::net

/// SimTransport — the simulated wire.
///
/// SimNet::CreatePair() hands out two connected net::Transport endpoints,
/// exactly like InProcessTransport::CreatePair(), except delivery runs
/// through the SimClock event queue under a LinkModel: Send draws loss and
/// jitter from the net's single seeded RNG and schedules the frame's
/// arrival; a blocking Recv *advances the event queue* until its frame
/// lands or the (virtual) deadline passes. The error surface mirrors
/// InProcessTransport verbatim — IoError("transport closed") after close,
/// ResourceExhausted("transport queue full") past max_queued,
/// DeadlineExceeded("recv deadline exceeded") on timeout — so the protocol
/// layer cannot tell the two apart on an ideal link.
///
/// SimNet::ConnectSession() is the virtual-time twin of DirectTokenLink: the
/// far end of the link is a net::TokenSession that answers each frame at
/// the instant it lands, over the same modeled link. Everything is
/// single-threaded: the SSI end blocks in Recv and so drives the queue;
/// token sessions only ever run from delivery events.
namespace pds::sim {

class SimTransport;

/// The fleet's modeled network: owns the LinkModel, the single seeded RNG
/// every per-frame draw comes from, and the counters that are its one
/// record of link events. Lives as long as every transport it created.
class SimNet {
 public:
  struct Stats {
    uint64_t frames_sent = 0;       // accepted by Send (drawn upon)
    uint64_t frames_delivered = 0;  // landed in an inbox
    uint64_t frames_lost = 0;       // loss_rate casualties
    uint64_t frames_partitioned = 0;
    uint64_t bytes_delivered = 0;
    /// ConnectSession tokens silenced by a fatal session error (or by a
    /// reply the link refused).
    uint64_t session_errors = 0;
  };

  SimNet(SimClock* clock, LinkModel model, uint64_t seed);

  /// Two connected endpoints; each direction holds at most `max_queued`
  /// undelivered frames (in flight + inbox) before Send returns
  /// ResourceExhausted — the same bound InProcessTransport enforces.
  [[nodiscard]] std::pair<std::unique_ptr<SimTransport>,
                          std::unique_ptr<SimTransport>>
  CreatePair(size_t max_queued = 1024);

  /// The SSI's end of a link whose token end is `session`, which answers
  /// every frame as it lands and sends its reply back over the link. A
  /// fatal session error (counted in Stats::session_errors), or Bye,
  /// silences the token end without closing the link: later frames land
  /// unread, as on a stopped client. Close() detaches the session, so the
  /// caller may destroy it then; until that, it must stay alive.
  [[nodiscard]] std::unique_ptr<SimTransport> ConnectSession(
      net::TokenSession* session);

  [[nodiscard]] SimClock* clock() { return clock_; }
  [[nodiscard]] const LinkModel& model() const { return model_; }
  /// Swaps the link model mid-scenario (e.g. a lossless build phase, then
  /// loss during protocol rounds — the handshake has no retry machinery).
  /// Part of the scripted scenario, so determinism is unaffected.
  void set_model(LinkModel model) { model_ = std::move(model); }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  friend class SimTransport;

  /// One direction of a link: frames *for* endpoint `side`.
  struct LinkDir {
    std::deque<Bytes> inbox;
    size_t in_flight = 0;          // scheduled, not yet delivered
    uint64_t last_arrival_ns = 0;  // FIFO clamp for in-order delivery
    uint64_t next_free_ns = 0;     // bandwidth serialization horizon
  };
  struct Link {
    SimNet* net = nullptr;
    bool closed = false;
    size_t max_queued = 1024;
    LinkDir dirs[2];
    /// ConnectSession's token end (side 1) while it still answers.
    net::TokenSession* session = nullptr;
  };

  [[nodiscard]] Status SendFrom(const std::shared_ptr<Link>& link,
                                int from_side, ByteView frame);
  void Deliver(const std::shared_ptr<Link>& link, int to_side, Bytes frame);
  /// Hands a frame that landed on side 1 to the link's session.
  void Answer(const std::shared_ptr<Link>& link, ByteView frame);
  [[nodiscard]] bool InPartition(uint64_t t_ns) const;

  SimClock* clock_;
  LinkModel model_;
  Rng rng_;
  Stats stats_;
};

/// One endpoint of a simulated link. Recv drives the event queue until its
/// frame lands or the virtual deadline passes.
class SimTransport final : public net::Transport {
  /// Passkey: only SimNet can construct endpoints.
  struct Private {
    explicit Private() = default;
  };

 public:
  SimTransport(Private, std::shared_ptr<SimNet::Link> link, int side)
      : link_(std::move(link)), side_(side) {}

  [[nodiscard]] Status Send(ByteView frame) override;
  [[nodiscard]] Result<Bytes> Recv(uint32_t deadline_ms) override;
  void Close() override;
  [[nodiscard]] bool closed() const override;

 private:
  friend class SimNet;

  std::shared_ptr<SimNet::Link> link_;
  int side_;  // we receive from dirs[side_], send to the other
};

}  // namespace pds::sim

#endif  // PDS_SIM_SIM_TRANSPORT_H_
