#ifndef PDS_SIM_SIM_TRANSPORT_H_
#define PDS_SIM_SIM_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
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
/// SimNet::ConnectSession() is the virtual-time twin of DirectTokenLink: it
/// returns the SSI's end of a link whose far end is a net::TokenSession
/// that answers each frame at the instant it lands, over the same modeled
/// link. Delivery runs through the SimClock event queue under a LinkModel:
/// Send draws jitter from the net's single seeded RNG and schedules the
/// frame's arrival; a blocking Recv *advances the event queue* until its
/// frame lands or the (virtual) deadline passes. The error surface mirrors
/// InProcessTransport verbatim — IoError("transport closed") after close,
/// ResourceExhausted("transport queue full") past the same
/// net::kMaxQueuedFrames undelivered frames, DeadlineExceeded("recv
/// deadline exceeded") on timeout — so the protocol layer cannot tell the
/// two apart on an ideal link. Everything is single-threaded: the SSI end
/// blocks in Recv and so drives the queue; token sessions only ever run
/// from delivery events.
namespace pds::sim {

class SimTransport;

/// The fleet's modeled network: owns the LinkModel, the single seeded RNG
/// every per-frame draw comes from, and the counters that are its one
/// record of link events. Lives as long as every transport it created.
class SimNet {
 public:
  struct Stats {
    uint64_t frames_delivered = 0;  // landed at the far end
    uint64_t bytes_delivered = 0;
    /// Tokens silenced by a fatal session error (or by a reply the link
    /// refused).
    uint64_t session_errors = 0;
  };

  SimNet(SimClock* clock, LinkModel model, uint64_t seed);

  /// The SSI's end of a link whose token end is `session`, which answers
  /// every frame as it lands and sends its reply back over the link. A
  /// fatal session error (counted in Stats::session_errors), or Bye,
  /// silences the token end without closing the link: later frames land
  /// and are dropped, as on a stopped client. Close() detaches the
  /// session, so the caller may destroy it then; until that, it must stay
  /// alive.
  [[nodiscard]] std::unique_ptr<SimTransport> ConnectSession(
      net::TokenSession* session);

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Bytes one link keeps, the frames on it aside: the SSI's endpoint and
  /// the record it shares with the net.
  [[nodiscard]] static size_t LinkBytes();

 private:
  friend class SimTransport;

  /// One direction of a link.
  struct Pipe {
    size_t in_flight = 0;          // scheduled, not yet delivered
    uint64_t last_arrival_ns = 0;  // FIFO clamp for in-order delivery
    uint64_t next_free_ns = 0;     // bandwidth serialization horizon
  };
  /// The frames landed at the SSI's end, not yet read, oldest first: a
  /// vector and a read index. A link allocates nothing for it until a
  /// frame lands, and then keeps room for the frame or two a round leaves
  /// there. The index returns to 0 whenever the inbox drains, and the read
  /// frames are dropped before the vector would grow.
  struct Inbox {
    std::vector<Bytes> frames;
    size_t head = 0;  // frames[head] is the next to read

    [[nodiscard]] size_t size() const { return frames.size() - head; }
    void Push(Bytes frame);
    [[nodiscard]] Bytes Pop();
  };
  struct Link {
    SimNet* net = nullptr;
    bool closed = false;
    /// The token end while it still answers.
    net::TokenSession* session = nullptr;
    Pipe to_token;
    Pipe to_ssi;
    Inbox inbox;
  };

  /// Puts `frame` on the link toward the token end or the SSI's end.
  [[nodiscard]] Status Send(const std::shared_ptr<Link>& link, bool to_token,
                            ByteView frame);
  void Deliver(const std::shared_ptr<Link>& link, bool to_token, Bytes frame);
  /// Hands a frame that landed on the token end to the link's session.
  void Answer(const std::shared_ptr<Link>& link, ByteView frame);

  SimClock* clock_;
  LinkModel model_;
  Rng rng_;
  Stats stats_;
};

/// The SSI's end of a simulated link. Recv drives the event queue until a
/// frame lands or the virtual deadline passes.
class SimTransport final : public net::Transport {
  /// Passkey: only SimNet can construct endpoints.
  struct Private {
    explicit Private() = default;
  };

 public:
  SimTransport(Private, std::shared_ptr<SimNet::Link> link)
      : link_(std::move(link)) {}

  [[nodiscard]] Status Send(ByteView frame) override;
  [[nodiscard]] Result<Bytes> Recv(uint32_t deadline_ms) override;
  void Close() override;
  [[nodiscard]] bool closed() const override;

 private:
  friend class SimNet;

  std::shared_ptr<SimNet::Link> link_;
};

}  // namespace pds::sim

#endif  // PDS_SIM_SIM_TRANSPORT_H_
