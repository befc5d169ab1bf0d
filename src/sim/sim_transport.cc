#include "sim/sim_transport.h"

#include <algorithm>
#include <utility>

#include "net/token_client.h"

namespace pds::sim {

void SimNet::Inbox::Push(Bytes frame) {
  if (head > 0 && frames.size() == frames.capacity()) {
    frames.erase(frames.begin(),
                 frames.begin() + static_cast<ptrdiff_t>(head));
    head = 0;
  }
  frames.push_back(std::move(frame));
}

Bytes SimNet::Inbox::Pop() {
  Bytes frame = std::move(frames[head++]);
  if (head == frames.size()) {
    frames.clear();
    head = 0;
  }
  return frame;
}

SimNet::SimNet(SimClock* clock, LinkModel model, uint64_t seed)
    : clock_(clock), model_(model), rng_(seed) {}

std::unique_ptr<SimTransport> SimNet::ConnectSession(
    net::TokenSession* session) {
  auto link = std::make_shared<Link>();
  link->net = this;
  link->session = session;
  return std::make_unique<SimTransport>(SimTransport::Private{},
                                        std::move(link));
}

size_t SimNet::LinkBytes() { return sizeof(SimTransport) + sizeof(Link); }

Status SimNet::Send(const std::shared_ptr<Link>& link, bool to_token,
                    ByteView frame) {
  // Undelivered frames a direction holds: in flight, plus the SSI's unread
  // inbox.
  Pipe& pipe = to_token ? link->to_token : link->to_ssi;
  const size_t unread = to_token ? 0 : link->inbox.size();
  if (pipe.in_flight + unread >= net::kMaxQueuedFrames) {
    return Status::ResourceExhausted("transport queue full");
  }
  const uint64_t now_ns = clock_->NowNs();
  const uint64_t jitter_us =
      model_.jitter_us > 0 ? rng_.Uniform(model_.jitter_us + 1) : 0;

  // Bandwidth serializes frames per direction: transmission starts when the
  // link is free and holds it for size/rate.
  uint64_t start_ns = std::max(now_ns, pipe.next_free_ns);
  if (model_.bandwidth_bytes_per_sec > 0) {
    const uint64_t tx_ns = (static_cast<uint64_t>(frame.size()) * 1000000000ull) /
                           model_.bandwidth_bytes_per_sec;
    pipe.next_free_ns = start_ns + tx_ns;
  } else {
    pipe.next_free_ns = start_ns;
  }
  // FIFO clamp: no frame may overtake an earlier one on the same direction.
  const uint64_t arrival_ns = std::max<uint64_t>(
      pipe.next_free_ns + (model_.base_latency_us + jitter_us) * 1000ull,
      pipe.last_arrival_ns);
  pipe.last_arrival_ns = arrival_ns;

  ++pipe.in_flight;
  clock_->Schedule(arrival_ns,
                   [this, link, to_token, f = frame.ToBytes()]() mutable {
                     Deliver(link, to_token, std::move(f));
                   });
  return Status::Ok();
}

void SimNet::Deliver(const std::shared_ptr<Link>& link, bool to_token,
                     Bytes frame) {
  Pipe& pipe = to_token ? link->to_token : link->to_ssi;
  --pipe.in_flight;
  ++stats_.frames_delivered;
  stats_.bytes_delivered += frame.size();
  if (!to_token) {
    // Frames in flight at Close still land in the inbox: InProcessTransport
    // keeps queued frames poppable after close, and the churn anchor depends
    // on the SSI reading a token's final reply after the link went down.
    link->inbox.Push(std::move(frame));
  } else if (link->session != nullptr) {
    Answer(link, frame);
  }
  // A frame that lands on a silenced token end is dropped: nothing reads it.
}

void SimNet::Answer(const std::shared_ptr<Link>& link, ByteView frame) {
  auto out = link->session->OnFrame(frame);
  Status st = out.status();
  if (st.ok() && out->reply.has_value()) {
    st = Send(link, /*to_token=*/false, *out->reply);
  }
  if (!st.ok()) {
    ++stats_.session_errors;
  }
  if (!st.ok() || out->done) {
    link->session = nullptr;  // a stopped client reads no further frames
  }
}

Status SimTransport::Send(ByteView frame) {
  if (link_->closed) {
    return Status::IoError("transport closed");
  }
  return link_->net->Send(link_, /*to_token=*/true, frame);
}

Result<Bytes> SimTransport::Recv(uint32_t deadline_ms) {
  SimClock* clock = link_->net->clock_;
  // Block by running the event queue until a frame lands or virtual time
  // reaches the deadline.
  const uint64_t deadline_ns =
      clock->NowNs() + static_cast<uint64_t>(deadline_ms) * 1000000ull;
  while (link_->inbox.size() == 0) {
    // Frames already on the wire at Close still arrive (and InProcess
    // keeps its queues poppable after close), so the link only reports
    // closed once nothing is in flight toward us.
    if (link_->closed && link_->to_ssi.in_flight == 0) {
      return Status::IoError("transport closed");
    }
    if (clock->idle() || clock->next_event_ns() > deadline_ns) {
      clock->AdvanceTo(deadline_ns);
      return Status::DeadlineExceeded("recv deadline exceeded");
    }
    clock->RunOne();
  }
  return link_->inbox.Pop();
}

void SimTransport::Close() {
  link_->closed = true;
  // Frames still in flight must not reach a session its owner may now
  // destroy (a churned token).
  link_->session = nullptr;
}

bool SimTransport::closed() const { return link_->closed; }

}  // namespace pds::sim
