#include "sim/sim_transport.h"

#include <algorithm>
#include <utility>

#include "net/token_client.h"

namespace pds::sim {

SimNet::SimNet(SimClock* clock, LinkModel model, uint64_t seed)
    : clock_(clock), model_(std::move(model)), rng_(seed) {}

std::pair<std::unique_ptr<SimTransport>, std::unique_ptr<SimTransport>>
SimNet::CreatePair(size_t max_queued) {
  auto link = std::make_shared<Link>();
  link->net = this;
  link->max_queued = max_queued;
  auto a = std::make_unique<SimTransport>(SimTransport::Private{}, link, 0);
  auto b = std::make_unique<SimTransport>(SimTransport::Private{}, link, 1);
  return {std::move(a), std::move(b)};
}

std::unique_ptr<SimTransport> SimNet::ConnectSession(
    net::TokenSession* session) {
  // The token end is the session itself; its endpoint object goes unused.
  auto [ssi_end, token_end] = CreatePair();
  ssi_end->link_->session = session;
  return std::move(ssi_end);
}

bool SimNet::InPartition(uint64_t t_ns) const {
  for (const PartitionWindow& w : model_.partitions) {
    if (t_ns >= w.start_ns && t_ns < w.end_ns) {
      return true;
    }
  }
  return false;
}

Status SimNet::SendFrom(const std::shared_ptr<Link>& link, int from_side,
                        ByteView frame) {
  const int to_side = 1 - from_side;
  LinkDir& dir = link->dirs[to_side];
  if (dir.inbox.size() + dir.in_flight >= link->max_queued) {
    return Status::ResourceExhausted("transport queue full");
  }
  ++stats_.frames_sent;
  const uint64_t now_ns = clock_->NowNs();

  // Per-frame draws happen in a fixed order regardless of outcome, so one
  // seed pins the realization of every later frame no matter what happens
  // to this one.
  const bool lost = rng_.Bernoulli(model_.loss_rate);
  const uint64_t jitter_us =
      model_.jitter_us > 0 ? rng_.Uniform(model_.jitter_us + 1) : 0;

  if (InPartition(now_ns)) {
    ++stats_.frames_partitioned;
    return Status::Ok();
  }
  if (lost) {
    ++stats_.frames_lost;
    return Status::Ok();
  }

  // Bandwidth serializes frames per direction: transmission starts when the
  // link is free and holds it for size/rate.
  uint64_t start_ns = std::max(now_ns, dir.next_free_ns);
  if (model_.bandwidth_bytes_per_sec > 0) {
    const uint64_t tx_ns = (static_cast<uint64_t>(frame.size()) * 1000000000ull) /
                           model_.bandwidth_bytes_per_sec;
    dir.next_free_ns = start_ns + tx_ns;
  } else {
    dir.next_free_ns = start_ns;
  }
  // FIFO clamp: no frame may overtake an earlier one on the same direction.
  const uint64_t arrival_ns = std::max<uint64_t>(
      dir.next_free_ns + (model_.base_latency_us + jitter_us) * 1000ull,
      dir.last_arrival_ns);
  dir.last_arrival_ns = arrival_ns;

  ++dir.in_flight;
  clock_->Schedule(arrival_ns,
                   [this, link, to_side, f = frame.ToBytes()]() mutable {
                     Deliver(link, to_side, std::move(f));
                   });
  return Status::Ok();
}

void SimNet::Deliver(const std::shared_ptr<Link>& link, int to_side,
                     Bytes frame) {
  LinkDir& dir = link->dirs[to_side];
  --dir.in_flight;
  ++stats_.frames_delivered;
  stats_.bytes_delivered += frame.size();
  if (to_side == 1 && link->session != nullptr) {
    Answer(link, frame);
    return;
  }
  // Frames in flight at Close still land in the inbox: InProcessTransport
  // keeps queued frames poppable after close, and the churn anchor depends
  // on the SSI reading a token's final reply after the link went down.
  dir.inbox.push_back(std::move(frame));
}

void SimNet::Answer(const std::shared_ptr<Link>& link, ByteView frame) {
  auto out = link->session->OnFrame(frame);
  Status st = out.status();
  if (st.ok() && out->reply.has_value()) {
    st = SendFrom(link, /*from_side=*/1, *out->reply);
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
  Status st = link_->net->SendFrom(link_, side_, frame);
  if (!st.ok()) {
    return st;
  }
  CountSent(frame.size());
  return Status::Ok();
}

Result<Bytes> SimTransport::Recv(uint32_t deadline_ms) {
  SimNet::LinkDir& dir = link_->dirs[side_];
  SimClock* clock = link_->net->clock_;
  // Block by running the event queue until our frame lands or virtual time
  // reaches the deadline.
  const uint64_t deadline_ns =
      clock->NowNs() + static_cast<uint64_t>(deadline_ms) * 1000000ull;
  while (dir.inbox.empty()) {
    // Frames already on the wire at Close still arrive (and InProcess
    // keeps its queues poppable after close), so the link only reports
    // closed once nothing is in flight toward us.
    if (link_->closed && dir.in_flight == 0) {
      return Status::IoError("transport closed");
    }
    if (clock->idle() || clock->next_event_ns() > deadline_ns) {
      clock->AdvanceTo(deadline_ns);
      return Status::DeadlineExceeded("recv deadline exceeded");
    }
    clock->RunOne();
  }
  Bytes frame = std::move(dir.inbox.front());
  dir.inbox.pop_front();
  CountReceived(frame.size());
  return frame;
}

void SimTransport::Close() {
  link_->closed = true;
  // Frames still in flight must not reach a session its owner may now
  // destroy (a churned token).
  link_->session = nullptr;
}

bool SimTransport::closed() const { return link_->closed; }

}  // namespace pds::sim
