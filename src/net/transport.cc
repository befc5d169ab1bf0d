#include "net/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "net/codec.h"

namespace pds::net {

namespace {

using SteadyClock = std::chrono::steady_clock;

[[nodiscard]] int64_t MillisLeft(SteadyClock::time_point deadline) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             deadline - SteadyClock::now())
      .count();
}

[[nodiscard]] Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IoError("fcntl O_NONBLOCK failed");
  }
  return Status::Ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// InProcessTransport

std::pair<std::unique_ptr<InProcessTransport>,
          std::unique_ptr<InProcessTransport>>
InProcessTransport::CreatePair() {
  auto shared = std::make_shared<Shared>();
  auto a = std::make_unique<InProcessTransport>(Private{}, shared, 0);
  auto b = std::make_unique<InProcessTransport>(Private{}, std::move(shared),
                                                1);
  return {std::move(a), std::move(b)};
}

Status InProcessTransport::Send(ByteView frame) {
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    if (shared_->closed) {
      return Status::IoError("transport closed");
    }
    std::deque<Bytes>& peer_queue = shared_->queues[1 - side_];
    if (peer_queue.size() >= kMaxQueuedFrames) {
      return Status::ResourceExhausted("transport queue full");
    }
    peer_queue.push_back(frame.ToBytes());
  }
  shared_->cv.notify_all();
  return Status::Ok();
}

Result<Bytes> InProcessTransport::Recv(uint32_t deadline_ms) {
  std::unique_lock<std::mutex> lock(shared_->mu);
  std::deque<Bytes>& my_queue = shared_->queues[side_];
  bool got = shared_->cv.wait_for(
      lock, std::chrono::milliseconds(deadline_ms),
      [&] { return !my_queue.empty() || shared_->closed; });
  if (my_queue.empty()) {
    if (shared_->closed) {
      return Status::IoError("transport closed");
    }
    (void)got;
    return Status::DeadlineExceeded("recv deadline exceeded");
  }
  Bytes frame = std::move(my_queue.front());
  my_queue.pop_front();
  return frame;
}

void InProcessTransport::Close() {
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->closed = true;
  }
  shared_->cv.notify_all();
}

bool InProcessTransport::closed() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->closed;
}

// ---------------------------------------------------------------------------
// SocketTransport

SocketTransport::SocketTransport(int fd) : fd_(fd) {
  // Frames are small and latency-sensitive; the transport is the only
  // batching layer, so disable Nagle where the option exists (TCP only —
  // harmless EOPNOTSUPP on Unix-domain sockets).
  int one = 1;
  (void)setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  (void)SetNonBlocking(fd_);
  rxbuf_.reserve(kFrameHeaderSize);
}

SocketTransport::~SocketTransport() { Close(); }

Result<std::pair<std::unique_ptr<SocketTransport>,
                 std::unique_ptr<SocketTransport>>>
SocketTransport::CreateUnixPair() {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::IoError("socketpair failed: " +
                           std::string(std::strerror(errno)));
  }
  return std::make_pair(std::make_unique<SocketTransport>(fds[0]),
                        std::make_unique<SocketTransport>(fds[1]));
}

Result<std::unique_ptr<SocketTransport>> SocketTransport::ConnectTcp(
    const std::string& host, uint16_t port, uint32_t deadline_ms) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("socket failed");
  }
  PDS_RETURN_IF_ERROR(SetNonBlocking(fd));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("bad host address: " + host);
  }
  int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    close(fd);
    return Status::IoError("connect failed: " +
                           std::string(std::strerror(errno)));
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    rc = poll(&pfd, 1, static_cast<int>(deadline_ms));
    if (rc <= 0) {
      close(fd);
      return Status::DeadlineExceeded("connect deadline exceeded");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      close(fd);
      return Status::IoError("connect failed: " +
                             std::string(std::strerror(err)));
    }
  }
  return std::make_unique<SocketTransport>(fd);
}

Status SocketTransport::Send(ByteView frame) {
  if (closed_.load()) {
    return Status::IoError("transport closed");
  }
  size_t sent = 0;
  while (sent < frame.size()) {
    ssize_t n = send(fd_, frame.data() + sent, frame.size() - sent,
                     MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd_, POLLOUT, 0};
      if (poll(&pfd, 1, 1000) <= 0) {
        return Status::IoError("send stalled");
      }
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return Status::IoError("send failed: " +
                           std::string(std::strerror(errno)));
  }
  return Status::Ok();
}

Result<Bytes> SocketTransport::Recv(uint32_t deadline_ms) {
  if (closed_.load()) {
    return Status::IoError("transport closed");
  }
  SteadyClock::time_point deadline =
      SteadyClock::now() + std::chrono::milliseconds(deadline_ms);
  size_t need = kFrameHeaderSize;
  while (true) {
    // Header validated the moment 8 bytes are buffered: a lying length
    // field or bad magic is rejected before any payload allocation.
    if (rxbuf_.size() >= kFrameHeaderSize) {
      PDS_ASSIGN_OR_RETURN(FrameHeader h, DecodeFrameHeader(rxbuf_));
      need = kFrameHeaderSize + h.payload_len;
      // The declared length just passed the kMaxFramePayload bound, so this
      // caps the buffer growth the loop below can perform.
      rxbuf_.reserve(need);
      if (rxbuf_.size() >= need) {
        Bytes frame(rxbuf_.begin(),
                    rxbuf_.begin() + static_cast<ptrdiff_t>(need));
        rxbuf_.erase(rxbuf_.begin(),
                     rxbuf_.begin() + static_cast<ptrdiff_t>(need));
        return frame;
      }
    }
    int64_t left = MillisLeft(deadline);
    if (left <= 0) {
      return Status::DeadlineExceeded("recv deadline exceeded");
    }
    pollfd pfd{fd_, POLLIN, 0};
    int rc = poll(&pfd, 1, static_cast<int>(left));
    if (rc < 0 && errno == EINTR) {
      continue;
    }
    if (rc <= 0) {
      return Status::DeadlineExceeded("recv deadline exceeded");
    }
    uint8_t chunk[4096];
    ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      return Status::IoError("peer closed connection");
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        continue;
      }
      return Status::IoError("recv failed: " +
                             std::string(std::strerror(errno)));
    }
    rxbuf_.insert(rxbuf_.end(), chunk, chunk + n);
  }
}

void SocketTransport::Close() {
  bool expected = false;
  if (closed_.compare_exchange_strong(expected, true)) {
    shutdown(fd_, SHUT_RDWR);
    close(fd_);
  }
}

bool SocketTransport::closed() const { return closed_.load(); }

// ---------------------------------------------------------------------------
// FrameTap

Status FrameTap::Send(ByteView frame) {
  PDS_RETURN_IF_ERROR(inner_->Send(frame));
  entries_.push_back({/*outbound=*/true, frame.ToBytes()});
  return Status::Ok();
}

Result<Bytes> FrameTap::Recv(uint32_t deadline_ms) {
  Result<Bytes> r = inner_->Recv(deadline_ms);
  if (r.ok()) {
    entries_.push_back({/*outbound=*/false, r.value()});
  }
  return r;
}

// ---------------------------------------------------------------------------
// TcpListener

TcpListener::~TcpListener() { Close(); }

Status TcpListener::Listen(uint16_t port) {
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::IoError("socket failed");
  }
  int one = 1;
  (void)setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::IoError("bind failed: " +
                           std::string(std::strerror(errno)));
  }
  if (listen(fd_, 64) != 0) {
    return Status::IoError("listen failed");
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Status::IoError("getsockname failed");
  }
  port_ = ntohs(addr.sin_port);
  PDS_RETURN_IF_ERROR(SetNonBlocking(fd_));
  return Status::Ok();
}

Result<std::unique_ptr<SocketTransport>> TcpListener::Accept(
    uint32_t deadline_ms) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("listener not listening");
  }
  SteadyClock::time_point deadline =
      SteadyClock::now() + std::chrono::milliseconds(deadline_ms);
  while (true) {
    int conn = accept(fd_, nullptr, nullptr);
    if (conn >= 0) {
      return std::make_unique<SocketTransport>(conn);
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return Status::IoError("accept failed: " +
                             std::string(std::strerror(errno)));
    }
    int64_t left = MillisLeft(deadline);
    if (left <= 0) {
      return Status::DeadlineExceeded("accept deadline exceeded");
    }
    pollfd pfd{fd_, POLLIN, 0};
    int rc = poll(&pfd, 1, static_cast<int>(left));
    if (rc < 0 && errno != EINTR) {
      return Status::IoError("poll failed");
    }
  }
}

void TcpListener::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

}  // namespace pds::net
