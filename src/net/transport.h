#ifndef PDS_NET_TRANSPORT_H_
#define PDS_NET_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

/// pds::net transports — the byte pipes the codec's frames travel over.
///
/// Two implementations share one interface: InProcessTransport (a pair of
/// bounded queues, fully deterministic, used by tests and benchmarks) and
/// SocketTransport (non-blocking TCP or Unix-domain sockets driven by
/// poll()). A transport only moves frames and counts nothing: the SSI's
/// round state (SsiServer's per-round wire slots, exported as Metrics) is
/// the one record of the traffic a protocol run put on the wire. FrameTap
/// wraps any transport and keeps a copy of every frame it carries.
namespace pds::net {

/// Undelivered frames one direction of an in-process or simulated link
/// holds before Send returns ResourceExhausted.
inline constexpr size_t kMaxQueuedFrames = 1024;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends one complete frame (header + payload as produced by the codec).
  [[nodiscard]] virtual Status Send(ByteView frame) = 0;

  /// Receives the next complete frame, waiting at most `deadline_ms`.
  /// Returns DeadlineExceeded on timeout and IoError once the peer closed.
  [[nodiscard]] virtual Result<Bytes> Recv(uint32_t deadline_ms) = 0;

  virtual void Close() = 0;
  [[nodiscard]] virtual bool closed() const = 0;
};

/// Deterministic in-process transport: CreatePair() returns two connected
/// endpoints backed by a shared pair of frame queues. Closing either end
/// wakes all waiters on both.
class InProcessTransport : public Transport {
  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Bytes> queues[2];  // queues[i] holds frames *for* endpoint i
    bool closed = false;
  };
  /// Passkey: only CreatePair can name this, so the public constructor is
  /// effectively private while staying reachable for std::make_unique.
  struct Private {
    explicit Private() = default;
  };

 public:
  /// Two connected endpoints; each holds at most kMaxQueuedFrames
  /// undelivered frames before Send returns ResourceExhausted.
  static std::pair<std::unique_ptr<InProcessTransport>,
                   std::unique_ptr<InProcessTransport>>
  CreatePair();

  InProcessTransport(Private, std::shared_ptr<Shared> shared, int side)
      : shared_(std::move(shared)), side_(side) {}

  [[nodiscard]] Status Send(ByteView frame) override;
  [[nodiscard]] Result<Bytes> Recv(uint32_t deadline_ms) override;
  void Close() override;
  [[nodiscard]] bool closed() const override;

 private:
  std::shared_ptr<Shared> shared_;
  int side_;  // 0 or 1; we receive from queues[side_], send to the other
};

/// Socket-backed transport over a non-blocking fd (TCP or Unix-domain
/// stream). Recv() accumulates bytes until a complete frame is buffered,
/// validating the header — magic, version, declared length bound — as soon
/// as 8 bytes arrive so a garbage peer is rejected before any allocation.
class SocketTransport : public Transport {
 public:
  /// Takes ownership of a connected stream socket fd (sets O_NONBLOCK).
  explicit SocketTransport(int fd);
  ~SocketTransport() override;

  /// Two connected endpoints over a Unix socketpair (loopback tests).
  [[nodiscard]] static Result<std::pair<std::unique_ptr<SocketTransport>,
                                        std::unique_ptr<SocketTransport>>>
  CreateUnixPair();

  /// Connects to a TCP listener on `host`:`port`.
  [[nodiscard]] static Result<std::unique_ptr<SocketTransport>> ConnectTcp(
      const std::string& host, uint16_t port, uint32_t deadline_ms);

  [[nodiscard]] Status Send(ByteView frame) override;
  [[nodiscard]] Result<Bytes> Recv(uint32_t deadline_ms) override;
  void Close() override;
  [[nodiscard]] bool closed() const override;

 private:
  int fd_;
  std::atomic<bool> closed_{false};
  Bytes rxbuf_;  // partial-frame accumulation between Recv calls
};

/// Transparent wrapper recording every frame that crosses the wrapped
/// transport, in order, per direction: the instrument that compares one
/// run's frames byte for byte with another's (a simulated run against a
/// wall-clock one, a forced-scalar kernel run against a SIMD one). Single
/// caller per direction, like the fault wrapper.
class FrameTap final : public Transport {
 public:
  struct Entry {
    bool outbound = false;  // true: Send() saw it; false: Recv() returned it
    Bytes frame;
  };

  explicit FrameTap(std::unique_ptr<Transport> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] Status Send(ByteView frame) override;
  [[nodiscard]] Result<Bytes> Recv(uint32_t deadline_ms) override;
  void Close() override { inner_->Close(); }
  [[nodiscard]] bool closed() const override { return inner_->closed(); }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::unique_ptr<Transport> inner_;
  std::vector<Entry> entries_;
};

/// Accepting side of a TCP endpoint.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port) and listens.
  [[nodiscard]] Status Listen(uint16_t port);
  /// The bound port (after Listen; useful with port 0).
  [[nodiscard]] uint16_t port() const { return port_; }

  [[nodiscard]] Result<std::unique_ptr<SocketTransport>> Accept(
      uint32_t deadline_ms);

  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace pds::net

#endif  // PDS_NET_TRANSPORT_H_
