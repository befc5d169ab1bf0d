#ifndef PDS_NET_FAULT_INJECTION_H_
#define PDS_NET_FAULT_INJECTION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "net/transport.h"

/// Deterministic, seed-driven fault injection for the token <-> SSI wire.
///
/// FaultInjectingTransport wraps any Transport and perturbs complete frames
/// on both directions — drop, delay, duplicate, reorder, truncate, bit-flip
/// — according to a FaultPlan. Every realized injection is appended to an
/// InjectionLog, so a failing scenario reproduces from its seed alone and
/// the log can be printed for one-command repro.
///
/// Faults always apply to whole reassembled frames, never to the byte
/// stream underneath, so the wrapper composes with SocketTransport without
/// desynchronizing its reassembly buffer (a truncated frame still corrupts
/// the receiving stream — that is the point of the truncate fault).
namespace pds::net {

enum class FaultKind : uint8_t {
  kDrop = 1,       // frame silently swallowed
  kDelay = 2,      // frame held 10 ms before forwarding
  kDuplicate = 3,  // frame forwarded twice
  kReorder = 4,    // frame held and released after the next frame
  kTruncate = 5,   // 1..8 tail bytes removed before forwarding
  kBitFlip = 6,    // one seeded bit flipped before forwarding
  kSwallowRequest = 7,  // token-level: round request consumed, never answered
  kChurn = 8,           // token-level: transport closed mid-session
};

const char* FaultKindName(FaultKind kind);

/// Seed-driven scenario configuration. Rates are per-frame Bernoulli draws
/// from one Rng seeded with `seed`; the draw order is fixed (drop, delay,
/// duplicate, reorder, truncate, bitflip per frame), so the same seed over
/// the same frame sequence realizes the same injections.
struct FaultPlan {
  uint64_t seed = 1;
  double drop_rate = 0.0;
  double delay_rate = 0.0;
  double duplicate_rate = 0.0;
  double reorder_rate = 0.0;
  double truncate_rate = 0.0;
  double bitflip_rate = 0.0;
  /// Cap on realized link injections (0 = unlimited). Lets a scenario
  /// perturb only the opening of a run and then go quiet.
  uint64_t max_injections = 0;
  /// Frames (per direction) forwarded untouched before faults engage.
  /// The scenario harness sets 2 so the attestation handshake completes
  /// and faults hit only protocol rounds, which have retry machinery.
  uint64_t skip_first = 0;

  /// Token-level faults (consumed by TokenClient, not by the wrapper):
  /// silently swallow the first N round requests — the request is consumed
  /// but never answered, so the SSI's retry of the same round is served.
  /// Replaces the old fail_first_requests counter; realized swallows land
  /// in the injection log like any other fault.
  uint32_t swallow_first = 0;
  /// Token-level churn: after sending this many round replies, close the
  /// transport mid-session (0 = never). The client then runs its
  /// reconnect/backoff loop if a reconnect factory is configured.
  uint64_t disconnect_after_replies = 0;

  [[nodiscard]] bool has_link_faults() const {
    return drop_rate > 0 || delay_rate > 0 || duplicate_rate > 0 ||
           reorder_rate > 0 || truncate_rate > 0 || bitflip_rate > 0;
  }
};

/// One realized fault.
struct Injection {
  uint64_t frame_index = 0;  // per-direction frame counter
  FaultKind kind = FaultKind::kDrop;
  const char* direction = "";  // "send" or "recv" (or "token")
  std::string detail;          // e.g. "flipped bit 3 of byte 17"
};

/// Thread-safe append-only log of realized injections, shared between the
/// wrapper, the token-level fault hooks, and the scenario harness.
class InjectionLog {
 public:
  void Add(Injection injection);
  [[nodiscard]] size_t size() const;
  [[nodiscard]] uint64_t Count(FaultKind kind) const;
  [[nodiscard]] std::vector<Injection> Entries() const;
  /// One line per injection — printed on scenario failure for repro.
  [[nodiscard]] std::string ToString() const;
  void Clear();

 private:
  mutable std::mutex mu_;
  std::vector<Injection> entries_;
};

/// Transport wrapper realizing a FaultPlan. Not thread-safe per direction:
/// Send and Recv each assume one caller at a time (the SSI session loop),
/// which matches how SsiServer drives a session.
class FaultInjectingTransport : public Transport {
 public:
  /// `log` may be null (injections are then only counted internally).
  /// `clock` backs the delay-fault sleep; null means the process wall
  /// clock, and the simulation tier passes its SimClock so a held frame
  /// consumes virtual time instead of stalling the event loop.
  FaultInjectingTransport(std::unique_ptr<Transport> inner, FaultPlan plan,
                          InjectionLog* log, Clock* clock = nullptr);

  [[nodiscard]] Status Send(ByteView frame) override;
  [[nodiscard]] Result<Bytes> Recv(uint32_t deadline_ms) override;
  void Close() override;
  [[nodiscard]] bool closed() const override;

  [[nodiscard]] uint64_t injections() const { return injections_; }

 private:
  enum class Verdict { kForward, kDrop, kHold };

  /// Applies the per-frame fault draws to `frame` (possibly mutating it) and
  /// says what to do with the result: forward it now, swallow it, or stash
  /// it in the direction's holding cell until the next frame passes.
  Verdict MutateFrame(Bytes* frame, uint64_t index, const char* direction,
                      bool* duplicate);
  bool BudgetLeft() const;
  void Log(uint64_t index, FaultKind kind, const char* direction,
           std::string detail);

  std::unique_ptr<Transport> inner_;
  FaultPlan plan_;
  InjectionLog* log_;
  Clock* clock_;  // never null: ctor arg or the wall clock
  Rng rng_;
  uint64_t injections_ = 0;
  uint64_t send_index_ = 0;
  uint64_t recv_index_ = 0;
  /// Reorder holding cells, one per direction.
  Bytes held_send_;
  bool has_held_send_ = false;
  Bytes held_recv_;
  bool has_held_recv_ = false;
};

}  // namespace pds::net

#endif  // PDS_NET_FAULT_INJECTION_H_
