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
/// — and can close the link after a number of replies (churn), according
/// to a FaultPlan. It is the one fault injector: tokens run protocol only,
/// so a token that never answers is a link that drops its requests, and a
/// token that leaves is a link that closes. Every realized injection is
/// appended to an InjectionLog, so a failing scenario reproduces from its
/// seed alone and the log can be printed for one-command repro.
///
/// Faults always apply to whole reassembled frames, never to the byte
/// stream underneath, so the wrapper composes with SocketTransport without
/// desynchronizing its reassembly buffer (a truncated frame still corrupts
/// the receiving stream — that is the point of the truncate fault).
namespace pds::net {

enum class FaultKind : uint8_t {
  kDrop = 1,       // frame silently lost
  kDelay = 2,      // frame held 10 ms before forwarding
  kDuplicate = 3,  // frame forwarded twice
  kReorder = 4,    // frame held and released after the next frame
  kTruncate = 5,   // 1..8 tail bytes removed before forwarding
  kBitFlip = 6,    // one seeded bit flipped before forwarding
  kChurn = 7,      // link closed after a number of replies
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
  /// Faults engage, in both directions, once this many frames have gone
  /// out; a frame sent or received before then passes untouched. The
  /// scenario harness and sim::SimFleet set 2 on the SSI's end (the
  /// challenge and the ack), so the attestation handshake completes and
  /// faults hit only protocol rounds, which have retry machinery: the
  /// first round request and the reply to it included.
  uint64_t skip_first = 0;
  /// Churn: the wrapper closes the link once this many frames came back
  /// after faults engaged (0 = never) — past the harness's handshake skip,
  /// after this many round replies. The next send on the link then fails,
  /// as it does once a token left.
  uint64_t disconnect_after_replies = 0;

  /// True when the plan injects anything: a per-frame rate or churn.
  [[nodiscard]] bool has_faults() const {
    return drop_rate > 0 || delay_rate > 0 || duplicate_rate > 0 ||
           reorder_rate > 0 || truncate_rate > 0 || bitflip_rate > 0 ||
           disconnect_after_replies > 0;
  }
};

/// One realized fault.
struct Injection {
  uint64_t frame_index = 0;  // per-direction frame counter
  FaultKind kind = FaultKind::kDrop;
  const char* direction = "";  // "send" or "recv"
  std::string detail;          // e.g. "flipped bit 3 of byte 17"
};

/// Thread-safe append-only log of realized injections, shared between the
/// wrapper and the scenario harness.
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
  /// Receives the next frame the plan lets through; the one that completes
  /// `disconnect_after_replies` replies is returned and the link closed.
  [[nodiscard]] Result<Bytes> Recv(uint32_t deadline_ms) override;
  void Close() override;
  [[nodiscard]] bool closed() const override;

 private:
  enum class Verdict { kForward, kDrop, kHold };

  /// Applies the per-frame fault draws to `frame` (possibly mutating it) and
  /// says what to do with the result: forward it now, drop it, or stash it
  /// in the direction's holding cell until the next frame passes. A held
  /// frame is never duplicated; for a forwarded one `*duplicate` says
  /// whether a copy is due, which the caller logs once the copy goes out.
  Verdict MutateFrame(Bytes* frame, uint64_t index, const char* direction,
                      bool* duplicate);
  /// Recv without churn: the frame the rate faults let through.
  [[nodiscard]] Result<Bytes> RecvFrame(uint32_t deadline_ms);
  /// Empties the receive holding cell and returns what it held.
  [[nodiscard]] Bytes ReleaseHeldRecv();
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
  uint64_t replies_ = 0;  // frames received since faults engaged
  /// Reorder holding cells, one per direction. The receive cell also holds
  /// a duplicate's copy; a frame in it that is due (a copy, or a held frame
  /// the next frame overtook) goes out on the next Recv.
  Bytes held_send_;
  bool has_held_send_ = false;
  Bytes held_recv_;
  bool has_held_recv_ = false;
  bool held_recv_due_ = false;
};

}  // namespace pds::net

#endif  // PDS_NET_FAULT_INJECTION_H_
