#ifndef PDS_COMMON_CLOCK_H_
#define PDS_COMMON_CLOCK_H_

#include <cstdint>

namespace pds {

/// Injectable monotonic clock behind every deadline, retry backoff, and
/// latency timestamp in the wire runtime (SsiServer, fault injection).
/// Two implementations exist:
///
///  - the process-wide wall clock (`WallClock()`), backed by
///    std::chrono::steady_clock, for which ScaledMs() applies the
///    PDS_TIME_SCALE sanitizer de-flaking factor, and
///  - `sim::SimClock`, a discrete-event virtual clock whose SleepMs/NowNs
///    advance a seeded event queue instead of the host scheduler; virtual
///    budgets are never scaled.
///
/// Library logic stays deterministic (seeded RNGs, simulated flash latency
/// from CostModel): nothing that affects a protocol *output* may read a
/// clock — time feeds only timeouts, pacing, and observability.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Monotonic nanoseconds since this clock's arbitrary epoch.
  [[nodiscard]] virtual uint64_t NowNs() = 0;

  /// Blocks the caller for `ms` of this clock's time. On the wall clock
  /// this is a real sleep; on a simulated clock it advances virtual time
  /// (running any events that come due) and returns immediately.
  virtual void SleepMs(uint32_t ms) = 0;
};

/// The process-wide steady_clock-backed Clock. Never null; never destroyed.
[[nodiscard]] Clock* WallClock();

/// Monotonic wall-time in nanoseconds — shorthand for
/// `WallClock()->NowNs()`, kept for observability call sites (span
/// timestamps in src/obs).
uint64_t MonotonicNanos();

/// Scenario clock scale factor for wall-clock budgets (deadlines, retry
/// backoff, poll windows) — NOT for anything that affects an output. Wire
/// tests derive their timing assumptions from this so sanitizer builds
/// (ASan/TSan easily run 4-20x slower) don't race fixed sleeps. Resolution
/// order: the PDS_TIME_SCALE environment variable if set (clamped to
/// [1, 64]), else 4 when compiled under ASan/TSan, else 1. Read once and
/// cached; constant for the whole process.
uint32_t TimeScale();

/// `ms` scaled by TimeScale(), saturating at uint32 max. Use for every
/// wall-clock deadline/backoff a test passes to the wire runtime.
uint32_t ScaledMs(uint32_t ms);

}  // namespace pds

#endif  // PDS_COMMON_CLOCK_H_
