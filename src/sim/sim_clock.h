#ifndef PDS_SIM_SIM_CLOCK_H_
#define PDS_SIM_SIM_CLOCK_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/clock.h"

/// pds::sim — the deterministic discrete-event simulation tier.
///
/// SimClock is a virtual monotonic clock plus a single-threaded event
/// queue. Nothing here knows about transports or protocols: events are
/// plain closures keyed by (fire time, insertion sequence), so two runs
/// that schedule the same closures in the same order execute them in the
/// same order — the foundation of the byte-identity anchor.
///
/// Everything in pds::sim is single-threaded by design: the protocol
/// "driver" (SsiServer) advances the queue from inside its blocking
/// Recv/SleepMs calls, and every other endpoint reacts from event context.
namespace pds::sim {

class SimClock final : public Clock {
 public:
  /// Virtual nanoseconds since the start of the simulation.
  [[nodiscard]] uint64_t NowNs() override { return now_ns_; }

  /// Advances virtual time by `ms`, running every event that comes due.
  void SleepMs(uint32_t ms) override {
    AdvanceTo(now_ns_ + static_cast<uint64_t>(ms) * 1000000ull);
  }

  /// Schedules `fn` to run at `at_ns` (clamped to now for past times).
  /// Events at the same instant run in scheduling order. Safe to call from
  /// inside a running event.
  void Schedule(uint64_t at_ns, std::function<void()> fn);

  /// Runs every event due up to and including `t_ns`, then sets the clock
  /// to `t_ns` (no-op if `t_ns` is in the past).
  void AdvanceTo(uint64_t t_ns);

  /// Pops and runs the single earliest event, advancing the clock to its
  /// fire time. Returns false (and leaves time untouched) when the queue
  /// is empty.
  bool RunOne();

  /// Fire time of the earliest pending event, or UINT64_MAX when idle.
  [[nodiscard]] uint64_t next_event_ns() const;

  [[nodiscard]] bool idle() const { return events_.empty(); }
  [[nodiscard]] size_t pending() const { return events_.size(); }
  [[nodiscard]] uint64_t events_run() const { return events_run_; }

 private:
  struct Event {
    uint64_t at_ns = 0;
    uint64_t seq = 0;  // tie-break: same-instant events run in FIFO order
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at_ns != b.at_ns) return a.at_ns > b.at_ns;
      return a.seq > b.seq;
    }
  };

  uint64_t now_ns_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_run_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> events_;
};

}  // namespace pds::sim

#endif  // PDS_SIM_SIM_CLOCK_H_
