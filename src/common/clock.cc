#include "common/clock.h"

#include <chrono>
#include <cstdlib>
#include <limits>
#include <thread>

namespace pds {

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr uint32_t kBuildScale = 4;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr uint32_t kBuildScale = 4;
#else
constexpr uint32_t kBuildScale = 1;
#endif
#else
constexpr uint32_t kBuildScale = 1;
#endif

uint32_t ResolveTimeScale() {
  const char* env = std::getenv("PDS_TIME_SCALE");
  if (env != nullptr && env[0] != '\0') {
    long v = std::strtol(env, nullptr, 10);
    if (v < 1) v = 1;
    if (v > 64) v = 64;
    return static_cast<uint32_t>(v);
  }
  return kBuildScale;
}

class SteadyWallClock final : public Clock {
 public:
  [[nodiscard]] uint64_t NowNs() override {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  void SleepMs(uint32_t ms) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
};

}  // namespace

Clock* WallClock() {
  static SteadyWallClock clock;
  return &clock;
}

uint64_t MonotonicNanos() { return WallClock()->NowNs(); }

uint32_t TimeScale() {
  static const uint32_t scale = ResolveTimeScale();
  return scale;
}

uint32_t ScaledMs(uint32_t ms) {
  uint64_t scaled = static_cast<uint64_t>(ms) * TimeScale();
  if (scaled > std::numeric_limits<uint32_t>::max()) {
    return std::numeric_limits<uint32_t>::max();
  }
  return static_cast<uint32_t>(scaled);
}

}  // namespace pds
