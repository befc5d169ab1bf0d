// The timing rules crypto_round_bench and paper_bench share: each
// measurement warms up once untimed, then reports the median of kReps
// timed samples.

#ifndef PDS_BENCH_TIMING_H_
#define PDS_BENCH_TIMING_H_

#include <algorithm>
#include <chrono>
#include <vector>

namespace pds::bench {

inline constexpr int kReps = 5;
inline constexpr double kSampleNs = 50e6;  // one NsPerOp sample, ~50 ms

/// Runs `sample` once untimed (warmup), then kReps timed samples. Returns
/// the median sample time in ns, or a negative value as soon as a sample
/// reports failure.
template <typename SampleFn>
double MedianOfReps(SampleFn sample) {
  if (!sample()) {
    return -1.0;
  }
  std::vector<double> ns;
  for (int rep = 0; rep < kReps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    const bool ok = sample();
    auto t1 = std::chrono::steady_clock::now();
    if (!ok) {
      return -1.0;
    }
    ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

/// Median ns per call of `op`, a call that reports success. One sample is
/// a batch of calls filling about kSampleNs, so microsecond calls are not
/// timed at clock resolution. Negative if a call fails.
template <typename Op>
double NsPerOp(Op op) {
  auto t0 = std::chrono::steady_clock::now();
  if (!op()) {
    return -1.0;
  }
  const double one_ns = std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  const int batch =
      std::max(1, static_cast<int>(kSampleNs / std::max(one_ns, 1.0)));
  const double ns = MedianOfReps([&] {
    bool ok = true;
    for (int i = 0; i < batch; ++i) {
      ok = op() && ok;
    }
    return ok;
  });
  return ns < 0 ? ns : ns / batch;
}

}  // namespace pds::bench

#endif  // PDS_BENCH_TIMING_H_
