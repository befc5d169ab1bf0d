// paper_bench's record type and the two halves of its experiment list:
// paper_part2.cc runs the tutorial's Part II (the embedded engine: E1-E5,
// E12 and the RAM-budget ablation), paper_part3.cc its Part III (global
// computation over a fleet: E6-E11). bench/validate_bench.py checks each
// experiment's shape claim against the records.

#ifndef PDS_BENCH_PAPER_BENCH_H_
#define PDS_BENCH_PAPER_BENCH_H_

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/result.h"

#include "timing.h"

namespace pds::bench {

/// One BENCH_paper.json record: {"exp": ..., "series": ..., fields...},
/// fields in the order they are set.
class Record {
 public:
  Record(const char* exp, const char* series) {
    Str("exp", exp);
    Str("series", series);
  }

  Record& Num(const char* key, double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return Raw(key, buf);
  }
  Record& Str(const char* key, const std::string& v) {
    return Raw(key, "\"" + v + "\"");
  }
  Record& Bool(const char* key, bool v) {
    return Raw(key, v ? "true" : "false");
  }

  std::string json() const { return json_ + "}"; }

 private:
  /// `json` must already be a JSON value.
  Record& Raw(const char* key, const std::string& json) {
    json_ += json_.empty() ? "{\"" : ", \"";
    json_ += std::string(key) + "\": " + json;
    return *this;
  }

  std::string json_;
};

using Records = std::vector<Record>;

/// Median ns per call of `op`, or an error naming `what` if a call fails.
/// A call of a millisecond or more is timed alone (MedianOfReps), a shorter
/// one in batches (NsPerOp): batching only helps near clock resolution.
template <typename Op>
Result<double> TimeOp(const std::string& what, Op op) {
  const auto t0 = std::chrono::steady_clock::now();
  const bool ok = op();
  const std::chrono::duration<double, std::nano> one =
      std::chrono::steady_clock::now() - t0;
  const double ns = !ok                  ? -1.0
                    : one.count() >= 1e6 ? MedianOfReps(op)
                                         : NsPerOp(op);
  if (ns < 0) {
    return Status::Internal(what + " failed while timed");
  }
  return ns;
}

Status RunPart2(Records* out);
Status RunPart3(Records* out);

}  // namespace pds::bench

#endif  // PDS_BENCH_PAPER_BENCH_H_
