#ifndef PDSBENCH_BENCH_H_
#define PDSBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

/// pdsbench — the libpds benchmark driver.
///
/// One process runs one workload: it sets the workload up several times
/// (setup_s is the median), then runs the workload's operation in a closed
/// loop (one client that waits for each answer) for --seconds, checking
/// every answer. An untraced run prints the end-to-end metrics; a traced
/// run (--trace 1) alternates untraced and traced operations and prints the
/// per-layer metrics, with span self times grouped by module.
namespace pdsbench {

/// FleetExecutor threads never exceed min(nproc, kMaxThreads).
inline constexpr size_t kMaxThreads = 4;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Provenance handed in by run.py (the driver cannot see git itself).
  std::string commit = "unknown";
  std::string dirty = "unknown";
  std::string source_sha256 = "unknown";
  /// Executor threads: min(nproc, kMaxThreads), fixed by main().
  size_t threads = 1;
};

/// Metrics by name, each with its unit; a later Set overwrites.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = Entry{value, unit};
  }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  struct Entry {
    double value = 0;
    std::string unit;
  };
  const std::map<std::string, Entry>& values() const { return values_; }

 private:
  std::map<std::string, Entry> values_;
};

/// Span times of the traced operations, summed over `ops` operations.
/// Main-thread spans hang under the driver's "bench.op" root; spans on
/// executor worker threads are kept apart, since they overlap the main
/// thread's wall time instead of adding to it.
struct TraceSummary {
  size_t ops = 0;
  double wall_ms = 0;  // steady-clock wall time of the traced operations
  std::map<std::string, double> self_ms;    // main thread, by span name
  std::map<std::string, double> total_ms;   // main thread, by span name
  std::map<std::string, double> worker_ms;  // worker threads, by span name
  std::map<std::string, double> layer_ms;   // main-thread self, by layer

  /// Per-operation mean of a by-name map entry (0 when absent).
  double PerOp(const std::map<std::string, double>& m,
               const std::string& name) const;
  /// Per-operation sum of every entry whose name starts with `prefix`.
  double PerOpPrefix(const std::map<std::string, double>& m,
                     const std::string& prefix) const;
};

/// One benchmark workload. The harness owns the loop and the clock; a
/// workload owns its state, its answers and its layer counters.
class Workload {
 public:
  virtual ~Workload() = default;

  /// What one operation is, for the report ("group-by round", ...).
  virtual const char* op_name() const = 0;
  /// Builds the workload's state from the seed, dropping any previous one.
  /// Timed: the median over the repetitions is setup_s.
  virtual pds::Status Setup() = 0;
  /// Untimed preparation before each operation (e.g. a fresh flash chip).
  virtual pds::Status PrepareOp() { return pds::Status::Ok(); }
  /// One closed-loop operation: the only timed region. `count` asks the
  /// workload to add the operation's layer counters to its totals; traced
  /// operations pass false, since tracing changes what goes on the wire.
  virtual pds::Status Op(bool count) = 0;
  /// Checks the answer of the last Op against a reference (untimed).
  /// Returns false, after printing why to stderr, on a wrong answer.
  virtual bool CheckLastOp() = 0;
  /// Per-layer metrics of a traced run: counter totals of the counted
  /// operations, timed calls into layer APIs, and span times.
  virtual pds::Status LayerMetrics(const TraceSummary& trace,
                                   MetricSet* out) = 0;
};

std::unique_ptr<Workload> MakeFleetSecureAgg(const Options& opts);
std::unique_ptr<Workload> MakeFleetPackedPaillier(const Options& opts);
std::unique_ptr<Workload> MakeTokenPds(const Options& opts);

/// Runs one workload as described above and prints the report line and
/// the result line. Returns the process exit code.
int Run(const Options& opts, Workload* workload);

// ---- helpers shared by the workloads ----

/// Steady-clock milliseconds since an arbitrary origin.
double NowMs();

/// Median of `v` (0 for an empty vector).
double Median(std::vector<double> v);

/// Nearest-rank percentile `p` in [0, 100] of `v` (0 for an empty vector).
double Percentile(std::vector<double> v, double p);

/// A numeric /proc/self/status field (VmHWM and VmRSS are in kB, Threads
/// is a count); 0 when unreadable.
uint64_t ProcStatus(const char* key);

/// Mean wall time of one `call` in nanoseconds: batches of calls run until
/// `budget_ms` is spent and the median batch mean is returned. A call
/// returning false aborts the timing and yields a negative value.
double TimeCallNs(const std::function<bool()>& call, double budget_ms);

}  // namespace pdsbench

#endif  // PDSBENCH_BENCH_H_
