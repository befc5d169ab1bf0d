#ifndef PDS_OBS_OBS_H_
#define PDS_OBS_OBS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

/// pds::obs — the unified tracing/metrics layer.
///
/// Every resource claim of the tutorial is quantified here through one of
/// two primitives:
///
///  - **Spans** (RAII, hierarchical): wall-time intervals recorded into a
///    preallocated, thread-safe trace buffer and exported as Chrome
///    `trace_event` JSON (load the file in chrome://tracing or Perfetto).
///    Protocol phases, SPJ pipeline stages, and search passes are spans.
///  - **Metrics** (named Counter / Gauge / Histogram): process-wide
///    aggregates registered once at setup and bumped with single atomic
///    operations on the hot path. Flash page ops, token↔SSI wire bytes,
///    and RAM high-water marks are metrics. Exported as flat JSON
///    (name → value → unit) checked by bench/validate_bench.py.
///
/// Cost discipline:
///  - Compile out entirely with -DPDS_OBS_ENABLED=0 (CMake: -DPDS_OBS=OFF).
///    Span becomes an empty struct and every mutator an inline no-op.
///  - At runtime, metrics are always live (one relaxed atomic add each);
///    the tracer is opt-in (`Tracer::Global().SetEnabled(true)`) and has a
///    sampler (`SetSampleEveryN`) that keeps 1 of every N root spans,
///    children following their root's fate.
///  - Embedded modules (embdb/search/logstore/flash/mcu) must hoist
///    registry lookups out of hot loops and use literal span names; the
///    pdslint rule `obs-in-embedded` enforces this.
#ifndef PDS_OBS_ENABLED
#define PDS_OBS_ENABLED 1
#endif

namespace pds::obs {

/// Double accumulator with CAS-loop add (std::atomic<double>::fetch_add is
/// not universally lock-free; this is portable and TSan-clean).
class AtomicF64 {
 public:
  void Add(double delta);
  void StoreMax(double v);
  void Store(double v);
  double Load() const;

 private:
  std::atomic<uint64_t> bits_{0};  // bit pattern of a double (0.0)
};

/// Monotonic event counter. `Add` is one relaxed atomic add.
class Counter {
 public:
  void Add(uint64_t n = 1) {
#if PDS_OBS_ENABLED
    v_.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Last-value gauge that also tracks the maximum ever set — the shape of a
/// RAM high-water mark.
class Gauge {
 public:
  void Set(double v) {
#if PDS_OBS_ENABLED
    value_.Store(v);
    max_.StoreMax(v);
#else
    (void)v;
#endif
  }
  double Value() const { return value_.Load(); }
  double max() const { return max_.Load(); }
  void Reset() {
    value_.Store(0);
    max_.Store(0);
  }

 private:
  AtomicF64 value_;
  AtomicF64 max_;
};

/// Count/sum/min/max plus an HDR-style log-linear bucket grid — enough for
/// tail-latency distributions without per-record allocation.
///
/// Layout: 32 power-of-two exponent ranges, each split into kSubBuckets
/// linear sub-buckets. A positive sample v with frexp(v) = m·2^e lands in
/// exponent e, sub-bucket floor((2m−1)·kSubBuckets). `Percentile` answers
/// with the midpoint of the selected sub-bucket, so the relative error of a
/// reported percentile for positive samples is bounded by
/// 1/(2·kSubBuckets) = 6.25% (then clamped into [min, max], which can only
/// shrink the error). tests/obs_test.cc asserts this bound over a sweep.
class Histogram {
 public:
  static constexpr size_t kBuckets = 32;
  static constexpr size_t kSubBuckets = 8;
  /// Documented worst-case relative error of Percentile() for samples > 0.
  static constexpr double kMaxRelativeError = 1.0 / (2.0 * kSubBuckets);

  Histogram() { Reset(); }  // arms the min sentinel

  void Record(double v);
  uint64_t count() const { return count_.Value(); }
  double sum() const { return sum_.Load(); }
  double min() const;
  double max() const { return max_.Load(); }
  double mean() const;
  /// Total count of exponent range `i` (sums its linear sub-buckets).
  uint64_t bucket(size_t i) const;
  /// Value at percentile `p` in [0, 100] (e.g. 50, 90, 99, 99.9); returns 0
  /// on an empty histogram. Error bound: kMaxRelativeError, see above.
  double Percentile(double p) const;
  void Reset();

 private:
  Counter count_;
  AtomicF64 sum_;
  AtomicF64 min_;  // stored negated so StoreMax tracks the minimum
  AtomicF64 max_;
  Counter sub_[kBuckets * kSubBuckets];
};

/// Find-or-create registry of named metrics. Lookups take a mutex — do them
/// once at setup and keep the returned pointer (stable for the process
/// lifetime); never look up per event on an embedded hot path.
class Registry {
 public:
  static Registry& Global();

  // Metric names and span labels surface in exported traces/JSON, outside
  // the token's trust boundary — secret-flow sinks, like the wire encoders.
  // pdslint: sink(GetCounter, GetGauge, GetHistogram, Intern, Span)
  Counter* GetCounter(std::string_view name, std::string_view unit = "count");
  Gauge* GetGauge(std::string_view name, std::string_view unit = "value");
  Histogram* GetHistogram(std::string_view name,
                          std::string_view unit = "value");

  /// Zeroes every registered metric (registration survives).
  void ResetValues();

  /// Flat JSON, BENCH_*.json style: {"records":[{"name","value","unit",...}]}.
  /// Counters export their value; gauges add "max"; histograms export count
  /// as the value plus "sum"/"min"/"max"/"mean".
  void ExportMetricsJson(std::ostream& out) const;
  std::string MetricsJson() const;

  /// One scalar per registered metric (counter value, gauge value, histogram
  /// count), in registration order — the raw material for delta snapshots.
  struct MetricValue {
    std::string name;
    double value = 0;
  };
  std::vector<MetricValue> SnapshotValues() const;

  size_t num_metrics() const;

 private:
  Registry();
  ~Registry();
  struct Impl;
  Impl* impl_;
};

/// Fixed-capacity ring of registry *delta* snapshots: each Capture records
/// which metrics changed since the previous capture (name, absolute value,
/// delta). The ring backs the live `kStats` admin frame — a peer polling the
/// SSI sees both the current registry and the recent per-round movement
/// without the SSI retaining unbounded history.
class SnapshotRing {
 public:
  struct Delta {
    std::string name;
    double value = 0;  // absolute value at capture time
    double delta = 0;  // change since the previous capture
  };
  struct Snapshot {
    uint64_t seq = 0;  // 1-based capture sequence number
    std::vector<Delta> deltas;
  };

  explicit SnapshotRing(size_t capacity = 8);

  /// Diffs `reg` against the last captured values; stores only metrics whose
  /// value moved (first capture: every nonzero metric). Oldest snapshot is
  /// evicted once the ring is full.
  void Capture(const Registry& reg);

  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t captures() const;
  std::vector<Snapshot> Snapshots() const;

  /// {"captures": N, "snapshots": [{"seq", "deltas": [...]}, ...]}
  void ExportJson(std::ostream& out) const;
  std::string Json() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  uint64_t captures_ = 0;
  std::map<std::string, double> last_;
  std::vector<Snapshot> ring_;  // ring_[0] oldest
};

/// One completed (or instant) span in the trace buffer. Names and categories
/// are borrowed pointers: string literals or Tracer::Intern results.
struct SpanEvent {
  const char* name = "";
  const char* category = "";
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t id = 0;      // unique per span
  uint64_t parent = 0;  // 0 = root (per thread)
  uint32_t tid = 0;     // dense trace-local thread id
  bool instant = false;
  uint8_t num_args = 0;
  const char* arg_key[2] = {nullptr, nullptr};
  double arg_val[2] = {0, 0};
};

/// Thread-safe hierarchical trace buffer. Storage is preallocated
/// (`SetCapacity`); once full, further spans are counted in `dropped()`
/// instead of allocating — the buffer never grows on the hot path.
class Tracer {
 public:
  static Tracer& Global();

  void SetEnabled(bool on);
  bool enabled() const {
#if PDS_OBS_ENABLED
    return enabled_.load(std::memory_order_relaxed);
#else
    return false;
#endif
  }

  /// Record 1 of every `n` root spans (children follow their root). 1 = all.
  void SetSampleEveryN(uint32_t n);

  /// Preallocates space for `events`; also clears the buffer.
  void SetCapacity(size_t events);

  void Clear();
  size_t num_events() const;
  uint64_t dropped() const;
  std::vector<SpanEvent> Events() const;

  /// Zero-duration marker event (Chrome "instant"), e.g. a protocol's
  /// leakage report attached to the timeline.
  void Instant(const char* name, const char* category,
               const char* key0 = nullptr, double val0 = 0,
               const char* key1 = nullptr, double val1 = 0);

  /// Copies `name` into tracer-owned storage and returns a stable pointer;
  /// for span names composed at *setup* time (never per event).
  const char* Intern(std::string_view name);

  /// Chrome trace_event JSON (chrome://tracing, Perfetto, speedscope).
  void ExportChromeTrace(std::ostream& out) const;
  std::string ChromeTraceJson() const;

 private:
  friend class Span;
  Tracer();
  ~Tracer();

  void Append(const SpanEvent& event);

  struct Impl;
  Impl* impl_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> sample_n_{1};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> root_seq_{0};
  std::atomic<uint64_t> dropped_{0};
};

/// Parent carried across a process/transport boundary by the wire
/// trace-context header: the remote span id a local root span should hang
/// under, plus the remote root's sampling decision (which replaces the
/// local root sampler — the remote side already chose keep/drop for the
/// whole distributed trace).
struct RemoteParent {
  uint64_t span_id = 0;
  bool sampled = false;
};

/// RAII span: times a scope and records it into Tracer::Global() with the
/// enclosing span (same thread) as parent. Name/category must outlive the
/// tracer (string literals, or Tracer::Intern at setup).
class Span {
 public:
#if PDS_OBS_ENABLED
  explicit Span(const char* name, const char* category = "app") {
    Begin(name, category, false, RemoteParent{});
  }
  /// Span whose parent arrived over the wire. With an empty local span
  /// stack, `remote.span_id` becomes the parent and `remote.sampled` decides
  /// recording; nested under a local span, behaves like the plain ctor.
  Span(const char* name, const char* category, RemoteParent remote) {
    Begin(name, category, true, remote);
  }
  ~Span() { End(); }

  /// Attaches up to two numeric args, shown in the trace viewer.
  void AddArg(const char* key, double value);

  /// Span id for trace-context propagation; 0 when not recorded (tracer
  /// off, sampled out, or suppressed).
  uint64_t id() const { return recorded_ ? id_ : 0; }

 private:
  void Begin(const char* name, const char* category, bool has_remote,
             RemoteParent remote);
  void End();

  const char* name_ = "";
  const char* category_ = "";
  uint64_t start_ns_ = 0;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  bool recorded_ = false;
  bool suppressing_ = false;
  uint8_t num_args_ = 0;
  const char* arg_key_[2] = {nullptr, nullptr};
  double arg_val_[2] = {0, 0};
#else
  explicit Span(const char*, const char* = "app") {}
  Span(const char*, const char*, RemoteParent) {}
  void AddArg(const char*, double) {}
  uint64_t id() const { return 0; }
#endif

 public:
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

}  // namespace pds::obs

#endif  // PDS_OBS_OBS_H_
