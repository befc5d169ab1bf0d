#include "obs/obs.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>

#include "common/clock.h"

namespace pds::obs {

namespace {

uint64_t BitsOf(double d) {
  uint64_t b;
  std::memcpy(&b, &d, 8);
  return b;
}

double DoubleOf(uint64_t b) {
  double d;
  std::memcpy(&d, &b, 8);
  return d;
}

/// Escapes the handful of JSON-hostile characters span names could contain.
void JsonEscape(std::ostream& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) out << c;
    }
  }
}

void JsonNumber(std::ostream& out, double v) {
  if (std::isfinite(v) && v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::abs(v) < 9.0e15) {
    out << static_cast<int64_t>(v);
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", std::isfinite(v) ? v : 0.0);
  out << buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// AtomicF64
// ---------------------------------------------------------------------------

void AtomicF64::Add(double delta) {
  uint64_t cur = bits_.load(std::memory_order_relaxed);
  while (!bits_.compare_exchange_weak(cur, BitsOf(DoubleOf(cur) + delta),
                                      std::memory_order_relaxed)) {
  }
}

void AtomicF64::StoreMax(double v) {
  uint64_t cur = bits_.load(std::memory_order_relaxed);
  while (DoubleOf(cur) < v &&
         !bits_.compare_exchange_weak(cur, BitsOf(v),
                                      std::memory_order_relaxed)) {
  }
}

void AtomicF64::Store(double v) {
  bits_.store(BitsOf(v), std::memory_order_relaxed);
}

double AtomicF64::Load() const {
  return DoubleOf(bits_.load(std::memory_order_relaxed));
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

namespace {

/// Midpoint of sub-bucket `sub` of exponent range `exp`: the range
/// [2^(exp-1), 2^exp) is split into kSubBuckets equal linear slices.
double SubBucketMidpoint(size_t exp, size_t sub) {
  return std::ldexp(
      1.0 + (static_cast<double>(sub) + 0.5) / Histogram::kSubBuckets,
      static_cast<int>(exp) - 1);
}

}  // namespace

void Histogram::Record(double v) {
#if PDS_OBS_ENABLED
  count_.Add(1);
  sum_.Add(v);
  min_.StoreMax(-v);  // negated: the max of -v is the min of v
  max_.StoreMax(v);
  size_t slot = 0;  // v <= 0 and subnormal tails land in the lowest slot
  if (v > 0) {
    int exp = 0;
    double m = std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
    if (exp >= static_cast<int>(kBuckets)) {
      slot = kBuckets * kSubBuckets - 1;
    } else if (exp >= 0) {
      int sub = static_cast<int>((m * 2.0 - 1.0) *
                                 static_cast<double>(kSubBuckets));
      if (sub < 0) sub = 0;
      if (sub >= static_cast<int>(kSubBuckets)) sub = kSubBuckets - 1;
      slot = static_cast<size_t>(exp) * kSubBuckets +
             static_cast<size_t>(sub);
    }
  }
  sub_[slot].Add(1);
#else
  (void)v;
#endif
}

uint64_t Histogram::bucket(size_t i) const {
  uint64_t n = 0;
  for (size_t s = 0; s < kSubBuckets; ++s) {
    n += sub_[i * kSubBuckets + s].Value();
  }
  return n;
}

double Histogram::Percentile(double p) const {
  uint64_t n = count();
  if (n == 0) return 0.0;
  if (p <= 0.0) return min();
  if (p >= 100.0) return max();
  uint64_t rank = static_cast<uint64_t>(std::ceil(p / 100.0 *
                                                  static_cast<double>(n)));
  if (rank < 1) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets * kSubBuckets; ++i) {
    seen += sub_[i].Value();
    if (seen >= rank) {
      double rep = SubBucketMidpoint(i / kSubBuckets, i % kSubBuckets);
      // Clamp into the observed range: the extreme buckets cover values the
      // histogram never saw, and min/max are tracked exactly.
      if (rep < min()) rep = min();
      if (rep > max()) rep = max();
      return rep;
    }
  }
  return max();
}

double Histogram::min() const { return count() == 0 ? 0.0 : -min_.Load(); }

double Histogram::mean() const {
  uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

void Histogram::Reset() {
  count_.Reset();
  sum_.Store(0);
  min_.Store(-std::numeric_limits<double>::infinity());
  max_.Store(0);
  for (Counter& b : sub_) b.Reset();
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

namespace {
enum class MetricKind { kCounter, kGauge, kHistogram };
}  // namespace

struct Registry::Impl {
  struct Entry {
    std::string name;
    std::string unit;
    MetricKind kind = MetricKind::kCounter;
    Counter counter;
    Gauge gauge;
    Histogram hist;
  };

  mutable std::mutex mu;
  std::deque<Entry> entries;  // deque: pointers stay stable forever
  std::map<std::string, Entry*, std::less<>> by_name;

  Entry* FindOrCreate(std::string_view name, std::string_view unit,
                      MetricKind kind) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = by_name.find(name);
    if (it != by_name.end()) return it->second;
    entries.emplace_back();
    Entry* e = &entries.back();
    e->name = std::string(name);
    e->unit = std::string(unit);
    e->kind = kind;
    by_name.emplace(e->name, e);
    return e;
  }
};

Registry::Registry() : impl_(new Impl) {}
Registry::~Registry() { delete impl_; }

Registry& Registry::Global() {
  // Leaked on purpose: metric pointers handed out at setup must stay valid
  // through static destruction.
  static Registry* global = new Registry();
  return *global;
}

Counter* Registry::GetCounter(std::string_view name, std::string_view unit) {
  return &impl_->FindOrCreate(name, unit, MetricKind::kCounter)->counter;
}

Gauge* Registry::GetGauge(std::string_view name, std::string_view unit) {
  return &impl_->FindOrCreate(name, unit, MetricKind::kGauge)->gauge;
}

Histogram* Registry::GetHistogram(std::string_view name,
                                  std::string_view unit) {
  return &impl_->FindOrCreate(name, unit, MetricKind::kHistogram)->hist;
}

void Registry::ResetValues() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (Impl::Entry& e : impl_->entries) {
    e.counter.Reset();
    e.gauge.Reset();
    e.hist.Reset();
  }
}

size_t Registry::num_metrics() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->entries.size();
}

void Registry::ExportMetricsJson(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  out << "{\n  \"records\": [";
  bool first = true;
  for (const Impl::Entry& e : impl_->entries) {
    if (!first) out << ',';
    first = false;
    out << "\n    {\"name\": \"";
    JsonEscape(out, e.name);
    out << "\", \"kind\": \"";
    switch (e.kind) {
      case MetricKind::kCounter: out << "counter"; break;
      case MetricKind::kGauge: out << "gauge"; break;
      case MetricKind::kHistogram: out << "histogram"; break;
    }
    out << "\", \"value\": ";
    switch (e.kind) {
      case MetricKind::kCounter:
        out << e.counter.Value();
        break;
      case MetricKind::kGauge:
        JsonNumber(out, e.gauge.Value());
        out << ", \"max\": ";
        JsonNumber(out, e.gauge.max());
        break;
      case MetricKind::kHistogram:
        out << e.hist.count();
        out << ", \"sum\": ";
        JsonNumber(out, e.hist.sum());
        out << ", \"min\": ";
        JsonNumber(out, e.hist.min());
        out << ", \"max\": ";
        JsonNumber(out, e.hist.max());
        out << ", \"mean\": ";
        JsonNumber(out, e.hist.mean());
        break;
    }
    out << ", \"unit\": \"";
    JsonEscape(out, e.unit);
    out << "\"}";
  }
  out << "\n  ]\n}\n";
}

std::string Registry::MetricsJson() const {
  std::ostringstream out;
  ExportMetricsJson(out);
  return out.str();
}

std::vector<Registry::MetricValue> Registry::SnapshotValues() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<MetricValue> values;
  values.reserve(impl_->entries.size());
  for (const Impl::Entry& e : impl_->entries) {
    double v = 0;
    switch (e.kind) {
      case MetricKind::kCounter:
        v = static_cast<double>(e.counter.Value());
        break;
      case MetricKind::kGauge:
        v = e.gauge.Value();
        break;
      case MetricKind::kHistogram:
        v = static_cast<double>(e.hist.count());
        break;
    }
    values.push_back({e.name, v});
  }
  return values;
}

// ---------------------------------------------------------------------------
// SnapshotRing
// ---------------------------------------------------------------------------

SnapshotRing::SnapshotRing(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void SnapshotRing::Capture(const Registry& reg) {
  std::vector<Registry::MetricValue> values = reg.SnapshotValues();
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.seq = ++captures_;
  for (const Registry::MetricValue& mv : values) {
    auto it = last_.find(mv.name);
    double prev = it == last_.end() ? 0.0 : it->second;
    if (mv.value != prev) {
      snap.deltas.push_back({mv.name, mv.value, mv.value - prev});
    }
    last_[mv.name] = mv.value;
  }
  if (ring_.size() == capacity_) ring_.erase(ring_.begin());
  ring_.push_back(std::move(snap));
}

size_t SnapshotRing::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

uint64_t SnapshotRing::captures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return captures_;
}

std::vector<SnapshotRing::Snapshot> SnapshotRing::Snapshots() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_;
}

void SnapshotRing::ExportJson(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"captures\": " << captures_ << ", \"snapshots\": [";
  bool first_snap = true;
  for (const Snapshot& snap : ring_) {
    if (!first_snap) out << ',';
    first_snap = false;
    out << "\n  {\"seq\": " << snap.seq << ", \"deltas\": [";
    bool first_delta = true;
    for (const Delta& d : snap.deltas) {
      if (!first_delta) out << ',';
      first_delta = false;
      out << "\n    {\"name\": \"";
      JsonEscape(out, d.name);
      out << "\", \"value\": ";
      JsonNumber(out, d.value);
      out << ", \"delta\": ";
      JsonNumber(out, d.delta);
      out << '}';
    }
    out << "]}";
  }
  out << "\n]}\n";
}

std::string SnapshotRing::Json() const {
  std::ostringstream out;
  ExportJson(out);
  return out.str();
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

struct Tracer::Impl {
  mutable std::mutex mu;
  std::vector<SpanEvent> events;
  size_t capacity = 1 << 16;
  std::deque<std::string> interned;
  std::atomic<uint32_t> next_tid{1};
};

namespace {

/// Per-thread span bookkeeping for Tracer::Global(): the dense thread id
/// and the ids of the open recorded spans, innermost last.
struct ThreadState {
  uint32_t tid = 0;
  std::vector<uint64_t> stack;
};

ThreadState& Tls() {
  static thread_local ThreadState state;
  return state;
}

}  // namespace

Tracer::Tracer() : impl_(new Impl) { impl_->events.reserve(impl_->capacity); }
Tracer::~Tracer() { delete impl_; }

Tracer& Tracer::Global() {
  static Tracer* global = new Tracer();  // leaked, like the Registry
  return *global;
}

void Tracer::SetEnabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

void Tracer::SetCapacity(size_t events) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->capacity = events;
  impl_->events.clear();
  impl_->events.reserve(events);
  dropped_.store(0, std::memory_order_relaxed);
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->events.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

size_t Tracer::num_events() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->events.size();
}

uint64_t Tracer::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

std::vector<SpanEvent> Tracer::Events() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->events;
}

void Tracer::Append(const SpanEvent& event) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (impl_->events.size() >= impl_->capacity) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  impl_->events.push_back(event);
}

void Tracer::Instant(const char* name, const char* category, const char* key0,
                     double val0, const char* key1, double val1) {
  if (!enabled()) return;
  ThreadState& ts = Tls();
  if (ts.tid == 0) ts.tid = impl_->next_tid.fetch_add(1);
  SpanEvent e;
  e.name = name;
  e.category = category;
  e.start_ns = MonotonicNanos();
  e.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  e.parent = ts.stack.empty() ? 0 : ts.stack.back();
  e.tid = ts.tid;
  e.instant = true;
  if (key0 != nullptr) {
    e.arg_key[e.num_args] = key0;
    e.arg_val[e.num_args] = val0;
    ++e.num_args;
  }
  if (key1 != nullptr) {
    e.arg_key[e.num_args] = key1;
    e.arg_val[e.num_args] = val1;
    ++e.num_args;
  }
  Append(e);
}

const char* Tracer::Intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (const std::string& s : impl_->interned) {
    if (s == name) return s.c_str();
  }
  impl_->interned.emplace_back(name);
  return impl_->interned.back().c_str();
}

void Tracer::ExportChromeTrace(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  uint64_t base = 0;
  for (const SpanEvent& e : impl_->events) {
    if (base == 0 || e.start_ns < base) base = e.start_ns;
  }
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const SpanEvent& e : impl_->events) {
    if (!first) out << ',';
    first = false;
    out << "\n{\"name\": \"";
    JsonEscape(out, e.name);
    out << "\", \"cat\": \"";
    JsonEscape(out, e.category);
    out << "\", \"ph\": \"" << (e.instant ? 'i' : 'X') << "\", \"ts\": ";
    JsonNumber(out, static_cast<double>(e.start_ns - base) / 1000.0);
    if (!e.instant) {
      out << ", \"dur\": ";
      JsonNumber(out, static_cast<double>(e.dur_ns) / 1000.0);
    } else {
      out << ", \"s\": \"t\"";
    }
    out << ", \"pid\": 1, \"tid\": " << e.tid;
    out << ", \"args\": {\"span_id\": " << e.id << ", \"parent\": "
        << e.parent;
    for (uint8_t a = 0; a < e.num_args; ++a) {
      out << ", \"";
      JsonEscape(out, e.arg_key[a]);
      out << "\": ";
      JsonNumber(out, e.arg_val[a]);
    }
    out << "}}";
  }
  out << "\n]}\n";
}

std::string Tracer::ChromeTraceJson() const {
  std::ostringstream out;
  ExportChromeTrace(out);
  return out.str();
}

// ---------------------------------------------------------------------------
// Span
// ---------------------------------------------------------------------------

#if PDS_OBS_ENABLED

void Span::Begin(const char* name, const char* category,
                 RemoteParent remote) {
  name_ = name;
  category_ = category;
  Tracer& tracer = Tracer::Global();
  if (!tracer.enabled()) return;
  ThreadState& ts = Tls();
  if (ts.tid == 0) ts.tid = tracer.impl_->next_tid.fetch_add(1);
  recorded_ = true;
  id_ = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  parent_ = ts.stack.empty() ? remote.span_id : ts.stack.back();
  ts.stack.push_back(id_);
  start_ns_ = MonotonicNanos();
}

void Span::End() {
  if (!recorded_) return;
  ThreadState& ts = Tls();
  ts.stack.pop_back();
  SpanEvent e;
  e.name = name_;
  e.category = category_;
  e.start_ns = start_ns_;
  e.dur_ns = MonotonicNanos() - start_ns_;
  e.id = id_;
  e.parent = parent_;
  e.tid = ts.tid;
  e.num_args = num_args_;
  for (uint8_t a = 0; a < num_args_; ++a) {
    e.arg_key[a] = arg_key_[a];
    e.arg_val[a] = arg_val_[a];
  }
  Tracer::Global().Append(e);
}

void Span::AddArg(const char* key, double value) {
  if (!recorded_ || num_args_ >= 2) return;
  arg_key_[num_args_] = key;
  arg_val_[num_args_] = value;
  ++num_args_;
}

#endif  // PDS_OBS_ENABLED

}  // namespace pds::obs
