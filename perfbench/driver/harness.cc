#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <thread>
#include <utility>

#include "bench.h"
#include "crypto/montgomery_simd.h"
#include "obs/obs.h"

namespace pdsbench {

namespace {

/// The end-to-end metrics every untraced run prints (BENCHMARK.json).
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},
    {"op_p50_busy_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

/// The per-layer metrics every traced run prints (BENCHMARK.json). A layer
/// that does no work on a workload reports 0 there.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"net.frames_per_tuple", "count"},
    {"net.bytes_per_frame", "B"},
    {"net.wire_bytes_per_tuple", "B"},
    {"net.codec_ns_per_frame", "ns"},
    {"net.ssi_self_ms", "ms"},
    {"net.token_handler_ms", "ms"},
    {"net.retries", "count"},
    {"net.deadline_hits", "count"},
    {"net.frame_rejects", "count"},
    {"net.self_ms", "ms"},
    {"mcu.sym_ops_per_tuple", "count"},
    {"mcu.encrypt_nondet_us", "us"},
    {"mcu.decrypt_nondet_us", "us"},
    {"mcu.ram_high_water_bytes", "B"},
    {"sim.events_per_round", "count"},
    {"sim.rss_bytes_per_token", "B"},
    {"sim.estimate_bytes_per_token", "B"},
    {"crypto.keygen_ms", "ms"},
    {"crypto.encrypt_packed_us", "us"},
    {"crypto.fold_us", "us"},
    {"crypto.decrypt_unpack_ms", "ms"},
    {"crypto.asym_ops_per_round", "count"},
    {"global.rounds", "count"},
    {"global.encrypt_phase_ms", "ms"},
    {"global.ssi_fold_ms", "ms"},
    {"global.executor_efficiency", "ratio"},
    {"global.self_ms", "ms"},
    {"flash.reads_per_spj", "count"},
    {"flash.reads_per_search", "count"},
    {"flash.programs_ingest", "count"},
    {"flash.erases_ingest", "count"},
    {"flash.device_ms_per_spj", "ms"},
    {"flash.device_ms_per_search", "ms"},
    {"flash.read_page_ns", "ns"},
    {"logstore.sort_page_reads", "count"},
    {"logstore.sort_ms", "ms"},
    {"logstore.self_ms", "ms"},
    {"embdb.tselect_ms", "ms"},
    {"embdb.merge_ms", "ms"},
    {"embdb.join_fetch_ms", "ms"},
    {"embdb.rows_per_query", "count"},
    {"embdb.spj_p50_ms", "ms"},
    {"embdb.spj_p99_ms", "ms"},
    {"embdb.ram_peak_bytes", "B"},
    {"embdb.load_s", "s"},
    {"embdb.self_ms", "ms"},
    {"search.df_pass_ms", "ms"},
    {"search.merge_pass_ms", "ms"},
    {"search.postings_per_query", "count"},
    {"search.add_document_us", "us"},
    {"search.ram_high_water_bytes", "B"},
    {"search.query_p50_ms", "ms"},
    {"search.query_p99_ms", "ms"},
    {"search.self_ms", "ms"},
    {"unattributed_ms", "ms"},
    {"obs.trace_overhead_pct", "%"},
};

/// Layers whose span self time is printed as "<layer>.self_ms".
const char* const kSpanLayers[] = {"net", "global", "embdb", "search",
                                   "logstore"};

constexpr int kSetupReps = 5;
constexpr size_t kMinOps = 3;
/// Latency window: long enough to hold many short operations, short enough
/// that a run holds dozens. On a shared host, other tenants slow execution
/// by up to 2x for stretches of seconds to minutes, and how much of a run
/// they cover varies from run to run, while the contended speed itself is
/// steady. The reported latency is therefore the upper decile of the window
/// medians: the median latency of the run's contended stretches.
constexpr double kWindowMs = 250;
constexpr double kBusyPct = 90;
constexpr size_t kTraceCapacity = size_t{1} << 18;
/// Slack allowed between the span tree and the steady clock (ns).
constexpr double kTraceSlackNs = 1000;

/// The module a span belongs to: its name's prefix up to the first dot,
/// with the global protocols' spans (category "protocol") and the fleet
/// executor's spans folded into "global".
std::string LayerOf(const pds::obs::SpanEvent& e) {
  if (std::strcmp(e.category, "protocol") == 0) {
    return "global";
  }
  std::string name(e.name);
  std::string prefix = name.substr(0, name.find('.'));
  if (prefix == "fleet") {
    return "global";
  }
  for (const char* layer : {"net", "mcu", "sim", "crypto", "global", "flash",
                            "logstore", "embdb", "search"}) {
    if (prefix == layer) {
      return prefix;
    }
  }
  return "other";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string HostName() {
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) != 0) {
    return "unknown";
  }
  return buf;
}

std::string ProvenanceJson(const Options& opts) {
  std::ostringstream o;
  o << "{\"commit\": " << JsonString(opts.commit)
    << ", \"dirty\": " << JsonString(opts.dirty)
    << ", \"source_sha256\": " << JsonString(opts.source_sha256)
    << ", \"build_type\": " << JsonString(PDSBENCH_BUILD_TYPE)
    << ", \"compiler\": " << JsonString(PDSBENCH_COMPILER)
    << ", \"host\": " << JsonString(HostName())
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"executor_threads\": " << opts.threads
    << ", \"thread_cap\": " << kMaxThreads
    << ", \"simd_kernel\": " << JsonString(pds::crypto::simd::KernelName())
    << ", \"obs_compiled\": " << PDS_OBS_ENABLED
    << ", \"workload\": " << JsonString(opts.workload)
    << ", \"seed\": " << opts.seed
    << ", \"seconds\": " << JsonNumber(opts.seconds)
    << ", \"trace\": " << (opts.trace ? 1 : 0) << "}";
  return o.str();
}

/// Folds one traced operation's spans into `summary`. Returns false when
/// the span tree does not account for the operation: a main-thread span
/// outside the "bench.op" root, a negative self time, or a root longer
/// than the steady-clock wall time around it.
bool Attribute(const std::vector<pds::obs::SpanEvent>& events, double wall_ms,
               TraceSummary* summary, std::string* why) {
  const pds::obs::SpanEvent* root = nullptr;
  for (const auto& e : events) {
    if (!e.instant && std::strcmp(e.name, "bench.op") == 0) {
      if (root != nullptr) {
        *why = "two bench.op roots in one operation";
        return false;
      }
      root = &e;
    }
  }
  if (root == nullptr) {
    *why = "no bench.op root span recorded";
    return false;
  }
  std::map<uint64_t, uint64_t> child_ns;
  std::map<uint64_t, bool> on_main;
  for (const auto& e : events) {
    if (!e.instant && e.tid == root->tid) {
      on_main[e.id] = true;
      child_ns[e.parent] += e.dur_ns;
    }
  }
  double layers_ns = 0;
  for (const auto& e : events) {
    if (e.instant) {
      continue;
    }
    std::string name(e.name);
    if (e.tid != root->tid) {
      summary->worker_ms[name] += static_cast<double>(e.dur_ns) / 1e6;
      continue;
    }
    double self = static_cast<double>(e.dur_ns) -
                  static_cast<double>(child_ns[e.id]);
    if (self < -kTraceSlackNs) {
      *why = "span " + name + " has negative self time";
      return false;
    }
    if (&e == root) {
      continue;  // the root's own self time is the unattributed time
    }
    if (on_main.count(e.parent) == 0) {
      *why = "span " + name + " escapes the bench.op root";
      return false;
    }
    layers_ns += self;
    summary->self_ms[name] += self / 1e6;
    summary->total_ms[name] += static_cast<double>(e.dur_ns) / 1e6;
    summary->layer_ms[LayerOf(e)] += self / 1e6;
  }
  if (static_cast<double>(root->dur_ns) > wall_ms * 1e6 + kTraceSlackNs ||
      layers_ns > static_cast<double>(root->dur_ns) + kTraceSlackNs) {
    *why = "span times exceed the operation's wall time";
    return false;
  }
  summary->wall_ms += wall_ms;
  summary->ops += 1;
  return true;
}

class Runner {
 public:
  Runner(const Options& opts, Workload* w) : opts_(opts), w_(w) {}

  int Main();

 private:
  /// Runs one prepared, timed and checked operation; returns its wall time
  /// in ms, or a negative value when it failed or gave a wrong answer.
  double OneOp(bool traced, bool count);
  void Warn(const std::string& what) {
    std::cerr << "pdsbench: " << opts_.workload << ": " << what << "\n";
  }

  const Options& opts_;
  Workload* w_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool self_check_ok_ = true;  // trace and catalog checks
  TraceSummary summary_;
};

double Runner::OneOp(bool traced, bool count) {
  ++attempted_;
  pds::Status prepared = w_->PrepareOp();
  if (!prepared.ok()) {
    ++failed_;
    Warn("PrepareOp: " + prepared.ToString());
    return -1;
  }
  pds::obs::Tracer& tracer = pds::obs::Tracer::Global();
  if (traced) {
    tracer.Clear();
    tracer.SetEnabled(true);
  }
  pds::Status status;
  const double t0 = NowMs();
  {
    pds::obs::Span root("bench.op", "bench");
    status = w_->Op(count);
  }
  const double wall = NowMs() - t0;
  if (traced) {
    tracer.SetEnabled(false);
    std::string why;
    if (tracer.dropped() != 0) {
      self_check_ok_ = false;
      Warn("trace buffer dropped spans");
    } else if (!Attribute(tracer.Events(), wall, &summary_, &why)) {
      self_check_ok_ = false;
      Warn("trace self-check: " + why);
    }
  }
  if (!status.ok()) {
    ++failed_;
    Warn(std::string(w_->op_name()) + ": " + status.ToString());
    return -1;
  }
  if (!w_->CheckLastOp()) {
    ++failed_;
    return -1;
  }
  return wall;
}

int Runner::Main() {
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = NowMs();
    pds::Status s = w_->Setup();
    if (!s.ok()) {
      Warn("Setup: " + s.ToString());
      return 1;
    }
    setup_s.push_back((NowMs() - t0) / 1e3);
  }

  // Warm-up: let caches fill and lazy state settle before timing.
  const double budget_ms = opts_.seconds * 1e3;
  const double warm_start = NowMs();
  do {
    OneOp(false, false);
  } while (NowMs() - warm_start < 0.05 * budget_ms);

  pds::obs::Tracer& tracer = pds::obs::Tracer::Global();
  if (opts_.trace) {
    tracer.SetCapacity(kTraceCapacity);
  }
  std::vector<double> untraced;
  std::vector<double> traced;
  // Untraced latencies are also grouped into windows of at least
  // kWindowMs; op_p50_busy_ms is the upper decile of the window medians.
  std::vector<double> window;
  std::vector<double> window_p50;
  const double start = NowMs();
  double window_start = start;
  for (size_t i = 0;; ++i) {
    const bool trace_this = opts_.trace && (i % 2 == 1);
    std::vector<double>& samples = trace_this ? traced : untraced;
    const double wall = OneOp(trace_this, !trace_this);
    if (wall >= 0) {
      samples.push_back(wall);
      if (!trace_this) {
        window.push_back(wall);
      }
    }
    if (NowMs() - window_start >= kWindowMs && !window.empty()) {
      window_p50.push_back(Median(window));
      window.clear();
      window_start = NowMs();
    }
    const bool enough = untraced.size() >= kMinOps &&
                        (!opts_.trace || traced.size() >= kMinOps);
    if (NowMs() - start >= budget_ms && enough) {
      break;
    }
    if (failed_ > 0 && NowMs() - start >= budget_ms) {
      break;
    }
  }

  const uint64_t threads_now = ProcStatus("Threads");
  if (threads_now > 1 + opts_.threads) {
    Warn("process runs " + std::to_string(threads_now) +
         " threads, over the cap of 1 + " + std::to_string(opts_.threads));
    ++failed_;
  }

  MetricSet metrics;
  std::ostringstream layers_json;
  std::string largest = "none";
  if (!opts_.trace) {
    metrics.Set("setup_s", Median(setup_s), "s");
    metrics.Set("op_p50_busy_ms", Percentile(window_p50, kBusyPct), "ms");
    metrics.Set("peak_rss_mb",
                static_cast<double>(ProcStatus("VmHWM")) / 1024.0, "MB");
  } else if (summary_.ops > 0) {
    double attributed = 0;
    double largest_ms = -1;
    layers_json << "{";
    for (const auto& [layer, ms] : summary_.layer_ms) {
      attributed += ms;
      layers_json << JsonString(layer) << ": "
                  << JsonNumber(ms / static_cast<double>(summary_.ops))
                  << ", ";
      if (ms > largest_ms) {
        largest_ms = ms;
        largest = layer;
      }
    }
    const double unattributed = summary_.wall_ms - attributed;
    if (unattributed > largest_ms) {
      largest = "unattributed";
    }
    const double ops = static_cast<double>(summary_.ops);
    layers_json << "\"unattributed\": " << JsonNumber(unattributed / ops)
                << ", \"wall\": " << JsonNumber(summary_.wall_ms / ops)
                << "}";
    for (const char* layer : kSpanLayers) {
      metrics.Set(std::string(layer) + ".self_ms",
                  summary_.PerOp(summary_.layer_ms, layer), "ms");
    }
    metrics.Set("unattributed_ms", unattributed / ops, "ms");
    const double untraced_p50 = Median(untraced);
    metrics.Set("obs.trace_overhead_pct",
                untraced_p50 > 0
                    ? (Median(traced) - untraced_p50) / untraced_p50 * 100.0
                    : 0.0,
                "%");
    pds::Status s = w_->LayerMetrics(summary_, &metrics);
    if (!s.ok()) {
      Warn("LayerMetrics: " + s.ToString());
      self_check_ok_ = false;
    }
  } else {
    self_check_ok_ = false;
    Warn("no traced operation completed");
  }

  // Every catalogued metric is printed, and nothing else.
  const auto& catalog = opts_.trace ? kPerLayer : kEndToEnd;
  MetricSet out;
  for (const auto& [name, unit] : catalog) {
    auto it = metrics.values().find(name);
    double v = it == metrics.values().end() ? 0.0 : it->second.value;
    if (it != metrics.values().end() && it->second.unit != unit) {
      Warn(std::string("metric ") + name + " has unit " + it->second.unit);
      self_check_ok_ = false;
    }
    if (!std::isfinite(v)) {
      Warn(std::string("metric ") + name + " is not finite");
      self_check_ok_ = false;
      v = 0;
    }
    out.Set(name, v, unit);
  }
  for (const auto& [name, entry] : metrics.values()) {
    if (!out.Has(name)) {
      Warn("metric " + name + " is not in the catalog");
      self_check_ok_ = false;
    }
  }

  const bool correct = failed_ == 0 && self_check_ok_;
  std::ostringstream report;
  report << "{\"report\": {\"provenance\": " << ProvenanceJson(opts_)
         << ", \"op\": " << JsonString(w_->op_name())
         << ", \"setup_reps\": " << kSetupReps
         << ", \"setup_s\": [";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    report << (i ? ", " : "") << JsonNumber(setup_s[i]);
  }
  // The highest percentile with at least ten samples beyond it.
  const size_t n = untraced.size();
  double tail_pct = 50;
  for (double p : {99.0, 90.0}) {
    if (static_cast<double>(n) * (1 - p / 100) >= 10) {
      tail_pct = p;
      break;
    }
  }
  report << "], \"untraced_ops\": " << n << ", \"windows\": " << window_p50.size()
         << ", \"op_p50_ms\": " << JsonNumber(Median(untraced))
         << ", \"window_p50_ms\": {\"min\": "
         << JsonNumber(Percentile(window_p50, 0))
         << ", \"p90\": " << JsonNumber(Percentile(window_p50, kBusyPct))
         << ", \"median\": " << JsonNumber(Median(window_p50))
         << ", \"max\": " << JsonNumber(Percentile(window_p50, 100)) << "}"
         << ", \"op_tail_pct\": " << JsonNumber(tail_pct)
         << ", \"op_tail_ms\": " << JsonNumber(Percentile(untraced, tail_pct));
  if (opts_.trace) {
    report << ", \"traced_ops\": " << summary_.ops
           << ", \"trace_self_check\": " << (self_check_ok_ ? "true" : "false")
           << ", \"layers_ms_per_op\": "
           << (summary_.ops > 0 ? layers_json.str() : "{}")
           << ", \"largest_layer\": " << JsonString(largest);
  }
  report << "}}";
  std::cout << report.str() << "\n";
  if (opts_.trace) {
    std::cerr << "pdsbench: " << opts_.workload
              << ": largest layer: " << largest << "\n";
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted_ << ", \"failed\": "
            << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : out.values()) {
    std::cout << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
              << JsonNumber(entry.value)
              << ", \"unit\": " << JsonString(entry.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

double TraceSummary::PerOp(const std::map<std::string, double>& m,
                           const std::string& name) const {
  auto it = m.find(name);
  return it == m.end() || ops == 0 ? 0.0
                                   : it->second / static_cast<double>(ops);
}

double TraceSummary::PerOpPrefix(const std::map<std::string, double>& m,
                                 const std::string& prefix) const {
  double sum = 0;
  for (const auto& [name, v] : m) {
    if (name.compare(0, prefix.size(), prefix) == 0) {
      sum += v;
    }
  }
  return ops == 0 ? 0.0 : sum / static_cast<double>(ops);
}

int Run(const Options& opts, Workload* workload) {
  Runner runner(opts, workload);
  return runner.Main();
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  if (p == 50) {
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  }
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

uint64_t ProcStatus(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  const size_t len = std::strlen(key);
  uint64_t value = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, len) == 0 && line[len] == ':') {
      value = std::strtoull(line + len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return value;
}

double TimeCallNs(const std::function<bool()>& call, double budget_ms) {
  std::vector<double> batch_ns;
  size_t batch = 1;
  const double start = NowMs();
  while (NowMs() - start < budget_ms || batch_ns.size() < 3) {
    const double t0 = NowMs();
    for (size_t i = 0; i < batch; ++i) {
      if (!call()) {
        return -1;
      }
    }
    const double ms = NowMs() - t0;
    if (ms < 1.0) {
      batch *= 2;  // grow until a batch is long enough to time
      continue;
    }
    batch_ns.push_back(ms * 1e6 / static_cast<double>(batch));
  }
  return Median(batch_ns);
}

}  // namespace pdsbench
