// sim_bench — the documented driver for the simulated-fleet numbers:
//
//   build/bench/sim_bench --out BENCH_sim.json [--max-tokens N]
//
// It sweeps [TNP14] secure aggregation over SimFleet — the real SsiServer
// and TokenClient state machines over SimTransport links on virtual time —
// for fleet sizes 1k / 10k / 100k / 1M in ONE process, recording
// rounds-to-convergence, measured wire bytes, virtual round-trip latency
// percentiles, event counts, and memory per run (the sizeof estimate next
// to the run's own measured peak RSS). It
// then runs the quorum-sensitivity scenarios (every 10th token dropped:
// quorum 1.0 must fail, quorum 0.85 must complete with the shortfall
// recorded), the churn-tolerance scenario (run, churn and re-admit every
// 10th token, run again at full strength), and the determinism probe (the
// same seed twice must produce byte-identical records). Any unexpected
// outcome exits non-zero, which is what the CI schema check builds on.
//
// --max-tokens caps the sweep (CI smoke uses 10000); the committed
// BENCH_sim.json comes from the full million-token sweep.

#include <malloc.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/sim_fleet.h"

#include "fleet_record.h"

namespace {

using pds::global::AggFunc;
using pds::sim::LinkModel;
using pds::sim::SimFleet;
using pds::sim::SimFleetConfig;

/// A simulated run: the shared fleet-run fields plus virtual time, event
/// count and memory.
struct RunRecord {
  pds::bench::FleetRecord run;
  size_t churned_tokens = 0;
  uint64_t events = 0;  // discrete events executed
  double sim_ms = 0;    // virtual time consumed
  uint64_t mem_bytes_estimate = 0;
  uint64_t mem_vm_hwm_kb = 0;        // this run's peak RSS
  uint64_t mem_bytes_per_token = 0;  // sizeof estimate per token
  // Measured: this run's peak RSS growth over the RSS it started from,
  // per token (allocator slack and event queue included).
  uint64_t mem_rss_bytes_per_token = 0;
};

int Fail(const std::string& what) {
  std::cerr << "sim_bench: FAILED: " << what << "\n";
  return 1;
}

/// The sweep's link: a plausible wide-area edge link so the modeled RTT
/// percentiles mean something (2 ms base one-way latency, 1 ms jitter).
LinkModel SweepLink() {
  LinkModel link;
  link.base_latency_us = 2000;
  link.jitter_us = 1000;
  return link;
}

/// Reads one kB field of /proc/self/status (VmRSS, VmHWM); 0 if absent.
uint64_t ProcStatusKb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stoull(line.substr(field.size() + 1));
    }
  }
  return 0;
}

/// Restarts the kernel's peak-RSS count (VmHWM) at the current RSS, so the
/// VmHWM read after the next run is that run's own peak, not the
/// process-lifetime one the largest sweep size leaves behind. Freed heap
/// goes back to the kernel first, or the next run would reuse the last
/// one's pages and show no growth. Returns the RSS it restarted from in
/// kB, or 0 if the count cannot be reset.
uint64_t ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  return clear_refs ? ProcStatusKb("VmRSS") : 0;
}

/// Distills a finished run on `fleet` into `rec`. `rss_start_kb` is the RSS
/// ResetPeakRss restarted the peak count from before the fleet was built.
int Distill(SimFleet* fleet, const pds::Result<pds::global::AggOutput>& out,
            double wall_ms, uint64_t rss_start_kb, RunRecord* rec) {
  pds::bench::FleetRecord& run = rec->run;
  run.fleet_size = fleet->config().num_tokens;
  run.quorum = fleet->config().quorum;
  run.dropped_tokens = fleet->dropped_tokens();
  run.frames = fleet->net().stats().frames_delivered;
  if (!run.Distill(fleet->server(), out, fleet->total_tuples(), wall_ms)) {
    return Fail("directional wire bytes do not sum to total bytes");
  }
  rec->churned_tokens = fleet->churned_tokens();
  rec->sim_ms = static_cast<double>(fleet->clock().NowNs()) / 1e6;
  rec->events = fleet->clock().events_run();
  SimFleet::MemoryStats mem = fleet->Memory();
  rec->mem_bytes_estimate = mem.bytes_estimate;
  rec->mem_vm_hwm_kb = mem.vm_hwm_kb;
  rec->mem_bytes_per_token = mem.bytes_per_token;
  if (mem.vm_hwm_kb > rss_start_kb && run.fleet_size > 0) {
    rec->mem_rss_bytes_per_token =
        (mem.vm_hwm_kb - rss_start_kb) * 1024 / run.fleet_size;
  }
  return 0;
}

/// Build + one protocol run under `cfg`, distilled into `rec`.
int RunOnce(const SimFleetConfig& cfg, const std::string& what,
            RunRecord* rec, bool expect_ok) {
  const uint64_t rss_start_kb = ResetPeakRss();
  if (rss_start_kb == 0) {
    return Fail(what + ": cannot reset the peak RSS count");
  }
  SimFleet fleet(cfg);
  auto t0 = std::chrono::steady_clock::now();
  auto built = fleet.Build();
  if (!built.ok()) {
    return Fail(what + ": Build: " + built.ToString());
  }
  auto out = fleet.RunSecureAggregation(AggFunc::kSum);
  auto t1 = std::chrono::steady_clock::now();
  if (fleet.pump_errors() != 0) {
    return Fail(what + ": " + std::to_string(fleet.pump_errors()) +
                " fatal pump errors");
  }
  if (Distill(&fleet, out,
              std::chrono::duration<double, std::milli>(t1 - t0).count(),
              rss_start_kb, rec) != 0) {
    return 1;
  }
  if (expect_ok && !out.ok()) {
    return Fail(what + ": " + out.status().ToString());
  }
  if (!expect_ok && out.ok()) {
    return Fail(what + ": expected a quorum shortfall, run succeeded");
  }
  return 0;
}

void WriteRecord(std::ostream& out, const RunRecord& r, bool last) {
  out << "    {";
  r.run.WriteFields(out);
  out << ", \"churned_tokens\": " << r.churned_tokens
      << ", \"events\": " << r.events
      << ", \"sim_ms\": " << r.sim_ms
      << ", \"mem_bytes_estimate\": " << r.mem_bytes_estimate
      << ", \"mem_vm_hwm_kb\": " << r.mem_vm_hwm_kb
      << ", \"mem_bytes_per_token\": " << r.mem_bytes_per_token
      << ", \"mem_rss_bytes_per_token\": " << r.mem_rss_bytes_per_token
      << "}" << (last ? "\n" : ",\n");
}

/// A record's identity for the determinism probe: everything except the
/// real-time fields (wall_ms, throughput, memory), which may legitimately
/// differ between two runs of the same virtual scenario.
std::string DeterministicKey(const RunRecord& rec) {
  const pds::bench::FleetRecord& r = rec.run;
  std::ostringstream key;
  key << r.ok << '|' << r.groups << '|' << r.responders << '|'
      << r.missing_tokens << '|' << r.rounds << '|' << r.retries << '|'
      << r.deadline_hits << '|' << r.bytes << '|' << r.bytes_token_to_ssi
      << '|' << r.bytes_ssi_to_token << '|' << r.frames << '|' << r.tuples
      << '|' << rec.events << '|' << rec.sim_ms << '|' << r.rtt_p50_us << '|'
      << r.rtt_p90_us << '|' << r.rtt_p99_us << '|' << r.rtt_p999_us << '|'
      << r.rtt_samples;
  return key.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_sim.json";
  size_t max_tokens = 1000000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--max-tokens") == 0 && i + 1 < argc) {
      max_tokens = static_cast<size_t>(std::stoull(argv[++i]));
    } else {
      std::cerr << "usage: sim_bench [--out FILE] [--max-tokens N]\n";
      return 2;
    }
  }

  std::vector<RunRecord> records;

  // --- Sweep: fleet sizes 1k -> 1M, one process, virtual time. ---
  for (size_t n : {size_t{1000}, size_t{10000}, size_t{100000},
                   size_t{1000000}}) {
    if (n > max_tokens) {
      continue;
    }
    SimFleetConfig cfg;
    cfg.num_tokens = n;
    cfg.link = SweepLink();
    RunRecord rec;
    rec.run.section = "sweep";
    std::cerr << "sim_bench: sweep fleet_size=" << n << " ...\n";
    if (RunOnce(cfg, "sweep n=" + std::to_string(n), &rec,
                /*expect_ok=*/true) != 0) {
      return 1;
    }
    if (rec.run.responders != n) {
      return Fail("sweep run lost responders on a lossless link");
    }
    records.push_back(rec);
  }
  if (records.empty()) {
    return Fail("--max-tokens excluded every sweep size");
  }

  // --- Quorum sensitivity: every 10th token swallows all rounds. ---
  for (double quorum : {1.0, 0.85}) {
    SimFleetConfig cfg;
    cfg.num_tokens = 1000;
    cfg.link = SweepLink();
    cfg.dropout_every = 10;  // 100 dropouts
    cfg.quorum = quorum;
    cfg.deadline_ms = 50;  // virtual: timeouts cost nothing real
    cfg.max_retries = 1;
    RunRecord rec;
    rec.run.section = "quorum";
    std::cerr << "sim_bench: quorum=" << quorum << " ...\n";
    if (RunOnce(cfg, "quorum " + std::to_string(quorum), &rec,
                /*expect_ok=*/quorum < 1.0) != 0) {
      return 1;
    }
    if (quorum < 1.0 && rec.run.missing_tokens != 100) {
      return Fail("quorum run did not record the expected 100 dropouts");
    }
    records.push_back(rec);
  }

  // --- Churn tolerance: run, churn every 10th token, run again. ---
  {
    SimFleetConfig cfg;
    cfg.num_tokens = 1000;
    cfg.link = SweepLink();
    const uint64_t rss_start_kb = ResetPeakRss();
    if (rss_start_kb == 0) {
      return Fail("churn: cannot reset the peak RSS count");
    }
    SimFleet fleet(cfg);
    std::cerr << "sim_bench: churn ...\n";
    auto built = fleet.Build();
    if (!built.ok()) {
      return Fail("churn: Build: " + built.ToString());
    }
    auto first = fleet.RunSecureAggregation(AggFunc::kSum);
    if (!first.ok()) {
      return Fail("churn round 1: " + first.status().ToString());
    }
    auto churned = fleet.ChurnAndReadmit(10);
    if (!churned.ok()) {
      return Fail("churn readmit: " + churned.ToString());
    }
    auto t0 = std::chrono::steady_clock::now();
    auto second = fleet.RunSecureAggregation(AggFunc::kSum);
    auto t1 = std::chrono::steady_clock::now();
    if (!second.ok()) {
      return Fail("churn round 2: " + second.status().ToString());
    }
    RunRecord rec;
    rec.run.section = "churn";
    if (Distill(&fleet, second,
                std::chrono::duration<double, std::milli>(t1 - t0).count(),
                rss_start_kb, &rec) != 0) {
      return 1;
    }
    if (rec.churned_tokens != 100) {
      return Fail("churn did not re-admit the expected 100 tokens");
    }
    if (rec.run.responders != 1000) {
      return Fail("post-churn round did not run at full strength");
    }
    if (first->groups != second->groups) {
      return Fail("aggregate drifted across churn");
    }
    records.push_back(rec);
  }

  // --- Determinism probe: the same seed twice, identical records. ---
  bool deterministic = false;
  {
    SimFleetConfig cfg;
    cfg.num_tokens = 500;
    cfg.link = SweepLink();
    cfg.deadline_ms = 100;
    cfg.quorum = 0.95;  // loss may legitimately cost a straggler or two
    // Loss goes live only after Build: the attestation handshake has no
    // retry machinery, but protocol rounds do — which is exactly the
    // machinery this probe wants exercised.
    LinkModel lossy = cfg.link;
    lossy.loss_rate = 0.01;
    auto run = [&](const std::string& what, RunRecord* rec) {
      SimFleet fleet(cfg);
      auto t0 = std::chrono::steady_clock::now();
      auto built = fleet.Build();
      if (!built.ok()) {
        return Fail(what + ": Build: " + built.ToString());
      }
      fleet.net().set_model(lossy);
      auto out = fleet.RunSecureAggregation(AggFunc::kSum);
      auto t1 = std::chrono::steady_clock::now();
      if (!out.ok()) {
        return Fail(what + ": " + out.status().ToString());
      }
      return Distill(
          &fleet, out,
          std::chrono::duration<double, std::milli>(t1 - t0).count(),
          /*rss_start_kb=*/0, rec);
    };
    RunRecord a;
    RunRecord b;
    std::cerr << "sim_bench: determinism probe ...\n";
    if (run("determinism run A", &a) != 0 ||
        run("determinism run B", &b) != 0) {
      return 1;
    }
    deterministic = DeterministicKey(a) == DeterministicKey(b);
    if (!deterministic) {
      return Fail("identical seeds produced different records:\n  A: " +
                  DeterministicKey(a) + "\n  B: " + DeterministicKey(b));
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    return Fail("cannot open " + out_path);
  }
  out << "{\n  \"records\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    WriteRecord(out, records[i], i + 1 == records.size());
  }
  out << "  ],\n";
  out << "  \"determinism\": {\"identical\": "
      << (deterministic ? "true" : "false") << ", \"runs\": 2, \"seed\": 55}\n";
  out << "}\n";
  std::cerr << "sim_bench: wrote " << records.size() << " records to "
            << out_path << "\n";
  return 0;
}
