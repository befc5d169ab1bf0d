// net_bench — the documented driver for the real-wire numbers:
//
//   build/bench/net_bench --out BENCH_net.json
//
// It sweeps [TNP14] secure aggregation over the framed token<->SSI wire for
// fleet sizes 4/16/64 on both transports (deterministic in-process queue
// pairs and Unix-domain sockets), recording measured frame bytes, round
// counts, loopback throughput/latency and round-trip latency percentiles
// (p50/p90/p99/p999 from the SSI's per-session HDR histograms) per run. It
// then runs the quorum scenarios with one deliberately-dropped token: under
// quorum=1.0 the run must fail with a quorum shortfall, under quorum=0.9 it
// must complete at N-1 responders with the shortfall recorded. Any
// unexpected outcome exits non-zero, which is what the CI schema check
// builds on. The tracer stays on for the whole sweep and the merged
// cross-process trace (SSI round-trip spans with token handler spans as
// children) is exported as Chrome trace_event JSON (--trace).

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/cipher.h"
#include "crypto/paillier.h"
#include "global/fleet_executor.h"
#include "net/fault_injection.h"
#include "net/scenario.h"
#include "net/ssi_server.h"
#include "net/token_client.h"
#include "net/transport.h"
#include "obs/obs.h"

#include "fleet_record.h"

namespace {

using pds::Rng;
using pds::global::AggFunc;
using pds::global::FleetExecutor;
using pds::global::SourceTuple;
using pds::mcu::SecureToken;
using pds::net::FaultInjectingTransport;
using pds::net::FaultPlan;
using pds::net::InProcessTransport;
using pds::net::SocketTransport;
using pds::net::SsiServer;
using pds::net::TokenClient;
using pds::net::Transport;

struct BenchFleet {
  std::vector<std::unique_ptr<SecureToken>> tokens;
  std::vector<std::vector<SourceTuple>> tuples;
  std::unique_ptr<SecureToken> verifier;
  size_t total_tuples = 0;
};

BenchFleet MakeFleet(size_t n) {
  BenchFleet fleet;
  pds::crypto::SymmetricKey key = pds::crypto::KeyFromString("net-bench");
  Rng rng(55);
  for (size_t i = 0; i < n; ++i) {
    SecureToken::Config cfg;
    cfg.token_id = 100 + i;
    cfg.fleet_key = key;
    cfg.rng_seed = 100 + i;
    fleet.tokens.push_back(std::make_unique<SecureToken>(cfg));
    std::vector<SourceTuple> tuples;
    for (int t = 0; t < 4; ++t) {
      SourceTuple st;
      st.group = "city-" + std::to_string(rng.Uniform(5));
      st.value = static_cast<double>(rng.Uniform(100));
      tuples.push_back(std::move(st));
    }
    fleet.total_tuples += tuples.size();
    fleet.tuples.push_back(std::move(tuples));
  }
  SecureToken::Config vcfg;
  vcfg.token_id = 9000;
  vcfg.fleet_key = key;
  vcfg.rng_seed = 9000;
  fleet.verifier = std::make_unique<SecureToken>(vcfg);
  return fleet;
}

/// A wire run: the shared fleet-run fields plus the transport it ran on.
struct RunRecord {
  pds::bench::FleetRecord run;
  std::string transport;
};

struct Scenario {
  std::string section;
  std::string transport;  // "inproc" or "socket"
  size_t fleet_size = 0;
  double quorum = 1.0;
  size_t drop_first = 0;  // links [0, drop_first) drop every round request
  uint32_t deadline_ms = 2000;
  uint32_t max_retries = 2;
};

int Fail(const std::string& what) {
  std::cerr << "net_bench: FAILED: " << what << "\n";
  return 1;
}

/// One full wire run: handshake every client, execute the protocol, tear
/// down, and distill the measured traffic into a RunRecord.
int RunScenario(const Scenario& sc, RunRecord* rec) {
  BenchFleet fleet = MakeFleet(sc.fleet_size);
  FleetExecutor exec(4);

  SsiServer::Config cfg;
  cfg.partition_capacity = 32;  // forces aggregate rounds at fleet size 16+
  cfg.deadline_ms = sc.deadline_ms;
  cfg.max_retries = sc.max_retries;
  cfg.backoff_ms = 5;
  cfg.quorum = sc.quorum;
  cfg.executor = &exec;
  cfg.verifier = fleet.verifier.get();
  SsiServer server(cfg);

  std::vector<std::unique_ptr<TokenClient>> clients;
  for (size_t i = 0; i < sc.fleet_size; ++i) {
    std::unique_ptr<Transport> client_side;
    std::unique_ptr<Transport> server_side;
    if (sc.transport == "inproc") {
      auto [a, b] = InProcessTransport::CreatePair();
      client_side = std::move(a);
      server_side = std::move(b);
    } else {
      auto pair = SocketTransport::CreateUnixPair();
      if (!pair.ok()) {
        return Fail("CreateUnixPair: " + pair.status().ToString());
      }
      client_side = std::move(pair->first);
      server_side = std::move(pair->second);
    }
    TokenClient::Config ccfg;
    ccfg.token = fleet.tokens[i].get();
    ccfg.tuples = fleet.tuples[i];
    if (i < sc.drop_first) {
      // Past the two-frame handshake the SSI's end loses every frame.
      FaultPlan drop;
      drop.drop_rate = 1.0;
      drop.skip_first = 2;
      server_side = std::make_unique<FaultInjectingTransport>(
          std::move(server_side), drop, /*log=*/nullptr);
    }
    clients.push_back(
        std::make_unique<TokenClient>(std::move(client_side), ccfg));
    clients.back()->Start();
    auto accepted = server.AcceptSession(std::move(server_side));
    if (!accepted.ok()) {
      return Fail("AcceptSession: " + accepted.status().ToString());
    }
  }

  auto t0 = std::chrono::steady_clock::now();
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  auto t1 = std::chrono::steady_clock::now();

  server.Shutdown();
  for (auto& c : clients) {
    c->Stop();
  }
  for (auto& c : clients) {
    (void)c->Join();  // a stopped serve loop exits within its poll interval
  }

  pds::bench::FleetRecord& run = rec->run;
  rec->transport = sc.transport;
  run.section = sc.section;
  run.fleet_size = sc.fleet_size;
  run.quorum = sc.quorum;
  run.dropped_tokens = sc.drop_first;
  if (!run.Distill(server, output, fleet.total_tuples,
                   std::chrono::duration<double, std::milli>(t1 - t0)
                       .count())) {
    return Fail("directional wire bytes do not sum to total bytes");
  }
  return 0;
}

void WriteRecord(std::ostream& out, const RunRecord& r, bool last) {
  out << "    {";
  r.run.WriteFields(out);
  out << ", \"transport\": \"" << r.transport << "\"}"
      << (last ? "\n" : ",\n");
}

/// Runs the adversarial-wire scenario matrix (benign + link faults ×
/// protocols, sealed tampering, hostile-frame probes, churn) and distills
/// it into the `fault_scenarios` record the schema check validates:
/// detection_rate over expects_detection cells must be 1.0 and every benign
/// cell must be byte-identical to the in-process reference.
int RunFaultScenarios(std::string* json) {
  BenchFleet fleet = MakeFleet(4);
  std::vector<pds::global::Participant> participants;
  for (size_t i = 0; i < fleet.tokens.size(); ++i) {
    pds::global::Participant p;
    p.token = fleet.tokens[i].get();
    p.tuples = fleet.tuples[i];
    participants.push_back(std::move(p));
  }
  std::vector<std::string> domain;
  for (int i = 0; i < 5; ++i) domain.push_back("city-" + std::to_string(i));
  Rng key_rng(42);
  auto paillier = pds::crypto::Paillier::Generate(256, &key_rng);
  if (!paillier.ok()) return Fail("Paillier::Generate");
  auto packed = pds::crypto::PackedAggregate::Create(
      *paillier, fleet.tokens.size(), /*max_value=*/4096, 2 * domain.size());
  if (!packed.ok()) return Fail("PackedAggregate::Create");

  std::vector<pds::net::ScenarioResult> results;
  for (pds::net::ScenarioSpec& spec :
       pds::net::DefaultMatrix(/*seed=*/7, /*use_socket=*/false)) {
    spec.participants = participants;
    spec.verifier = fleet.verifier.get();
    spec.domain = domain;
    spec.packed = &packed.value();
    auto cell = pds::net::RunScenarioCell(spec);
    if (!cell.ok()) {
      return Fail("scenario " + spec.name + ": " + cell.status().ToString());
    }
    const pds::net::ScenarioResult& r = cell.value();
    std::cout << "scenario " << r.name << ": "
              << (r.ran_ok ? "ran" : "failed") << ", byte_identical="
              << r.byte_identical << ", detected=" << r.detected
              << (r.error.empty() ? "" : " [" + r.error + "]") << "\n";
    if (r.benign && (!r.ran_ok || !r.byte_identical)) {
      return Fail("benign scenario " + r.name +
                  " diverged from the in-process reference: " + r.error);
    }
    if (r.expects_detection && !r.detected) {
      return Fail("scenario " + r.name + " evaded detection\n" +
                  r.injection_log);
    }
    results.push_back(std::move(cell).value());
  }
  *json = pds::net::MatrixJson(results);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_net.json";
  std::string trace_path = "trace_net.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::cerr << "usage: net_bench [--out FILE] [--trace FILE]\n";
      return 2;
    }
  }

  // Record every span from every scenario: the SSI's round-trip spans and
  // the token threads' remote-parented handler spans land in one buffer, so
  // the export below is already the merged cross-process trace.
  pds::obs::Tracer& tracer = pds::obs::Tracer::Global();
  tracer.SetCapacity(1 << 17);
  tracer.SetEnabled(true);

  std::vector<Scenario> scenarios;
  for (const char* transport : {"inproc", "socket"}) {
    for (size_t n : {4u, 16u, 64u}) {
      Scenario sc;
      sc.section = "sweep";
      sc.transport = transport;
      sc.fleet_size = n;
      scenarios.push_back(sc);
    }
  }
  {
    // One token's link drops every request. Full quorum must fail the
    // run; quorum 0.9 (need = ceil(9.0) = 9 = N-1) must complete.
    Scenario all;
    all.section = "quorum";
    all.transport = "inproc";
    all.fleet_size = 10;
    all.quorum = 1.0;
    all.drop_first = 1;
    all.deadline_ms = 150;
    all.max_retries = 0;
    scenarios.push_back(all);
    Scenario nine = all;
    nine.quorum = 0.9;
    nine.max_retries = 1;
    scenarios.push_back(nine);
  }

  std::vector<RunRecord> records(scenarios.size());
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& sc = scenarios[i];
    if (RunScenario(sc, &records[i]) != 0) {
      return 1;
    }
    const pds::bench::FleetRecord& r = records[i].run;
    std::cout << sc.section << " " << sc.transport << " n=" << sc.fleet_size
              << " quorum=" << sc.quorum << ": "
              << (r.ok ? "ok" : "failed (expected for full quorum + drop)")
              << ", " << r.responders << " responders, " << r.bytes
              << " B measured, " << r.frames << " frames, " << r.wall_ms
              << " ms\n";
    if (sc.section == "sweep" && !r.ok) {
      return Fail("sweep run unexpectedly failed");
    }
    if (sc.section == "sweep" &&
        (r.rtt_p50_us <= 0 || r.rtt_p50_us > r.rtt_p99_us ||
         r.rtt_p99_us > r.rtt_p999_us)) {
      return Fail("round-trip percentiles missing or non-monotonic");
    }
    if (sc.section == "quorum" && sc.quorum == 1.0 && r.ok) {
      return Fail("full-quorum run with a dropped token unexpectedly passed");
    }
    if (sc.section == "quorum" && sc.quorum < 1.0 &&
        (!r.ok || r.missing_tokens != 1 ||
         r.responders != sc.fleet_size - 1)) {
      return Fail("quorum=0.9 run did not complete at N-1 responders");
    }
  }

  tracer.SetEnabled(false);
  if (tracer.dropped() != 0) {
    return Fail("trace buffer overflowed; raise SetCapacity");
  }

  // The scenario matrix runs untraced — its spans would swamp the sweep's
  // trace and the fault cells are exercised for verdicts, not latency.
  std::string fault_scenarios;
  if (RunFaultScenarios(&fault_scenarios) != 0) {
    return 1;
  }

  std::ofstream out(out_path, std::ios::binary);
  out << "{\n  \"meta\": {\"generated_by\": \"bench/net_bench\", "
         "\"protocol\": \"net-secure-agg\"},\n  \"records\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    WriteRecord(out, records[i], i + 1 == records.size());
  }
  out << "  ],\n  \"fault_scenarios\": " << fault_scenarios << "\n}\n";
  out.close();
  if (!out) {
    return Fail("cannot write " + out_path);
  }
  std::ofstream trace_out(trace_path, std::ios::binary);
  tracer.ExportChromeTrace(trace_out);
  trace_out.close();
  if (!trace_out) {
    return Fail("cannot write " + trace_path);
  }
  std::cout << "wrote " << out_path << " (" << records.size()
            << " records)\n"
            << "wrote " << trace_path << " (" << tracer.num_events()
            << " events; token round spans parent under SSI round-trips)\n";
  return 0;
}
