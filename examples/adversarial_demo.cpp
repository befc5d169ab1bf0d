// The adversarial wire, end to end: the scenario harness from pds::net run
// as a command-line tool.
//
// A four-token fleet (plus a querier/verifier token) faces every cell of
// the default scenario matrix: each [TNP14] protocol and the packed
// Paillier round under benign links, seed-driven drops, delays,
// duplicates, reorders, truncation and bit flips, then a malicious SSI
// that tampers with sealed batches, forges aggregates, replays stale
// rounds and sends oversized/malformed frames, and finally a token that
// churns mid-round and rejoins through a fresh attestation handshake.
//
// For every cell the tool prints the verdict: benign cells must be
// byte-identical to the in-process protocols, adversarial cells must be
// detected. The per-scenario verdict JSON (the same `fault_scenarios`
// record net_bench emits) and the realized fault-injection logs are
// written to files for CI artifacts; the process exits non-zero if any
// guarantee fails.
//
//   build/examples/adversarial_demo [--seed N] [--socket]
//                                   [--json FILE] [--faultlog FILE]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/paillier.h"
#include "net/scenario.h"

using pds::Rng;
using pds::crypto::PackedAggregate;
using pds::crypto::Paillier;
using pds::global::Participant;
using pds::global::SourceTuple;
using pds::mcu::SecureToken;
using pds::net::DefaultMatrix;
using pds::net::MatrixJson;
using pds::net::RunScenarioCell;
using pds::net::ScenarioResult;
using pds::net::ScenarioSpec;

int main(int argc, char** argv) {
  uint64_t seed = 7;
  bool use_socket = false;
  std::string json_path = "adversarial_verdicts.json";
  std::string faultlog_path = "adversarial_faultlog.txt";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<uint64_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--socket") == 0) {
      use_socket = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--faultlog") == 0 && i + 1 < argc) {
      faultlog_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: adversarial_demo [--seed N] [--socket] "
                   "[--json FILE] [--faultlog FILE]\n");
      return 2;
    }
  }

  // 1. A deterministic fleet: four tokens with authorized (city, value)
  // tuples, one querier/verifier token, and the shared packed context.
  pds::crypto::SymmetricKey fleet_key =
      pds::crypto::KeyFromString("adversarial-demo-fleet");
  std::vector<std::unique_ptr<SecureToken>> tokens;
  std::vector<Participant> participants;
  Rng rng(55);
  for (uint64_t i = 0; i < 4; ++i) {
    SecureToken::Config cfg;
    cfg.token_id = i;
    cfg.fleet_key = fleet_key;
    cfg.rng_seed = 100 + i;
    tokens.push_back(std::make_unique<SecureToken>(cfg));
    Participant p;
    p.token = tokens.back().get();
    int n = 3 + static_cast<int>(rng.Uniform(4));
    for (int t = 0; t < n; ++t) {
      SourceTuple st;
      st.group = "city-" + std::to_string(rng.Uniform(5));
      st.value = static_cast<double>(rng.Uniform(100));
      p.tuples.push_back(std::move(st));
    }
    participants.push_back(std::move(p));
  }
  SecureToken::Config vcfg;
  vcfg.token_id = 9000;
  vcfg.fleet_key = fleet_key;
  SecureToken verifier(vcfg);

  std::vector<std::string> domain;
  for (int i = 0; i < 5; ++i) domain.push_back("city-" + std::to_string(i));
  Rng key_rng(42);
  auto paillier = Paillier::Generate(256, &key_rng);
  if (!paillier.ok()) {
    std::fprintf(stderr, "Paillier::Generate failed\n");
    return 1;
  }
  auto packed = PackedAggregate::Create(*paillier, tokens.size(),
                                        /*max_value=*/4096,
                                        2 * domain.size());
  if (!packed.ok()) {
    std::fprintf(stderr, "PackedAggregate::Create failed\n");
    return 1;
  }

  // 2. Every cell of the matrix, in order. A failing guarantee prints the
  // seed and the realized injection log — rerunning with the same --seed
  // replays the identical fault sequence.
  std::printf("adversarial scenario matrix (seed %llu, %s transport)\n",
              static_cast<unsigned long long>(seed),
              use_socket ? "unix-socket" : "in-process");
  std::vector<ScenarioResult> results;
  std::string fault_log;
  int failures = 0;
  for (ScenarioSpec& spec : DefaultMatrix(seed, use_socket)) {
    spec.participants = participants;
    spec.verifier = &verifier;
    spec.domain = domain;
    spec.packed = &packed.value();
    auto cell = RunScenarioCell(spec);
    if (!cell.ok()) {
      std::printf("  %-36s HARNESS ERROR: %s\n", spec.name.c_str(),
                  cell.status().ToString().c_str());
      ++failures;
      continue;
    }
    const ScenarioResult& r = cell.value();
    bool cell_ok = (!r.benign || (r.ran_ok && r.byte_identical)) &&
                   (!r.expects_detection || r.detected);
    const char* verdict = cell_ok ? "ok" : "FAILED";
    if (r.benign) {
      std::printf("  %-36s %-6s byte-identical=%d\n", r.name.c_str(),
                  verdict, r.byte_identical ? 1 : 0);
    } else if (r.expects_detection) {
      std::printf("  %-36s %-6s detected=%d  %s\n", r.name.c_str(), verdict,
                  r.detected ? 1 : 0, r.detection.c_str());
    } else {
      std::printf("  %-36s %-6s byte-identical=%d injections=%llu\n",
                  r.name.c_str(), verdict, r.byte_identical ? 1 : 0,
                  static_cast<unsigned long long>(r.injections));
    }
    if (!cell_ok) {
      ++failures;
      std::printf("    error: %s\n    injection log:\n%s", r.error.c_str(),
                  r.injection_log.c_str());
    }
    if (!r.injection_log.empty()) {
      fault_log += "=== " + r.name + " (seed " + std::to_string(seed) +
                   ") ===\n" + r.injection_log;
    }
    results.push_back(std::move(cell).value());
  }

  // 3. Artifacts: the verdict record (net_bench's fault_scenarios shape)
  // and the concatenated injection logs.
  std::ofstream json_out(json_path, std::ios::binary);
  json_out << "{\"fault_scenarios\": " << MatrixJson(results) << "}\n";
  json_out.close();
  std::ofstream log_out(faultlog_path, std::ios::binary);
  log_out << fault_log;
  log_out.close();
  std::printf("\n%zu cells, %d failing; wrote %s and %s\n", results.size(),
              failures, json_path.c_str(), faultlog_path.c_str());
  return failures == 0 ? 0 : 1;
}
