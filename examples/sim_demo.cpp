// A million-token [TNP14] round on a laptop: the deterministic fleet
// simulator from pds::sim run as a command-line tool.
//
// The demo builds a SimFleet — the REAL net::SsiServer and one REAL
// net::TokenSession + mcu::SecureToken per simulated token, joined by
// simulated links with a WAN-ish latency/jitter/bandwidth model — and
// replays one seeded secure-aggregation GROUP-BY round over it. Everything
// runs in a single process on virtual time: the server's blocking Recv
// calls drive the discrete-event queue, each token's session answers a
// frame the instant it lands, and the whole run is a pure function of the
// seed. Run it
// twice with the same seed and every group sum, byte count, and virtual
// timestamp repeats exactly.
//
//   build/examples/sim_demo [--tokens N] [--seed N] [--groups N]
//
// Defaults replay the headline scenario: 1,000,000 tokens, seed 55,
// 5 GROUP-BY cities. Expect ~15 s of wall time and ~2.5 GiB of peak RSS
// at that size on a 4-core x86-64 host; try --tokens 10000 for an instant
// smoke run.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "global/common.h"
#include "sim/link_model.h"
#include "sim/sim_fleet.h"

using pds::global::AggFunc;
using pds::sim::LinkModel;
using pds::sim::SimFleet;
using pds::sim::SimFleetConfig;

int main(int argc, char** argv) {
  size_t num_tokens = 1000000;
  uint64_t seed = 55;
  size_t num_groups = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tokens") == 0 && i + 1 < argc) {
      num_tokens = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<uint64_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--groups") == 0 && i + 1 < argc) {
      num_groups = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--tokens N] [--seed N] [--groups N]\n",
                   argv[0]);
      return 2;
    }
  }

  SimFleetConfig cfg;
  cfg.num_tokens = num_tokens;
  cfg.seed = seed;
  cfg.num_groups = num_groups;
  cfg.link.base_latency_us = 2000;  // a 2 ms one-way WAN hop...
  cfg.link.jitter_us = 1000;        // ...with up to 1 ms of jitter
  cfg.link.bandwidth_bytes_per_sec = 12500000;  // 100 Mbit/s per link

  std::printf("sim_demo: %zu tokens, seed %" PRIu64 ", %zu groups\n",
              num_tokens, seed, num_groups);
  std::printf("  link: %" PRIu64 " us latency, %" PRIu64
              " us jitter, %.0f Mbit/s\n",
              cfg.link.base_latency_us, cfg.link.jitter_us,
              cfg.link.bandwidth_bytes_per_sec * 8 / 1e6);

  SimFleet fleet(cfg);
  auto t0 = std::chrono::steady_clock::now();
  if (auto st = fleet.Build(); !st.ok()) {
    std::fprintf(stderr, "sim_demo: build failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  auto t1 = std::chrono::steady_clock::now();
  std::printf("  built + attested %zu sessions in %.1f s (wall)\n",
              num_tokens,
              std::chrono::duration<double>(t1 - t0).count());

  auto output = fleet.RunSecureAggregation(AggFunc::kSum);
  auto t2 = std::chrono::steady_clock::now();
  if (!output.ok()) {
    std::fprintf(stderr, "sim_demo: round failed: %s\n",
                 output.status().ToString().c_str());
    return 1;
  }
  if (fleet.pump_errors() != 0) {
    std::fprintf(stderr, "sim_demo: %zu token sessions failed\n",
                 fleet.pump_errors());
    return 1;
  }

  std::printf("\nGROUP-BY result (SUM per city):\n");
  for (const auto& [group, value] : output->groups) {
    std::printf("  %-10s %14.0f\n", group.c_str(), value);
  }

  const auto& report = fleet.server().last_report();
  const auto& stats = fleet.net().stats();
  auto mem = fleet.Memory();
  std::printf("\nround: %zu/%zu responders, %" PRIu64 " tuples\n",
              report.responders, num_tokens, fleet.total_tuples());
  std::printf("wire:  %" PRIu64 " frames, %" PRIu64 " bytes\n",
              stats.frames_delivered, stats.bytes_delivered);
  std::printf("time:  %.1f s virtual, %.1f s wall (round only)\n",
              fleet.clock().NowNs() / 1e9,
              std::chrono::duration<double>(t2 - t1).count());
  std::printf("mem:   ~%" PRIu64 " bytes/token estimated",
              mem.bytes_per_token);
  if (mem.vm_hwm_kb > 0) {
    std::printf(", %.2f GiB peak RSS", mem.vm_hwm_kb / (1024.0 * 1024.0));
  }
  std::printf("\nevents: %" PRIu64 " run on the virtual clock\n",
              fleet.clock().events_run());
  std::printf("\nre-run with the same --seed to replay this byte-for-byte\n");
  return 0;
}
