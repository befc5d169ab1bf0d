// One [TNP14] fleet run as net_bench and sim_bench record it: the fields
// BENCH_net.json and BENCH_sim.json share, distilled from the SSI in one
// place and written in one JSON layout. A driver sets the run's identity
// (section, fleet size, quorum, dropped tokens, frames), calls Distill once
// the run returns, and appends its own fields after WriteFields.

#ifndef PDS_BENCH_FLEET_RECORD_H_
#define PDS_BENCH_FLEET_RECORD_H_

#include <cstdint>
#include <ostream>
#include <string>

#include "common/result.h"
#include "global/common.h"
#include "net/ssi_server.h"
#include "obs/obs.h"

namespace pds::bench {

struct FleetRecord {
  std::string section;
  size_t fleet_size = 0;
  double quorum = 1.0;
  size_t dropped_tokens = 0;
  bool ok = false;
  size_t groups = 0;
  size_t responders = 0;
  uint64_t missing_tokens = 0;
  uint64_t rounds = 0;
  uint64_t retries = 0;
  uint64_t deadline_hits = 0;
  uint64_t bytes = 0;
  uint64_t bytes_token_to_ssi = 0;
  uint64_t bytes_ssi_to_token = 0;
  uint64_t frames = 0;
  uint64_t tuples = 0;
  double wall_ms = 0;
  double tuples_per_sec = 0;
  // Round-trip latency percentiles (µs) over every answered attempt in the
  // run, from the SSI's log-bucketed histogram.
  double rtt_p50_us = 0;
  double rtt_p90_us = 0;
  double rtt_p99_us = 0;
  double rtt_p999_us = 0;
  // Samples behind the percentiles: small fleets answer few round trips,
  // and tails from a handful of samples collapse onto each other. The
  // validator only demands distinct tails above a sample-count threshold.
  uint64_t rtt_samples = 0;

  /// Fills the outcome of a finished run: responders, missing tokens,
  /// retries and deadline hits from the SSI's last_report(), percentiles
  /// from its rtt_histogram(), groups/rounds/bytes from `out`, and the
  /// throughput of `tuples` over `wall_ms`. Returns false when the
  /// directional wire bytes do not sum to the total.
  [[nodiscard]] bool Distill(const net::SsiServer& server,
                             const Result<global::AggOutput>& out,
                             uint64_t run_tuples, double run_wall_ms) {
    const net::SsiServer::RoundReport& report = server.last_report();
    responders = report.responders;
    missing_tokens = report.missing_tokens;
    retries = report.retries;
    deadline_hits = report.deadline_hits;
    const obs::Histogram& rtt = server.rtt_histogram();
    rtt_p50_us = rtt.Percentile(50);
    rtt_p90_us = rtt.Percentile(90);
    rtt_p99_us = rtt.Percentile(99);
    rtt_p999_us = rtt.Percentile(99.9);
    rtt_samples = rtt.count();
    ok = out.ok();
    tuples = run_tuples;
    wall_ms = run_wall_ms;
    if (!ok) {
      return true;
    }
    groups = out->groups.size();
    rounds = out->metrics.rounds;
    bytes = out->metrics.bytes;
    bytes_token_to_ssi = out->metrics.bytes_token_to_ssi;
    bytes_ssi_to_token = out->metrics.bytes_ssi_to_token;
    if (wall_ms > 0) {
      tuples_per_sec = static_cast<double>(tuples) / (wall_ms / 1000.0);
    }
    return bytes == bytes_token_to_ssi + bytes_ssi_to_token;
  }

  /// Writes the shared fields as comma-separated `"key": value` pairs with
  /// no braces; the driver appends its own fields and closes the object.
  void WriteFields(std::ostream& out) const {
    out << "\"section\": \"" << section << "\""
        << ", \"fleet_size\": " << fleet_size
        << ", \"quorum\": " << quorum
        << ", \"dropped_tokens\": " << dropped_tokens
        << ", \"ok\": " << (ok ? "true" : "false")
        << ", \"groups\": " << groups
        << ", \"responders\": " << responders
        << ", \"missing_tokens\": " << missing_tokens
        << ", \"rounds\": " << rounds
        << ", \"retries\": " << retries
        << ", \"deadline_hits\": " << deadline_hits
        << ", \"bytes\": " << bytes
        << ", \"bytes_token_to_ssi\": " << bytes_token_to_ssi
        << ", \"bytes_ssi_to_token\": " << bytes_ssi_to_token
        << ", \"frames\": " << frames
        << ", \"tuples\": " << tuples
        << ", \"wall_ms\": " << wall_ms
        << ", \"tuples_per_sec\": " << tuples_per_sec
        << ", \"rtt_p50_us\": " << rtt_p50_us
        << ", \"rtt_p90_us\": " << rtt_p90_us
        << ", \"rtt_p99_us\": " << rtt_p99_us
        << ", \"rtt_p999_us\": " << rtt_p999_us
        << ", \"rtt_samples\": " << rtt_samples;
  }
};

}  // namespace pds::bench

#endif  // PDS_BENCH_FLEET_RECORD_H_
