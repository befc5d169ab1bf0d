// The simulation tier's anchor property: for any scenario expressible on
// the loopback wire, a SimTransport run must be byte-identical to an
// InProcessTransport run — same frames in the same order on every session
// (observed through a FrameTap on the server side of each link), same
// aggregate groups and wire metrics, same RoundReport, and the same
// realized fault injections (InjectionLog), across seeds × fleet sizes ×
// fault plans. The wall run hosts each token in a threaded TokenClient, the
// simulated run as a bare TokenSession on a SimNet::ConnectSession link. A
// cell where both runs fail identically anchors too: the simulator must
// reproduce failures, not just successes.
//
// Faults come from the existing seed-deterministic FaultInjectingTransport
// wrapped over either transport — same seed over the same frame sequence
// realizes the same injections, which is exactly what the property checks.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "crypto/cipher.h"
#include "global/agg_protocols.h"
#include "global/common.h"
#include "mcu/secure_token.h"
#include "net/fault_injection.h"
#include "net/ssi_server.h"
#include "net/token_client.h"
#include "net/transport.h"
#include "sim/link_model.h"
#include "sim/sim_clock.h"
#include "sim/sim_transport.h"

namespace pds::sim {
namespace {

using global::AggFunc;
using global::SourceTuple;
using mcu::SecureToken;
using net::FaultInjectingTransport;
using net::FaultPlan;
using net::FrameTap;
using net::InjectionLog;
using net::InProcessTransport;
using net::SsiServer;
using net::TokenClient;
using net::Transport;

struct AnchorCell {
  std::string name;
  size_t fleet_size = 2;
  uint64_t seed = 1;
  /// Faults wrap session 0's server side — the same placement the
  /// adversarial scenario harness uses.
  FaultPlan faults;
};

struct Fleet {
  std::vector<std::unique_ptr<SecureToken>> tokens;
  std::vector<std::vector<SourceTuple>> tuples;
  std::unique_ptr<SecureToken> verifier;
};

Fleet MakeFleet(uint64_t seed, size_t n) {
  Fleet fleet;
  crypto::SymmetricKey key = crypto::KeyFromString("sim-anchor");
  Rng rng(seed);
  fleet.tokens.reserve(n);
  fleet.tuples.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    SecureToken::Config cfg;
    cfg.token_id = 100 + i;
    cfg.fleet_key = key;
    cfg.rng_seed = 100 + i;
    fleet.tokens.push_back(std::make_unique<SecureToken>(cfg));
    std::vector<SourceTuple> tuples;
    tuples.reserve(4);
    for (int t = 0; t < 4; ++t) {
      SourceTuple st;
      st.group = "city-" + std::to_string(rng.Uniform(3));
      st.value = static_cast<double>(rng.Uniform(100));
      tuples.push_back(std::move(st));
    }
    fleet.tuples.push_back(std::move(tuples));
  }
  SecureToken::Config vcfg;
  vcfg.token_id = 9000;
  vcfg.fleet_key = key;
  vcfg.rng_seed = 9000;
  fleet.verifier = std::make_unique<SecureToken>(vcfg);
  return fleet;
}

/// Everything one wire run produced that the anchor compares.
struct WireRun {
  bool ok = false;
  std::string error;
  std::map<std::string, double> groups;
  uint64_t rounds = 0;
  uint64_t bytes = 0;
  uint64_t bytes_token_to_ssi = 0;
  uint64_t bytes_ssi_to_token = 0;
  SsiServer::RoundReport report;
  /// Per session: the wire frames the server side actually saw, in order.
  std::vector<std::vector<FrameTap::Entry>> taps;
  std::vector<std::string> link_logs;  // per session, "" when unfaulted
};

SsiServer::Config ServerConfig(const Fleet& fleet, Clock* clock) {
  SsiServer::Config cfg;
  cfg.partition_capacity = 8;  // forces aggregate/finalize rounds
  cfg.deadline_ms = clock == nullptr ? ScaledMs(100) : 100;
  cfg.max_retries = 2;
  cfg.backoff_ms = 1;
  cfg.quorum = 1.0;
  cfg.executor = nullptr;  // serial: frame order must be deterministic
  cfg.verifier = fleet.verifier.get();
  cfg.clock = clock;
  return cfg;
}

/// Wraps a server-side endpoint so the tap sees the actual wire bytes:
/// the server talks through the fault wrapper, which mutates frames
/// before handing them to the tap.
struct ServerSide {
  std::unique_ptr<Transport> transport;
  FrameTap* tap = nullptr;
};

ServerSide WrapServerSide(std::unique_ptr<Transport> base,
                          const FaultPlan& faults, InjectionLog* log,
                          Clock* clock, bool faulted) {
  ServerSide side;
  auto tap = std::make_unique<FrameTap>(std::move(base));
  side.tap = tap.get();
  if (faulted) {
    FaultPlan link = faults;
    link.skip_first = 2;  // let the attestation handshake through
    side.transport = std::make_unique<FaultInjectingTransport>(
        std::move(tap), link, log, clock);
  } else {
    side.transport = std::move(tap);
  }
  return side;
}

TokenClient::Config ClientConfig(const Fleet& fleet, size_t i) {
  TokenClient::Config ccfg;
  ccfg.token = fleet.tokens[i].get();
  ccfg.tuples = fleet.tuples[i];
  ccfg.deadline_ms = ScaledMs(2000);
  ccfg.poll_ms = 5;
  return ccfg;
}

void Distill(Result<global::AggOutput>* out, SsiServer* server,
             WireRun* run) {
  run->ok = out->ok();
  if (out->ok()) {
    run->groups = (*out)->groups;
    run->rounds = (*out)->metrics.rounds;
    run->bytes = (*out)->metrics.bytes;
    run->bytes_token_to_ssi = (*out)->metrics.bytes_token_to_ssi;
    run->bytes_ssi_to_token = (*out)->metrics.bytes_ssi_to_token;
  } else {
    run->error = out->status().ToString();
  }
  run->report = server->last_report();
}

/// The reference run: real threads, blocking clients, InProcess queues.
WireRun RunWall(const AnchorCell& cell) {
  WireRun run;
  Fleet fleet = MakeFleet(cell.seed, cell.fleet_size);
  SsiServer server(ServerConfig(fleet, nullptr));

  std::vector<std::unique_ptr<TokenClient>> clients;
  std::vector<FrameTap*> taps;
  std::vector<std::unique_ptr<InjectionLog>> logs;
  clients.reserve(cell.fleet_size);
  taps.reserve(cell.fleet_size);
  logs.reserve(cell.fleet_size);
  for (size_t i = 0; i < cell.fleet_size; ++i) {
    auto [client_side, server_base] = InProcessTransport::CreatePair();
    logs.push_back(std::make_unique<InjectionLog>());
    ServerSide side = WrapServerSide(
        std::move(server_base), cell.faults, logs.back().get(),
        /*clock=*/nullptr, i == 0 && cell.faults.has_faults());
    taps.push_back(side.tap);
    clients.push_back(std::make_unique<TokenClient>(std::move(client_side),
                                                    ClientConfig(fleet, i)));
    clients.back()->Start();
    auto accepted = server.AcceptSession(std::move(side.transport));
    EXPECT_TRUE(accepted.ok()) << accepted.status().ToString();
  }

  auto out = server.RunSecureAggregation(AggFunc::kSum);
  Distill(&out, &server, &run);
  server.Shutdown();
  run.taps.reserve(cell.fleet_size);
  run.link_logs.reserve(cell.fleet_size);
  for (size_t i = 0; i < cell.fleet_size; ++i) {
    clients[i]->Stop();
    (void)clients[i]->Join();
    run.taps.push_back(taps[i]->entries());
    run.link_logs.push_back(logs[i]->ToString());
  }
  return run;
}

/// The simulated run: one thread, virtual time, and each token a bare
/// TokenSession answering on its link.
WireRun RunSim(const AnchorCell& cell) {
  WireRun run;
  Fleet fleet = MakeFleet(cell.seed, cell.fleet_size);
  SimClock clock;
  SimNet net(&clock, LinkModel{}, cell.seed ^ 0x6c696e6bull);
  SsiServer server(ServerConfig(fleet, &clock));

  std::vector<net::TokenSession> sessions;
  std::vector<FrameTap*> taps;
  std::vector<std::unique_ptr<InjectionLog>> logs;
  sessions.reserve(cell.fleet_size);  // links point at the sessions
  taps.reserve(cell.fleet_size);
  logs.reserve(cell.fleet_size);
  for (size_t i = 0; i < cell.fleet_size; ++i) {
    sessions.emplace_back(fleet.tokens[i].get(), &fleet.tuples[i],
                          /*packed=*/nullptr);
    logs.push_back(std::make_unique<InjectionLog>());
    ServerSide side = WrapServerSide(
        net.ConnectSession(&sessions.back()), cell.faults, logs.back().get(),
        &clock, i == 0 && cell.faults.has_faults());
    taps.push_back(side.tap);
    auto accepted = server.AcceptSession(std::move(side.transport));
    EXPECT_TRUE(accepted.ok()) << accepted.status().ToString();
  }

  auto out = server.RunSecureAggregation(AggFunc::kSum);
  Distill(&out, &server, &run);
  server.Shutdown();
  run.taps.reserve(cell.fleet_size);
  run.link_logs.reserve(cell.fleet_size);
  for (size_t i = 0; i < cell.fleet_size; ++i) {
    run.taps.push_back(taps[i]->entries());
    run.link_logs.push_back(logs[i]->ToString());
  }
  return run;
}

void ExpectIdentical(const WireRun& wall, const WireRun& sim,
                     const std::string& cell) {
  EXPECT_EQ(wall.ok, sim.ok) << cell << ": outcome diverged (wall: "
                             << wall.error << " sim: " << sim.error << ")";
  if (!wall.ok && !sim.ok) {
    EXPECT_EQ(wall.error, sim.error) << cell;
  }
  EXPECT_EQ(wall.groups, sim.groups) << cell;
  EXPECT_EQ(wall.rounds, sim.rounds) << cell;
  EXPECT_EQ(wall.bytes, sim.bytes) << cell;
  EXPECT_EQ(wall.bytes_token_to_ssi, sim.bytes_token_to_ssi) << cell;
  EXPECT_EQ(wall.bytes_ssi_to_token, sim.bytes_ssi_to_token) << cell;
  EXPECT_EQ(wall.report.responders, sim.report.responders) << cell;
  EXPECT_EQ(wall.report.retries, sim.report.retries) << cell;
  EXPECT_EQ(wall.report.deadline_hits, sim.report.deadline_hits) << cell;
  EXPECT_EQ(wall.report.missing_tokens, sim.report.missing_tokens) << cell;
  EXPECT_EQ(wall.report.frame_rejects, sim.report.frame_rejects) << cell;
  ASSERT_EQ(wall.taps.size(), sim.taps.size()) << cell;
  for (size_t i = 0; i < wall.taps.size(); ++i) {
    const auto& w = wall.taps[i];
    const auto& s = sim.taps[i];
    ASSERT_EQ(w.size(), s.size())
        << cell << ": session " << i << " frame count diverged";
    for (size_t f = 0; f < w.size(); ++f) {
      EXPECT_EQ(w[f].outbound, s[f].outbound)
          << cell << ": session " << i << " frame " << f;
      EXPECT_EQ(w[f].frame, s[f].frame)
          << cell << ": session " << i << " frame " << f
          << " bytes diverged";
    }
  }
  EXPECT_EQ(wall.link_logs, sim.link_logs) << cell;
}

std::vector<AnchorCell> FaultMatrix() {
  std::vector<AnchorCell> plans;
  plans.reserve(8);
  AnchorCell benign;
  benign.name = "benign";
  plans.push_back(benign);

  AnchorCell drop;
  drop.name = "drop";
  drop.faults.drop_rate = 0.3;
  drop.faults.max_injections = 2;
  plans.push_back(drop);

  AnchorCell bitflip;
  bitflip.name = "bitflip";
  bitflip.faults.bitflip_rate = 0.4;
  bitflip.faults.max_injections = 3;
  plans.push_back(bitflip);

  AnchorCell truncate;
  truncate.name = "truncate";
  truncate.faults.truncate_rate = 0.4;
  truncate.faults.max_injections = 2;
  plans.push_back(truncate);

  AnchorCell dup;
  dup.name = "dup-reorder";
  dup.faults.duplicate_rate = 0.3;
  dup.faults.reorder_rate = 0.3;
  dup.faults.max_injections = 4;
  plans.push_back(dup);

  AnchorCell delay;
  delay.name = "delay";
  delay.faults.delay_rate = 0.5;
  delay.faults.max_injections = 2;
  plans.push_back(delay);

  // The first two round requests are lost on the link: the token never
  // sees them, and the SSI's retries are answered.
  AnchorCell swallow;
  swallow.name = "swallow";
  swallow.faults.drop_rate = 1.0;
  swallow.faults.max_injections = 2;
  plans.push_back(swallow);
  return plans;
}

TEST(SimAnchorTest, ByteIdenticalAcrossSeedsSizesAndFaultPlans) {
  for (const AnchorCell& plan : FaultMatrix()) {
    for (size_t fleet_size : {size_t{2}, size_t{3}}) {
      for (uint64_t seed : {uint64_t{1}, uint64_t{2}}) {
        AnchorCell cell = plan;
        cell.fleet_size = fleet_size;
        cell.seed = seed;
        cell.faults.seed = seed * 31 + 7;
        const std::string label = cell.name + "/n=" +
                                  std::to_string(fleet_size) +
                                  "/seed=" + std::to_string(seed);
        WireRun wall = RunWall(cell);
        WireRun sim = RunSim(cell);
        ExpectIdentical(wall, sim, label);
      }
    }
  }
}

TEST(SimAnchorTest, IdenticalSeedsReproduceIdenticalSimRuns) {
  AnchorCell cell;
  cell.name = "repro";
  cell.fleet_size = 4;
  cell.seed = 9;
  cell.faults.seed = 40;
  cell.faults.drop_rate = 0.2;
  cell.faults.max_injections = 3;
  WireRun a = RunSim(cell);
  WireRun b = RunSim(cell);
  ExpectIdentical(a, b, "sim-vs-sim");

  cell.seed = 10;  // a different seed must actually change something
  WireRun c = RunSim(cell);
  bool same_tuples = true;
  for (size_t i = 0; same_tuples && i < a.taps.size(); ++i) {
    same_tuples = a.taps[i].size() == c.taps[i].size();
    for (size_t f = 0; same_tuples && f < a.taps[i].size(); ++f) {
      same_tuples = a.taps[i][f].frame == c.taps[i][f].frame;
    }
  }
  EXPECT_FALSE(same_tuples) << "changing the seed changed nothing";
}

}  // namespace
}  // namespace pds::sim
