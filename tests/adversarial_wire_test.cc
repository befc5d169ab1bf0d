// Adversarial-wire hardening, end to end: the scenario harness runs every
// [TNP14] protocol plus the packed round under seed-driven link faults, a
// malicious SSI, hostile session frames and token churn, over both the
// in-process queue pair and real Unix-domain sockets. Benign cells must be
// byte-identical to the in-process protocols; every tampering action must
// be caught by an IntegrityVerdict or the wire layer's own forensics; the
// same seed must realize the same injection log.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "crypto/paillier.h"
#include "net/scenario.h"
#include "net/ssi_server.h"
#include "net/token_client.h"
#include "pds/pds_node.h"

namespace pds::net {
namespace {

using global::AggFunc;
using global::Participant;
using global::SourceTuple;

// ---------------------------------------------------------------------------
// Shared fleet + packed context for scenario cells

struct ScenarioFleet {
  std::vector<std::unique_ptr<mcu::SecureToken>> tokens;
  std::vector<Participant> participants;
  std::unique_ptr<mcu::SecureToken> verifier;
  std::vector<std::string> domain;
  std::unique_ptr<crypto::PackedAggregate> packed;
};

ScenarioFleet MakeScenarioFleet(size_t n) {
  ScenarioFleet f;
  crypto::SymmetricKey fleet_key = crypto::KeyFromString("adversarial-test");
  for (uint64_t i = 0; i < n; ++i) {
    mcu::SecureToken::Config cfg;
    cfg.token_id = i;
    cfg.fleet_key = fleet_key;
    cfg.rng_seed = 100 + i;
    f.tokens.push_back(std::make_unique<mcu::SecureToken>(cfg));
  }
  Rng rng(55);
  for (uint64_t i = 0; i < n; ++i) {
    Participant p;
    p.token = f.tokens[i].get();
    int tuples = 3 + static_cast<int>(rng.Uniform(4));
    for (int t = 0; t < tuples; ++t) {
      SourceTuple st;
      st.group = "city-" + std::to_string(rng.Uniform(5));
      st.value = static_cast<double>(rng.Uniform(100));
      p.tuples.push_back(std::move(st));
    }
    f.participants.push_back(std::move(p));
  }
  mcu::SecureToken::Config vcfg;
  vcfg.token_id = 9000;
  vcfg.fleet_key = fleet_key;
  f.verifier = std::make_unique<mcu::SecureToken>(vcfg);

  for (int i = 0; i < 5; ++i) {
    f.domain.push_back("city-" + std::to_string(i));
  }
  Rng key_rng(42);
  auto paillier = crypto::Paillier::Generate(256, &key_rng);
  EXPECT_TRUE(paillier.ok());
  auto packed = crypto::PackedAggregate::Create(
      *paillier, n, /*max_value=*/4096, 2 * f.domain.size());
  EXPECT_TRUE(packed.ok());
  f.packed =
      std::make_unique<crypto::PackedAggregate>(std::move(packed).value());
  return f;
}

void FillSpec(ScenarioSpec* spec, ScenarioFleet* fleet) {
  spec->participants = fleet->participants;
  spec->verifier = fleet->verifier.get();
  spec->domain = fleet->domain;
  spec->packed = fleet->packed.get();
}

/// Runs the whole default matrix and asserts the hardening guarantees cell
/// by cell: benign => byte-identical, expects_detection => detected. The
/// injection log (reproducible from the seed) is printed on any failure.
void RunMatrix(uint64_t seed, bool use_socket) {
  ScenarioFleet fleet = MakeScenarioFleet(4);
  size_t benign_cells = 0;
  size_t detection_cells = 0;
  for (ScenarioSpec& spec : DefaultMatrix(seed, use_socket)) {
    FillSpec(&spec, &fleet);
    auto cell = RunScenarioCell(spec);
    ASSERT_TRUE(cell.ok()) << spec.name << ": " << cell.status().ToString();
    const ScenarioResult& r = cell.value();
    SCOPED_TRACE(r.name + " (seed " + std::to_string(seed) +
                 ")\ninjection log:\n" + r.injection_log);
    if (r.benign) {
      ++benign_cells;
      EXPECT_TRUE(r.ran_ok) << r.error;
      EXPECT_TRUE(r.byte_identical)
          << "benign cell diverged from the in-process protocol";
      EXPECT_EQ(r.injections, 0u);
      EXPECT_EQ(r.frame_rejects, 0u);
    }
    if (r.expects_detection) {
      ++detection_cells;
      EXPECT_TRUE(r.detected) << "undetected adversary: " << r.detection
                              << " error: " << r.error;
    }
    // The wire never shows the SSI a plaintext group except the histogram
    // protocol's bucketed payloads, which [TNP14] accepts by design.
    if (r.ran_ok && spec.protocol != WireProtocol::kHistogram &&
        !spec.sealed_round) {
      EXPECT_FALSE(r.leakage.plaintext_groups_visible) << r.name;
    }
  }
  // 5 protocols benign + sealed/benign; every adversary/damage/churn cell
  // expects detection. Guards against the matrix silently shrinking.
  EXPECT_EQ(benign_cells, 6u);
  EXPECT_GE(detection_cells, 15u);
}

TEST(AdversarialMatrixTest, InProcessMatrixHoldsGuarantees) {
  RunMatrix(/*seed=*/21, /*use_socket=*/false);
}

TEST(AdversarialMatrixTest, SocketMatrixHoldsGuarantees) {
  RunMatrix(/*seed=*/22, /*use_socket=*/true);
}

TEST(AdversarialMatrixTest, SameSeedRealizesSameInjectionLog) {
  // Determinism is the whole reproduction story: a failing cell's seed must
  // replay the exact same fault sequence.
  ScenarioFleet fleet = MakeScenarioFleet(4);
  auto run_bitflip_cell = [&](uint64_t seed) -> std::string {
    ScenarioSpec spec;
    spec.name = "secure-agg/bitflip";
    spec.protocol = WireProtocol::kSecureAgg;
    spec.faults.seed = seed;
    spec.faults.bitflip_rate = 1.0;
    spec.faults.max_injections = 2;
    spec.faults.skip_first = 2;
    spec.quorum = 0.6;
    FillSpec(&spec, &fleet);
    auto cell = RunScenarioCell(spec);
    EXPECT_TRUE(cell.ok()) << cell.status().ToString();
    EXPECT_TRUE(cell->ran_ok) << cell->error;
    EXPECT_GE(cell->injections, 1u);
    return cell->injection_log;
  };
  std::string first = run_bitflip_cell(77);
  std::string second = run_bitflip_cell(77);
  EXPECT_EQ(first, second);
  // A different seed draws different bit/byte positions, so the realized
  // log differs — the log plus seed pin down the exact fault sequence.
  EXPECT_NE(first, run_bitflip_cell(78));
}

TEST(AdversarialMatrixTest, RecoverableFaultsDoNotWidenLeakage) {
  // Wire-leakage bound: a lossy/duplicating link may cost retries but must
  // not change what the SSI observes — same tuple count, same class count,
  // never a plaintext group.
  ScenarioFleet fleet = MakeScenarioFleet(4);
  auto run_cell = [&](double FaultPlan::* rate) -> ScenarioResult {
    ScenarioSpec spec;
    spec.name = "leakage-cell";
    spec.protocol = WireProtocol::kSecureAgg;
    spec.faults.seed = 31;
    if (rate != nullptr) {
      spec.faults.*rate = 1.0;
      spec.faults.skip_first = 2;
      spec.faults.max_injections = 2;
    }
    FillSpec(&spec, &fleet);
    auto cell = RunScenarioCell(spec);
    EXPECT_TRUE(cell.ok()) << cell.status().ToString();
    EXPECT_TRUE(cell->ran_ok) << cell->error;
    return std::move(cell).value();
  };
  ScenarioResult benign = run_cell(nullptr);
  for (double FaultPlan::* rate :
       {&FaultPlan::drop_rate, &FaultPlan::duplicate_rate,
        &FaultPlan::reorder_rate}) {
    ScenarioResult faulty = run_cell(rate);
    EXPECT_EQ(faulty.leakage.tuples_observed, benign.leakage.tuples_observed);
    EXPECT_EQ(faulty.leakage.distinct_classes,
              benign.leakage.distinct_classes);
    EXPECT_FALSE(faulty.leakage.plaintext_groups_visible);
    EXPECT_TRUE(faulty.byte_identical);
  }
}

// ---------------------------------------------------------------------------
// Handshake re-verification on reconnect

TEST(HandshakeReverificationTest, StaleProofIsRejected) {
  // A returning token must answer the *fresh* challenge; replaying the
  // proof it computed for an earlier session's nonce is refused.
  crypto::SymmetricKey fleet_key = crypto::KeyFromString("adversarial-test");
  mcu::SecureToken::Config tcfg;
  tcfg.token_id = 1;
  tcfg.fleet_key = fleet_key;
  mcu::SecureToken token(tcfg);
  mcu::SecureToken::Config vcfg;
  vcfg.token_id = 9000;
  vcfg.fleet_key = fleet_key;
  mcu::SecureToken verifier(vcfg);

  SsiServer::Config scfg;
  scfg.verifier = &verifier;
  scfg.deadline_ms = ScaledMs(2000);
  SsiServer server(scfg);

  // Session 1: honest handshake, and keep the proof around.
  auto [server1, client1] = InProcessTransport::CreatePair();
  crypto::Sha256::Digest stale_proof{};
  std::thread honest([&] {
    auto frame = client1->Recv(ScaledMs(2000));
    ASSERT_TRUE(frame.ok());
    auto challenge = DecodeAs<ChallengeMsg>(ByteView(*frame));
    ASSERT_TRUE(challenge.ok());
    auto proof = token.Attest(ByteView(challenge->nonce));
    ASSERT_TRUE(proof.ok());
    stale_proof = *proof;
    HelloMsg hello;
    hello.token_id = 1;
    hello.proof = *proof;
    ASSERT_TRUE(client1->Send(EncodeMessage({hello})).ok());
    auto ack = client1->Recv(ScaledMs(2000));
    ASSERT_TRUE(ack.ok());
  });
  auto idx = server.AcceptSession(std::move(server1));
  honest.join();
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();

  // Session 2: the challenge nonce is new, so the recorded proof is stale.
  auto [server2, client2] = InProcessTransport::CreatePair();
  std::thread replayer([&] {
    auto frame = client2->Recv(ScaledMs(2000));
    ASSERT_TRUE(frame.ok());
    HelloMsg hello;
    hello.token_id = 1;
    hello.proof = stale_proof;  // replayed, not recomputed
    ASSERT_TRUE(client2->Send(EncodeMessage({hello})).ok());
    auto ack = client2->Recv(ScaledMs(2000));
    ASSERT_TRUE(ack.ok());
    auto decoded = DecodeAs<HelloAckMsg>(ByteView(*ack));
    ASSERT_TRUE(decoded.ok());
    EXPECT_FALSE(decoded->accepted);
  });
  auto refused = server.AcceptSession(std::move(server2));
  replayer.join();
  EXPECT_EQ(refused.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(server.num_sessions(), 1u);
}

TEST(HandshakeReverificationTest, ReadmitRefusedWhileRunActive) {
  // Mid-run readmission would hand a half-finished round to a rejoining
  // token; the server refuses and the abandoned round degrades to quorum.
  crypto::SymmetricKey fleet_key = crypto::KeyFromString("adversarial-test");
  std::vector<std::unique_ptr<mcu::SecureToken>> tokens;
  std::vector<std::unique_ptr<TokenClient>> clients;
  for (uint64_t i = 0; i < 3; ++i) {
    mcu::SecureToken::Config cfg;
    cfg.token_id = i;
    cfg.fleet_key = fleet_key;
    cfg.rng_seed = 100 + i;
    tokens.push_back(std::make_unique<mcu::SecureToken>(cfg));
  }
  mcu::SecureToken::Config vcfg;
  vcfg.token_id = 9000;
  vcfg.fleet_key = fleet_key;
  mcu::SecureToken verifier(vcfg);

  SsiServer::Config scfg;
  scfg.verifier = &verifier;
  scfg.deadline_ms = ScaledMs(300);
  scfg.max_retries = 0;
  scfg.quorum = 0.6;
  SsiServer server(scfg);
  for (uint64_t i = 0; i < 3; ++i) {
    auto [server_end, client_end] = InProcessTransport::CreatePair();
    TokenClient::Config ccfg;
    ccfg.token = tokens[i].get();
    ccfg.tuples = {{"city-1", 10.0 + static_cast<double>(i)}};
    if (i == 0) {
      // Token 0 swallows everything: the run stays in flight until its
      // deadline, giving the main thread a window to attempt a readmit.
      ccfg.faults.seed = 5;
      ccfg.faults.swallow_first = 100;
    }
    auto client =
        std::make_unique<TokenClient>(std::move(client_end), std::move(ccfg));
    client->Start();
    ASSERT_TRUE(server.AcceptSession(std::move(server_end)).ok());
    clients.push_back(std::move(client));
  }

  Result<global::AggOutput> output = Status::Internal("unset");
  std::thread run([&] { output = server.RunSecureAggregation(AggFunc::kSum); });
  std::this_thread::sleep_for(std::chrono::milliseconds(ScaledMs(30)));
  auto [readmit_server, readmit_client] = InProcessTransport::CreatePair();
  auto refused = server.ReadmitSession(std::move(readmit_server));
  run.join();
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition)
      << (refused.ok() ? "readmit unexpectedly succeeded"
                       : refused.status().ToString());
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_EQ(server.last_report().responders, 2u);

  // Once the run is over, the same transport kind readmits cleanly via a
  // fresh challenge, and the next run covers the full fleet again.
  server.Shutdown();
  for (auto& c : clients) {
    c->Stop();
    (void)c->Join();
  }
}

// ---------------------------------------------------------------------------
// Policy-checked export across PDS nodes under a tampered manifest

node::PdsNode::Config SmallNodeConfig(uint64_t id,
                                      const crypto::SymmetricKey& key) {
  node::PdsNode::Config cfg;
  cfg.node_id = id;
  cfg.fleet_key = key;
  cfg.flash_geometry.page_size = 512;
  cfg.flash_geometry.pages_per_block = 8;
  cfg.flash_geometry.block_count = 256;
  cfg.rng_seed = id;
  return cfg;
}

TEST(TamperedManifestTest, CrossPdsExportRefused) {
  // The authorization manifest is the token-resident rule set: the share
  // rule names exactly the columns the owner agreed to export. A tampered
  // manifest (the value column's grant stripped) must cause the node to
  // refuse the export before a single tuple reaches the wire, land a
  // denial in the audit trail, and keep the session out of the round.
  using embdb::ColumnType;
  using embdb::Schema;
  using embdb::Tuple;
  using embdb::Value;
  crypto::SymmetricKey fleet_key = crypto::KeyFromString("adversarial-test");

  auto make_node = [&](uint64_t id, bool tampered) {
    auto pds_node =
        std::make_unique<node::PdsNode>(SmallNodeConfig(id, fleet_key));
    Schema bills("bills", {{"id", ColumnType::kUint64, ""},
                           {"city", ColumnType::kString, ""},
                           {"amount", ColumnType::kDouble, ""}});
    EXPECT_TRUE(pds_node->DefineTable(bills).ok());
    pds_node->policies().AddRule(
        {"owner", ac::Action::kInsert, "bills", {}, std::nullopt});
    if (tampered) {
      // The share grant lost the value column: exporting (city, amount)
      // is no longer covered and must be denied outright.
      pds_node->policies().AddRule({"stats-agency", ac::Action::kShare,
                                    "bills", {"city"}, std::nullopt});
    } else {
      pds_node->policies().AddRule({"stats-agency", ac::Action::kShare,
                                    "bills", {"city", "amount"},
                                    std::nullopt});
    }
    ac::Subject owner{"owner", "user-" + std::to_string(id)};
    Tuple t = {Value::U64(1), Value::Str("lyon"),
               Value::F64(100.0 * static_cast<double>(id))};
    EXPECT_TRUE(pds_node->InsertAs(owner, "bills", t).ok());
    return pds_node;
  };
  auto honest = make_node(1, /*tampered=*/false);
  auto compromised = make_node(2, /*tampered=*/true);

  mcu::SecureToken::Config vcfg;
  vcfg.token_id = 9000;
  vcfg.fleet_key = fleet_key;
  mcu::SecureToken verifier(vcfg);
  SsiServer::Config scfg;
  scfg.verifier = &verifier;
  scfg.deadline_ms = ScaledMs(150);
  scfg.quorum = 0.5;
  SsiServer server(scfg);

  std::vector<std::unique_ptr<TokenClient>> clients;
  size_t admitted = 0;
  for (node::PdsNode* pds_node : {honest.get(), compromised.get()}) {
    auto [server_end, client_end] = InProcessTransport::CreatePair();
    TokenClient::Config ccfg;
    ccfg.pds_node = pds_node;
    ccfg.subject = {"stats-agency", "insee"};
    ccfg.table = "bills";
    ccfg.group_column = "city";
    ccfg.value_column = "amount";
    ccfg.deadline_ms = ScaledMs(2000);
    auto client =
        std::make_unique<TokenClient>(std::move(client_end), std::move(ccfg));
    client->Start();
    auto idx = server.AcceptSession(std::move(server_end));
    if (idx.ok()) {
      ++admitted;
    }
    clients.push_back(std::move(client));
  }
  // The compromised node never enters the handshake: its export was
  // refused inside the node, so the server's challenge goes unanswered.
  EXPECT_EQ(admitted, 1u);

  auto output = server.RunSecureAggregation(AggFunc::kSum);
  server.Shutdown();
  Status honest_loop = clients[0]->Join();
  clients[1]->Stop();
  Status compromised_loop = clients[1]->Join();

  ASSERT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_EQ(output->groups.size(), 1u);
  EXPECT_EQ(output->groups["lyon"], 100.0);  // the honest node's row only
  EXPECT_TRUE(honest_loop.ok()) << honest_loop.ToString();
  EXPECT_EQ(compromised_loop.code(), StatusCode::kPermissionDenied)
      << compromised_loop.ToString();

  // The refusal is accountable: the tampered node audited a denial.
  auto audit = compromised->ReadAuditLog();
  ASSERT_TRUE(audit.ok());
  bool denial_logged = false;
  for (const std::string& entry : *audit) {
    if (entry.find("share") != std::string::npos &&
        entry.find("DENY") != std::string::npos) {
      denial_logged = true;
    }
  }
  EXPECT_TRUE(denial_logged);
}

}  // namespace
}  // namespace pds::net
