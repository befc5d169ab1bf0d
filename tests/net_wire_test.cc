// pds::net end-to-end: transports (in-process, Unix socketpair, TCP
// loopback), the SsiServer/TokenClient handshake, and the secure
// aggregation protocol over the real wire — results bit-equal to the
// plaintext aggregate, in-process Execute reporting the same measured
// Metrics as threaded clients, and quorum / timeout / retry behaviour with
// dropped or flaky tokens.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "common/clock.h"
#include "common/rng.h"
#include "global/agg_protocols.h"
#include "net/direct_link.h"
#include "net/scenario.h"
#include "net/ssi_server.h"
#include "net/token_client.h"
#include "obs/obs.h"
#include "pds/pds_node.h"

namespace pds::net {
namespace {

using global::AggFunc;
using global::Participant;
using global::SourceTuple;

// ---------------------------------------------------------------------------
// Transports

TEST(NetTransportTest, InProcessPairDelivers) {
  auto [a, b] = InProcessTransport::CreatePair();
  Bytes frame = EncodeMessage({ByeMsg{}});
  ASSERT_TRUE(a->Send(frame).ok());
  auto got = b->Recv(1000);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ByteView(*got), ByteView(frame));
  EXPECT_EQ(a->bytes_sent(), frame.size());
  EXPECT_EQ(b->bytes_received(), frame.size());
  EXPECT_EQ(a->frames_sent(), 1u);
}

TEST(NetTransportTest, InProcessRecvTimesOut) {
  auto [a, b] = InProcessTransport::CreatePair();
  (void)a;
  auto got = b->Recv(20);
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(NetTransportTest, InProcessCloseUnblocksAndFailsSends) {
  auto [a, b] = InProcessTransport::CreatePair();
  a->Close();
  EXPECT_EQ(b->Recv(1000).status().code(), StatusCode::kIoError);
  EXPECT_EQ(b->Send(EncodeMessage({ByeMsg{}})).code(), StatusCode::kIoError);
}

TEST(NetTransportTest, InProcessQueueBackpressure) {
  auto [a, b] = InProcessTransport::CreatePair(/*max_queued=*/2);
  Bytes frame = EncodeMessage({ByeMsg{}});
  ASSERT_TRUE(a->Send(frame).ok());
  ASSERT_TRUE(a->Send(frame).ok());
  EXPECT_EQ(a->Send(frame).code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(b->Recv(100).ok());
  EXPECT_TRUE(a->Send(frame).ok());
}

TEST(NetTransportTest, UnixPairReassemblesFrames) {
  auto pair = SocketTransport::CreateUnixPair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  auto& [a, b] = *pair;
  // A large frame (crosses many 4 KiB reads) followed by a small one.
  TupleBatchMsg big;
  big.round_id = 1;
  big.batch.reserve(100);
  for (int i = 0; i < 100; ++i) {
    big.batch.push_back(Bytes(1000, static_cast<uint8_t>(i)));
  }
  Bytes big_frame = EncodeMessage({big});
  ASSERT_GT(big_frame.size(), 64u * 1024);
  Bytes small_frame = EncodeMessage({ByeMsg{}});
  ASSERT_TRUE(a->Send(big_frame).ok());
  ASSERT_TRUE(a->Send(small_frame).ok());

  auto got_big = b->Recv(2000);
  ASSERT_TRUE(got_big.ok()) << got_big.status().ToString();
  EXPECT_EQ(ByteView(*got_big), ByteView(big_frame));
  auto got_small = b->Recv(2000);
  ASSERT_TRUE(got_small.ok());
  EXPECT_EQ(ByteView(*got_small), ByteView(small_frame));
  EXPECT_EQ(b->bytes_received(), big_frame.size() + small_frame.size());
}

TEST(NetTransportTest, SocketRejectsGarbageHeader) {
  auto pair = SocketTransport::CreateUnixPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = *pair;
  Bytes garbage(16, 0x5A);
  ASSERT_TRUE(a->Send(garbage).ok());
  EXPECT_EQ(b->Recv(1000).status().code(), StatusCode::kCorruption);
}

TEST(NetTransportTest, TcpLoopbackConnectAndExchange) {
  TcpListener listener;
  ASSERT_TRUE(listener.Listen(0).ok());
  ASSERT_NE(listener.port(), 0);

  auto client = SocketTransport::ConnectTcp("127.0.0.1", listener.port(), 2000);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto server = listener.Accept(2000);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  Bytes frame = EncodeMessage({HelloAckMsg{true}});
  ASSERT_TRUE((*client)->Send(frame).ok());
  auto got = (*server)->Recv(2000);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ByteView(*got), ByteView(frame));
}

// ---------------------------------------------------------------------------
// Protocol over the wire

/// Deterministic token fleet + tuples, seeded exactly like AggProtocolTest.
/// Values are integers, so any summation order gives bit-equal results.
struct TestFleet {
  std::vector<std::unique_ptr<mcu::SecureToken>> tokens;
  std::vector<Participant> participants;
  std::unique_ptr<mcu::SecureToken> verifier;
};

TestFleet MakeTestFleet(size_t n, const char* key = "fleet-test") {
  TestFleet f;
  crypto::SymmetricKey fleet_key = crypto::KeyFromString(key);
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
    int tuples = 5 + static_cast<int>(rng.Uniform(10));
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
  return f;
}

/// Connects `fleet` to a server over in-process transports; returns the
/// running clients (caller joins them after Shutdown). Token 0's faults are
/// seed-driven: on failure, print `clients[0]->injection_log().ToString()`
/// and rerun with the same seed to reproduce the exact fault sequence.
std::vector<std::unique_ptr<TokenClient>> ConnectClients(
    SsiServer* server, TestFleet* fleet, FaultPlan faults_for_token0 = {}) {
  std::vector<std::unique_ptr<TokenClient>> clients;
  clients.reserve(fleet->participants.size());
  for (size_t i = 0; i < fleet->participants.size(); ++i) {
    auto [server_end, client_end] = InProcessTransport::CreatePair();
    TokenClient::Config cfg;
    cfg.token = fleet->tokens[i].get();
    cfg.tuples = fleet->participants[i].tuples;
    if (i == 0) {
      cfg.faults = faults_for_token0;
    }
    auto client =
        std::make_unique<TokenClient>(std::move(client_end), std::move(cfg));
    client->Start();
    auto idx = server->AcceptSession(std::move(server_end));
    EXPECT_TRUE(idx.ok()) << idx.status().ToString();
    clients.push_back(std::move(client));
  }
  return clients;
}

void JoinAll(SsiServer* server,
             std::vector<std::unique_ptr<TokenClient>>* clients) {
  server->Shutdown();
  for (auto& c : *clients) {
    c->Stop();
    EXPECT_TRUE(c->Join().ok());
  }
}

TEST(NetSecureAggTest, LoopbackMatchesInProcessByteIdentical) {
  // The wire run over threaded clients equals the in-process plaintext
  // oracle bit for bit, and the SSI's view stays one class per tuple.
  TestFleet wired = MakeTestFleet(6);
  auto expected = global::PlainAggregate(wired.participants, AggFunc::kSum);
  SsiServer::Config scfg;
  scfg.partition_capacity = 16;
  scfg.verifier = wired.verifier.get();
  SsiServer server(scfg);
  auto clients = ConnectClients(&server, &wired);
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  JoinAll(&server, &clients);
  ASSERT_TRUE(output.ok()) << output.status().ToString();

  EXPECT_EQ(output->groups, expected);  // doubles compared with ==
  EXPECT_EQ(output->leakage.distinct_classes,
            output->leakage.tuples_observed);
  EXPECT_GT(output->metrics.rounds, 2u);  // capacity 16 forces re-partitions
  EXPECT_EQ(output->metrics.tokens_missing, 0u);
  EXPECT_EQ(server.last_report().responders, 6u);
}

TEST(NetSecureAggTest, SocketLoopbackMatchesInProcess) {
  TestFleet wired = MakeTestFleet(4);
  auto expected = global::PlainAggregate(wired.participants, AggFunc::kSum);
  SsiServer::Config scfg;
  scfg.partition_capacity = 16;
  scfg.verifier = wired.verifier.get();
  SsiServer server(scfg);
  std::vector<std::unique_ptr<TokenClient>> clients;
  for (size_t i = 0; i < wired.participants.size(); ++i) {
    auto pair = SocketTransport::CreateUnixPair();
    ASSERT_TRUE(pair.ok());
    TokenClient::Config ccfg;
    ccfg.token = wired.tokens[i].get();
    ccfg.tuples = wired.participants[i].tuples;
    auto client = std::make_unique<TokenClient>(std::move(pair->second),
                                                std::move(ccfg));
    client->Start();
    auto idx = server.AcceptSession(std::move(pair->first));
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    clients.push_back(std::move(client));
  }
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  JoinAll(&server, &clients);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_EQ(output->groups, expected);  // doubles compared with ==
}

// ---------------------------------------------------------------------------
// Slot-packed Paillier round over the wire

/// The querier-side packed context, built exactly as
/// PackedPaillierProtocol::Execute builds it (256-bit key from seed 42,
/// slot cap 4096) so both runs share keypair and layout.
struct PackedContext {
  std::vector<std::string> domain;
  std::unique_ptr<crypto::PackedAggregate> agg;
};

PackedContext MakePackedContext(size_t fleet_size) {
  PackedContext ctx;
  for (int i = 0; i < 5; ++i) {
    ctx.domain.push_back("city-" + std::to_string(i));
  }
  Rng key_rng(42);
  auto paillier = crypto::Paillier::Generate(256, &key_rng);
  EXPECT_TRUE(paillier.ok());
  auto agg = crypto::PackedAggregate::Create(*paillier, fleet_size,
                                             /*max_value=*/4096,
                                             2 * ctx.domain.size());
  EXPECT_TRUE(agg.ok());
  ctx.agg = std::make_unique<crypto::PackedAggregate>(std::move(agg).value());
  return ctx;
}

/// The in-process run of `kind` over `fleet`, with the parameters the wire
/// run in InProcessExecuteReportsThreadedWireMetrics uses.
Result<global::AggOutput> ExecuteInProcess(WireProtocol kind,
                                           TestFleet* fleet) {
  std::vector<std::string> domain;
  for (int i = 0; i < 5; ++i) domain.push_back("city-" + std::to_string(i));
  switch (kind) {
    case WireProtocol::kSecureAgg:
      return global::SecureAggProtocol({16}).Execute(fleet->participants,
                                                     AggFunc::kSum);
    case WireProtocol::kWhiteNoise:
      return global::WhiteNoiseProtocol({0.5, 7})
          .Execute(fleet->participants, AggFunc::kSum);
    case WireProtocol::kDomainNoise: {
      global::DomainNoiseProtocol::Config cfg;
      cfg.domain = domain;
      cfg.fakes_per_value = 2;
      return global::DomainNoiseProtocol(cfg).Execute(fleet->participants,
                                                      AggFunc::kSum);
    }
    case WireProtocol::kHistogram:
      return global::HistogramProtocol({4}).Execute(fleet->participants,
                                                    AggFunc::kSum);
    case WireProtocol::kPacked: {
      global::PackedPaillierProtocol::Config cfg;
      cfg.domain = domain;
      cfg.max_slot_value = 4096;
      cfg.paillier_bits = 256;
      cfg.key_seed = 42;
      return global::PackedPaillierProtocol(cfg).Execute(fleet->participants,
                                                         AggFunc::kSum);
    }
  }
  return Status::InvalidArgument("unknown protocol");
}

TEST(NetSecureAggTest, InProcessExecuteReportsThreadedWireMetrics) {
  // global::*Protocol::Execute drives the SSI and token handlers over a
  // synchronous DirectTokenLink. On identically seeded fleets it must
  // report exactly what threaded TokenClients over InProcessTransport
  // report: every Metrics field (frame bytes with headers, both
  // directions), the groups, and the SSI's leakage view.
  for (WireProtocol kind :
       {WireProtocol::kSecureAgg, WireProtocol::kWhiteNoise,
        WireProtocol::kDomainNoise, WireProtocol::kHistogram,
        WireProtocol::kPacked}) {
    SCOPED_TRACE(WireProtocolName(kind));
    TestFleet inproc = MakeTestFleet(6);
    auto expected = ExecuteInProcess(kind, &inproc);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    TestFleet wired = MakeTestFleet(6);
    PackedContext packed = MakePackedContext(6);
    SsiServer::Config scfg;
    scfg.partition_capacity = 16;
    scfg.verifier = wired.verifier.get();
    SsiServer server(scfg);
    std::vector<std::unique_ptr<TokenClient>> clients;
    for (size_t i = 0; i < wired.participants.size(); ++i) {
      auto [server_end, client_end] = InProcessTransport::CreatePair();
      TokenClient::Config ccfg;
      ccfg.token = wired.tokens[i].get();
      ccfg.tuples = wired.participants[i].tuples;
      ccfg.packed = packed.agg.get();
      clients.push_back(
          std::make_unique<TokenClient>(std::move(client_end), ccfg));
      clients.back()->Start();
      ASSERT_TRUE(server.AcceptSession(std::move(server_end)).ok());
    }
    SsiServer::DetRunConfig det;
    det.noise_ratio = 0.5;
    det.noise_seed = 7;
    det.fakes_per_value = 2;
    det.domain = packed.domain;
    det.num_buckets = 4;
    Result<global::AggOutput> output = Status::Internal("unset");
    switch (kind) {
      case WireProtocol::kSecureAgg:
        output = server.RunSecureAggregation(AggFunc::kSum);
        break;
      case WireProtocol::kWhiteNoise:
        det.variant = DetVariant::kWhiteNoise;
        output = server.RunDetAggregation(AggFunc::kSum, det);
        break;
      case WireProtocol::kDomainNoise:
        det.variant = DetVariant::kDomainNoise;
        output = server.RunDetAggregation(AggFunc::kSum, det);
        break;
      case WireProtocol::kHistogram:
        det.variant = DetVariant::kHistogram;
        output = server.RunDetAggregation(AggFunc::kSum, det);
        break;
      case WireProtocol::kPacked:
        output = server.RunPackedAggregation(AggFunc::kSum, *packed.agg,
                                             packed.domain);
        break;
    }
    JoinAll(&server, &clients);
    ASSERT_TRUE(output.ok()) << output.status().ToString();

    const global::Metrics& want = output->metrics;
    const global::Metrics& got = expected->metrics;
    EXPECT_EQ(got.messages, want.messages);
    EXPECT_EQ(got.bytes, want.bytes);
    EXPECT_EQ(got.rounds, want.rounds);
    EXPECT_EQ(got.token_crypto_ops, want.token_crypto_ops);
    EXPECT_EQ(got.ssi_ops, want.ssi_ops);
    EXPECT_EQ(got.bytes_token_to_ssi, want.bytes_token_to_ssi);
    EXPECT_EQ(got.bytes_ssi_to_token, want.bytes_ssi_to_token);
    EXPECT_EQ(got.tokens_missing, want.tokens_missing);
    EXPECT_EQ(got.bytes, got.bytes_token_to_ssi + got.bytes_ssi_to_token);
    EXPECT_EQ(expected->groups, output->groups);
    EXPECT_EQ(expected->leakage.tuples_observed,
              output->leakage.tuples_observed);
    EXPECT_EQ(expected->leakage.class_sizes, output->leakage.class_sizes);
    EXPECT_EQ(expected->groups,
              global::PlainAggregate(inproc.participants, AggFunc::kSum));
  }
}

TEST(NetPackedAggTest, PackedLoopbackMatchesInProcessByteIdentical) {
  // The packed round over threaded clients equals the plaintext oracle bit
  // for bit: one ciphertext per token, one fold per extra token, one
  // querier decrypt.
  TestFleet wired = MakeTestFleet(6);
  PackedContext ctx = MakePackedContext(6);
  SsiServer::Config scfg;
  scfg.verifier = wired.verifier.get();
  SsiServer server(scfg);
  std::vector<std::unique_ptr<TokenClient>> clients;
  for (size_t i = 0; i < wired.participants.size(); ++i) {
    auto [server_end, client_end] = InProcessTransport::CreatePair();
    TokenClient::Config ccfg;
    ccfg.token = wired.tokens[i].get();
    ccfg.tuples = wired.participants[i].tuples;
    ccfg.packed = ctx.agg.get();
    auto client =
        std::make_unique<TokenClient>(std::move(client_end), std::move(ccfg));
    client->Start();
    auto idx = server.AcceptSession(std::move(server_end));
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    clients.push_back(std::move(client));
  }
  auto output = server.RunPackedAggregation(AggFunc::kSum, *ctx.agg,
                                            ctx.domain);
  JoinAll(&server, &clients);
  ASSERT_TRUE(output.ok()) << output.status().ToString();

  EXPECT_EQ(output->groups,
            global::PlainAggregate(wired.participants, AggFunc::kSum));
  EXPECT_EQ(output->metrics.rounds, 1u);
  EXPECT_EQ(output->metrics.token_crypto_ops, 6u + 1u);
  EXPECT_EQ(output->metrics.ssi_ops, 6u - 1u);
  EXPECT_EQ(output->leakage.tuples_observed, 6u);
  EXPECT_EQ(output->leakage.distinct_classes, 6u);
  EXPECT_EQ(output->metrics.tokens_missing, 0u);
  // Directional sum invariant over measured frames.
  EXPECT_EQ(output->metrics.bytes, output->metrics.bytes_token_to_ssi +
                                       output->metrics.bytes_ssi_to_token);
}

TEST(NetPackedAggTest, PackedRoundToleratesStragglersUnderQuorum) {
  // Packed ciphertexts are independent, so a missing token only shrinks
  // the aggregate: the run proceeds at quorum with the responders' totals.
  TestFleet wired = MakeTestFleet(4);
  PackedContext ctx = MakePackedContext(4);
  std::vector<Participant> responders(wired.participants.begin() + 1,
                                      wired.participants.end());
  auto expected = global::PlainAggregate(responders, AggFunc::kSum);

  SsiServer::Config scfg;
  scfg.verifier = wired.verifier.get();
  scfg.deadline_ms = ScaledMs(100);
  scfg.max_retries = 0;
  scfg.quorum = 0.5;
  SsiServer server(scfg);
  std::vector<std::unique_ptr<TokenClient>> clients;
  for (size_t i = 0; i < wired.participants.size(); ++i) {
    auto [server_end, client_end] = InProcessTransport::CreatePair();
    TokenClient::Config ccfg;
    ccfg.token = wired.tokens[i].get();
    ccfg.tuples = wired.participants[i].tuples;
    ccfg.packed = ctx.agg.get();
    if (i == 0) {
      ccfg.faults.swallow_first = 10;  // token 0 never answers
    }
    auto client =
        std::make_unique<TokenClient>(std::move(client_end), std::move(ccfg));
    client->Start();
    auto idx = server.AcceptSession(std::move(server_end));
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    clients.push_back(std::move(client));
  }
  auto output = server.RunPackedAggregation(AggFunc::kSum, *ctx.agg,
                                            ctx.domain);
  JoinAll(&server, &clients);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_EQ(output->metrics.tokens_missing, 1u);
  EXPECT_EQ(server.last_report().responders, 3u);
  ASSERT_EQ(output->groups.size(), expected.size());
  for (const auto& [group, value] : expected) {
    EXPECT_EQ(output->groups[group], value) << group;
  }
}

TEST(NetSecureAggTest, PdsNodesExportAndAggregateOverWire) {
  // Full stack: PdsNode-backed clients run the policy-checked export at
  // Connect() and only then answer wire rounds.
  using embdb::ColumnType;
  using embdb::Schema;
  using embdb::Tuple;
  using embdb::Value;
  crypto::SymmetricKey fleet_key = crypto::KeyFromString("fleet-test");
  const char* cities[] = {"lyon", "paris", "nice"};
  Rng rng(17);
  std::vector<std::unique_ptr<node::PdsNode>> nodes;
  std::map<std::string, double> plain;
  for (uint64_t i = 0; i < 4; ++i) {
    node::PdsNode::Config cfg;
    cfg.node_id = 1 + i;
    cfg.fleet_key = fleet_key;
    cfg.flash_geometry.page_size = 512;
    cfg.flash_geometry.pages_per_block = 8;
    cfg.flash_geometry.block_count = 256;
    cfg.rng_seed = 1 + i;
    auto pds_node = std::make_unique<node::PdsNode>(cfg);
    Schema bills("bills", {{"id", ColumnType::kUint64, ""},
                           {"city", ColumnType::kString, ""},
                           {"amount", ColumnType::kDouble, ""}});
    ASSERT_TRUE(pds_node->DefineTable(bills).ok());
    pds_node->policies().AddRule(
        {"owner", ac::Action::kInsert, "bills", {}, std::nullopt});
    pds_node->policies().AddRule({"stats-agency", ac::Action::kShare, "bills",
                                  {"city", "amount"}, std::nullopt});
    ac::Subject owner{"owner", "user-" + std::to_string(i)};
    int rows = 2 + static_cast<int>(rng.Uniform(3));
    for (int r = 0; r < rows; ++r) {
      const char* city = cities[rng.Uniform(3)];
      double amount = static_cast<double>(rng.Uniform(500));
      Tuple t = {Value::U64(static_cast<uint64_t>(r)), Value::Str(city),
                 Value::F64(amount)};
      ASSERT_TRUE(pds_node->InsertAs(owner, "bills", t).ok());
      plain[city] += amount;
    }
    nodes.push_back(std::move(pds_node));
  }

  mcu::SecureToken::Config vcfg;
  vcfg.token_id = 9000;
  vcfg.fleet_key = fleet_key;
  mcu::SecureToken verifier(vcfg);
  SsiServer::Config scfg;
  scfg.partition_capacity = 8;
  scfg.verifier = &verifier;
  SsiServer server(scfg);

  std::vector<std::unique_ptr<TokenClient>> clients;
  for (auto& pds_node : nodes) {
    auto [server_end, client_end] = InProcessTransport::CreatePair();
    TokenClient::Config ccfg;
    ccfg.pds_node = pds_node.get();
    ccfg.subject = {"stats-agency", "insee"};
    ccfg.table = "bills";
    ccfg.group_column = "city";
    ccfg.value_column = "amount";
    auto client =
        std::make_unique<TokenClient>(std::move(client_end), std::move(ccfg));
    client->Start();
    auto idx = server.AcceptSession(std::move(server_end));
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    clients.push_back(std::move(client));
  }
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  JoinAll(&server, &clients);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  ASSERT_EQ(output->groups.size(), plain.size());
  for (const auto& [city, sum] : plain) {
    EXPECT_NEAR(output->groups[city], sum, 1e-9) << city;
  }
  EXPECT_FALSE(output->leakage.plaintext_groups_visible);
}

TEST(NetSecureAggTest, ConcurrentSessionsOverExecutor) {
  // Wire work fanned over a FleetExecutor while every client runs its own
  // thread: the TSan CI job races this test.
  TestFleet serial_fleet = MakeTestFleet(6);
  SsiServer::Config ref_cfg;
  ref_cfg.partition_capacity = 16;
  ref_cfg.verifier = serial_fleet.verifier.get();
  SsiServer ref_server(ref_cfg);
  auto ref_clients = ConnectClients(&ref_server, &serial_fleet);
  auto ref = ref_server.RunSecureAggregation(AggFunc::kAvg);
  JoinAll(&ref_server, &ref_clients);
  ASSERT_TRUE(ref.ok());

  TestFleet fleet = MakeTestFleet(6);
  global::FleetExecutor exec(4);
  SsiServer::Config scfg;
  scfg.partition_capacity = 16;
  scfg.verifier = fleet.verifier.get();
  scfg.executor = &exec;
  SsiServer server(scfg);
  auto clients = ConnectClients(&server, &fleet);
  auto output = server.RunSecureAggregation(AggFunc::kAvg);
  JoinAll(&server, &clients);
  ASSERT_TRUE(output.ok()) << output.status().ToString();

  // Executor fan-out must not change results or accounting.
  ASSERT_EQ(output->groups.size(), ref->groups.size());
  for (const auto& [group, value] : ref->groups) {
    EXPECT_EQ(output->groups[group], value) << group;
  }
  EXPECT_EQ(output->metrics.bytes, ref->metrics.bytes);
  EXPECT_EQ(output->metrics.token_crypto_ops,
            ref->metrics.token_crypto_ops);
}

// ---------------------------------------------------------------------------
// Quorum, timeout, retry

TEST(NetQuorumTest, DroppedTokenCompletesAtQuorum) {
  TestFleet fleet = MakeTestFleet(5);
  SsiServer::Config scfg;
  scfg.partition_capacity = 16;
  scfg.verifier = fleet.verifier.get();
  scfg.deadline_ms = ScaledMs(150);
  scfg.max_retries = 1;
  scfg.backoff_ms = ScaledMs(5);
  scfg.quorum = 0.8;  // 4 of 5 suffice
  SsiServer server(scfg);
  // Token 0 swallows every request it will ever see.
  FaultPlan plan;
  plan.seed = 11;
  plan.swallow_first = 100;
  auto clients = ConnectClients(&server, &fleet, plan);
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  JoinAll(&server, &clients);
  ASSERT_TRUE(output.ok()) << output.status().ToString() << "\nfaults (seed "
                           << plan.seed << "):\n"
                           << clients[0]->injection_log().ToString();

  // The result covers exactly the four responders.
  std::vector<Participant> responders(fleet.participants.begin() + 1,
                                      fleet.participants.end());
  auto expected = global::PlainAggregate(responders, AggFunc::kSum);
  ASSERT_EQ(output->groups.size(), expected.size());
  for (const auto& [group, value] : expected) {
    EXPECT_NEAR(output->groups[group], value, 1e-9) << group;
  }
  // The shortfall is visible in Metrics and the round report.
  EXPECT_EQ(output->metrics.tokens_missing, 1u);
  EXPECT_EQ(server.last_report().responders, 4u);
  EXPECT_EQ(server.last_report().missing_tokens, 1u);
  EXPECT_GT(server.last_report().deadline_hits, 0u);
  EXPECT_GT(server.last_report().retries, 0u);
}

TEST(NetQuorumTest, FullQuorumFailsWhenTokenDrops) {
  TestFleet fleet = MakeTestFleet(4);
  SsiServer::Config scfg;
  scfg.partition_capacity = 16;
  scfg.verifier = fleet.verifier.get();
  scfg.deadline_ms = ScaledMs(150);
  scfg.max_retries = 0;
  scfg.quorum = 1.0;
  SsiServer server(scfg);
  FaultPlan plan;
  plan.seed = 12;
  plan.swallow_first = 100;
  auto clients = ConnectClients(&server, &fleet, plan);
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  JoinAll(&server, &clients);
  EXPECT_EQ(output.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(output.status().message().find("quorum"), std::string::npos);
}

TEST(NetQuorumTest, RetryRecoversFlakyToken) {
  TestFleet fleet = MakeTestFleet(4);
  SsiServer::Config scfg;
  scfg.partition_capacity = 16;
  scfg.verifier = fleet.verifier.get();
  scfg.deadline_ms = ScaledMs(150);
  scfg.max_retries = 2;
  scfg.backoff_ms = ScaledMs(5);
  scfg.quorum = 1.0;
  SsiServer server(scfg);
  // Token 0 drops exactly one request; the retry of the same round lands.
  FaultPlan plan;
  plan.seed = 13;
  plan.swallow_first = 1;
  auto clients = ConnectClients(&server, &fleet, plan);
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  JoinAll(&server, &clients);
  ASSERT_TRUE(output.ok()) << output.status().ToString() << "\nfaults (seed "
                           << plan.seed << "):\n"
                           << clients[0]->injection_log().ToString();
  EXPECT_EQ(clients[0]->injection_log().Count(FaultKind::kSwallowRequest), 1u);

  auto expected = global::PlainAggregate(fleet.participants, AggFunc::kSum);
  for (const auto& [group, value] : expected) {
    EXPECT_NEAR(output->groups[group], value, 1e-9) << group;
  }
  EXPECT_EQ(output->metrics.tokens_missing, 0u);
  EXPECT_EQ(server.last_report().responders, 4u);
  EXPECT_GE(server.last_report().retries, 1u);
  EXPECT_GE(server.last_report().deadline_hits, 1u);
}

// ---------------------------------------------------------------------------
// Handshake

// ---------------------------------------------------------------------------
// Hostile round parameters: the token does not trust the SSI's DetParams

/// A token session past its handshake, answered synchronously.
std::unique_ptr<DirectTokenLink> ServingLink(TestFleet* fleet) {
  auto link = std::make_unique<DirectTokenLink>(
      fleet->tokens[0].get(), &fleet->participants[0].tuples, nullptr);
  EXPECT_TRUE(link->Send(EncodeMessage({ChallengeMsg{Bytes(16, 7)}})).ok());
  EXPECT_TRUE(DecodeAs<HelloMsg>(link->Recv(0).value()).ok());
  EXPECT_TRUE(link->Send(EncodeMessage({HelloAckMsg{true}})).ok());
  return link;
}

TEST(NetHostileParamsTest, TokenRefusesSendListsBeyondOneBatch) {
  // The SSI's parameters must not make the token do undefined or unbounded
  // work: a NaN or negative ratio cannot become a fake count, and 1e12 or
  // UINT32_MAX fakes per domain value would loop for hours. Each gets an
  // error reply, and the session survives.
  TestFleet fleet = MakeTestFleet(1);
  auto link = ServingLink(&fleet);
  std::vector<Bytes> domain;
  for (int i = 0; i < 5; ++i) {
    domain.push_back(ByteView(std::string_view("city-" + std::to_string(i)))
                         .ToBytes());
  }
  DetParams nan_ratio, negative_ratio, huge_ratio, huge_fakes;
  nan_ratio.noise_ratio = std::numeric_limits<double>::quiet_NaN();
  negative_ratio.noise_ratio = -1.0;
  huge_ratio.noise_ratio = 1e12;
  huge_fakes.variant = DetVariant::kDomainNoise;
  huge_fakes.fakes_per_value = UINT32_MAX;
  uint32_t round = 1;
  for (const DetParams& params :
       {nan_ratio, negative_ratio, huge_ratio, huge_fakes}) {
    RoundRequestMsg req;
    req.header.round_id = round++;
    req.header.kind = RoundKind::kDetCollect;
    req.batch.push_back(EncodeDetParams(params));
    if (params.variant == DetVariant::kDomainNoise) {
      req.batch.insert(req.batch.end(), domain.begin(), domain.end());
    }
    ASSERT_TRUE(link->Send(EncodeMessage({req})).ok());
    auto err = DecodeAs<ErrorMsg>(link->Recv(0).value());
    ASSERT_TRUE(err.ok()) << "round " << req.header.round_id;
    EXPECT_EQ(err->code, 3);
  }
  // A sane round on the same session is still answered.
  RoundRequestMsg req;
  req.header.round_id = round;
  req.header.kind = RoundKind::kDetCollect;
  DetParams sane;
  sane.noise_ratio = 0.5;
  req.batch.push_back(EncodeDetParams(sane));
  ASSERT_TRUE(link->Send(EncodeMessage({req})).ok());
  auto batch = DecodeAs<TupleBatchMsg>(link->Recv(0).value());
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  const size_t real = fleet.participants[0].tuples.size();
  EXPECT_EQ(batch->batch.size(), 2 * (real + real / 2));
}

TEST(NetHostileParamsTest, SsiRejectsUnusableParamsBeforeAnyFrame) {
  TestFleet fleet = MakeTestFleet(2);
  SsiServer::Config scfg;
  scfg.partition_capacity = 0;  // would divide by zero partitioning
  scfg.verifier = fleet.verifier.get();
  SsiServer server(scfg);
  for (Participant& p : fleet.participants) {
    ASSERT_TRUE(server
                    .AcceptSession(std::make_unique<DirectTokenLink>(
                        p.token, &p.tuples, nullptr))
                    .ok());
  }
  obs::Counter* frames_sent =
      obs::Registry::Global().GetCounter("net.frames_sent", "ops");
  const uint64_t before = frames_sent->Value();
  EXPECT_EQ(server.RunSecureAggregation(AggFunc::kSum).status().code(),
            StatusCode::kInvalidArgument);
  SsiServer::DetRunConfig det;
  det.noise_ratio = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(server.RunDetAggregation(AggFunc::kSum, det).status().code(),
            StatusCode::kInvalidArgument);
  det.variant = DetVariant::kDomainNoise;
  det.noise_ratio = 0;
  det.domain = {"city-0"};
  det.fakes_per_value = UINT32_MAX;
  EXPECT_EQ(server.RunDetAggregation(AggFunc::kSum, det).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(frames_sent->Value(), before);
}

// ---------------------------------------------------------------------------
// Checksummed frames: no negotiation, every reply carries its request's bit

TEST(NetChecksumTest, TokenSessionAnswersEachFrameWithItsChecksumBit) {
  // No session state decides the framing: one session answers a
  // checksummed request checksummed and a plain one plain, in any order,
  // and a frame it cannot decode (so has no trusted bit) gets a plain error.
  TestFleet fleet = MakeTestFleet(1);
  auto link = ServingLink(&fleet);
  uint32_t round = 1;
  for (bool checksummed : {true, false, false, true}) {
    RoundRequestMsg req;
    req.header.round_id = round++;
    req.header.kind = RoundKind::kCollect;
    ASSERT_TRUE(link->Send(EncodeMessage({req, {}, checksummed})).ok());
    auto reply = DecodeMessage(link->Recv(0).value());
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_TRUE(std::holds_alternative<TupleBatchMsg>(reply->body));
    EXPECT_EQ(reply->checksummed, checksummed) << "round " << round - 1;
  }
  RoundRequestMsg req;
  req.header.round_id = round;
  Bytes damaged = EncodeMessage({req, {}, true});
  damaged[kFrameHeaderSize] ^= 0x01;  // round id bit: the trailer fails
  ASSERT_TRUE(link->Send(damaged).ok());
  auto reply = DecodeMessage(link->Recv(0).value());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(std::holds_alternative<ErrorMsg>(reply->body));
  EXPECT_EQ(std::get<ErrorMsg>(reply->body).code, 3);
  EXPECT_FALSE(reply->checksummed);
}

/// Test-only link damage a trailer cannot flag by itself: every frame the
/// token sends arrives re-encoded plain (same body and trace context), as
/// from a peer that dropped the checksum.
class StripChecksumTransport : public Transport {
 public:
  explicit StripChecksumTransport(std::unique_ptr<Transport> inner)
      : inner_(std::move(inner)) {}

  Status Send(ByteView frame) override { return inner_->Send(frame); }
  Result<Bytes> Recv(uint32_t deadline_ms) override {
    PDS_ASSIGN_OR_RETURN(Bytes frame, inner_->Recv(deadline_ms));
    auto m = DecodeMessage(frame);
    if (!m.ok()) {
      return frame;
    }
    m->checksummed = false;
    return EncodeMessage(*m);
  }
  void Close() override { inner_->Close(); }
  bool closed() const override { return inner_->closed(); }

 private:
  std::unique_ptr<Transport> inner_;
};

TEST(NetChecksumTest, ChecksummedSsiNeverAcceptsStrippedReplies) {
  // Session 0's replies all arrive without their trailer. A checksummed SSI
  // counts each one as a frame reject, so the session times out as a
  // straggler and the run completes at quorum on the other two tokens.
  TestFleet fleet = MakeTestFleet(3);
  SsiServer::Config scfg;
  scfg.partition_capacity = 16;
  scfg.verifier = fleet.verifier.get();
  scfg.checksum_frames = true;
  scfg.quorum = 0.6;
  scfg.max_retries = 1;
  scfg.backoff_ms = 1;
  SsiServer server(scfg);
  for (size_t i = 0; i < fleet.participants.size(); ++i) {
    Participant& p = fleet.participants[i];
    std::unique_ptr<Transport> link =
        std::make_unique<DirectTokenLink>(p.token, &p.tuples, nullptr);
    if (i == 0) {
      link = std::make_unique<StripChecksumTransport>(std::move(link));
    }
    ASSERT_TRUE(server.AcceptSession(std::move(link)).ok());
  }
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_GT(server.last_report().frame_rejects, 0u);
  EXPECT_EQ(server.last_report().missing_tokens, 1u);
  EXPECT_EQ(server.last_report().responders, 2u);
  const std::vector<Participant> answered(fleet.participants.begin() + 1,
                                          fleet.participants.end());
  EXPECT_EQ(output->groups, global::PlainAggregate(answered, AggFunc::kSum));
  server.Shutdown();
}

TEST(NetHandshakeTest, AcceptsFleetMember) {
  TestFleet fleet = MakeTestFleet(1);
  SsiServer::Config scfg;
  scfg.verifier = fleet.verifier.get();
  SsiServer server(scfg);
  auto clients = ConnectClients(&server, &fleet);
  EXPECT_EQ(server.num_sessions(), 1u);
  JoinAll(&server, &clients);
}

TEST(NetHandshakeTest, RejectsTokenOutsideFleet) {
  // Client token provisioned with a different application-domain key: its
  // attestation proof fails and the session is refused on both sides.
  TestFleet fleet = MakeTestFleet(1);
  mcu::SecureToken::Config foreign_cfg;
  foreign_cfg.token_id = 666;
  foreign_cfg.fleet_key = crypto::KeyFromString("some-other-fleet");
  mcu::SecureToken foreign(foreign_cfg);

  auto [server_end, client_end] = InProcessTransport::CreatePair();
  TokenClient::Config ccfg;
  ccfg.token = &foreign;
  TokenClient client(std::move(client_end), std::move(ccfg));
  client.Start();

  SsiServer::Config scfg;
  scfg.verifier = fleet.verifier.get();
  SsiServer server(scfg);
  auto idx = server.AcceptSession(std::move(server_end));
  EXPECT_EQ(idx.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(server.num_sessions(), 0u);
  client.Stop();
  EXPECT_EQ(client.Join().code(), StatusCode::kPermissionDenied);
}

// ---------------------------------------------------------------------------
// Distributed tracing and the live stats surface

#if PDS_OBS_ENABLED
/// The acceptance walk for the merged cross-process trace: after a loopback
/// run with tracing on, every token-side round handler span must be a child
/// of one of the SSI's round-trip spans — one timeline per round, stitched
/// across the process boundary by the wire trace context.
void ExpectTokenSpansParentUnderSsiRoundTrips(bool checksum_frames) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.SetEnabled(false);
  tracer.SetSampleEveryN(1);
  tracer.SetCapacity(1 << 14);
  tracer.SetEnabled(true);

  TestFleet fleet = MakeTestFleet(6);
  SsiServer::Config scfg;
  scfg.partition_capacity = 16;  // forces aggregate + finalize rounds
  scfg.verifier = fleet.verifier.get();
  scfg.checksum_frames = checksum_frames;
  SsiServer server(scfg);
  auto clients = ConnectClients(&server, &fleet);
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  JoinAll(&server, &clients);
  tracer.SetEnabled(false);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  ASSERT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(server.last_report().frame_rejects, 0u);

  std::set<uint64_t> round_trip_ids;
  for (const obs::SpanEvent& e : tracer.Events()) {
    if (std::string_view(e.name) == "net.round-trip") {
      round_trip_ids.insert(e.id);
    }
  }
  EXPECT_FALSE(round_trip_ids.empty());
  size_t token_spans = 0;
  std::set<std::string> token_span_names;
  for (const obs::SpanEvent& e : tracer.Events()) {
    std::string_view name(e.name);
    if (name == "net.round.collect" || name == "net.round.aggregate" ||
        name == "net.round.finalize") {
      ++token_spans;
      token_span_names.insert(std::string(name));
      EXPECT_NE(e.parent, 0u) << name;
      EXPECT_TRUE(round_trip_ids.count(e.parent))
          << name << " parent " << e.parent
          << " is not an SSI round-trip span";
    }
  }
  // Every phase of the protocol crossed the boundary: one collect per
  // token, aggregate rounds (partition_capacity forces them at this fleet
  // size), and the finalize.
  EXPECT_GE(token_spans, fleet.tokens.size());
  EXPECT_TRUE(token_span_names.count("net.round.collect"));
  EXPECT_TRUE(token_span_names.count("net.round.aggregate"));
  EXPECT_TRUE(token_span_names.count("net.round.finalize"));

  // And the merged view survives export: both sides' spans land in the one
  // Chrome trace document.
  std::ostringstream trace_out;
  tracer.ExportChromeTrace(trace_out);
  std::string trace = trace_out.str();
  EXPECT_NE(trace.find("net.round-trip"), std::string::npos);
  EXPECT_NE(trace.find("net.round.collect"), std::string::npos);
}

TEST(NetTracingTest, TokenRoundSpansParentUnderSsiRoundTrips) {
  ExpectTokenSpansParentUnderSsiRoundTrips(/*checksum_frames=*/false);
}

TEST(NetTracingTest, ChecksummedRunKeepsTokenSpansUnderSsiRoundTrips) {
  // Trace context and checksum trailer share one frame: a checksummed run
  // stays traced end to end. (The run itself shows the token answered
  // checksummed — a checksummed SSI rejects every plain reply.)
  ExpectTokenSpansParentUnderSsiRoundTrips(/*checksum_frames=*/true);
}
#endif  // PDS_OBS_ENABLED

TEST(NetStatsTest, TelemetryCountsRoundTripsPerSession) {
  TestFleet fleet = MakeTestFleet(4);
  SsiServer::Config scfg;
  scfg.partition_capacity = 16;
  scfg.verifier = fleet.verifier.get();
  SsiServer server(scfg);
  auto clients = ConnectClients(&server, &fleet);
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  JoinAll(&server, &clients);
  ASSERT_TRUE(output.ok()) << output.status().ToString();

  std::vector<SsiServer::SessionTelemetry> telemetry = server.Telemetry();
  ASSERT_EQ(telemetry.size(), 4u);
  for (const auto& t : telemetry) {
    EXPECT_GT(t.round_trips, 0u) << "token " << t.token_id;
    EXPECT_GT(t.rtt_p50_us, 0.0) << "token " << t.token_id;
    EXPECT_LE(t.rtt_p50_us, t.rtt_p99_us) << "token " << t.token_id;
    EXPECT_LE(t.rtt_p99_us, t.rtt_p999_us) << "token " << t.token_id;
    EXPECT_DOUBLE_EQ(t.buffer_bytes, 0.0);  // nothing in flight at rest
    EXPECT_GT(t.buffer_high_water, 0.0);
  }
  EXPECT_GT(server.rtt_histogram().count(), 0u);
}

TEST(NetStatsTest, StatsRequestReturnsLiveJsonSnapshot) {
  TestFleet fleet = MakeTestFleet(3);
  SsiServer::Config scfg;
  scfg.partition_capacity = 16;
  scfg.verifier = fleet.verifier.get();
  SsiServer server(scfg);
  auto clients = ConnectClients(&server, &fleet);
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  ASSERT_TRUE(output.ok()) << output.status().ToString();

  // The stats channel is its own connection — no handshake, one
  // request/reply exchange.
  auto [admin_end, stats_end] = InProcessTransport::CreatePair();
  std::thread serving([&server, transport = stats_end.get()] {
    EXPECT_TRUE(server.ServeStats(transport).ok());
  });
  ASSERT_TRUE(admin_end->Send(EncodeMessage({StatsRequestMsg{}})).ok());
  auto reply_frame = admin_end->Recv(2000);
  ASSERT_TRUE(reply_frame.ok()) << reply_frame.status().ToString();
  auto reply = DecodeAs<StatsReplyMsg>(*reply_frame);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  serving.join();

  // The snapshot carries all four surfaces: per-session telemetry, fleet
  // percentiles, the metrics registry, and the delta-snapshot ring.
  EXPECT_NE(reply->json.find("\"sessions\""), std::string::npos);
  EXPECT_NE(reply->json.find("\"fleet\""), std::string::npos);
  EXPECT_NE(reply->json.find("\"registry\""), std::string::npos);
  EXPECT_NE(reply->json.find("\"ring\""), std::string::npos);
  EXPECT_NE(reply->json.find("\"rtt_p50_us\""), std::string::npos);
  EXPECT_NE(reply->json.find("\"net.round_trip_us\""), std::string::npos);

  JoinAll(&server, &clients);
}

TEST(NetStatsTest, StatsChannelRejectsNonStatsFrames) {
  TestFleet fleet = MakeTestFleet(1);
  SsiServer::Config scfg;
  scfg.verifier = fleet.verifier.get();
  SsiServer server(scfg);

  auto [admin_end, stats_end] = InProcessTransport::CreatePair();
  ASSERT_TRUE(admin_end->Send(EncodeMessage({ByeMsg{}})).ok());
  EXPECT_EQ(server.ServeStats(stats_end.get()).code(),
            StatusCode::kFailedPrecondition);
  // The peer gets a protocol error frame rather than silence.
  auto reply = admin_end->Recv(2000);
  ASSERT_TRUE(reply.ok());
  auto decoded = DecodeMessage(*reply);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(std::holds_alternative<ErrorMsg>(decoded->body));
}

}  // namespace
}  // namespace pds::net
