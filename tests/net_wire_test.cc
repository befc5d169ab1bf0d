// pds::net end-to-end: transports (in-process, Unix socketpair, TCP
// loopback), the SsiServer/TokenClient handshake, and the secure
// aggregation protocol over the real wire — results bit-equal to the
// plaintext aggregate, in-process Execute reporting the same measured
// Metrics as threaded clients, and quorum / timeout / retry behaviour with
// dropped or flaky tokens.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "common/clock.h"
#include "common/rng.h"
#include "global/agg_protocols.h"
#include "net/direct_link.h"
#include "net/fault_injection.h"
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
  auto [a, b] = InProcessTransport::CreatePair();
  Bytes frame = EncodeMessage({ByeMsg{}});
  for (size_t i = 0; i < kMaxQueuedFrames; ++i) {
    ASSERT_TRUE(a->Send(frame).ok()) << "frame " << i;
  }
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
// Fault injection

/// Passes `frames` frames through a FaultInjectingTransport over one end of
/// an in-process pair — through its Send when `on_send`, else through its
/// Recv — and returns how many came out at the far end.
size_t DeliveredThroughFaults(const FaultPlan& plan, bool on_send,
                              size_t frames, InjectionLog* log) {
  auto [near, far] = InProcessTransport::CreatePair();
  FaultInjectingTransport faulty(std::move(near), plan, log);
  size_t delivered = 0;
  if (on_send) {
    for (size_t i = 0; i < frames; ++i) {
      EXPECT_TRUE(faulty.Send(Bytes(8, static_cast<uint8_t>(i))).ok());
    }
    faulty.Close();  // releases a frame still held for reorder
    while (far->Recv(0).ok()) ++delivered;
  } else {
    for (size_t i = 0; i < frames; ++i) {
      EXPECT_TRUE(far->Send(Bytes(8, static_cast<uint8_t>(i))).ok());
    }
    while (faulty.Recv(0).ok()) ++delivered;
  }
  return delivered;
}

TEST(NetFaultInjectionTest, DeliveredFramesMatchRealizedFaults) {
  // The log holds only realized faults: every frame sent arrives unless
  // dropped, plus one copy per logged duplicate. A held (reordered) frame
  // is not duplicated, and the receive side's single holding cell takes no
  // second copy while it is occupied.
  FaultPlan dup_and_reorder;
  dup_and_reorder.duplicate_rate = 1.0;
  dup_and_reorder.reorder_rate = 1.0;
  FaultPlan dup_only;
  dup_only.duplicate_rate = 1.0;
  FaultPlan mixed;
  mixed.seed = 5;
  mixed.drop_rate = 0.3;
  mixed.duplicate_rate = 0.5;
  mixed.reorder_rate = 0.4;
  for (const FaultPlan& plan : {dup_and_reorder, dup_only, mixed}) {
    for (bool on_send : {true, false}) {
      for (size_t frames : {size_t{4}, size_t{40}}) {
        InjectionLog log;
        const size_t delivered =
            DeliveredThroughFaults(plan, on_send, frames, &log);
        EXPECT_EQ(delivered, frames - log.Count(FaultKind::kDrop) +
                                 log.Count(FaultKind::kDuplicate))
            << (on_send ? "send" : "recv") << " side, " << frames
            << " frames, dup " << plan.duplicate_rate << " reorder "
            << plan.reorder_rate << ":\n"
            << log.ToString();
      }
    }
  }
}

TEST(NetFaultInjectionTest, ReceiveSideFaultsTakeEffectAtOnce) {
  // On the receive side a duplicate's copy comes right after its original,
  // and a held frame comes right after the frame that overtook it — not
  // only once the link goes quiet.
  auto received = [](const FaultPlan& plan, uint8_t frames) {
    auto [near, far] = InProcessTransport::CreatePair();
    FaultInjectingTransport faulty(std::move(near), plan, nullptr);
    for (uint8_t i = 0; i < frames; ++i) {
      EXPECT_TRUE(far->Send(Bytes(8, i)).ok());
    }
    std::vector<uint8_t> order;
    for (auto got = faulty.Recv(0); got.ok(); got = faulty.Recv(0)) {
      order.push_back(got.value()[0]);
    }
    return order;
  };
  FaultPlan dup;
  dup.duplicate_rate = 1.0;
  EXPECT_EQ(received(dup, 3), (std::vector<uint8_t>{0, 0, 1, 1, 2, 2}));
  FaultPlan reorder;
  reorder.reorder_rate = 1.0;
  reorder.max_injections = 1;
  EXPECT_EQ(received(reorder, 3), (std::vector<uint8_t>{1, 0, 2}));
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

/// The SSI's end of a token's link, behind a FaultInjectingTransport that
/// realizes `faults` past the two-frame handshake and logs into `log`.
std::unique_ptr<Transport> FaultyEnd(std::unique_ptr<Transport> ssi_end,
                                     FaultPlan faults, InjectionLog* log) {
  faults.skip_first = 2;
  return std::make_unique<FaultInjectingTransport>(std::move(ssi_end),
                                                   faults, log);
}

/// Connects `fleet` to a server over in-process transports; returns the
/// running clients (caller joins them after Shutdown). Token 0's link
/// realizes `faults_for_token0` into `log`, seed-driven: on failure, print
/// `log->ToString()` and rerun with the same seed to reproduce the exact
/// fault sequence.
std::vector<std::unique_ptr<TokenClient>> ConnectClients(
    SsiServer* server, TestFleet* fleet, FaultPlan faults_for_token0 = {},
    InjectionLog* log = nullptr) {
  std::vector<std::unique_ptr<TokenClient>> clients;
  clients.reserve(fleet->participants.size());
  for (size_t i = 0; i < fleet->participants.size(); ++i) {
    auto [server_end, client_end] = InProcessTransport::CreatePair();
    TokenClient::Config cfg;
    cfg.token = fleet->tokens[i].get();
    cfg.tuples = fleet->participants[i].tuples;
    std::unique_ptr<Transport> ssi_end = std::move(server_end);
    if (i == 0 && faults_for_token0.has_faults()) {
      ssi_end = FaultyEnd(std::move(ssi_end), faults_for_token0, log);
    }
    auto client =
        std::make_unique<TokenClient>(std::move(client_end), std::move(cfg));
    client->Start();
    auto idx = server->AcceptSession(std::move(ssi_end));
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
  EXPECT_EQ(server.last_report().missing_tokens, 0u);
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

/// The SSI's run of `kind` over `server`'s sessions, with the parameters
/// ExecuteInProcess uses.
Result<global::AggOutput> RunOnWire(SsiServer* server, WireProtocol kind,
                                    const PackedContext& packed) {
  DetParams det;
  det.noise_ratio = 0.5;
  det.noise_seed = 7;
  det.fakes_per_value = 2;
  det.num_buckets = 4;
  switch (kind) {
    case WireProtocol::kSecureAgg:
      return server->RunSecureAggregation(AggFunc::kSum);
    case WireProtocol::kWhiteNoise:
      det.variant = DetVariant::kWhiteNoise;
      return server->RunDetAggregation(AggFunc::kSum, det, packed.domain);
    case WireProtocol::kDomainNoise:
      det.variant = DetVariant::kDomainNoise;
      return server->RunDetAggregation(AggFunc::kSum, det, packed.domain);
    case WireProtocol::kHistogram:
      det.variant = DetVariant::kHistogram;
      return server->RunDetAggregation(AggFunc::kSum, det, packed.domain);
    case WireProtocol::kPacked:
      return server->RunPackedAggregation(AggFunc::kSum, *packed.agg,
                                          packed.domain);
  }
  return Status::InvalidArgument("unknown protocol");
}

/// Admits every participant of `fleet` to `server` over a DirectTokenLink
/// behind a FrameTap, and returns the taps (the server owns them).
std::vector<const FrameTap*> AdmitTapped(SsiServer* server, TestFleet* fleet,
                                         const crypto::PackedAggregate* packed) {
  std::vector<const FrameTap*> taps;
  for (Participant& p : fleet->participants) {
    auto tap = std::make_unique<FrameTap>(
        std::make_unique<DirectTokenLink>(p.token, &p.tuples, packed));
    taps.push_back(tap.get());
    EXPECT_TRUE(server->AcceptSession(std::move(tap)).ok());
  }
  return taps;
}

TEST(NetWireCountTest, MetricsCountTheFramesThatCrossedTheLinks) {
  // Transports count nothing; a run's Metrics are the one record of its
  // wire traffic. For every protocol they must equal what its links
  // actually carried after the handshakes: each frame once, with its
  // header, in the direction it went.
  for (WireProtocol kind :
       {WireProtocol::kSecureAgg, WireProtocol::kWhiteNoise,
        WireProtocol::kDomainNoise, WireProtocol::kHistogram,
        WireProtocol::kPacked}) {
    SCOPED_TRACE(WireProtocolName(kind));
    TestFleet fleet = MakeTestFleet(4);
    PackedContext packed = MakePackedContext(4);
    SsiServer::Config scfg;
    scfg.partition_capacity = 16;
    scfg.verifier = fleet.verifier.get();
    SsiServer server(scfg);
    std::vector<const FrameTap*> taps =
        AdmitTapped(&server, &fleet, packed.agg.get());
    auto output = RunOnWire(&server, kind, packed);
    ASSERT_TRUE(output.ok()) << output.status().ToString();
    uint64_t frames = 0;
    uint64_t to_token = 0;
    uint64_t to_ssi = 0;
    for (const FrameTap* tap : taps) {
      // The first three are the handshake: the challenge, the hello and
      // the ack.
      const std::vector<FrameTap::Entry>& seen = tap->entries();
      ASSERT_GE(seen.size(), 3u);
      for (size_t i = 3; i < seen.size(); ++i) {
        ++frames;
        (seen[i].outbound ? to_token : to_ssi) += seen[i].frame.size();
      }
    }
    EXPECT_GT(frames, 0u);
    EXPECT_EQ(output->metrics.messages, frames);
    EXPECT_EQ(output->metrics.bytes_ssi_to_token, to_token);
    EXPECT_EQ(output->metrics.bytes_token_to_ssi, to_ssi);
    server.Shutdown();
  }
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
    Result<global::AggOutput> output = RunOnWire(&server, kind, packed);
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
  EXPECT_EQ(server.last_report().missing_tokens, 0u);
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
    std::unique_ptr<Transport> ssi_end = std::move(server_end);
    if (i == 0) {
      FaultPlan drop;  // token 0 never answers: its requests are lost
      drop.drop_rate = 1.0;
      drop.max_injections = 10;
      ssi_end = FaultyEnd(std::move(ssi_end), drop, nullptr);
    }
    auto client =
        std::make_unique<TokenClient>(std::move(client_end), std::move(ccfg));
    client->Start();
    auto idx = server.AcceptSession(std::move(ssi_end));
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    clients.push_back(std::move(client));
  }
  auto output = server.RunPackedAggregation(AggFunc::kSum, *ctx.agg,
                                            ctx.domain);
  JoinAll(&server, &clients);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_EQ(server.last_report().missing_tokens, 1u);
  EXPECT_EQ(server.last_report().responders, 3u);
  ASSERT_EQ(output->groups.size(), expected.size());
  for (const auto& [group, value] : expected) {
    EXPECT_EQ(output->groups[group], value) << group;
  }
}

TEST(NetSecureAggTest, PdsNodesExportAndAggregateOverWire) {
  // Full stack: each PdsNode runs the policy-checked export, and its token
  // answers wire rounds over exactly the exported tuples.
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
    TokenClient::Config ccfg;
    ccfg.token = &pds_node->token();
    ASSERT_TRUE(pds_node
                    ->ExportAs({"stats-agency", "insee"}, "bills", "city",
                               "amount", &ccfg.tuples)
                    .ok());
    auto [server_end, client_end] = InProcessTransport::CreatePair();
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

/// The registry's wire counters, read before and after a run.
struct WireCounters {
  uint64_t retries = 0;
  uint64_t deadline_hits = 0;
  uint64_t frame_rejects = 0;
  uint64_t frames_sent = 0;
  uint64_t frames_received = 0;
};

WireCounters ReadWireCounters() {
  obs::Registry& reg = obs::Registry::Global();
  auto value = [&reg](const char* name) {
    return reg.GetCounter(name, "ops")->Value();
  };
  return {value("net.retries"), value("net.deadline_hits"),
          value("net.frame_rejects"), value("net.frames_sent"),
          value("net.frames_received")};
}

/// Every channel reports the wire facts of `server`'s only run alike: its
/// RoundReport, the registry's movement since `before`, and the sums over
/// Telemetry(). Holds whether the run completed or failed. Without obs
/// (PDS_OBS=OFF) the registry and telemetry read 0, so only the RoundReport
/// is left and there is nothing to compare it with.
void ExpectChannelsAgree([[maybe_unused]] const SsiServer& server,
                         [[maybe_unused]] const WireCounters& before) {
#if PDS_OBS_ENABLED
  const WireCounters after = ReadWireCounters();
  const SsiServer::RoundReport& report = server.last_report();
  uint64_t retries = 0;
  uint64_t deadline_hits = 0;
  for (const SsiServer::SessionTelemetry& t : server.Telemetry()) {
    retries += t.retries;
    deadline_hits += t.deadline_hits;
  }
  EXPECT_EQ(after.retries - before.retries, report.retries);
  EXPECT_EQ(retries, report.retries);
  EXPECT_EQ(after.deadline_hits - before.deadline_hits, report.deadline_hits);
  EXPECT_EQ(deadline_hits, report.deadline_hits);
  EXPECT_EQ(after.frame_rejects - before.frame_rejects, report.frame_rejects);
#endif  // PDS_OBS_ENABLED
}

TEST(NetQuorumTest, DroppedTokenCompletesAtQuorum) {
  TestFleet fleet = MakeTestFleet(5);
  InjectionLog log;
  SsiServer::Config scfg;
  scfg.partition_capacity = 16;
  scfg.verifier = fleet.verifier.get();
  scfg.deadline_ms = ScaledMs(150);
  scfg.max_retries = 1;
  scfg.backoff_ms = ScaledMs(5);
  scfg.quorum = 0.8;  // 4 of 5 suffice
  SsiServer server(scfg);
  // Token 0's link loses every request it will ever carry.
  FaultPlan plan;
  plan.seed = 11;
  plan.drop_rate = 1.0;
  plan.max_injections = 100;
  auto clients = ConnectClients(&server, &fleet, plan, &log);
  const WireCounters before = ReadWireCounters();
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  JoinAll(&server, &clients);
  ASSERT_TRUE(output.ok()) << output.status().ToString() << "\nfaults (seed "
                           << plan.seed << "):\n"
                           << log.ToString();

  // The result covers exactly the four responders.
  std::vector<Participant> responders(fleet.participants.begin() + 1,
                                      fleet.participants.end());
  auto expected = global::PlainAggregate(responders, AggFunc::kSum);
  ASSERT_EQ(output->groups.size(), expected.size());
  for (const auto& [group, value] : expected) {
    EXPECT_NEAR(output->groups[group], value, 1e-9) << group;
  }
  // The shortfall is visible in the round report, and its timeouts in
  // every channel alike.
  EXPECT_EQ(server.last_report().responders, 4u);
  EXPECT_EQ(server.last_report().missing_tokens, 1u);
  EXPECT_GT(server.last_report().deadline_hits, 0u);
  EXPECT_GT(server.last_report().retries, 0u);
  ExpectChannelsAgree(server, before);
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
  plan.drop_rate = 1.0;
  plan.max_injections = 100;
  auto clients = ConnectClients(&server, &fleet, plan);
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  JoinAll(&server, &clients);
  EXPECT_EQ(output.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(output.status().message().find("quorum"), std::string::npos);
}

TEST(NetQuorumTest, RetryRecoversFlakyToken) {
  TestFleet fleet = MakeTestFleet(4);
  InjectionLog log;
  SsiServer::Config scfg;
  scfg.partition_capacity = 16;
  scfg.verifier = fleet.verifier.get();
  scfg.deadline_ms = ScaledMs(150);
  scfg.max_retries = 2;
  scfg.backoff_ms = ScaledMs(5);
  scfg.quorum = 1.0;
  SsiServer server(scfg);
  // Token 0's link loses exactly one request; the retry of the same round
  // lands.
  FaultPlan plan;
  plan.seed = 13;
  plan.drop_rate = 1.0;
  plan.max_injections = 1;
  auto clients = ConnectClients(&server, &fleet, plan, &log);
  const WireCounters before = ReadWireCounters();
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  JoinAll(&server, &clients);
  ASSERT_TRUE(output.ok()) << output.status().ToString() << "\nfaults (seed "
                           << plan.seed << "):\n"
                           << log.ToString();
  EXPECT_EQ(log.Count(FaultKind::kDrop), 1u);

  auto expected = global::PlainAggregate(fleet.participants, AggFunc::kSum);
  for (const auto& [group, value] : expected) {
    EXPECT_NEAR(output->groups[group], value, 1e-9) << group;
  }
  EXPECT_EQ(server.last_report().missing_tokens, 0u);
  EXPECT_EQ(server.last_report().responders, 4u);
  EXPECT_GE(server.last_report().retries, 1u);
  EXPECT_GE(server.last_report().deadline_hits, 1u);
  ExpectChannelsAgree(server, before);
}

/// Runs secure aggregation over four tokens whose token 0 link realizes
/// `plan` (one injection at most), and checks that the one fault hit the
/// token's first reply, its collect reply (recv #0 is the hello), and that
/// the answer is still the plaintext aggregate, bit for bit. Returns the
/// run's report.
SsiServer::RoundReport RunWithFaultedFirstReply(const FaultPlan& plan,
                                                FaultKind kind) {
  TestFleet fleet = MakeTestFleet(4);
  InjectionLog log;
  SsiServer::Config scfg;
  scfg.partition_capacity = 16;
  scfg.verifier = fleet.verifier.get();
  scfg.deadline_ms = ScaledMs(300);
  scfg.max_retries = 2;
  scfg.backoff_ms = ScaledMs(5);
  SsiServer server(scfg);
  auto clients = ConnectClients(&server, &fleet, plan, &log);
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  JoinAll(&server, &clients);
  EXPECT_TRUE(output.ok()) << output.status().ToString() << "\nfaults (seed "
                           << plan.seed << "):\n"
                           << log.ToString();
  const std::vector<Injection> faults = log.Entries();
  EXPECT_EQ(faults.size(), 1u) << log.ToString();
  if (!faults.empty()) {
    EXPECT_STREQ(faults[0].direction, "recv") << log.ToString();
    EXPECT_EQ(faults[0].frame_index, 1u) << log.ToString();
    EXPECT_EQ(faults[0].kind, kind) << log.ToString();
  }
  if (output.ok()) {
    EXPECT_EQ(output->groups,
              global::PlainAggregate(fleet.participants, AggFunc::kSum));
  }
  EXPECT_EQ(server.last_report().responders, 4u);
  return server.last_report();
}

TEST(NetQuorumTest, RetryRecoversLostReply) {
  // Seed 7 at rate 0.5 spares the collect request (first draw 0.70) and
  // loses the token's reply to it (second draw 0.28). The SSI times out
  // and retries the same round, which the token answers again.
  FaultPlan plan;
  plan.seed = 7;
  plan.drop_rate = 0.5;
  plan.max_injections = 1;
  const SsiServer::RoundReport report =
      RunWithFaultedFirstReply(plan, FaultKind::kDrop);
  EXPECT_EQ(report.retries, 1u);
  EXPECT_EQ(report.deadline_hits, 1u);
}

TEST(NetQuorumTest, HeldReplyStillLands) {
  // The same draws hold the token's collect reply for reorder. No frame
  // overtakes it, so the link releases it once its wait for one runs out:
  // the reply arrives late but whole, and no retry is needed.
  FaultPlan plan;
  plan.seed = 7;
  plan.reorder_rate = 0.5;
  plan.max_injections = 1;
  const SsiServer::RoundReport report =
      RunWithFaultedFirstReply(plan, FaultKind::kReorder);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.deadline_hits, 0u);
}

TEST(NetQuorumTest, OutOfRangeQuorumRefusedBeforeAnyFrame) {
  // ceil(quorum * n) is a token count only for a quorum in [0, 1]: 1.5
  // asks for more tokens than exist, and -0.5 or NaN cast out of range.
  // Each run is refused before its first request.
  TestFleet fleet = MakeTestFleet(3);
  for (double quorum :
       {1.5, -0.5, std::numeric_limits<double>::quiet_NaN()}) {
    SsiServer::Config scfg;
    scfg.verifier = fleet.verifier.get();
    scfg.quorum = quorum;
    SsiServer server(scfg);
    std::vector<const FrameTap*> taps =
        AdmitTapped(&server, &fleet, /*packed=*/nullptr);
    auto output = server.RunSecureAggregation(AggFunc::kSum);
    EXPECT_EQ(output.status().code(), StatusCode::kInvalidArgument)
        << "quorum " << quorum << ": " << output.status().ToString();
    for (const FrameTap* tap : taps) {
      const std::vector<FrameTap::Entry>& seen = tap->entries();
      EXPECT_EQ(std::count_if(seen.begin(), seen.end(),
                              [](const FrameTap::Entry& e) {
                                return e.outbound;
                              }),
                2)  // the challenge and the ack
          << "quorum " << quorum;
    }
  }
}

// ---------------------------------------------------------------------------
// Dealing the rounds after collect

TEST(NetDealingTest, PartitionsRotateOverResponders) {
  // Four tokens hold five tuples each, all in one group. At partition
  // capacity 2 each aggregate round halves the ciphertexts: the rounds deal
  // 10, 5, 3 and 2 partitions from offsets 0, 10, 15 and 18, so partition
  // u of a round at offset o goes to responder (o + u) % 4 (token 2 gets
  // none of the third round's three), and the finalize goes to token 0.
  TestFleet fleet = MakeTestFleet(4);
  for (size_t i = 0; i < fleet.participants.size(); ++i) {
    std::vector<SourceTuple>& tuples = fleet.participants[i].tuples;
    tuples.clear();
    for (int t = 0; t < 5; ++t) {
      SourceTuple st;
      st.group = "only";
      st.value = static_cast<double>(10 * i + t);
      tuples.push_back(std::move(st));
    }
  }
  SsiServer::Config scfg;
  scfg.partition_capacity = 2;
  scfg.verifier = fleet.verifier.get();
  SsiServer server(scfg);
  for (Participant& p : fleet.participants) {
    ASSERT_TRUE(server
                    .AcceptSession(std::make_unique<DirectTokenLink>(
                        p.token, &p.tuples, nullptr))
                    .ok());
  }
  const WireCounters before = ReadWireCounters();
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_EQ(output->groups,
            global::PlainAggregate(fleet.participants, AggFunc::kSum));
  // Collect, four aggregate rounds, finalize.
  EXPECT_EQ(output->metrics.rounds, 6u);
  ExpectChannelsAgree(server, before);
#if PDS_OBS_ENABLED
  // Collect, then partitions per round: token 0 runs 3, 1, 1, 0 and the
  // finalize; token 1 runs 3, 1, 1, 0; token 2 runs 2, 2, 0, 1; token 3
  // runs 2, 1, 1, 1.
  const uint64_t round_trips[] = {7, 6, 6, 6};
  std::vector<SsiServer::SessionTelemetry> telemetry = server.Telemetry();
  ASSERT_EQ(telemetry.size(), 4u);
  for (size_t i = 0; i < telemetry.size(); ++i) {
    EXPECT_EQ(telemetry[i].round_trips, round_trips[i]) << "token " << i;
  }
#endif  // PDS_OBS_ENABLED
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Failover in the rounds after collect

/// Secure-agg over four threaded tokens at a partition capacity that deals
/// the one aggregate round's three partitions to tokens 0, 1 and 2. Token
/// 0's link closes for good after it answered `round_trips[0]` rounds. The
/// SSI still holds every ciphertext it collected and any fleet token can
/// aggregate them, so the run must complete with the full answer, and
/// token i must have answered `round_trips[i]` rounds.
void ExpectSecureAggSurvivesToken0LeavingAfter(
    const std::array<uint64_t, 4>& round_trips) {
  TestFleet fleet = MakeTestFleet(4);
  InjectionLog log;
  SsiServer::Config scfg;
  scfg.partition_capacity = 16;
  scfg.verifier = fleet.verifier.get();
  SsiServer server(scfg);
  FaultPlan plan;
  plan.seed = 21;
  plan.disconnect_after_replies = round_trips[0];
  auto clients = ConnectClients(&server, &fleet, plan, &log);
  const WireCounters before = ReadWireCounters();
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  // The link closes as the SSI reads token 0's last reply, before any
  // further request is queued, so every token ends cleanly.
  JoinAll(&server, &clients);
  ASSERT_TRUE(output.ok()) << output.status().ToString() << "\nfaults (seed "
                           << plan.seed << "):\n"
                           << log.ToString();
  EXPECT_EQ(log.Count(FaultKind::kChurn), 1u);

  // Collect heard every token, so the answer covers all four.
  EXPECT_EQ(output->groups,
            global::PlainAggregate(fleet.participants, AggFunc::kSum));
  EXPECT_EQ(server.last_report().responders, 4u);
  EXPECT_EQ(server.last_report().missing_tokens, 0u);
  // Collect, one aggregate round, finalize.
  EXPECT_EQ(output->metrics.rounds, 3u);
  ExpectChannelsAgree(server, before);
  std::vector<SsiServer::SessionTelemetry> telemetry = server.Telemetry();
  ASSERT_EQ(telemetry.size(), 4u);
#if PDS_OBS_ENABLED
  EXPECT_EQ(telemetry[0].stragglers, 1u);
  uint64_t answered = 0;
  for (size_t i = 0; i < telemetry.size(); ++i) {
    EXPECT_EQ(telemetry[i].round_trips, round_trips[i]) << "token " << i;
    answered += telemetry[i].round_trips;
    if (i > 0) {
      EXPECT_EQ(telemetry[i].stragglers, 0u) << "token " << i;
    }
  }
  // Every answered request is one received frame, whichever session ran
  // the unit: a failed-over unit's frames are counted once.
  EXPECT_EQ(answered,
            ReadWireCounters().frames_received - before.frames_received);
#endif  // PDS_OBS_ENABLED
}

TEST(NetFailoverTest, SecureAggPartitionMovesOnWhenItsTokenLeaves) {
  // Token 0 answers collect only: its partition goes to token 1, and so
  // does the finalize dealt to token 0. Token 1 answers collect, its own
  // partition and both failed-over units; token 3 is dealt no partition.
  ExpectSecureAggSurvivesToken0LeavingAfter({1, 4, 2, 1});
}

TEST(NetFailoverTest, SecureAggFinalizeMovesOnWhenItsTokenLeaves) {
  // Token 0 answers collect and its partition, then leaves before the
  // finalize dealt to it, which token 1 runs.
  ExpectSecureAggSurvivesToken0LeavingAfter({2, 3, 2, 1});
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
  DetParams det;
  det.noise_ratio = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(server.RunDetAggregation(AggFunc::kSum, det, {}).status().code(),
            StatusCode::kInvalidArgument);
  det.variant = DetVariant::kDomainNoise;
  det.noise_ratio = 0;
  det.fakes_per_value = UINT32_MAX;
  EXPECT_EQ(
      server.RunDetAggregation(AggFunc::kSum, det, {"city-0"}).status().code(),
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
  const WireCounters before = ReadWireCounters();
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_GT(server.last_report().frame_rejects, 0u);
  EXPECT_EQ(server.last_report().missing_tokens, 1u);
  EXPECT_EQ(server.last_report().responders, 2u);
  ExpectChannelsAgree(server, before);
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
  EXPECT_EQ(output->groups,
            global::PlainAggregate(fleet.participants, AggFunc::kSum));

  std::vector<SsiServer::SessionTelemetry> telemetry = server.Telemetry();
  ASSERT_EQ(telemetry.size(), 4u);
#if PDS_OBS_ENABLED
  for (const auto& t : telemetry) {
    EXPECT_GT(t.round_trips, 0u) << "token " << t.token_id;
    EXPECT_GT(t.rtt_p50_us, 0.0) << "token " << t.token_id;
    EXPECT_LE(t.rtt_p50_us, t.rtt_p99_us) << "token " << t.token_id;
    EXPECT_LE(t.rtt_p99_us, t.rtt_p999_us) << "token " << t.token_id;
    EXPECT_DOUBLE_EQ(t.buffer_bytes, 0.0);  // nothing in flight at rest
    EXPECT_GT(t.buffer_high_water, 0.0);
  }
  EXPECT_GT(server.rtt_histogram().count(), 0u);
#endif  // PDS_OBS_ENABLED
}

TEST(NetStatsTest, SessionDroppedOnSendLeavesNothingInFlight) {
  // A session whose link closed before the run fails its collect send and
  // is dropped as a straggler. Its in-flight gauge must fall back to 0
  // like every other session's, not keep the unsent collect frame's size.
  TestFleet fleet = MakeTestFleet(3);
  SsiServer::Config scfg;
  scfg.verifier = fleet.verifier.get();
  scfg.quorum = 0.6;
  scfg.lean_sessions = false;
  SsiServer server(scfg);
  std::vector<DirectTokenLink*> links;
  for (size_t i = 0; i < fleet.participants.size(); ++i) {
    auto link = std::make_unique<DirectTokenLink>(
        fleet.tokens[i].get(), &fleet.participants[i].tuples, nullptr);
    links.push_back(link.get());
    ASSERT_TRUE(server.AcceptSession(std::move(link)).ok());
  }
  links[1]->Close();
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  const std::vector<Participant> answered = {fleet.participants[0],
                                             fleet.participants[2]};
  EXPECT_EQ(output->groups, global::PlainAggregate(answered, AggFunc::kSum));

  std::vector<SsiServer::SessionTelemetry> telemetry = server.Telemetry();
  ASSERT_EQ(telemetry.size(), 3u);
  EXPECT_FALSE(telemetry[1].alive);
#if PDS_OBS_ENABLED
  EXPECT_EQ(telemetry[1].stragglers, 1u);
  for (const auto& t : telemetry) {
    EXPECT_DOUBLE_EQ(t.buffer_bytes, 0.0) << "token " << t.token_id;
    EXPECT_GT(t.buffer_high_water, 0.0) << "token " << t.token_id;
  }
#endif  // PDS_OBS_ENABLED
}

TEST(NetStatsTest, FailedRunReportsItsFollowUpRounds) {
  // Two tokens answer the handshake and collect; past their first
  // partition request every frame on their links drops (that request's
  // reply, then the retry). Each times out of its first partition (one
  // retry, two deadline hits) and is dropped, so no token is left to take
  // the partitions and the run fails. The rounds it ran must still reach
  // the RoundReport, the registry and the per-session telemetry alike.
  TestFleet fleet = MakeTestFleet(2);
  SsiServer::Config scfg;
  scfg.partition_capacity = 4;
  scfg.verifier = fleet.verifier.get();
  scfg.max_retries = 1;
  scfg.backoff_ms = 1;
  SsiServer server(scfg);
  FaultPlan drop_after_collect;
  drop_after_collect.drop_rate = 1.0;
  // Challenge, ack, collect request and the first partition request.
  drop_after_collect.skip_first = 4;
  for (Participant& p : fleet.participants) {
    ASSERT_TRUE(server
                    .AcceptSession(std::make_unique<FaultInjectingTransport>(
                        std::make_unique<DirectTokenLink>(p.token, &p.tuples,
                                                          nullptr),
                        drop_after_collect, nullptr))
                    .ok());
  }
  const WireCounters before = ReadWireCounters();
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  EXPECT_EQ(output.status().code(), StatusCode::kFailedPrecondition)
      << output.status().ToString();
  EXPECT_EQ(server.last_report().responders, 2u);
  EXPECT_EQ(server.last_report().retries, 2u);
  EXPECT_EQ(server.last_report().deadline_hits, 4u);
  ExpectChannelsAgree(server, before);
}

/// A JSON value, as far as the kStats tests read one: objects, arrays and
/// numbers keep their contents; strings, booleans and null only parse.
struct Json {
  enum class Kind { kOther, kNumber, kArray, kObject };
  Kind kind = Kind::kOther;
  double number = 0;
  std::vector<Json> items;                           // kArray
  std::vector<std::pair<std::string, Json>> fields;  // kObject

  const Json* Field(std::string_view key) const {
    for (const auto& [name, value] : fields) {
      if (name == key) return &value;
    }
    return nullptr;
  }
};

/// A strict-enough recursive-descent JSON parser: true only when `text` is
/// exactly one well-formed value.
class JsonParser {
 public:
  static bool Parse(const std::string& text, Json* out) {
    JsonParser parser(text);
    return parser.Value(out) && parser.AtEnd();
  }

 private:
  explicit JsonParser(const std::string& text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool AtEnd() {
    SkipSpace();
    return pos_ == text_.size();
  }
  bool Eat(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Literal(std::string_view word) {
    if (std::string_view(text_).substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }
  bool String(std::string* out) {
    if (!Eat('"')) return false;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        c = text_[pos_++];
        if (c == 'u') {
          if (pos_ + 4 > text_.size()) return false;
          pos_ += 4;
        }
      }
      out->push_back(c);
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // the closing quote
    return true;
  }
  bool Value(Json* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = Json::Kind::kObject;
      if (Eat('}')) return true;
      do {
        std::string name;
        Json value;
        if (!String(&name) || !Eat(':') || !Value(&value)) return false;
        out->fields.emplace_back(std::move(name), std::move(value));
      } while (Eat(','));
      return Eat('}');
    }
    if (c == '[') {
      ++pos_;
      out->kind = Json::Kind::kArray;
      if (Eat(']')) return true;
      do {
        Json item;
        if (!Value(&item)) return false;
        out->items.push_back(std::move(item));
      } while (Eat(','));
      return Eat(']');
    }
    if (c == '"') {
      std::string ignored;
      return String(&ignored);
    }
    if (Literal("true") || Literal("false") || Literal("null")) return true;
    if (c != '-' && !std::isdigit(static_cast<unsigned char>(c))) {
      return false;
    }
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    out->kind = Json::Kind::kNumber;
    out->number = std::strtod(begin, &end);
    pos_ += static_cast<size_t>(end - begin);
    return end != begin;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

/// Sends one kStatsRequest, lets `server` answer it on this thread, and
/// returns the reply's JSON.
Result<std::string> RequestStats(SsiServer* server) {
  auto [admin_end, stats_end] = InProcessTransport::CreatePair();
  PDS_RETURN_IF_ERROR(admin_end->Send(EncodeMessage({StatsRequestMsg{}})));
  PDS_RETURN_IF_ERROR(server->ServeStats(stats_end.get()));
  PDS_ASSIGN_OR_RETURN(Bytes frame, admin_end->Recv(2000));
  PDS_ASSIGN_OR_RETURN(StatsReplyMsg reply, DecodeAs<StatsReplyMsg>(frame));
  return reply.json;
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
  Json doc;
  ASSERT_TRUE(JsonParser::Parse(reply->json, &doc)) << reply->json;
  const Json* listed = doc.Field("sessions_listed");
  ASSERT_NE(listed, nullptr);
  EXPECT_EQ(listed->number, 3.0);  // a small fleet is listed whole

  JoinAll(&server, &clients);
}

TEST(NetStatsTest, StatsReplyListsWhatFitsOfALargeFleet) {
  // 512 sessions of telemetry (~120 KB) overflow the 64 KiB a kStats reply
  // may carry. The reply lists the sessions that fit, says how many there
  // are in all, and still carries the registry.
  constexpr size_t kSessions = 512;
  TestFleet fleet = MakeTestFleet(kSessions);
  SsiServer::Config scfg;
  scfg.verifier = fleet.verifier.get();
  SsiServer server(scfg);
  for (Participant& p : fleet.participants) {
    ASSERT_TRUE(server
                    .AcceptSession(std::make_unique<DirectTokenLink>(
                        p.token, &p.tuples, nullptr))
                    .ok());
  }
  ASSERT_TRUE(server.RunSecureAggregation(AggFunc::kSum).ok());

  auto json = RequestStats(&server);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_LE(json->size(), kMaxStatsJsonBytes);
  Json doc;
  ASSERT_TRUE(JsonParser::Parse(*json, &doc)) << json->substr(0, 200);
  const Json* total = doc.Field("sessions_total");
  const Json* listed = doc.Field("sessions_listed");
  const Json* sessions = doc.Field("sessions");
  ASSERT_NE(total, nullptr) << json->substr(0, 200);
  ASSERT_NE(listed, nullptr);
  ASSERT_NE(sessions, nullptr);
  EXPECT_EQ(total->number, static_cast<double>(kSessions));
  EXPECT_GT(listed->number, 0.0);
  EXPECT_LT(listed->number, static_cast<double>(kSessions));
  ASSERT_EQ(static_cast<double>(sessions->items.size()), listed->number);
  // The listed sessions are the first ones, in admission order.
  const Json* last_id = sessions->items.back().Field("token_id");
  ASSERT_NE(last_id, nullptr);
  EXPECT_EQ(last_id->number, listed->number - 1);
  const Json* registry = doc.Field("registry");
  ASSERT_NE(registry, nullptr);
  EXPECT_EQ(registry->kind, Json::Kind::kObject);
  EXPECT_NE(doc.Field("fleet"), nullptr);
  EXPECT_NE(doc.Field("ring"), nullptr);
  server.Shutdown();
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
