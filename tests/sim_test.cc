// Unit tests for the discrete-event simulation tier: SimClock ordering and
// virtual time, the InProcess-mirroring semantics of ConnectSession links
// under a LinkModel, and SimFleet driving the real SsiServer and
// TokenSession protocol over ideal, lossy and dropout links. The
// byte-identity anchor against the in-process wire lives in
// sim_anchor_test.cc.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "crypto/cipher.h"
#include "mcu/secure_token.h"
#include "net/codec.h"
#include "net/token_client.h"
#include "sim/link_model.h"
#include "sim/sim_clock.h"
#include "sim/sim_fleet.h"
#include "sim/sim_transport.h"

namespace pds::sim {
namespace {

TEST(SimClockTest, RunsEventsInTimeThenFifoOrder) {
  SimClock clock;
  std::vector<int> order;
  clock.Schedule(300, [&] { order.push_back(3); });
  clock.Schedule(100, [&] { order.push_back(1); });
  clock.Schedule(100, [&] { order.push_back(2); });  // same instant: FIFO
  EXPECT_EQ(clock.next_event_ns(), 100u);
  EXPECT_EQ(clock.pending(), 3u);

  clock.AdvanceTo(100);
  EXPECT_EQ(clock.NowNs(), 100u);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);

  clock.AdvanceTo(1000);
  EXPECT_EQ(clock.NowNs(), 1000u);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[2], 3);
  EXPECT_TRUE(clock.idle());
  EXPECT_EQ(clock.events_run(), 3u);
}

TEST(SimClockTest, EventMayScheduleEarlierWorkWithinSameAdvance) {
  SimClock clock;
  std::vector<int> order;
  clock.Schedule(100, [&] {
    order.push_back(1);
    // Due before the advance target: must run in this same pass.
    clock.Schedule(150, [&] { order.push_back(2); });
  });
  clock.AdvanceTo(200);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(clock.NowNs(), 200u);
}

TEST(SimClockTest, PastSchedulesClampToNowAndSleepAdvances) {
  SimClock clock;
  clock.AdvanceTo(500);
  bool ran = false;
  clock.Schedule(10, [&] { ran = true; });  // in the past: runs "now"
  EXPECT_EQ(clock.next_event_ns(), 500u);
  EXPECT_TRUE(clock.RunOne());
  EXPECT_TRUE(ran);
  EXPECT_FALSE(clock.RunOne());

  clock.SleepMs(3);
  EXPECT_EQ(clock.NowNs(), 500u + 3u * 1000000u);
}

/// One token behind a ConnectSession link; the test holds the SSI's end,
/// as SsiServer does.
struct SessionLink {
  explicit SessionLink(LinkModel model = LinkModel{})
      : net(&clock, model, 1),
        token(TokenConfig()),
        session(&token, &tuples, /*packed=*/nullptr),
        ssi(net.ConnectSession(&session)) {}

  static mcu::SecureToken::Config TokenConfig() {
    mcu::SecureToken::Config tcfg;
    tcfg.token_id = 7;
    tcfg.fleet_key = crypto::KeyFromString("sim-session");
    return tcfg;
  }

  SimClock clock;
  SimNet net;
  mcu::SecureToken token;
  const std::vector<global::SourceTuple> tuples = {{"city-0", 1.0}};
  net::TokenSession session;
  std::unique_ptr<SimTransport> ssi;
};

Bytes Challenge() {
  net::ChallengeMsg challenge;
  challenge.nonce.assign(16, 0x5a);
  return net::EncodeMessage({challenge, {}, false});
}

Bytes Ack() {
  net::HelloAckMsg ack;
  ack.accepted = true;
  return net::EncodeMessage({ack, {}, false});
}

Bytes Collect(uint32_t round_id) {
  net::RoundRequestMsg request;
  request.header.round_id = round_id;
  return net::EncodeMessage({request, {}, false});
}

TEST(SimTransportTest, IdealLinkDeliversInstantlyInOrder) {
  SessionLink link;
  ASSERT_TRUE(link.ssi->Send(Challenge()).ok());
  auto hello = link.ssi->Recv(100);
  ASSERT_TRUE(hello.ok());
  ASSERT_TRUE(link.ssi->Send(Ack()).ok());
  ASSERT_TRUE(link.ssi->Send(Collect(1)).ok());
  ASSERT_TRUE(link.ssi->Send(Collect(2)).ok());

  auto r1 = link.ssi->Recv(100);
  auto r2 = link.ssi->Recv(100);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  auto b1 = net::DecodeAs<net::TupleBatchMsg>(r1.value());
  auto b2 = net::DecodeAs<net::TupleBatchMsg>(r2.value());
  ASSERT_TRUE(b1.ok() && b2.ok());
  EXPECT_EQ(b1->round_id, 1u);
  EXPECT_EQ(b2->round_id, 2u);
  EXPECT_EQ(link.clock.NowNs(), 0u);  // zero latency: no virtual time passed
  // Four frames out (challenge, ack, two collects), three back.
  EXPECT_EQ(link.net.stats().frames_delivered, 7u);
  EXPECT_EQ(link.net.stats().bytes_delivered,
            Challenge().size() + hello->size() + Ack().size() +
                2 * Collect(1).size() + r1->size() + r2->size());
}

TEST(SimTransportTest, ErrorSurfaceMirrorsInProcessTransport) {
  SessionLink link;

  // Deadline with nothing in flight: virtual time jumps to the deadline.
  auto timeout = link.ssi->Recv(50);
  ASSERT_FALSE(timeout.ok());
  EXPECT_EQ(timeout.status().ToString(),
            Status::DeadlineExceeded("recv deadline exceeded").ToString());
  EXPECT_EQ(link.clock.NowNs(), 50u * 1000000u);

  // Queue bound: net::kMaxQueuedFrames undelivered frames a direction, as
  // on an InProcessTransport.
  for (size_t i = 0; i < net::kMaxQueuedFrames; ++i) {
    ASSERT_TRUE(link.ssi->Send(Challenge()).ok());
  }
  auto full = link.ssi->Send(Challenge());
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.ToString(),
            Status::ResourceExhausted("transport queue full").ToString());

  // The first challenge is answered and the second, where the session
  // awaits an ack, silences it. The frames that land after that are
  // dropped, so they hold no room against the bound.
  link.clock.AdvanceTo(link.clock.NowNs());
  EXPECT_EQ(link.net.stats().session_errors, 1u);
  for (size_t i = 0; i < net::kMaxQueuedFrames; ++i) {
    ASSERT_TRUE(link.ssi->Send(Challenge()).ok());
  }
  link.clock.AdvanceTo(link.clock.NowNs());

  // Queued frames survive close and stay poppable; sends and empty recvs
  // fail with IoError, exactly as InProcess behaves.
  link.ssi->Close();
  EXPECT_TRUE(link.ssi->closed());
  auto hello = link.ssi->Recv(0);  // pop-after-close
  ASSERT_TRUE(hello.ok());
  EXPECT_TRUE(net::DecodeAs<net::HelloMsg>(hello.value()).ok());
  auto closed_recv = link.ssi->Recv(10);
  ASSERT_FALSE(closed_recv.ok());
  EXPECT_EQ(closed_recv.status().ToString(),
            Status::IoError("transport closed").ToString());
  EXPECT_EQ(link.ssi->Send(Challenge()).ToString(),
            Status::IoError("transport closed").ToString());
}

TEST(SimTransportTest, LatencyBandwidthAndDeadlines) {
  LinkModel model;
  model.base_latency_us = 1000;                // 1 ms each way
  model.bandwidth_bytes_per_sec = 1000 * 1000; // 1 MB/s: 1 B = 1 µs
  SessionLink link(model);

  const Bytes challenge = Challenge();
  ASSERT_TRUE(link.ssi->Send(challenge).ok());
  // Too early: nothing has come back at time 0.
  ASSERT_FALSE(link.ssi->Recv(0).ok());
  auto hello = link.ssi->Recv(10);
  ASSERT_TRUE(hello.ok());
  // Each way: serialization (1 µs a byte) plus base latency (1 ms).
  uint64_t expect_us = challenge.size() + 1000 + hello->size() + 1000;
  EXPECT_EQ(link.clock.NowNs(), expect_us * 1000u);

  // The ack holds the link until it is serialized, so the request behind
  // it leaves later; a deadline shorter than the reply's arrival expires
  // without it.
  const Bytes ack = Ack();
  const Bytes collect = Collect(1);
  ASSERT_TRUE(link.ssi->Send(ack).ok());
  ASSERT_TRUE(link.ssi->Send(collect).ok());
  auto miss = link.ssi->Recv(1);  // 1 ms < arrival
  ASSERT_FALSE(miss.ok());
  auto reply = link.ssi->Recv(10);
  ASSERT_TRUE(reply.ok());
  expect_us += ack.size() + collect.size() + 1000 + reply->size() + 1000;
  EXPECT_EQ(link.clock.NowNs(), expect_us * 1000u);
}

TEST(SimTransportTest, SessionLinkAnswersWhereFramesLand) {
  // The token end of the link is a bare TokenSession: it answers the
  // challenge the instant it lands, back over the same 1 ms link.
  LinkModel model;
  model.base_latency_us = 1000;
  SessionLink link(model);
  ASSERT_TRUE(link.ssi->Send(Challenge()).ok());
  auto hello = link.ssi->Recv(100);
  ASSERT_TRUE(hello.ok()) << hello.status().ToString();
  EXPECT_TRUE(net::DecodeAs<net::HelloMsg>(hello.value()).ok());
  EXPECT_EQ(link.clock.NowNs(), 2u * 1000000u);
  EXPECT_EQ(link.net.stats().session_errors, 0u);

  // Garbage before the handshake completes is fatal to the session: no
  // reply, one session error, and the link stays open.
  ASSERT_TRUE(link.ssi->Send(Bytes{0xde, 0xad, 0xbe, 0xef}).ok());
  auto silence = link.ssi->Recv(100);
  ASSERT_FALSE(silence.ok());
  EXPECT_EQ(silence.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(link.net.stats().session_errors, 1u);
  EXPECT_FALSE(link.ssi->closed());
  // The silenced token end reads no further frame.
  ASSERT_TRUE(link.ssi->Send(Challenge()).ok());
  EXPECT_FALSE(link.ssi->Recv(100).ok());
  EXPECT_EQ(link.net.stats().session_errors, 1u);

  // Close() detaches the session, so its owner may destroy it while a
  // frame is still in flight: the frame lands unread (ASan checks this).
  auto churned = std::make_unique<net::TokenSession>(
      &link.token, &link.tuples, /*packed=*/nullptr);
  std::unique_ptr<SimTransport> gone = link.net.ConnectSession(churned.get());
  ASSERT_TRUE(gone->Send(Challenge()).ok());
  gone->Close();
  churned.reset();
  link.clock.AdvanceTo(link.clock.NowNs() + 5u * 1000000u);
  // Two challenges and the garbage reached `link`'s token end and one
  // hello came back; `gone`'s challenge landed unread, so no hello did.
  EXPECT_EQ(link.net.stats().frames_delivered, 5u);

  // A reply already on the wire when the link closes still lands, and the
  // link reports closed only once it was read.
  SessionLink late(model);
  ASSERT_TRUE(late.ssi->Send(Challenge()).ok());
  late.clock.AdvanceTo(1000000u);  // the challenge lands, the hello leaves
  late.ssi->Close();
  EXPECT_TRUE(late.ssi->Recv(10).ok());
  EXPECT_FALSE(late.ssi->Recv(10).ok());
}

TEST(SimFleetTest, GroupByRoundOverRealProtocolStack) {
  SimFleetConfig cfg;
  cfg.num_tokens = 50;
  cfg.tuples_per_token = 2;
  SimFleet fleet(cfg);
  ASSERT_TRUE(fleet.Build().ok());
  ASSERT_EQ(fleet.server().num_sessions(), 50u);

  auto out = fleet.RunSecureAggregation(global::AggFunc::kSum);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_GT(out->groups.size(), 0u);
  EXPECT_LE(out->groups.size(), 5u);
  EXPECT_EQ(fleet.server().last_report().responders, 50u);
  EXPECT_EQ(fleet.server().last_report().missing_tokens, 0u);
  EXPECT_EQ(fleet.pump_errors(), 0u);
  EXPECT_GT(fleet.net().stats().bytes_delivered, 0u);
  // Every group label is a workload city, never a noise label.
  for (const auto& [group, sum] : out->groups) {
    EXPECT_EQ(group.rfind("city-", 0), 0u) << group;
    EXPECT_GE(sum, 0.0);
  }
}

TEST(SimFleetTest, DropoutsDegradeToQuorum) {
  SimFleetConfig cfg;
  cfg.num_tokens = 20;
  cfg.dropout_every = 5;  // tokens 0,5,10,15 never answer rounds
  cfg.deadline_ms = 50;   // virtual milliseconds: timeouts are free
  cfg.max_retries = 1;

  {
    SimFleet strict(cfg);
    ASSERT_TRUE(strict.Build().ok());
    EXPECT_EQ(strict.dropped_tokens(), 4u);
    auto out = strict.RunSecureAggregation(global::AggFunc::kSum);
    EXPECT_FALSE(out.ok());  // quorum 1.0 cannot tolerate dropouts
    EXPECT_EQ(strict.server().last_report().responders, 16u);
  }
  {
    cfg.quorum = 0.75;
    SimFleet lenient(cfg);
    ASSERT_TRUE(lenient.Build().ok());
    auto out = lenient.RunSecureAggregation(global::AggFunc::kSum);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(lenient.server().last_report().responders, 16u);
    EXPECT_EQ(lenient.server().last_report().missing_tokens, 4u);
  }
}

TEST(SimFleetTest, ChurnedDropoutsStayDropouts) {
  SimFleetConfig cfg;
  cfg.num_tokens = 20;
  cfg.dropout_every = 5;
  cfg.deadline_ms = 50;
  cfg.max_retries = 1;
  cfg.quorum = 0.75;
  SimFleet fleet(cfg);
  ASSERT_TRUE(fleet.Build().ok());
  ASSERT_TRUE(fleet.RunSecureAggregation(global::AggFunc::kSum).ok());
  EXPECT_EQ(fleet.server().last_report().responders, 16u);

  // Churn readmits exactly the dropouts; their links drop rounds again.
  ASSERT_TRUE(fleet.ChurnAndReadmit(5).ok());
  EXPECT_EQ(fleet.churned_tokens(), 4u);
  auto out = fleet.RunSecureAggregation(global::AggFunc::kSum);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(fleet.server().last_report().responders, 16u);
  EXPECT_EQ(fleet.server().last_report().missing_tokens, 4u);
}

TEST(SimFleetTest, SameSeedRealizesSameLossPattern) {
  SimFleetConfig cfg;
  cfg.num_tokens = 40;
  cfg.loss_rate = 0.2;
  cfg.deadline_ms = 50;
  cfg.quorum = 0.5;
  auto run = [&](uint64_t seed) {
    cfg.seed = seed;
    SimFleet fleet(cfg);
    EXPECT_TRUE(fleet.Build().ok());  // the handshake is spared
    EXPECT_TRUE(fleet.RunSecureAggregation(global::AggFunc::kSum).ok());
    const auto& report = fleet.server().last_report();
    return std::vector<uint64_t>{report.responders, report.retries,
                                 report.deadline_hits,
                                 fleet.net().stats().frames_delivered,
                                 fleet.clock().NowNs()};
  };
  const std::vector<uint64_t> first = run(11);
  EXPECT_GT(first[1], 0u);  // the loss engaged: the SSI retried
  EXPECT_EQ(first, run(11));
  EXPECT_NE(first, run(12));
}

TEST(SimFleetTest, ChurnedTokensReadmitAndNextRoundRunsFullStrength) {
  SimFleetConfig cfg;
  cfg.num_tokens = 12;
  SimFleet fleet(cfg);
  ASSERT_TRUE(fleet.Build().ok());
  auto first = fleet.RunSecureAggregation(global::AggFunc::kSum);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  ASSERT_TRUE(fleet.ChurnAndReadmit(3).ok());
  EXPECT_EQ(fleet.churned_tokens(), 4u);
  EXPECT_EQ(fleet.server().num_sessions(), 12u);  // readmitted, not added

  auto second = fleet.RunSecureAggregation(global::AggFunc::kSum);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(fleet.server().last_report().responders, 12u);
  // No in-flight frame reached a replaced session or made one fail.
  EXPECT_EQ(fleet.pump_errors(), 0u);
  // Same tuples, same fleet: the aggregate must not drift across churn.
  EXPECT_EQ(first->groups, second->groups);
}

TEST(SimFleetTest, MemoryAccountingScalesPerToken) {
  SimFleetConfig cfg;
  cfg.num_tokens = 100;
  SimFleet fleet(cfg);
  ASSERT_TRUE(fleet.Build().ok());
  auto m = fleet.Memory();
  EXPECT_GT(m.bytes_estimate, 0u);
  EXPECT_EQ(m.bytes_per_token, m.bytes_estimate / 100);
  // The per-token footprint must stay small enough that 10^6 tokens fit in
  // one process (the tier's design budget: a few KiB per token).
  EXPECT_LT(m.bytes_per_token, 16u * 1024u);
#ifdef __linux__
  EXPECT_GT(m.vm_hwm_kb, 0u);
#endif
}

}  // namespace
}  // namespace pds::sim
