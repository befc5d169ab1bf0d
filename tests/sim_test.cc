// Unit tests for the discrete-event simulation tier: SimClock ordering and
// virtual time, SimTransport's InProcess-mirroring semantics under a
// LinkModel, session links, and SimFleet driving the real SsiServer and
// TokenSession protocol. The byte-identity anchor against the in-process
// wire lives in sim_anchor_test.cc.

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

Bytes Frame(std::initializer_list<uint8_t> b) { return Bytes(b); }

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

TEST(SimTransportTest, IdealLinkDeliversInstantlyInOrder) {
  SimClock clock;
  SimNet net(&clock, LinkModel{}, 1);
  auto [a, b] = net.CreatePair();
  ASSERT_TRUE(a->Send(Frame({1, 2, 3})).ok());
  ASSERT_TRUE(a->Send(Frame({4, 5})).ok());

  auto r1 = b->Recv(100);
  auto r2 = b->Recv(100);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value(), Frame({1, 2, 3}));
  EXPECT_EQ(r2.value(), Frame({4, 5}));
  EXPECT_EQ(clock.NowNs(), 0u);  // zero latency: no virtual time passed
  EXPECT_EQ(b->frames_received(), 2u);
  EXPECT_EQ(a->bytes_sent(), 5u);
  EXPECT_EQ(net.stats().frames_delivered, 2u);
}

TEST(SimTransportTest, ErrorSurfaceMirrorsInProcessTransport) {
  SimClock clock;
  SimNet net(&clock, LinkModel{}, 1);
  auto [a, b] = net.CreatePair(/*max_queued=*/2);

  // Deadline with nothing in flight: virtual time jumps to the deadline.
  auto timeout = b->Recv(50);
  ASSERT_FALSE(timeout.ok());
  EXPECT_EQ(timeout.status().ToString(),
            Status::DeadlineExceeded("recv deadline exceeded").ToString());
  EXPECT_EQ(clock.NowNs(), 50u * 1000000u);

  // Queue bound counts in-flight + inbox, like InProcess's max_queued.
  ASSERT_TRUE(a->Send(Frame({1})).ok());
  ASSERT_TRUE(a->Send(Frame({2})).ok());
  auto full = a->Send(Frame({3}));
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.ToString(),
            Status::ResourceExhausted("transport queue full").ToString());

  // Queued frames survive close and stay poppable; sends and empty recvs
  // fail with IoError, exactly as InProcess behaves.
  ASSERT_TRUE(b->Recv(10).ok());  // deliver both, pop one
  a->Close();
  EXPECT_TRUE(b->closed());
  EXPECT_TRUE(b->Recv(0).ok());  // pop-after-close
  auto closed_recv = b->Recv(10);
  ASSERT_FALSE(closed_recv.ok());
  EXPECT_EQ(closed_recv.status().ToString(),
            Status::IoError("transport closed").ToString());
  EXPECT_EQ(a->Send(Frame({9})).ToString(),
            Status::IoError("transport closed").ToString());
}

TEST(SimTransportTest, LatencyBandwidthAndDeadlines) {
  LinkModel model;
  model.base_latency_us = 1000;                // 1 ms each way
  model.bandwidth_bytes_per_sec = 1000 * 1000; // 1 MB/s: 100 B = 100 µs
  SimClock clock;
  SimNet net(&clock, model, 1);
  auto [a, b] = net.CreatePair();

  Bytes big(100, 0xab);
  ASSERT_TRUE(a->Send(big).ok());
  // Too early: the frame is still in flight at 0.5 ms.
  ASSERT_FALSE(b->Recv(0).ok());
  auto r = b->Recv(10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 100u);
  // Arrival = serialization (100 µs) + base latency (1 ms).
  EXPECT_EQ(clock.NowNs(), (100u + 1000u) * 1000u);

  // A deadline shorter than the latency must expire without the frame.
  ASSERT_TRUE(a->Send(big).ok());
  auto miss = b->Recv(1);  // 1 ms < 1.1 ms arrival
  ASSERT_FALSE(miss.ok());
  auto hit = b->Recv(10);
  EXPECT_TRUE(hit.ok());
}

TEST(SimTransportTest, LossAndPartitionCounts) {
  LinkModel model;
  model.loss_rate = 1.0;
  SimClock clock;
  SimNet net(&clock, model, 7);
  auto [a, b] = net.CreatePair();
  ASSERT_TRUE(a->Send(Frame({1})).ok());  // accepted, then lost
  ASSERT_FALSE(b->Recv(5).ok());
  EXPECT_EQ(net.stats().frames_sent, 1u);
  EXPECT_EQ(net.stats().frames_lost, 1u);
  EXPECT_EQ(net.stats().frames_delivered, 0u);

  LinkModel part;
  part.partitions.push_back({0, 2000000});  // [0, 2ms) outage
  SimClock clock2;
  SimNet net2(&clock2, part, 7);
  auto [c, d] = net2.CreatePair();
  ASSERT_TRUE(c->Send(Frame({1})).ok());  // inside the window: lost
  ASSERT_FALSE(d->Recv(5).ok());          // advances past the window
  ASSERT_TRUE(c->Send(Frame({2})).ok());  // after the window: delivered
  auto r = d->Recv(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), Frame({2}));
  EXPECT_EQ(net2.stats().frames_partitioned, 1u);
  EXPECT_EQ(net2.stats().frames_delivered, 1u);
}

TEST(SimTransportTest, SameSeedRealizesSameLossPattern) {
  LinkModel model;
  model.loss_rate = 0.4;
  auto run = [&](uint64_t seed) {
    SimClock clock;
    SimNet net(&clock, model, seed);
    auto [a, b] = net.CreatePair(4096);
    std::vector<bool> delivered;
    delivered.reserve(200);
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE(a->Send(Frame({static_cast<uint8_t>(i)})).ok());
      delivered.push_back(b->Recv(1).ok());
    }
    return delivered;
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));
}

TEST(SimTransportTest, SessionLinkAnswersWhereFramesLand) {
  // The token end of the link is a bare TokenSession: it answers the
  // challenge the instant it lands, back over the same 1 ms link.
  LinkModel model;
  model.base_latency_us = 1000;
  SimClock clock;
  SimNet net(&clock, model, 1);
  mcu::SecureToken::Config tcfg;
  tcfg.token_id = 7;
  tcfg.fleet_key = crypto::KeyFromString("sim-session");
  mcu::SecureToken token(tcfg);
  const std::vector<global::SourceTuple> tuples = {{"city-0", 1.0}};
  net::TokenSession session(&token, &tuples, /*packed=*/nullptr);
  std::unique_ptr<SimTransport> ssi = net.ConnectSession(&session);

  net::ChallengeMsg challenge;
  challenge.nonce.assign(16, 0x5a);
  ASSERT_TRUE(ssi->Send(net::EncodeMessage({challenge, {}, false})).ok());
  auto hello = ssi->Recv(100);
  ASSERT_TRUE(hello.ok()) << hello.status().ToString();
  EXPECT_TRUE(net::DecodeAs<net::HelloMsg>(hello.value()).ok());
  EXPECT_EQ(clock.NowNs(), 2u * 1000000u);
  EXPECT_EQ(net.stats().session_errors, 0u);

  // Garbage before the handshake completes is fatal to the session: no
  // reply, one session error, and the link stays open.
  ASSERT_TRUE(ssi->Send(Frame({0xde, 0xad, 0xbe, 0xef})).ok());
  auto silence = ssi->Recv(100);
  ASSERT_FALSE(silence.ok());
  EXPECT_EQ(silence.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(net.stats().session_errors, 1u);
  EXPECT_FALSE(ssi->closed());
  // The silenced token end reads no further frame.
  ASSERT_TRUE(ssi->Send(net::EncodeMessage({challenge, {}, false})).ok());
  EXPECT_FALSE(ssi->Recv(100).ok());
  EXPECT_EQ(net.stats().session_errors, 1u);

  // Close() detaches the session, so its owner may destroy it while a
  // frame is still in flight: the frame lands unread (ASan checks this).
  auto churned = std::make_unique<net::TokenSession>(&token, &tuples,
                                                     /*packed=*/nullptr);
  std::unique_ptr<SimTransport> link = net.ConnectSession(churned.get());
  ASSERT_TRUE(link->Send(net::EncodeMessage({challenge, {}, false})).ok());
  link->Close();
  churned.reset();
  clock.AdvanceTo(clock.NowNs() + 5u * 1000000u);
  EXPECT_EQ(net.stats().frames_delivered, 5u);
  EXPECT_EQ(net.stats().frames_sent, 5u);  // no hello came back
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
