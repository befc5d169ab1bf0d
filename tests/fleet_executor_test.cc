// ThreadPool/FleetExecutor semantics plus the determinism contract: every
// global protocol and toolkit primitive must produce byte-identical output
// (groups, Metrics, LeakageReport) under a multi-threaded executor and
// under serial execution.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <set>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "global/agg_protocols.h"
#include "global/fleet_executor.h"
#include "global/toolkit.h"

namespace pds::global {
namespace {

TEST(ThreadPoolTest, ZeroAndOneThreadRunInline) {
  for (size_t threads : {0u, 1u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), 0u);
    std::thread::id runner;
    pool.Submit([&] { runner = std::this_thread::get_id(); });
    EXPECT_EQ(runner, std::this_thread::get_id());
    pool.Wait();
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, WaitEstablishesHappensBefore) {
  ThreadPool pool(4);
  std::vector<uint64_t> out(1000, 0);
  for (size_t i = 0; i < out.size(); ++i) {
    pool.Submit([&out, i] { out[i] = i * i; });
  }
  pool.Wait();
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i * i);
  }
}

TEST(FleetExecutorTest, ReturnsLowestIndexError) {
  FleetExecutor exec(4);
  Status status = exec.ParallelFor(100, [&](size_t i) -> Status {
    if (i == 13 || i == 71) {
      return Status::Internal("unit " + std::to_string(i));
    }
    return Status::Ok();
  });
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.ToString().find("unit 13"), std::string::npos)
      << status.ToString();
}

TEST(FleetExecutorTest, NullExecutorRunsSerially) {
  std::vector<size_t> order;
  ASSERT_TRUE(FleetExecutor::Run(nullptr, 5, [&](size_t i) -> Status {
                order.push_back(i);
                return Status::Ok();
              }).ok());
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

// --- Protocol determinism: serial vs 8 threads, byte-identical ---

/// A reproducible fleet: tokens plus tuples, rebuilt identically for every
/// run so serial and parallel executions start from the same RNG states.
struct Fixture {
  std::vector<std::unique_ptr<mcu::SecureToken>> tokens;
  std::vector<Participant> participants;
};

Fixture MakeFleet(size_t num_tokens) {
  Fixture f;
  crypto::SymmetricKey fleet_key = crypto::KeyFromString("det-test");
  for (uint64_t i = 0; i < num_tokens; ++i) {
    mcu::SecureToken::Config cfg;
    cfg.token_id = i;
    cfg.fleet_key = fleet_key;
    cfg.rng_seed = 400 + i;
    f.tokens.push_back(std::make_unique<mcu::SecureToken>(cfg));
  }
  Rng rng(91);
  for (uint64_t i = 0; i < num_tokens; ++i) {
    Participant p;
    p.token = f.tokens[i].get();
    int tuples = 3 + static_cast<int>(rng.Uniform(8));
    for (int t = 0; t < tuples; ++t) {
      p.tuples.push_back({"city-" + std::to_string(rng.Uniform(5)),
                          static_cast<double>(rng.Uniform(1000))});
    }
    f.participants.push_back(std::move(p));
  }
  return f;
}

void ExpectIdentical(const AggOutput& serial, const AggOutput& parallel) {
  EXPECT_EQ(serial.groups, parallel.groups);
  EXPECT_EQ(serial.metrics.messages, parallel.metrics.messages);
  EXPECT_EQ(serial.metrics.bytes, parallel.metrics.bytes);
  EXPECT_EQ(serial.metrics.rounds, parallel.metrics.rounds);
  EXPECT_EQ(serial.metrics.token_crypto_ops,
            parallel.metrics.token_crypto_ops);
  EXPECT_EQ(serial.metrics.ssi_ops, parallel.metrics.ssi_ops);
  EXPECT_EQ(serial.leakage.tuples_observed, parallel.leakage.tuples_observed);
  EXPECT_EQ(serial.leakage.distinct_classes,
            parallel.leakage.distinct_classes);
  EXPECT_EQ(serial.leakage.class_sizes, parallel.leakage.class_sizes);
  EXPECT_EQ(serial.leakage.plaintext_groups_visible,
            parallel.leakage.plaintext_groups_visible);
}

/// Runs `make_protocol(executor)` on a fresh fleet serially and with an
/// 8-thread executor, and requires identical outputs.
template <typename MakeProtocol>
void CheckProtocolDeterminism(const MakeProtocol& make_protocol,
                              AggFunc func) {
  Fixture serial_fleet = MakeFleet(12);
  auto serial_protocol = make_protocol(nullptr);
  auto serial_out = serial_protocol->Execute(serial_fleet.participants, func);
  ASSERT_TRUE(serial_out.ok()) << serial_out.status().ToString();

  FleetExecutor exec(8);
  Fixture parallel_fleet = MakeFleet(12);
  auto parallel_protocol = make_protocol(&exec);
  auto parallel_out =
      parallel_protocol->Execute(parallel_fleet.participants, func);
  ASSERT_TRUE(parallel_out.ok()) << parallel_out.status().ToString();

  ExpectIdentical(*serial_out, *parallel_out);
}

TEST(ExecutorDeterminismTest, SecureAgg) {
  for (AggFunc func : {AggFunc::kSum, AggFunc::kCount, AggFunc::kAvg}) {
    CheckProtocolDeterminism(
        [](FleetExecutor* exec) {
          SecureAggProtocol::Config cfg;
          cfg.partition_capacity = 16;
          cfg.executor = exec;
          return std::make_unique<SecureAggProtocol>(cfg);
        },
        func);
  }
}

TEST(ExecutorDeterminismTest, WhiteNoise) {
  CheckProtocolDeterminism(
      [](FleetExecutor* exec) {
        WhiteNoiseProtocol::Config cfg;
        cfg.noise_ratio = 0.4;
        cfg.noise_seed = 17;
        cfg.executor = exec;
        return std::make_unique<WhiteNoiseProtocol>(cfg);
      },
      AggFunc::kSum);
}

TEST(ExecutorDeterminismTest, DomainNoise) {
  CheckProtocolDeterminism(
      [](FleetExecutor* exec) {
        DomainNoiseProtocol::Config cfg;
        for (int i = 0; i < 5; ++i) {
          cfg.domain.push_back("city-" + std::to_string(i));
        }
        cfg.fakes_per_value = 2;
        cfg.executor = exec;
        return std::make_unique<DomainNoiseProtocol>(std::move(cfg));
      },
      AggFunc::kAvg);
}

TEST(ExecutorDeterminismTest, Histogram) {
  CheckProtocolDeterminism(
      [](FleetExecutor* exec) {
        HistogramProtocol::Config cfg;
        cfg.num_buckets = 4;
        cfg.executor = exec;
        return std::make_unique<HistogramProtocol>(cfg);
      },
      AggFunc::kSum);
}

TEST(ExecutorDeterminismTest, PackedPaillier) {
  CheckProtocolDeterminism(
      [](FleetExecutor* exec) {
        PackedPaillierProtocol::Config cfg;
        for (int i = 0; i < 5; ++i) {
          cfg.domain.push_back("city-" + std::to_string(i));
        }
        // A token holds up to 10 tuples below 1,000 each.
        cfg.max_slot_value = 10000;
        cfg.executor = exec;
        return std::make_unique<PackedPaillierProtocol>(std::move(cfg));
      },
      AggFunc::kAvg);
}

// --- Toolkit primitives under the executor ---

void ExpectMetricsEq(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.token_crypto_ops, b.token_crypto_ops);
  EXPECT_EQ(a.ssi_ops, b.ssi_ops);
}

TEST(ExecutorDeterminismTest, SecureSetUnionAndIntersection) {
  const std::vector<std::vector<std::string>> sets = {
      {"a", "b", "c"}, {"b", "c", "d"}, {"c", "e"}};
  FleetExecutor exec(8);

  Rng rng1(31);
  Metrics m1;
  auto serial = SecureSetUnion(sets, 128, &rng1, &m1, nullptr);
  Rng rng2(31);
  Metrics m2;
  auto parallel = SecureSetUnion(sets, 128, &rng2, &m2, &exec);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(*serial, *parallel);
  EXPECT_EQ(*serial, (std::set<std::string>{"a", "b", "c", "d", "e"}));
  ExpectMetricsEq(m1, m2);

  Rng rng3(32);
  auto isize_serial = SecureIntersectionSize(sets, 128, &rng3, nullptr,
                                             nullptr);
  Rng rng4(32);
  auto isize_parallel = SecureIntersectionSize(sets, 128, &rng4, nullptr,
                                               &exec);
  ASSERT_TRUE(isize_serial.ok());
  ASSERT_TRUE(isize_parallel.ok());
  EXPECT_EQ(*isize_serial, 1u);  // only "c" is everywhere
  EXPECT_EQ(*isize_serial, *isize_parallel);
}

TEST(ExecutorDeterminismTest, ScalarProduct) {
  FleetExecutor exec(8);
  const std::vector<uint64_t> a = {3, 1, 4, 1, 5, 9, 2, 6};
  const std::vector<uint64_t> b = {2, 7, 1, 8, 2, 8, 1, 8};
  uint64_t dot = std::inner_product(a.begin(), a.end(), b.begin(),
                                    uint64_t{0});

  Rng rng1(41);
  Metrics m1;
  auto serial = SecureScalarProduct(a, b, 128, &rng1, &m1, nullptr);
  Rng rng2(41);
  Metrics m2;
  auto parallel = SecureScalarProduct(a, b, 128, &rng2, &m2, &exec);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(*serial, dot);
  EXPECT_EQ(*serial, *parallel);
  ExpectMetricsEq(m1, m2);
}

}  // namespace
}  // namespace pds::global
