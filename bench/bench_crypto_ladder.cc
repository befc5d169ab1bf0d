// E6 — the tutorial's secure-computation cost ladder (Part III): "Generic
// SMC / fully homomorphic encryption cost is (incredibly) high" versus the
// token-based approach. We compute the same fleet-wide SUM three ways:
//
//   1. plaintext              — the lower bound;
//   2. token secure-agg (AES) — the asymmetric-architecture approach;
//   3. Paillier homomorphic   — untrusted-server-only cryptography.
//
// Paper shape: each rung costs orders of magnitude more than the previous;
// the token approach sits far below public-key homomorphic crypto. The
// kernel-vs-scalar rungs under Paillier are timed by crypto_round_bench.

#include <benchmark/benchmark.h>

#include "common/rng.h"

#include <memory>

#include "crypto/paillier.h"
#include "global/agg_protocols.h"
#include "global/toolkit.h"

namespace {

using pds::global::AggFunc;
using pds::global::Metrics;
using pds::global::Participant;
using pds::global::SecureAggProtocol;
using pds::global::SourceTuple;
using pds::mcu::SecureToken;

std::vector<uint64_t> Values(size_t n) {
  std::vector<uint64_t> v(n);
  pds::Rng rng(71);
  for (auto& x : v) {
    x = rng.Uniform(1000);
  }
  return v;
}

void BM_PlaintextSum(benchmark::State& state) {
  auto values = Values(static_cast<size_t>(state.range(0)));
  uint64_t sum = 0;
  for (auto _ : state) {
    sum = 0;
    for (uint64_t v : values) {
      sum += v;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PlaintextSum)->Arg(10)->Arg(100)->Arg(1000);

void BM_TokenSecureAggSum(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto values = Values(n);
  // Fleet setup outside the timed region.
  pds::crypto::SymmetricKey key = pds::crypto::KeyFromString("ladder");
  std::vector<std::unique_ptr<SecureToken>> tokens;
  std::vector<Participant> participants;
  for (size_t i = 0; i < n; ++i) {
    SecureToken::Config cfg;
    cfg.token_id = i;
    cfg.fleet_key = key;
    tokens.push_back(std::make_unique<SecureToken>(cfg));
    Participant p;
    p.token = tokens.back().get();
    p.tuples.push_back({"all", static_cast<double>(values[i])});
    participants.push_back(std::move(p));
  }
  SecureAggProtocol protocol({/*partition_capacity=*/128});
  Metrics metrics;
  for (auto _ : state) {
    auto out = protocol.Execute(participants, AggFunc::kSum);
    benchmark::DoNotOptimize(out);
    if (out.ok()) {
      metrics = out->metrics;
    }
  }
  state.counters["token_crypto_ops"] =
      static_cast<double>(metrics.token_crypto_ops);
  state.counters["bytes"] = static_cast<double>(metrics.bytes);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TokenSecureAggSum)->Arg(10)->Arg(100)->Arg(1000);

void BM_PaillierSum(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t bits = static_cast<size_t>(state.range(1));
  auto values = Values(n);
  pds::Rng rng(73);
  Metrics metrics;
  for (auto _ : state) {
    auto sum = pds::global::PaillierFleetSum(values, bits, &rng, &metrics);
    benchmark::DoNotOptimize(sum);
  }
  state.counters["modulus_bits"] = static_cast<double>(bits);
  state.counters["token_crypto_ops"] =
      static_cast<double>(metrics.token_crypto_ops);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PaillierSum)
    ->Args({10, 256})
    ->Args({100, 256})
    ->Args({10, 512})
    ->Args({100, 512})
    ->Args({10, 1024});

// Micro-rungs of the ladder: one operation of each kind.
void BM_OneAesEncryption(benchmark::State& state) {
  SecureToken::Config cfg;
  cfg.fleet_key = pds::crypto::KeyFromString("micro");
  SecureToken token(cfg);
  pds::Bytes payload(64, 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(token.EncryptNonDet(pds::ByteView(payload)));
  }
}
BENCHMARK(BM_OneAesEncryption);

void BM_OnePaillierEncryption(benchmark::State& state) {
  const size_t bits = static_cast<size_t>(state.range(0));
  pds::Rng rng(77);
  auto paillier = pds::crypto::Paillier::Generate(bits, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(paillier->EncryptU64(12345, &rng));
  }
  state.counters["modulus_bits"] = static_cast<double>(bits);
}
BENCHMARK(BM_OnePaillierEncryption)->Arg(256)->Arg(512)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
