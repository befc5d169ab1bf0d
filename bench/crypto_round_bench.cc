// crypto_round_bench — the documented driver for BENCH_crypto.json:
//
//   build/bench/crypto_round_bench --out BENCH_crypto.json
//
// It first times the kernel-layer rungs of E6's cost ladder against their
// scalar baselines: Paillier encrypt (fixed-base cache vs plain ModExp)
// and decrypt (CRT + Montgomery vs schoolbook) at 256/512/1024-bit keys,
// ModExp (Montgomery vs schoolbook) at 256-2048-bit moduli, and the token's
// symmetric rung: NonDetCipher encrypt and decrypt of the fleet workload's
// 24-byte tuple (AES-128-CTR + HMAC-SHA256) on the AES-NI/SHA-NI path vs
// the forced-portable path, whose ciphertexts must be byte-identical. Each
// rung batches enough calls per sample to fill kSampleNs.
//
// It then times one [TNP14] fleet aggregation round at fleet size 64 with
// 8 counters per site, two ways:
//
//   fleet_round_per_op — the PR 1 baseline: one Paillier encryption per
//     site per counter, k homomorphic folds, k decryptions
//     (fleet * k + k asymmetric ops per round);
//   fleet_round_packed — slot packing + the lockstep batch-window ladder
//     over the multi-lane Montgomery kernel: one ciphertext per site, one
//     fold, ONE decrypt-unpack (fleet + 1 asymmetric ops per round).
//
// Every timed round's totals are cross-checked against the plaintext sums,
// and the packed path is additionally re-run with the SIMD kernel forced
// to its scalar fallback to prove the ciphertexts are byte-identical on
// both dispatch paths. Any mismatch — or a packed speedup below the 3x
// acceptance floor — exits non-zero, which is what the CI schema check
// builds on. Every measurement warms up once untimed, then reports the
// median of kReps timed samples.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/cipher.h"
#include "crypto/montgomery.h"
#include "crypto/montgomery_simd.h"
#include "crypto/paillier.h"
#include "global/common.h"
#include "global/toolkit.h"

namespace {

using pds::Rng;
using pds::crypto::BigInt;
using pds::crypto::PackedAggregate;
using pds::crypto::Paillier;
using pds::global::PackedRoundOutput;

constexpr size_t kFleet = 64;
constexpr size_t kCounters = 8;
constexpr uint64_t kMaxValue = 255;
constexpr size_t kKeyBits = 512;
constexpr int kReps = 5;
constexpr double kSampleNs = 50e6;  // one kernel-rung sample: ~50 ms of calls

int Fail(const std::string& what) {
  std::cerr << "crypto_round_bench: FAILED: " << what << "\n";
  return 1;
}

std::vector<std::vector<uint64_t>> MakeSiteCounters() {
  Rng rng(91);
  std::vector<std::vector<uint64_t>> rows(kFleet,
                                          std::vector<uint64_t>(kCounters));
  for (auto& row : rows) {
    for (auto& v : row) {
      v = rng.Uniform(kMaxValue + 1);
    }
  }
  return rows;
}

std::vector<uint64_t> PlainTotals(
    const std::vector<std::vector<uint64_t>>& rows) {
  std::vector<uint64_t> totals(kCounters, 0);
  for (const auto& row : rows) {
    for (size_t i = 0; i < kCounters; ++i) {
      totals[i] += row[i];
    }
  }
  return totals;
}

/// Runs `sample` once untimed (warmup), then kReps timed samples. Returns
/// the median sample time in ns, or a negative value as soon as a sample
/// reports failure.
template <typename SampleFn>
double MedianOfReps(SampleFn sample) {
  if (!sample()) {
    return -1.0;
  }
  std::vector<double> ns;
  for (int rep = 0; rep < kReps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    const bool ok = sample();
    auto t1 = std::chrono::steady_clock::now();
    if (!ok) {
      return -1.0;
    }
    ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

/// Median ns per call of `op`, a kernel call that reports success. One
/// sample is a batch of calls filling about kSampleNs, so microsecond
/// kernels are not timed at clock resolution. Negative if a call fails.
template <typename Op>
double NsPerOp(Op op) {
  auto t0 = std::chrono::steady_clock::now();
  if (!op()) {
    return -1.0;
  }
  const double one_ns = std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  const int batch =
      std::max(1, static_cast<int>(kSampleNs / std::max(one_ns, 1.0)));
  const double ns = MedianOfReps([&] {
    bool ok = true;
    for (int i = 0; i < batch; ++i) {
      ok = op() && ok;
    }
    return ok;
  });
  return ns < 0 ? ns : ns / batch;
}

/// Median round time in ns of `round` (see MedianOfReps), verifying every
/// round's totals against the plaintext sums; negative on failure.
template <typename RoundFn>
double TimeRounds(const char* what, const std::vector<uint64_t>& expected,
                  RoundFn round) {
  return MedianOfReps([&] {
    auto out = round();
    if (!out.ok()) {
      std::cerr << "crypto_round_bench: " << what << ": "
                << out.status().ToString() << "\n";
      return false;
    }
    if (out->totals != expected) {
      std::cerr << "crypto_round_bench: " << what
                << ": totals do not match plaintext sums\n";
      return false;
    }
    return true;
  });
}

/// One kernel-layer rung: the same operation on its scalar baseline and on
/// its kernel path.
struct KernelRung {
  const char* op;
  size_t key_bits;
  double scalar_ns;
  double kernel_ns;
};

/// The symmetric rungs: NonDetCipher encrypt and decrypt of the fleet
/// workload's 24-byte tuple with AES-128 (key_bits 128), timed with the
/// portable path forced ("scalar") and on the dispatched AES-NI/SHA-NI
/// path ("kernel"). The same nonce stream must yield byte-identical
/// ciphertexts on both paths.
int TimeSymmetricRungs(std::vector<KernelRung>* rungs) {
  using pds::crypto::NonDetCipher;
  const pds::Bytes tuple =
      pds::global::EncodeAggPayload(false, 42, 1, "city-17");
  const NonDetCipher cipher(pds::crypto::KeyFromString("sim-fleet"));
  std::vector<pds::Bytes> cts[2];  // [0] portable, [1] dispatched
  double encrypt_ns[2];
  double decrypt_ns[2];
  for (int path : {0, 1}) {
    pds::crypto::simd::SetForceScalar(path == 0);
    Rng nonces(89);
    for (int i = 0; i < 64; ++i) {
      cts[path].push_back(cipher.Encrypt(pds::ByteView(tuple), &nonces));
    }
    const pds::Bytes& ct = cts[path].front();
    encrypt_ns[path] = NsPerOp([&] {
      return cipher.Encrypt(pds::ByteView(tuple), &nonces).size() ==
             tuple.size() + NonDetCipher::kOverhead;
    });
    decrypt_ns[path] = NsPerOp([&] {
      auto plain = cipher.Decrypt(pds::ByteView(ct));
      return plain.ok() && *plain == tuple;
    });
  }
  pds::crypto::simd::SetForceScalar(false);
  if (cts[0] != cts[1]) {
    return Fail("hardware and forced-portable ciphertexts differ");
  }
  rungs->push_back({"nondet_encrypt", 128, encrypt_ns[0], encrypt_ns[1]});
  rungs->push_back({"nondet_decrypt", 128, decrypt_ns[0], decrypt_ns[1]});
  return 0;
}

/// Times every kernel rung BENCH_crypto.json holds, in file order.
int TimeKernelRungs(std::vector<KernelRung>* rungs) {
  constexpr size_t kPaillierBits[] = {256, 512, 1024};
  std::vector<Paillier> keys;
  for (size_t bits : kPaillierBits) {
    Rng key_rng(77);
    auto paillier = Paillier::Generate(bits, &key_rng);
    if (!paillier.ok()) {
      return Fail("Paillier::Generate: " + paillier.status().ToString());
    }
    keys.push_back(std::move(paillier).value());
  }
  const BigInt m(12345);
  for (size_t i = 0; i < keys.size(); ++i) {
    const Paillier& key = keys[i];
    Rng rng(79);
    rungs->push_back(
        {"paillier_encrypt", kPaillierBits[i],
         NsPerOp([&] { return key.EncryptScalar(m, &rng).ok(); }),
         NsPerOp([&] { return key.Encrypt(m, &rng).ok(); })});
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    const Paillier& key = keys[i];
    Rng rng(81);
    auto ct = key.EncryptU64(67890, &rng);
    if (!ct.ok()) {
      return Fail("EncryptU64: " + ct.status().ToString());
    }
    rungs->push_back(
        {"paillier_decrypt", kPaillierBits[i],
         NsPerOp([&] { return key.DecryptScalar(*ct).ok(); }),
         NsPerOp([&] { return key.Decrypt(*ct).ok(); })});
  }
  for (size_t bits : {256, 512, 1024, 2048}) {
    Rng rng(83);
    const BigInt mod = BigInt::GeneratePrime(bits, &rng);
    const BigInt base = BigInt::RandomBelow(mod, &rng);
    const BigInt exp = BigInt::RandomBits(bits, &rng);
    const pds::crypto::MontgomeryCtx ctx(mod);
    rungs->push_back(
        {"modexp", bits, NsPerOp([&] {
           return !BigInt::ModExpSchoolbook(base, exp, mod).IsZero();
         }),
         NsPerOp([&] { return !ctx.ModExp(base, exp).IsZero(); })});
  }
  if (TimeSymmetricRungs(rungs) != 0) {
    return 1;
  }
  for (const KernelRung& r : *rungs) {
    if (r.scalar_ns < 0 || r.kernel_ns < 0) {
      return Fail(std::string(r.op) + " rung failed");
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_crypto.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: crypto_round_bench [--out FILE]\n";
      return 1;
    }
  }

  std::vector<KernelRung> rungs;
  if (TimeKernelRungs(&rungs) != 0) {
    return 1;
  }

  Rng key_rng(42);
  auto paillier = Paillier::Generate(kKeyBits, &key_rng);
  if (!paillier.ok()) {
    return Fail("Paillier::Generate: " + paillier.status().ToString());
  }
  auto agg = PackedAggregate::Create(*paillier, kFleet, kMaxValue, kCounters);
  if (!agg.ok()) {
    return Fail("PackedAggregate::Create: " + agg.status().ToString());
  }
  const auto rows = MakeSiteCounters();
  const auto expected = PlainTotals(rows);

  Rng rng(73);
  double per_op_ns = TimeRounds("per-op round", expected, [&] {
    return pds::global::PaillierPerOpFleetRound(*paillier, rows, &rng);
  });
  if (per_op_ns < 0) {
    return Fail("per-op round did not verify");
  }
  double packed_ns = TimeRounds("packed round", expected, [&] {
    return pds::global::PaillierPackedFleetRound(*agg, rows, &rng);
  });
  if (packed_ns < 0) {
    return Fail("packed round did not verify");
  }

  // Dispatch cross-check: identical RNG seed, SIMD vs forced-scalar
  // kernel, ciphertexts must match bit for bit.
  const bool had_avx2 =
      std::string(pds::crypto::simd::KernelName()) == "avx2";
  std::vector<pds::Bytes> simd_cts;
  std::vector<pds::Bytes> scalar_cts;
  for (bool force : {false, true}) {
    pds::crypto::simd::SetForceScalar(force);
    Rng enc_rng(7);
    auto cts = agg->EncryptPackedBatch(rows, &enc_rng);
    if (!cts.ok()) {
      pds::crypto::simd::SetForceScalar(false);
      return Fail("EncryptPackedBatch: " + cts.status().ToString());
    }
    auto& dst = force ? scalar_cts : simd_cts;
    for (const BigInt& ct : *cts) {
      dst.push_back(ct.ToBytes());
    }
  }
  pds::crypto::simd::SetForceScalar(false);
  if (simd_cts != scalar_cts) {
    return Fail("SIMD and forced-scalar ciphertexts differ");
  }

  const double speedup = per_op_ns / packed_ns;
  if (speedup < 3.0) {
    return Fail("packed round speedup " + std::to_string(speedup) +
                "x is below the 3x acceptance floor");
  }

  // Fixed notation: ns to 0.1, ratios to 3 decimals.
  std::ofstream out(out_path, std::ios::binary);
  out << std::fixed << "{\n  \"records\": [\n";
  for (const KernelRung& r : rungs) {
    out << std::setprecision(1) << "    {\"op\": \"" << r.op << "\""
        << ", \"key_bits\": " << r.key_bits
        << ", \"scalar_ns_per_op\": " << r.scalar_ns
        << ", \"kernel_ns_per_op\": " << r.kernel_ns << std::setprecision(3)
        << ", \"speedup_vs_scalar\": " << r.scalar_ns / r.kernel_ns << "},\n";
  }
  out << std::setprecision(1) << "    {\"op\": \"fleet_round_per_op\""
      << ", \"fleet_size\": " << kFleet
      << ", \"num_counters\": " << kCounters
      << ", \"key_bits\": " << kKeyBits
      << ", \"reps\": " << kReps
      << ", \"cipher_ops_per_round\": " << (kFleet * kCounters + kCounters)
      << ", \"ns_per_round\": " << per_op_ns << std::setprecision(3)
      << ", \"rounds_per_sec\": " << 1e9 / per_op_ns
      << ", \"verified\": true},\n";
  out << std::setprecision(1) << "    {\"op\": \"fleet_round_packed\""
      << ", \"fleet_size\": " << kFleet
      << ", \"num_counters\": " << kCounters
      << ", \"key_bits\": " << kKeyBits
      << ", \"reps\": " << kReps
      << ", \"cipher_ops_per_round\": " << (kFleet + 1)
      << ", \"ns_per_round\": " << packed_ns << std::setprecision(3)
      << ", \"rounds_per_sec\": " << 1e9 / packed_ns
      << ", \"speedup_vs_per_op\": " << speedup
      << ", \"simd_kernel\": \"" << (had_avx2 ? "avx2" : "scalar") << "\""
      << ", \"scalar_fallback_identical\": true"
      << ", \"verified\": true}\n";
  out << "  ]\n}\n";
  if (!out) {
    return Fail("writing " + out_path);
  }
  std::cout << "crypto_round_bench: per-op " << per_op_ns / 1e6
            << " ms/round, packed " << packed_ns / 1e6 << " ms/round ("
            << speedup << "x), wrote " << out_path << "\n";
  return 0;
}
