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
// 8 counters per site, two ways, both on one fixed 512-bit key so keygen
// is on neither side:
//
//   fleet_round_per_op — the PR 1 baseline: one Paillier encryption per
//     site per counter, k homomorphic folds, k decryptions
//     (fleet * k + k asymmetric ops per round);
//   fleet_round_packed — the protocol's own round: SsiServer::
//     RunPackedAggregation over 64 TokenSessions behind DirectTokenLinks,
//     each token packing its 4 groups' (sum, count) counters into one
//     ciphertext, the SSI's fold, ONE decrypt-unpack (fleet + 1
//     asymmetric ops per round).
//
// Every timed round's totals are cross-checked against the plaintext sums,
// and the packed round is additionally re-run on fresh tokens with the
// same seeds and the lane-split kernel forced to its scalar ladder, to
// prove every ciphertext and the fold are byte-identical on both dispatch
// paths. Any mismatch — or a packed speedup below the 3x acceptance floor
// — exits non-zero, which is what the CI schema check builds on. Every
// measurement warms up once untimed, then reports the median of kReps
// timed samples.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "crypto/cipher.h"
#include "crypto/montgomery.h"
#include "crypto/montgomery_simd.h"
#include "crypto/paillier.h"
#include "global/common.h"
#include "global/toolkit.h"
#include "mcu/secure_token.h"
#include "net/codec.h"
#include "net/direct_link.h"
#include "net/ssi_server.h"
#include "net/transport.h"

namespace {

using pds::Bytes;
using pds::ByteView;
using pds::Rng;
using pds::crypto::BigInt;
using pds::crypto::PackedAggregate;
using pds::crypto::Paillier;
using pds::global::AggFunc;
using pds::global::AggOutput;
using pds::global::PackedRoundOutput;
using pds::global::Participant;

constexpr size_t kFleet = 64;
constexpr size_t kCounters = 8;
constexpr size_t kDomain = kCounters / 2;  // a (sum, count) pair per group
constexpr size_t kTuplesPerSite = 4;
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
/// round's answer with `matches` (true when it equals the plaintext sums);
/// negative on failure.
template <typename RoundFn, typename MatchFn>
double TimeRounds(const char* what, RoundFn round, MatchFn matches) {
  return MedianOfReps([&] {
    auto out = round();
    if (!out.ok()) {
      std::cerr << "crypto_round_bench: " << what << ": "
                << out.status().ToString() << "\n";
      return false;
    }
    if (!matches(*out)) {
      std::cerr << "crypto_round_bench: " << what
                << ": totals do not match plaintext sums\n";
      return false;
    }
    return true;
  });
}

/// The packed round's fleet: kFleet tokens with fixed seeds, each holding
/// kTuplesPerSite tuples over a kDomain-group domain, admitted to one
/// SsiServer over DirectTokenLinks. Two fleets built alike produce the same
/// ciphertexts round for round.
struct PackedFleet {
  std::vector<std::string> domain;
  std::vector<std::unique_ptr<pds::mcu::SecureToken>> tokens;
  std::vector<Participant> participants;
  std::unique_ptr<pds::net::SsiServer> server;
  std::vector<Bytes> replies;  // frames the tokens sent, when recording
};

/// A DirectTokenLink that also keeps every frame its token sends back.
class RecordingLink : public pds::net::Transport {
 public:
  RecordingLink(pds::mcu::SecureToken* token,
                const std::vector<pds::global::SourceTuple>* tuples,
                const PackedAggregate* agg, std::vector<Bytes>* replies)
      : link_(token, tuples, agg), replies_(replies) {}

  pds::Status Send(ByteView frame) override { return link_.Send(frame); }
  pds::Result<Bytes> Recv(uint32_t deadline_ms) override {
    pds::Result<Bytes> frame = link_.Recv(deadline_ms);
    if (frame.ok()) {
      replies_->push_back(*frame);
    }
    return frame;
  }
  void Close() override { link_.Close(); }
  bool closed() const override { return link_.closed(); }

 private:
  pds::net::DirectTokenLink link_;
  std::vector<Bytes>* replies_;
};

/// Builds the fleet and admits every token with the in-process protocols'
/// server settings (serial, quorum 1.0, no retries, lean sessions). With
/// `record`, every link keeps the frames its token sends.
pds::Result<std::unique_ptr<PackedFleet>> MakePackedFleet(
    const PackedAggregate& agg, bool record) {
  auto fleet = std::make_unique<PackedFleet>();
  for (size_t g = 0; g < kDomain; ++g) {
    fleet->domain.push_back("g" + std::to_string(g));
  }
  const auto fleet_key = pds::crypto::KeyFromString("round-bench-fleet");
  Rng data(91);
  fleet->participants.resize(kFleet);
  for (size_t i = 0; i < kFleet; ++i) {
    pds::mcu::SecureToken::Config tcfg;
    tcfg.token_id = 100 + i;
    tcfg.fleet_key = fleet_key;
    tcfg.rng_seed = 917 + i;
    fleet->tokens.push_back(std::make_unique<pds::mcu::SecureToken>(tcfg));
    Participant& p = fleet->participants[i];
    p.token = fleet->tokens.back().get();
    for (size_t t = 0; t < kTuplesPerSite; ++t) {
      // Values below 64 keep every per-group sum under kMaxValue.
      p.tuples.push_back({fleet->domain[data.Uniform(kDomain)],
                          static_cast<double>(data.Uniform(64))});
    }
  }
  pds::net::SsiServer::Config cfg;
  cfg.quorum = 1.0;
  cfg.max_retries = 0;
  cfg.lean_sessions = true;
  cfg.verifier = fleet->tokens.front().get();
  fleet->server = std::make_unique<pds::net::SsiServer>(cfg);
  for (Participant& p : fleet->participants) {
    std::unique_ptr<pds::net::Transport> link;
    if (record) {
      link = std::make_unique<RecordingLink>(p.token, &p.tuples, &agg,
                                             &fleet->replies);
    } else {
      link = std::make_unique<pds::net::DirectTokenLink>(p.token, &p.tuples,
                                                         &agg);
    }
    PDS_RETURN_IF_ERROR(fleet->server->AcceptSession(std::move(link)).status());
  }
  return fleet;
}

/// One packed round on a fresh recording fleet: every ciphertext the SSI
/// read, then their fold — the bytes both dispatch paths must produce.
pds::Result<std::vector<Bytes>> RoundCiphertextsAndFold(
    const PackedAggregate& agg) {
  PDS_ASSIGN_OR_RETURN(std::unique_ptr<PackedFleet> fleet,
                       MakePackedFleet(agg, /*record=*/true));
  fleet->replies.clear();  // the handshakes' frames
  PDS_RETURN_IF_ERROR(fleet->server
                          ->RunPackedAggregation(AggFunc::kSum, agg,
                                                 fleet->domain)
                          .status());
  std::vector<Bytes> out;
  BigInt fold;
  for (const Bytes& frame : fleet->replies) {
    PDS_ASSIGN_OR_RETURN(
        pds::net::TupleBatchMsg reply,
        pds::net::DecodeAs<pds::net::TupleBatchMsg>(ByteView(frame)));
    for (const Bytes& ct : reply.batch) {
      const BigInt c = BigInt::FromBytes(ByteView(ct));
      fold = out.empty() ? c : agg.Add(fold, c);
      out.push_back(ct);
    }
  }
  out.push_back(fold.ToBytes());
  return out;
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
  double per_op_ns = TimeRounds(
      "per-op round",
      [&] {
        return pds::global::PaillierPerOpFleetRound(*paillier, rows, &rng);
      },
      [&](const PackedRoundOutput& out) { return out.totals == expected; });
  if (per_op_ns < 0) {
    return Fail("per-op round did not verify");
  }
  auto fleet = MakePackedFleet(*agg, /*record=*/false);
  if (!fleet.ok()) {
    return Fail("packed fleet: " + fleet.status().ToString());
  }
  const std::map<std::string, double> expected_groups =
      pds::global::PlainAggregate((*fleet)->participants, AggFunc::kSum);
  double packed_ns = TimeRounds(
      "packed round",
      [&] {
        return (*fleet)->server->RunPackedAggregation(AggFunc::kSum, *agg,
                                                      (*fleet)->domain);
      },
      [&](const AggOutput& out) { return out.groups == expected_groups; });
  if (packed_ns < 0) {
    return Fail("packed round did not verify");
  }

  // Dispatch cross-check: fresh tokens with the same seeds, lane split vs
  // forced-scalar ladder; every ciphertext and the fold must match.
  const bool had_avx2 =
      std::string(pds::crypto::simd::KernelName()) == "avx2";
  std::vector<Bytes> round_bytes[2];
  for (bool force : {false, true}) {
    pds::crypto::simd::SetForceScalar(force);
    auto got = RoundCiphertextsAndFold(*agg);
    pds::crypto::simd::SetForceScalar(false);
    if (!got.ok()) {
      return Fail("packed round: " + got.status().ToString());
    }
    round_bytes[force] = std::move(got).value();
  }
  if (round_bytes[0].size() != kFleet + 1 ||
      round_bytes[0] != round_bytes[1]) {
    return Fail("SIMD and forced-scalar ciphertexts or fold differ");
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
