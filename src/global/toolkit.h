#ifndef PDS_GLOBAL_TOOLKIT_H_
#define PDS_GLOBAL_TOOLKIT_H_

#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "crypto/paillier.h"
#include "global/common.h"
#include "global/fleet_executor.h"

namespace pds::global {

/// The privacy-preserving data-mining toolkit of [CKV+02] (tutorial
/// Part III, "Toolkits for Secure Computations"): four primitives from
/// which association rules and clustering are assembled. Each function
/// simulates the multi-party protocol in-process and accounts messages,
/// bytes and crypto operations in `metrics`.

/// Secure Sum: ring protocol. The initiator masks its value with a random
/// R modulo `modulus`; each site adds its value; the initiator unmasks.
/// No site learns any other site's value (the running total is uniformly
/// distributed). Requires >= 3 sites for the privacy argument.
Result<uint64_t> SecureSum(const std::vector<uint64_t>& site_values,
                           uint64_t modulus, Rng* rng, Metrics* metrics);

/// Secure Set Union via SRA commutative encryption: each site encrypts
/// every item with its key (items circulate the ring), fully-encrypted
/// items are deduplicated — equal plaintexts collide regardless of
/// encryption order — and then decrypted layer by layer.
///
/// With an executor, the per-site ring journeys and the final per-item
/// decryption chains fan out across worker threads; each site draws its
/// shuffle randomness from a sub-stream seeded serially off `rng`, so the
/// result is deterministic for a given seed at any thread count.
Result<std::set<std::string>> SecureSetUnion(
    const std::vector<std::vector<std::string>>& site_sets, size_t prime_bits,
    Rng* rng, Metrics* metrics, FleetExecutor* exec = nullptr);

/// Secure Size of Set Intersection: same commutative-encryption pipeline,
/// but only the count of fully-encrypted values present at *every* site is
/// revealed (nothing is decrypted).
Result<uint64_t> SecureIntersectionSize(
    const std::vector<std::vector<std::string>>& site_sets, size_t prime_bits,
    Rng* rng, Metrics* metrics, FleetExecutor* exec = nullptr);

/// Secure Scalar Product between two sites using Paillier: site A sends
/// E(a_i); site B computes prod E(a_i)^{b_i} = E(sum a_i * b_i); A
/// decrypts. B learns nothing; A learns only the scalar product. Site A's
/// encryptions fan out across the executor (per-element RNG sub-streams
/// seeded serially, so results are thread-count independent).
Result<uint64_t> SecureScalarProduct(const std::vector<uint64_t>& a,
                                     const std::vector<uint64_t>& b,
                                     size_t paillier_bits, Rng* rng,
                                     Metrics* metrics,
                                     FleetExecutor* exec = nullptr);

/// One fleet aggregation round over per-site counter vectors, the baseline
/// crypto_round_bench times against the packed protocol round. Each site
/// contributes site_counters[i] (all the same length k); the output is the
/// fleet total per counter.
struct PackedRoundOutput {
  std::vector<uint64_t> totals;
  Metrics metrics;
};

/// Per-op baseline (the PR 1 path): one Paillier encryption per site per
/// counter, k independent homomorphic folds and k decryptions —
/// fleet * k + k asymmetric operations per round.
Result<PackedRoundOutput> PaillierPerOpFleetRound(
    const crypto::Paillier& paillier,
    const std::vector<std::vector<uint64_t>>& site_counters, Rng* rng);

}  // namespace pds::global

#endif  // PDS_GLOBAL_TOOLKIT_H_
