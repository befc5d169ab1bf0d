#include "global/toolkit.h"

#include <algorithm>
#include <map>

#include "crypto/sra.h"

namespace pds::global {

Result<uint64_t> SecureSum(const std::vector<uint64_t>& site_values,
                           uint64_t modulus, Rng* rng, Metrics* metrics) {
  if (site_values.size() < 3) {
    return Status::InvalidArgument(
        "secure sum needs >= 3 sites (with 2, each site learns the other)");
  }
  if (modulus == 0) {
    return Status::InvalidArgument("modulus must be positive");
  }
  for (uint64_t v : site_values) {
    if (v >= modulus) {
      return Status::InvalidArgument("site value exceeds the sum modulus");
    }
  }
  // Initiator masks with R; the ring accumulates v_i mod modulus.
  uint64_t r = rng->Uniform(modulus);
  // Unsigned arithmetic mod `modulus` (modulus <= 2^63 keeps adds exact).
  uint64_t running = (r + site_values[0]) % modulus;
  if (metrics != nullptr) {
    metrics->AddMessage(8);
    ++metrics->rounds;
  }
  for (size_t i = 1; i < site_values.size(); ++i) {
    running = (running + site_values[i]) % modulus;
    if (metrics != nullptr) {
      metrics->AddMessage(8);
    }
  }
  // Back to the initiator, which removes the mask.
  uint64_t sum = (running + modulus - r) % modulus;
  if (metrics != nullptr) {
    metrics->AddMessage(8);
  }
  return sum;
}

namespace {

/// Runs the shared encrypt-around-the-ring phase of the union/intersection
/// protocols: returns, per site, its item set encrypted by *every* site's
/// key (as decimal strings for cheap equality), plus the ciphers (for the
/// decryption phase).
struct RingEncryptionResult {
  std::vector<crypto::SraCipher> ciphers;
  // fully_encrypted[site] = ciphertexts of that site's items.
  std::vector<std::vector<crypto::BigInt>> fully_encrypted;
};

Result<RingEncryptionResult> RingEncrypt(
    const std::vector<std::vector<std::string>>& site_sets, size_t prime_bits,
    Rng* rng, Metrics* metrics, FleetExecutor* exec) {
  if (site_sets.size() < 2) {
    return Status::InvalidArgument("need >= 2 sites");
  }
  RingEncryptionResult out;
  crypto::BigInt p = crypto::SraCipher::GeneratePrime(prime_bits, rng);
  for (size_t s = 0; s < site_sets.size(); ++s) {
    PDS_ASSIGN_OR_RETURN(crypto::SraCipher cipher,
                         crypto::SraCipher::Create(p, rng));
    out.ciphers.push_back(std::move(cipher));
  }

  const size_t n = site_sets.size();
  out.fully_encrypted.resize(n);
  // Each originating site's journey around the ring is independent of the
  // others, so the n journeys fan out across the executor. The shuffles
  // draw from per-site sub-streams seeded serially here, which keeps the
  // outcome deterministic for a given seed at any thread count.
  std::vector<uint64_t> shuffle_seeds(n);
  for (size_t s = 0; s < n; ++s) {
    shuffle_seeds[s] = rng->Next();
  }
  std::vector<Metrics> site_metrics(n);
  PDS_RETURN_IF_ERROR(FleetExecutor::Run(exec, n, [&](size_t s) -> Status {
    Metrics* m = metrics != nullptr ? &site_metrics[s] : nullptr;
    Rng shuffle_rng(shuffle_seeds[s]);
    // Encode and self-encrypt.
    std::vector<crypto::BigInt> items;
    for (const std::string& item : site_sets[s]) {
      PDS_ASSIGN_OR_RETURN(crypto::BigInt x,
                           out.ciphers[s].EncodeItem(item));
      PDS_ASSIGN_OR_RETURN(x, out.ciphers[s].Encrypt(x));
      if (m != nullptr) {
        ++m->token_crypto_ops;
      }
      items.push_back(std::move(x));
    }
    // Pass around the ring: every other site adds its encryption layer
    // (and shuffles, to break positional linkage).
    for (size_t hop = 1; hop < n; ++hop) {
      size_t site = (s + hop) % n;
      for (crypto::BigInt& x : items) {
        PDS_ASSIGN_OR_RETURN(x, out.ciphers[site].Encrypt(x));
        if (m != nullptr) {
          ++m->token_crypto_ops;
        }
      }
      shuffle_rng.Shuffle(&items);
      if (m != nullptr) {
        m->AddMessage(items.size() * (prime_bits / 8));
        ++m->rounds;
      }
    }
    out.fully_encrypted[s] = std::move(items);
    return Status::Ok();
  }));
  if (metrics != nullptr) {
    for (const Metrics& m : site_metrics) {
      metrics->messages += m.messages;
      metrics->bytes += m.bytes;
      metrics->rounds += m.rounds;
      metrics->token_crypto_ops += m.token_crypto_ops;
      metrics->ssi_ops += m.ssi_ops;
    }
  }
  return out;
}

}  // namespace

Result<std::set<std::string>> SecureSetUnion(
    const std::vector<std::vector<std::string>>& site_sets, size_t prime_bits,
    Rng* rng, Metrics* metrics, FleetExecutor* exec) {
  PDS_ASSIGN_OR_RETURN(RingEncryptionResult ring,
                       RingEncrypt(site_sets, prime_bits, rng, metrics, exec));

  // Union on fully-encrypted items: equal plaintexts collide because the
  // composition of all sites' exponents is the same for everyone.
  std::map<std::string, crypto::BigInt> distinct;
  for (const auto& site_items : ring.fully_encrypted) {
    for (const crypto::BigInt& x : site_items) {
      distinct.emplace(x.ToDecimalString(), x);
      if (metrics != nullptr) {
        ++metrics->ssi_ops;
      }
    }
  }

  // Decrypt each distinct ciphertext with every site's key. Each chain of
  // layer removals is independent, so they fan out across the executor.
  std::vector<const crypto::BigInt*> cts;
  cts.reserve(distinct.size());
  for (auto& [key, ct] : distinct) {
    cts.push_back(&ct);
  }
  std::vector<std::string> items(cts.size());
  PDS_RETURN_IF_ERROR(
      FleetExecutor::Run(exec, cts.size(), [&](size_t i) -> Status {
        crypto::BigInt x = *cts[i];
        for (const crypto::SraCipher& cipher : ring.ciphers) {
          PDS_ASSIGN_OR_RETURN(x, cipher.Decrypt(x));
        }
        PDS_ASSIGN_OR_RETURN(items[i], ring.ciphers[0].DecodeItem(x));
        return Status::Ok();
      }));
  if (metrics != nullptr) {
    metrics->token_crypto_ops += cts.size() * ring.ciphers.size();
  }
  std::set<std::string> result;
  for (std::string& item : items) {
    result.insert(std::move(item));
  }
  return result;
}

Result<uint64_t> SecureIntersectionSize(
    const std::vector<std::vector<std::string>>& site_sets, size_t prime_bits,
    Rng* rng, Metrics* metrics, FleetExecutor* exec) {
  PDS_ASSIGN_OR_RETURN(RingEncryptionResult ring,
                       RingEncrypt(site_sets, prime_bits, rng, metrics, exec));

  // Count fully-encrypted values present at every site (no decryption).
  std::map<std::string, uint64_t> presence;
  for (const auto& site_items : ring.fully_encrypted) {
    std::set<std::string> site_distinct;
    for (const crypto::BigInt& x : site_items) {
      site_distinct.insert(x.ToDecimalString());
    }
    for (const std::string& key : site_distinct) {
      ++presence[key];
      if (metrics != nullptr) {
        ++metrics->ssi_ops;
      }
    }
  }
  uint64_t count = 0;
  for (const auto& [key, sites] : presence) {
    if (sites == site_sets.size()) {
      ++count;
    }
  }
  return count;
}

namespace {

/// Encrypts `values[i]` under `paillier` for every i, fanning out across
/// the executor. Each element draws its randomness from a sub-stream
/// seeded serially off `rng`, so ciphertexts are deterministic for a given
/// seed at any thread count.
Result<std::vector<crypto::BigInt>> ParallelEncrypt(
    const crypto::Paillier& paillier, const std::vector<uint64_t>& values,
    Rng* rng, FleetExecutor* exec) {
  std::vector<uint64_t> seeds(values.size());
  for (uint64_t& s : seeds) {
    s = rng->Next();
  }
  std::vector<crypto::BigInt> cts(values.size());
  PDS_RETURN_IF_ERROR(
      FleetExecutor::Run(exec, values.size(), [&](size_t i) -> Status {
        Rng local(seeds[i]);
        PDS_ASSIGN_OR_RETURN(cts[i], paillier.EncryptU64(values[i], &local));
        return Status::Ok();
      }));
  return cts;
}

}  // namespace

Result<uint64_t> SecureScalarProduct(const std::vector<uint64_t>& a,
                                     const std::vector<uint64_t>& b,
                                     size_t paillier_bits, Rng* rng,
                                     Metrics* metrics, FleetExecutor* exec) {
  if (a.size() != b.size()) {
    return Status::InvalidArgument("vectors must have equal length");
  }
  PDS_ASSIGN_OR_RETURN(crypto::Paillier paillier,
                       crypto::Paillier::Generate(paillier_bits, rng));

  // Site A -> B: E(a_i).
  PDS_ASSIGN_OR_RETURN(std::vector<crypto::BigInt> enc_a,
                       ParallelEncrypt(paillier, a, rng, exec));
  if (metrics != nullptr) {
    metrics->token_crypto_ops += enc_a.size();
  }
  if (metrics != nullptr) {
    metrics->AddMessage(enc_a.size() * (paillier_bits / 4));
    ++metrics->rounds;
  }

  // Site B: prod E(a_i)^{b_i} = E(sum a_i b_i).
  PDS_ASSIGN_OR_RETURN(crypto::BigInt acc, paillier.EncryptU64(0, rng));
  for (size_t i = 0; i < b.size(); ++i) {
    crypto::BigInt term =
        paillier.MulPlaintext(enc_a[i], crypto::BigInt(b[i]));
    acc = paillier.AddCiphertexts(acc, term);
    if (metrics != nullptr) {
      ++metrics->token_crypto_ops;
    }
  }
  if (metrics != nullptr) {
    metrics->AddMessage(paillier_bits / 4);
    ++metrics->rounds;
  }

  // Back at A: decrypt.
  PDS_ASSIGN_OR_RETURN(uint64_t result, paillier.DecryptU64(acc));
  if (metrics != nullptr) {
    ++metrics->token_crypto_ops;
  }
  return result;
}

namespace {

Status CheckCounterMatrix(const std::vector<std::vector<uint64_t>>& rows) {
  if (rows.empty() || rows[0].empty()) {
    return Status::InvalidArgument("fleet round needs sites and counters");
  }
  for (const auto& row : rows) {
    if (row.size() != rows[0].size()) {
      return Status::InvalidArgument("ragged counter matrix");
    }
  }
  return Status::Ok();
}

}  // namespace

Result<PackedRoundOutput> PaillierPerOpFleetRound(
    const crypto::Paillier& paillier,
    const std::vector<std::vector<uint64_t>>& site_counters, Rng* rng) {
  PDS_RETURN_IF_ERROR(CheckCounterMatrix(site_counters));
  const size_t fleet = site_counters.size();
  const size_t k = site_counters[0].size();
  PackedRoundOutput out;
  out.totals.resize(k);
  const size_t ct_bytes = paillier.public_key().n_squared.ToBytes().size();
  for (size_t j = 0; j < k; ++j) {
    std::vector<uint64_t> column(fleet);
    for (size_t i = 0; i < fleet; ++i) {
      column[i] = site_counters[i][j];
    }
    PDS_ASSIGN_OR_RETURN(std::vector<crypto::BigInt> cts,
                         ParallelEncrypt(paillier, column, rng,
                                         /*exec=*/nullptr));
    crypto::BigInt acc = std::move(cts[0]);
    for (size_t i = 1; i < cts.size(); ++i) {
      acc = paillier.AddCiphertexts(acc, cts[i]);
      ++out.metrics.ssi_ops;
    }
    PDS_ASSIGN_OR_RETURN(out.totals[j], paillier.DecryptU64(acc));
    out.metrics.token_crypto_ops += fleet + 1;
    out.metrics.bytes_token_to_ssi += fleet * ct_bytes;
    out.metrics.messages += fleet;
    out.metrics.bytes += fleet * ct_bytes;
  }
  ++out.metrics.rounds;
  return out;
}

}  // namespace pds::global
