#ifndef PDS_CRYPTO_PAILLIER_H_
#define PDS_CRYPTO_PAILLIER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "crypto/bigint.h"
#include "crypto/montgomery.h"

namespace pds::crypto {

/// Paillier additively homomorphic cryptosystem.
///
/// The tutorial (Part III) uses homomorphic encryption as the
/// "untrusted-server-only" point of the solution spectrum: the SSI can add
/// encrypted values without learning them, at a crypto cost that the
/// tutorial calls "(incredibly) high". bench_crypto_ladder reproduces that
/// cost ladder against plaintext and secure-aggregation.
///
/// Standard scheme with the g = n+1 optimization:
///   Enc(m; r) = (1 + m*n) * r^n mod n^2
///   Dec(c)    = L(c^lambda mod n^2) * mu mod n, with L(x) = (x-1)/n
///
/// Kernel-layer accelerations (all cached per keypair):
///  - Decrypt runs mod p^2 and q^2 with half-size exponents (c^(p-1) mod
///    p^2, c^(q-1) mod q^2) and a Garner CRT recombination — a ~8x
///    algorithmic win on top of the Montgomery ladder.
///  - Encrypt draws r = h^alpha for a fixed random h, so r^n = (h^n)^alpha
///    is a fixed-base exponentiation served from a precomputed 4-bit
///    window table (one MontMul per nonzero digit, no squarings; its
///    windows split across the lanes of simd::MontMul4 when AVX2 is on).
///  - AddCiphertexts and AddPlaintext multiply mod n^2 through the cached
///    n^2 context: two MontMuls, no division.
/// The pre-kernel code paths are kept as EncryptScalar/DecryptScalar for
/// cross-check tests and the bench_crypto_ladder speedup baseline.
class Paillier {
 public:
  struct PublicKey {
    BigInt n;
    BigInt n_squared;
  };
  struct PrivateKey {
    BigInt lambda;  // lcm(p-1, q-1)  // pdslint: secret
    BigInt mu;      // (L(g^lambda mod n^2))^-1 mod n  // pdslint: secret
    // CRT decryption state.
    BigInt p, q;
    BigInt p_squared, q_squared;
    BigInt hp;       // (L_p(g^(p-1) mod p^2))^-1 mod p
    BigInt hq;       // (L_q(g^(q-1) mod q^2))^-1 mod q
    BigInt q_inv_p;  // q^-1 mod p, for Garner recombination
  };

  /// Generates a keypair with an n of roughly `modulus_bits` bits.
  /// Deterministic given the RNG seed.
  [[nodiscard]] static Result<Paillier> Generate(size_t modulus_bits, Rng* rng);

  /// Builds a keypair from caller-supplied primes. Rejects p == q and
  /// gcd(pq, (p-1)(q-1)) != 1 with InvalidArgument instead of asserting;
  /// primality of p and q is the caller's responsibility.
  [[nodiscard]] static Result<Paillier> GenerateFromPrimes(const BigInt& p, const BigInt& q,
                                             Rng* rng);

  const PublicKey& public_key() const { return public_key_; }

  /// Encrypts m (requires m < n) via the fixed-base cache.
  [[nodiscard]] Result<BigInt> Encrypt(const BigInt& m, Rng* rng) const;
  [[nodiscard]] Result<BigInt> EncryptU64(uint64_t m, Rng* rng) const;
  /// Pre-kernel encryption: uniform r in [1,n), r^n by schoolbook ladder.
  [[nodiscard]] Result<BigInt> EncryptScalar(const BigInt& m, Rng* rng) const;

  /// Decrypts a ciphertext via CRT (mod p^2 and q^2) + Montgomery.
  [[nodiscard]] Result<BigInt> Decrypt(const BigInt& c) const;
  [[nodiscard]] Result<uint64_t> DecryptU64(const BigInt& c) const;
  /// Pre-kernel decryption: c^lambda mod n^2 by schoolbook ladder.
  [[nodiscard]] Result<BigInt> DecryptScalar(const BigInt& c) const;

  /// Homomorphic addition: Dec(AddCiphertexts(E(a), E(b))) = a + b mod n.
  BigInt AddCiphertexts(const BigInt& c1, const BigInt& c2) const;
  /// Homomorphic plaintext addition: E(a) -> E(a + k).
  BigInt AddPlaintext(const BigInt& c, const BigInt& k) const;
  /// Homomorphic scalar multiplication: E(a) -> E(a * k).
  BigInt MulPlaintext(const BigInt& c, const BigInt& k) const;

 private:
  Paillier(PublicKey pub, PrivateKey priv, Rng* rng);

  PublicKey public_key_;
  PrivateKey private_key_;
  // Immutable per-keypair kernel caches, shared so Paillier stays copyable
  // and usable from multiple threads (Rng is the only per-caller state).
  std::shared_ptr<const MontgomeryCtx> ctx_n2_;
  std::shared_ptr<const MontgomeryCtx> ctx_p2_;
  std::shared_ptr<const MontgomeryCtx> ctx_q2_;
  std::shared_ptr<const FixedBaseTable> enc_table_;  // base h^n mod n^2
  size_t alpha_bits_ = 0;  // random-exponent length for Encrypt
};

/// Layout of k small counters packed into one Paillier plaintext.
///
/// Each counter lives in a fixed-width slot of `slot_bits` =
/// value_bits + guard_bits. The guard bits absorb the carries of summing
/// up to 2^guard_bits ciphertexts homomorphically, so a whole fleet's
/// counters aggregate slot-wise inside ONE ciphertext — one encryption
/// per token and one decryption per round instead of one per counter.
/// ForFleet sizes the guard bits from the fleet size and rejects layouts
/// whose total width could reach the plaintext modulus.
struct SlotLayout {
  uint32_t num_slots = 0;   // counters per plaintext
  uint32_t slot_bits = 0;   // value_bits + guard_bits
  uint32_t guard_bits = 0;  // headroom for homomorphic addends
  uint64_t max_slot_value = 0;  // largest single counter value allowed

  /// Builds a layout for `num_counters` counters of at most `max_value`
  /// each, summed across at most `fleet_size` participants, packed into a
  /// plaintext of `plaintext_bits` (the Paillier n bit length). Fails with
  /// InvalidArgument when the slots cannot fit below n.
  [[nodiscard]] static Result<SlotLayout> ForFleet(size_t fleet_size,
                                                   uint64_t max_value,
                                                   size_t num_counters,
                                                   size_t plaintext_bits);

  /// Largest number of packed plaintexts that may be summed without any
  /// slot overflowing into its neighbour: 2^guard_bits.
  uint64_t max_addends() const { return uint64_t{1} << guard_bits; }
  /// Total bits occupied by the packed value.
  size_t total_bits() const {
    return static_cast<size_t>(num_slots) * slot_bits;
  }

  friend bool operator==(const SlotLayout& a, const SlotLayout& b) {
    return a.num_slots == b.num_slots && a.slot_bits == b.slot_bits &&
           a.guard_bits == b.guard_bits && a.max_slot_value == b.max_slot_value;
  }
};

/// Packs values[i] into slot i: sum_i values[i] << (i * slot_bits).
/// Fails when values.size() != num_slots or any value exceeds
/// max_slot_value.
[[nodiscard]] Result<BigInt> PackSlots(const SlotLayout& layout,
                                       const std::vector<uint64_t>& values);

/// Splits a packed integer back into per-slot values. Fails when `packed`
/// is wider than the layout (a sign of slot overflow or a foreign value).
[[nodiscard]] Result<std::vector<uint64_t>> UnpackSlots(
    const SlotLayout& layout, const BigInt& packed);

/// Slot-packed aggregate counters over a Paillier keypair.
///
/// This is the packed hot path the [TNP14] aggregation protocols ride:
/// every participant encrypts ONE plaintext carrying all of its counters,
/// the untrusted SSI folds ciphertexts pairwise with AddCiphertexts, and
/// the querier decrypts ONE ciphertext and unpacks per-counter totals.
/// Crypto work per round drops from fleet*k operations to fleet + 1.
class PackedAggregate {
 public:
  /// Validates the layout against the keypair and the fleet bound.
  [[nodiscard]] static Result<PackedAggregate> Create(const Paillier& paillier,
                                                      size_t fleet_size,
                                                      uint64_t max_value,
                                                      size_t num_counters);

  const SlotLayout& layout() const { return layout_; }
  const Paillier& paillier() const { return paillier_; }

  /// Packs and encrypts one participant's counters.
  [[nodiscard]] Result<BigInt> EncryptPacked(const std::vector<uint64_t>& values,
                                             Rng* rng) const;

  /// Homomorphic slot-wise addition of two packed ciphertexts.
  BigInt Add(const BigInt& c1, const BigInt& c2) const {
    return paillier_.AddCiphertexts(c1, c2);
  }

  /// Guards the homomorphic sum: fails when folding `addends` packed
  /// ciphertexts could overflow a slot into its neighbour.
  [[nodiscard]] Status CheckAddBudget(size_t addends) const;

  /// Decrypts an aggregated ciphertext and unpacks the per-slot totals.
  [[nodiscard]] Result<std::vector<uint64_t>> DecryptUnpack(
      const BigInt& c) const;

 private:
  PackedAggregate(Paillier paillier, SlotLayout layout)
      : paillier_(std::move(paillier)), layout_(layout) {}

  Paillier paillier_;  // copy shares the immutable kernel caches
  SlotLayout layout_;
};

}  // namespace pds::crypto

#endif  // PDS_CRYPTO_PAILLIER_H_
