#ifndef PDS_CRYPTO_MONTGOMERY_H_
#define PDS_CRYPTO_MONTGOMERY_H_

#include <cstdint>
#include <vector>

#include "crypto/bigint.h"

namespace pds::crypto {

/// Montgomery-form modular arithmetic for a fixed odd modulus.
///
/// This is the kernel layer under BigInt::ModExp and every Paillier
/// operation: operands are mapped into the Montgomery domain (x -> x * R
/// mod m with R = 2^(64k), k the modulus's 64-bit limb count) once, where a
/// modular multiplication costs one CIOS pass (two k^2 loops of 64x64->128
/// bit multiplies, no division), instead of a schoolbook multiply followed
/// by a Knuth-D division per step.
///
/// A context is immutable after construction and safe to share across
/// threads; Paillier caches one per keypair modulus (n^2, p^2, q^2).
class MontgomeryCtx {
 public:
  /// Limb vector of exactly `limbs()` little-endian 64-bit words: the raw
  /// Montgomery-domain representation used by the hot loops and by
  /// FixedBaseTable. Values are always < modulus.
  using Limbs = std::vector<uint64_t>;

  /// `modulus` must be odd and > 1 (checked: aborts otherwise — callers
  /// gate on Usable()).
  explicit MontgomeryCtx(const BigInt& modulus);

  static bool Usable(const BigInt& m) { return m.IsOdd() && !m.IsOne(); }

  const BigInt& modulus() const { return modulus_; }
  size_t limbs() const { return k_; }

  /// a * b mod m for operands in the ordinary domain (any size: both are
  /// reduced mod m first). Two MontMuls: (a*b*R^-1) * R^2 * R^-1.
  BigInt ModMul(const BigInt& a, const BigInt& b) const;
  /// a^e mod m with a 4-bit fixed-window ladder (e == 0 yields 1 mod m).
  BigInt ModExp(const BigInt& a, const BigInt& e) const;

  // --- Montgomery-domain plumbing (used by FixedBaseTable and tests) ---

  /// x -> x*R mod m. Reduces x mod m first.
  Limbs ToMont(const BigInt& x) const;
  /// x*R -> x.
  BigInt FromMont(const Limbs& x) const;
  /// out = a * b * R^-1 mod m (CIOS). Needs a < m (b may be any k-limb
  /// value); the result is < m. `out` may alias a or b.
  void MontMul(const Limbs& a, const Limbs& b, Limbs* out) const;
  /// 1 in the Montgomery domain (R mod m).
  const Limbs& OneMont() const { return one_mont_; }

  /// Raw kernel parameters, read by FixedBaseTable's 4-lane path.
  const Limbs& mod_limbs() const { return m_limbs_; }
  uint64_t n0_inv() const { return n0_inv_; }

 private:
  BigInt modulus_;
  size_t k_ = 0;         // 64-bit limb count of the modulus
  uint64_t n0_inv_ = 0;  // -m^-1 mod 2^64
  Limbs m_limbs_;        // modulus, k limbs
  Limbs r2_;             // R^2 mod m (Montgomery form of R)
  Limbs one_mont_;       // R mod m
};

/// Fixed-base exponentiation table over a MontgomeryCtx: for a base g fixed
/// per keypair, precomputes T[i][d] = g^(d * 16^i) in Montgomery form so
/// that g^e costs one MontMul per 4-bit digit of e — no squarings.
/// Paillier uses this for the r^n = (h^n)^alpha part of encryption.
///
/// When simd::Active(), PowMont splits one exponentiation across the four
/// lanes of simd::MontMul4: window w goes to lane w mod 4, so each kernel
/// call advances four windows, and three scalar MontMuls combine the lanes.
/// Otherwise it runs the scalar ladder. Both return the same limbs.
class FixedBaseTable {
 public:
  /// Covers exponents up to `max_exp_bits` bits.
  FixedBaseTable(const MontgomeryCtx* ctx, const BigInt& base,
                 size_t max_exp_bits);

  /// base^e mod m. e must fit in max_exp_bits (checked).
  BigInt Pow(const BigInt& e) const;
  /// Montgomery-domain variant for callers that keep composing products.
  MontgomeryCtx::Limbs PowMont(const BigInt& e) const;

  size_t max_exp_bits() const { return max_exp_bits_; }

 private:
  const MontgomeryCtx* ctx_;
  size_t max_exp_bits_;
  // rows_[i][d], d in [0,16): base^(d * 16^i) in Montgomery form.
  std::vector<std::vector<MontgomeryCtx::Limbs>> rows_;
  // The modulus and -m^-1 in the 32-bit limbs simd::MontMul4 takes.
  std::vector<uint32_t> m32_;
  uint32_t n0_inv32_ = 0;
};

}  // namespace pds::crypto

#endif  // PDS_CRYPTO_MONTGOMERY_H_
