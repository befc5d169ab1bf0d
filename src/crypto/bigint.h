#ifndef PDS_CRYPTO_BIGINT_H_
#define PDS_CRYPTO_BIGINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"

namespace pds::crypto {

/// Arbitrary-precision unsigned integer, implemented from scratch for the
/// Paillier cryptosystem (the tutorial's homomorphic-encryption substrate).
///
/// Representation: little-endian vector of 32-bit limbs with no trailing
/// zero limbs (zero is the empty vector). 32-bit limbs keep the schoolbook
/// division (Knuth algorithm D) simple while 64-bit intermediates keep
/// multiplication fast enough for 1024-bit moduli.
class BigInt {
 public:
  BigInt() = default;
  explicit BigInt(uint64_t v);

  static BigInt Zero() { return BigInt(); }
  static BigInt One() { return BigInt(1); }

  /// Big-endian byte import/export (no sign).
  static BigInt FromBytes(ByteView bytes);
  Bytes ToBytes() const;

  /// Uniform random integer with exactly `bits` bits (top bit set).
  static BigInt RandomBits(size_t bits, Rng* rng);
  /// Uniform random integer in [0, bound).
  static BigInt RandomBelow(const BigInt& bound, Rng* rng);

  bool IsZero() const { return limbs_.empty(); }
  bool IsOne() const { return limbs_.size() == 1 && limbs_[0] == 1; }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  size_t BitLength() const;
  bool Bit(size_t i) const;

  /// Value as uint64 (truncating to the low 64 bits).
  uint64_t ToU64() const;

  /// Comparison: -1, 0, +1.
  static int Compare(const BigInt& a, const BigInt& b);

  static BigInt Add(const BigInt& a, const BigInt& b);
  /// Requires a >= b.
  static BigInt Sub(const BigInt& a, const BigInt& b);
  static BigInt Mul(const BigInt& a, const BigInt& b);
  /// Computes a = q*b + r with 0 <= r < b. b must be nonzero.
  static void DivMod(const BigInt& a, const BigInt& b, BigInt* q, BigInt* r);
  static BigInt Mod(const BigInt& a, const BigInt& m);
  static BigInt Div(const BigInt& a, const BigInt& b);

  static BigInt ShiftLeft(const BigInt& a, size_t bits);
  static BigInt ShiftRight(const BigInt& a, size_t bits);

  static BigInt ModAdd(const BigInt& a, const BigInt& b, const BigInt& m);
  static BigInt ModSub(const BigInt& a, const BigInt& b, const BigInt& m);
  static BigInt ModMul(const BigInt& a, const BigInt& b, const BigInt& m);
  /// a^e mod m. Odd moduli dispatch to the Montgomery fixed-window kernel
  /// (crypto/montgomery.h); even moduli fall back to square-and-multiply.
  static BigInt ModExp(const BigInt& a, const BigInt& e, const BigInt& m);
  /// Reference square-and-multiply ladder over schoolbook ModMul. Kept as
  /// the even-modulus fallback and as the cross-check/bench baseline for
  /// the Montgomery kernel.
  static BigInt ModExpSchoolbook(const BigInt& a, const BigInt& e,
                                 const BigInt& m);
  /// Multiplicative inverse mod m; returns Zero when none exists.
  static BigInt ModInverse(const BigInt& a, const BigInt& m);

  static BigInt Gcd(const BigInt& a, const BigInt& b);
  static BigInt Lcm(const BigInt& a, const BigInt& b);

  /// Miller–Rabin probabilistic primality test.
  static bool IsProbablePrime(const BigInt& n, int rounds, Rng* rng);
  /// Generates a random probable prime with exactly `bits` bits.
  static BigInt GeneratePrime(size_t bits, Rng* rng);

  /// Decimal string, for logging and tests.
  std::string ToDecimalString() const;

  friend bool operator==(const BigInt& a, const BigInt& b) {
    return a.limbs_ == b.limbs_;
  }
  friend bool operator<(const BigInt& a, const BigInt& b) {
    return Compare(a, b) < 0;
  }
  friend bool operator<=(const BigInt& a, const BigInt& b) {
    return Compare(a, b) <= 0;
  }
  friend bool operator>(const BigInt& a, const BigInt& b) {
    return Compare(a, b) > 0;
  }
  friend bool operator>=(const BigInt& a, const BigInt& b) {
    return Compare(a, b) >= 0;
  }

 private:
  void Trim();

  std::vector<uint32_t> limbs_;
};

}  // namespace pds::crypto

#endif  // PDS_CRYPTO_BIGINT_H_
