#include "crypto/bigint.h"

#include <algorithm>

#include "crypto/montgomery.h"

namespace pds::crypto {

namespace {
constexpr uint64_t kBase = 1ULL << 32;
}  // namespace

BigInt::BigInt(uint64_t v) {
  if (v != 0) {
    limbs_.push_back(static_cast<uint32_t>(v));
    uint32_t hi = static_cast<uint32_t>(v >> 32);
    if (hi != 0) {
      limbs_.push_back(hi);
    }
  }
}

void BigInt::Trim() {
  while (!limbs_.empty() && limbs_.back() == 0) {
    limbs_.pop_back();
  }
}

BigInt BigInt::FromBytes(ByteView bytes) {
  BigInt out;
  // Big-endian input -> little-endian limbs.
  size_t n = bytes.size();
  out.limbs_.assign((n + 3) / 4, 0);
  for (size_t i = 0; i < n; ++i) {
    size_t byte_index = n - 1 - i;  // position from LSB
    out.limbs_[byte_index / 4] |=
        static_cast<uint32_t>(bytes[i]) << (8 * (byte_index % 4));
  }
  out.Trim();
  return out;
}

Bytes BigInt::ToBytes() const {
  if (limbs_.empty()) {
    return Bytes{0};
  }
  size_t bytes_needed = (BitLength() + 7) / 8;
  Bytes out(bytes_needed, 0);
  for (size_t i = 0; i < bytes_needed; ++i) {
    size_t byte_index = bytes_needed - 1 - i;  // position from LSB
    out[i] = static_cast<uint8_t>(limbs_[byte_index / 4] >>
                                  (8 * (byte_index % 4)));
  }
  return out;
}

BigInt BigInt::RandomBits(size_t bits, Rng* rng) {
  if (bits == 0) {
    return Zero();
  }
  BigInt out;
  size_t limbs = (bits + 31) / 32;
  out.limbs_.resize(limbs);
  for (auto& l : out.limbs_) {
    l = static_cast<uint32_t>(rng->Next());
  }
  size_t top_bits = bits - (limbs - 1) * 32;  // in [1, 32]
  if (top_bits < 32) {
    out.limbs_.back() &= (1u << top_bits) - 1;
  }
  out.limbs_.back() |= 1u << (top_bits - 1);  // force exact bit length
  out.Trim();
  return out;
}

BigInt BigInt::RandomBelow(const BigInt& bound, Rng* rng) {
  if (bound.IsZero()) {
    return Zero();
  }
  size_t bits = bound.BitLength();
  size_t limbs = (bits + 31) / 32;
  for (;;) {
    BigInt out;
    out.limbs_.resize(limbs);
    for (auto& l : out.limbs_) {
      l = static_cast<uint32_t>(rng->Next());
    }
    size_t top_bits = bits - (limbs - 1) * 32;
    if (top_bits < 32) {
      out.limbs_.back() &= (1u << top_bits) - 1;
    }
    out.Trim();
    if (Compare(out, bound) < 0) {
      return out;
    }
  }
}

size_t BigInt::BitLength() const {
  if (limbs_.empty()) {
    return 0;
  }
  uint32_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 32;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::Bit(size_t i) const {
  size_t limb = i / 32;
  if (limb >= limbs_.size()) {
    return false;
  }
  return (limbs_[limb] >> (i % 32)) & 1;
}

uint64_t BigInt::ToU64() const {
  uint64_t v = 0;
  if (!limbs_.empty()) {
    v = limbs_[0];
  }
  if (limbs_.size() > 1) {
    v |= static_cast<uint64_t>(limbs_[1]) << 32;
  }
  return v;
}

int BigInt::Compare(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) {
      return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigInt BigInt::Add(const BigInt& a, const BigInt& b) {
  BigInt out;
  size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t sum = carry;
    if (i < a.limbs_.size()) sum += a.limbs_[i];
    if (i < b.limbs_.size()) sum += b.limbs_[i];
    out.limbs_[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  out.limbs_[n] = static_cast<uint32_t>(carry);
  out.Trim();
  return out;
}

BigInt BigInt::Sub(const BigInt& a, const BigInt& b) {
  // Precondition: a >= b. Underflow wraps (callers must respect this).
  BigInt out;
  out.limbs_.resize(a.limbs_.size(), 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) {
      diff -= b.limbs_[i];
    }
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<uint32_t>(diff);
  }
  out.Trim();
  return out;
}

BigInt BigInt::Mul(const BigInt& a, const BigInt& b) {
  if (a.IsZero() || b.IsZero()) {
    return Zero();
  }
  BigInt out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    uint64_t ai = a.limbs_[i];
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      uint64_t cur = out.limbs_[i + j] + ai * b.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    size_t k = i + b.limbs_.size();
    while (carry != 0) {
      uint64_t cur = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.Trim();
  return out;
}

BigInt BigInt::ShiftLeft(const BigInt& a, size_t bits) {
  if (a.IsZero() || bits == 0) {
    return a;
  }
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  BigInt out;
  out.limbs_.assign(a.limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t v = static_cast<uint64_t>(a.limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
  }
  out.Trim();
  return out;
}

BigInt BigInt::ShiftRight(const BigInt& a, size_t bits) {
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  if (limb_shift >= a.limbs_.size()) {
    return Zero();
  }
  BigInt out;
  out.limbs_.assign(a.limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    uint64_t v = a.limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < a.limbs_.size()) {
      v |= static_cast<uint64_t>(a.limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<uint32_t>(v);
  }
  out.Trim();
  return out;
}

void BigInt::DivMod(const BigInt& a, const BigInt& b, BigInt* q, BigInt* r) {
  // b must be nonzero; division by zero yields q = r = 0.
  if (b.IsZero()) {
    *q = Zero();
    *r = Zero();
    return;
  }
  if (Compare(a, b) < 0) {
    *q = Zero();
    *r = a;
    return;
  }
  if (b.limbs_.size() == 1) {
    // Fast path: single-limb divisor.
    uint64_t d = b.limbs_[0];
    BigInt quot;
    quot.limbs_.resize(a.limbs_.size());
    uint64_t rem = 0;
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | a.limbs_[i];
      quot.limbs_[i] = static_cast<uint32_t>(cur / d);
      rem = cur % d;
    }
    quot.Trim();
    *q = std::move(quot);
    *r = BigInt(rem);
    return;
  }

  // Knuth Algorithm D, base 2^32.
  // Normalize so the top limb of the divisor has its high bit set.
  size_t shift = 32 - (b.BitLength() % 32);
  if (shift == 32) shift = 0;
  BigInt u = ShiftLeft(a, shift);
  BigInt v = ShiftLeft(b, shift);
  size_t n = v.limbs_.size();
  size_t m = u.limbs_.size() - n;

  // Ensure u has m + n + 1 limbs.
  u.limbs_.resize(m + n + 1, 0);

  BigInt quot;
  quot.limbs_.assign(m + 1, 0);

  uint64_t v_hi = v.limbs_[n - 1];
  uint64_t v_lo = v.limbs_[n - 2];

  for (size_t j = m + 1; j-- > 0;) {
    // Estimate q_hat = (u[j+n]*B + u[j+n-1]) / v_hi.
    uint64_t numerator =
        (static_cast<uint64_t>(u.limbs_[j + n]) << 32) | u.limbs_[j + n - 1];
    uint64_t q_hat = numerator / v_hi;
    uint64_t r_hat = numerator % v_hi;
    while (q_hat >= kBase ||
           q_hat * v_lo > ((r_hat << 32) | u.limbs_[j + n - 2])) {
      --q_hat;
      r_hat += v_hi;
      if (r_hat >= kBase) {
        break;
      }
    }

    // Multiply-subtract: u[j..j+n] -= q_hat * v.
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t p = q_hat * v.limbs_[i] + carry;
      carry = p >> 32;
      int64_t t = static_cast<int64_t>(u.limbs_[i + j]) -
                  static_cast<int64_t>(p & 0xFFFFFFFFULL) - borrow;
      if (t < 0) {
        t += static_cast<int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u.limbs_[i + j] = static_cast<uint32_t>(t);
    }
    int64_t t = static_cast<int64_t>(u.limbs_[j + n]) -
                static_cast<int64_t>(carry) - borrow;
    bool negative = t < 0;
    u.limbs_[j + n] = static_cast<uint32_t>(t);

    if (negative) {
      // q_hat was one too large: add back.
      --q_hat;
      uint64_t c = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t sum =
            static_cast<uint64_t>(u.limbs_[i + j]) + v.limbs_[i] + c;
        u.limbs_[i + j] = static_cast<uint32_t>(sum);
        c = sum >> 32;
      }
      u.limbs_[j + n] = static_cast<uint32_t>(u.limbs_[j + n] + c);
    }
    quot.limbs_[j] = static_cast<uint32_t>(q_hat);
  }

  quot.Trim();
  u.limbs_.resize(n);
  u.Trim();
  *q = std::move(quot);
  *r = ShiftRight(u, shift);
}

BigInt BigInt::Mod(const BigInt& a, const BigInt& m) {
  BigInt q, r;
  DivMod(a, m, &q, &r);
  return r;
}

BigInt BigInt::Div(const BigInt& a, const BigInt& b) {
  BigInt q, r;
  DivMod(a, b, &q, &r);
  return q;
}

BigInt BigInt::ModAdd(const BigInt& a, const BigInt& b, const BigInt& m) {
  return Mod(Add(a, b), m);
}

BigInt BigInt::ModSub(const BigInt& a, const BigInt& b, const BigInt& m) {
  BigInt am = Mod(a, m);
  BigInt bm = Mod(b, m);
  if (Compare(am, bm) >= 0) {
    return Sub(am, bm);
  }
  return Sub(Add(am, m), bm);
}

BigInt BigInt::ModMul(const BigInt& a, const BigInt& b, const BigInt& m) {
  return Mod(Mul(a, b), m);
}

BigInt BigInt::ModExp(const BigInt& a, const BigInt& e, const BigInt& m) {
  if (m.IsOne() || m.IsZero()) {
    return Zero();
  }
  if (MontgomeryCtx::Usable(m)) {
    return MontgomeryCtx(m).ModExp(a, e);
  }
  return ModExpSchoolbook(a, e, m);
}

BigInt BigInt::ModExpSchoolbook(const BigInt& a, const BigInt& e,
                                const BigInt& m) {
  if (m.IsOne() || m.IsZero()) {
    return Zero();
  }
  BigInt base = Mod(a, m);
  BigInt result = One();
  size_t bits = e.BitLength();
  for (size_t i = 0; i < bits; ++i) {
    if (e.Bit(i)) {
      result = ModMul(result, base, m);
    }
    if (i + 1 < bits) {
      base = ModMul(base, base, m);
    }
  }
  return result;
}

BigInt BigInt::Gcd(const BigInt& a, const BigInt& b) {
  BigInt x = a, y = b;
  while (!y.IsZero()) {
    BigInt r = Mod(x, y);
    x = y;
    y = r;
  }
  return x;
}

BigInt BigInt::Lcm(const BigInt& a, const BigInt& b) {
  if (a.IsZero() || b.IsZero()) {
    return Zero();
  }
  return Div(Mul(a, b), Gcd(a, b));
}

BigInt BigInt::ModInverse(const BigInt& a, const BigInt& m) {
  // Extended Euclid with non-negative bookkeeping: track coefficients of a
  // modulo m, using (sign, magnitude) pairs folded into mod-m arithmetic.
  BigInt r0 = m, r1 = Mod(a, m);
  BigInt t0 = Zero(), t1 = One();
  bool t0_neg = false, t1_neg = false;
  while (!r1.IsZero()) {
    BigInt q, r2;
    DivMod(r0, r1, &q, &r2);
    // t2 = t0 - q * t1 (with signs).
    BigInt qt1 = Mul(q, t1);
    BigInt t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      // t0 and q*t1 have the same sign: result sign depends on magnitudes.
      if (Compare(t0, qt1) >= 0) {
        t2 = Sub(t0, qt1);
        t2_neg = t0_neg;
      } else {
        t2 = Sub(qt1, t0);
        t2_neg = !t0_neg;
      }
    } else {
      t2 = Add(t0, qt1);
      t2_neg = t0_neg;
    }
    r0 = r1;
    r1 = r2;
    t0 = t1;
    t0_neg = t1_neg;
    t1 = t2;
    t1_neg = t2_neg;
  }
  if (!r0.IsOne()) {
    return Zero();  // not invertible
  }
  BigInt inv = Mod(t0, m);
  if (t0_neg && !inv.IsZero()) {
    inv = Sub(m, inv);
  }
  return inv;
}

bool BigInt::IsProbablePrime(const BigInt& n, int rounds, Rng* rng) {
  if (n.limbs_.empty()) {
    return false;
  }
  uint64_t small = n.ToU64();
  if (n.limbs_.size() <= 2) {
    if (small < 2) return false;
    if (small == 2 || small == 3) return true;
  }
  if (!n.IsOdd()) {
    return false;
  }
  // Quick trial division by small primes.
  static constexpr uint32_t kSmallPrimes[] = {
      3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
      71, 73, 79, 83, 89, 97};
  for (uint32_t p : kSmallPrimes) {
    BigInt bp(p);
    if (Compare(n, bp) == 0) {
      return true;
    }
    if (Mod(n, bp).IsZero()) {
      return false;
    }
  }

  // Write n-1 = d * 2^s.
  BigInt n_minus_1 = Sub(n, One());
  BigInt d = n_minus_1;
  size_t s = 0;
  while (!d.IsOdd()) {
    d = ShiftRight(d, 1);
    ++s;
  }

  BigInt two(2);
  BigInt n_minus_3 = Sub(n, BigInt(3));
  const MontgomeryCtx ctx(n);  // n is odd and > 97 here
  for (int round = 0; round < rounds; ++round) {
    BigInt a = Add(RandomBelow(n_minus_3, rng), two);  // a in [2, n-2]
    BigInt x = ctx.ModExp(a, d);
    if (x.IsOne() || Compare(x, n_minus_1) == 0) {
      continue;
    }
    bool witness = true;
    for (size_t i = 1; i < s; ++i) {
      x = ctx.ModMul(x, x);
      if (Compare(x, n_minus_1) == 0) {
        witness = false;
        break;
      }
    }
    if (witness) {
      return false;
    }
  }
  return true;
}

BigInt BigInt::GeneratePrime(size_t bits, Rng* rng) {
  for (;;) {
    BigInt candidate = RandomBits(bits, rng);
    if (!candidate.IsOdd()) {
      candidate = Add(candidate, One());
      if (candidate.BitLength() != bits) {
        continue;
      }
    }
    if (IsProbablePrime(candidate, 20, rng)) {
      return candidate;
    }
  }
}

std::string BigInt::ToDecimalString() const {
  if (limbs_.empty()) {
    return "0";
  }
  BigInt v = *this;
  BigInt billion(1000000000ULL);
  std::vector<uint32_t> chunks;
  while (!v.IsZero()) {
    BigInt q, r;
    DivMod(v, billion, &q, &r);
    chunks.push_back(static_cast<uint32_t>(r.ToU64()));
    v = q;
  }
  std::string out = std::to_string(chunks.back());
  for (size_t i = chunks.size() - 1; i-- > 0;) {
    std::string part = std::to_string(chunks[i]);
    out += std::string(9 - part.size(), '0') + part;
  }
  return out;
}

}  // namespace pds::crypto
