#include "crypto/montgomery.h"

#include <cstdlib>

#include "crypto/montgomery_simd.h"

namespace pds::crypto {

namespace {

using Limbs = MontgomeryCtx::Limbs;
using u128 = unsigned __int128;

/// Inverse of odd `x` mod 2^64 by Newton iteration: x*x = 1 mod 8 for odd
/// x, so x is its own inverse to 3 bits, and each step doubles the correct
/// low bits (3, 6, 12, 24, 48, 96).
uint64_t InverseMod64(uint64_t x) {
  uint64_t inv = x;
  for (int i = 0; i < 5; ++i) {
    inv *= 2 - x * inv;
  }
  return inv;
}

/// The low k little-endian 64-bit limbs of v.
Limbs LimbsOf(const BigInt& v, size_t k) {
  Limbs out(k, 0);
  const Bytes be = v.ToBytes();
  const size_t len = be.size();
  for (size_t i = 0; i < len; ++i) {
    const size_t byte_index = len - 1 - i;  // position from the LSB
    if (byte_index / 8 < k) {
      out[byte_index / 8] |= static_cast<uint64_t>(be[i])
                             << (8 * (byte_index % 8));
    }
  }
  return out;
}

BigInt BigIntOf(const Limbs& x) {
  const size_t n = 8 * x.size();
  Bytes be(n, 0);
  for (size_t byte_index = 0; byte_index < n; ++byte_index) {
    be[n - 1 - byte_index] =
        static_cast<uint8_t>(x[byte_index / 8] >> (8 * (byte_index % 8)));
  }
  return BigInt::FromBytes(ByteView(be));
}

/// 4-bit window digit w of e: bits [4w, 4w+4), 0 past e's top bit.
// pdslint: secret(e)
uint32_t WindowDigit(const BigInt& e, size_t w) {
  uint32_t digit = 0;
  for (size_t b = 0; b < 4; ++b) {
    // Branchless: Bit() is 0/1, fold it in without testing it.
    digit |= static_cast<uint32_t>(e.Bit(4 * w + b)) << b;
  }
  return digit;
}

/// Writes `x` into lane `lane` of a simd::MontMul4 operand: 64-bit limb j
/// becomes 32-bit limbs 2j and 2j+1, at [4*(2j) + lane] and [4*(2j+1) +
/// lane].
void PackLane(const Limbs& x, size_t lane, uint64_t* quad) {
  for (size_t j = 0; j < x.size(); ++j) {
    quad[8 * j + lane] = x[j] & 0xFFFFFFFFu;
    quad[8 * j + 4 + lane] = x[j] >> 32;
  }
}

/// Inverse of PackLane: `out` (k limbs) receives lane `lane` of `quad`.
void UnpackLane(const uint64_t* quad, size_t lane, Limbs* out) {
  for (size_t j = 0; j < out->size(); ++j) {
    (*out)[j] = quad[8 * j + lane] | (quad[8 * j + 4 + lane] << 32);
  }
}

/// The (k+2)-limb CIOS accumulator, reused across calls on the same thread
/// so MontMul allocates nothing after warm-up.
std::vector<uint64_t>& Scratch() {
  thread_local std::vector<uint64_t> t;
  return t;
}

}  // namespace

MontgomeryCtx::MontgomeryCtx(const BigInt& modulus) : modulus_(modulus) {
  if (!Usable(modulus)) {
    std::abort();  // programming error: callers must gate on Usable()
  }
  k_ = (modulus.BitLength() + 63) / 64;
  m_limbs_ = LimbsOf(modulus, k_);
  n0_inv_ = 0 - InverseMod64(m_limbs_[0]);
  // R mod m and R^2 mod m via one-time BigInt divisions.
  one_mont_ = LimbsOf(
      BigInt::Mod(BigInt::ShiftLeft(BigInt::One(), 64 * k_), modulus_), k_);
  r2_ = LimbsOf(
      BigInt::Mod(BigInt::ShiftLeft(BigInt::One(), 128 * k_), modulus_), k_);
}

// pdslint: secret(a, b)
void MontgomeryCtx::MontMul(const Limbs& a, const Limbs& b,
                            Limbs* out) const {
  const size_t k = k_;
  const uint64_t* m = m_limbs_.data();
  // CIOS: t accumulates a*b while folding in multiples of m so the low
  // limb stays divisible by 2^64 each round. With a < m, t < 2m after
  // every round, so t[k] <= 1 and t fits k+2 limbs mid-round.
  std::vector<uint64_t>& scratch = Scratch();
  scratch.assign(k + 2, 0);
  uint64_t* t = scratch.data();
  for (size_t i = 0; i < k; ++i) {
    // t += a * b[i]
    const uint64_t bi = b[i];
    uint64_t carry = 0;
    for (size_t j = 0; j < k; ++j) {
      const u128 cur = static_cast<u128>(a[j]) * bi + t[j] + carry;
      t[j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[k]) + carry;
    t[k] = static_cast<uint64_t>(cur);
    t[k + 1] = static_cast<uint64_t>(cur >> 64);

    // t = (t + mw*m) / 2^64
    const uint64_t mw = t[0] * n0_inv_;
    cur = static_cast<u128>(mw) * m[0] + t[0];
    carry = static_cast<uint64_t>(cur >> 64);  // low limb is now zero
    for (size_t j = 1; j < k; ++j) {
      cur = static_cast<u128>(mw) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    cur = static_cast<u128>(t[k]) + carry;
    t[k - 1] = static_cast<uint64_t>(cur);
    t[k] = t[k + 1] + static_cast<uint64_t>(cur >> 64);
  }

  // Result is in t[0..k], strictly below 2m: subtract m once if needed.
  // The reduction runs on secret-derived limbs, so it must not branch or
  // early-exit on them: compute t - m unconditionally (borrow chain), then
  // select t or t - m with a mask derived from (t >= m).
  out->resize(k);
  uint64_t* o = out->data();
  uint64_t borrow = 0;
  for (size_t i = 0; i < k; ++i) {
    const u128 diff = static_cast<u128>(t[i]) - m[i] - borrow;
    o[i] = static_cast<uint64_t>(diff);
    borrow = static_cast<uint64_t>(diff >> 64) & 1;
  }
  // t >= m iff the carry limb is nonzero or the subtraction did not borrow.
  const uint64_t tk = t[k];
  const uint64_t ge = ((tk | (0 - tk)) >> 63) | (borrow ^ 1);
  const uint64_t mask = 0 - ge;  // all-ones when t >= m
  for (size_t i = 0; i < k; ++i) {
    o[i] = (o[i] & mask) | (t[i] & ~mask);
  }
}

MontgomeryCtx::Limbs MontgomeryCtx::ToMont(const BigInt& x) const {
  Limbs out;
  MontMul(LimbsOf(BigInt::Mod(x, modulus_), k_), r2_, &out);
  return out;
}

BigInt MontgomeryCtx::FromMont(const Limbs& x) const {
  Limbs one(k_, 0);
  one[0] = 1;
  Limbs plain;
  MontMul(x, one, &plain);
  return BigIntOf(plain);
}

BigInt MontgomeryCtx::ModMul(const BigInt& a, const BigInt& b) const {
  // MontMul(a, b) = a*b*R^-1; a second MontMul by R^2 cancels the R^-1.
  Limbs prod;
  MontMul(LimbsOf(BigInt::Mod(a, modulus_), k_),
          LimbsOf(BigInt::Mod(b, modulus_), k_), &prod);
  MontMul(prod, r2_, &prod);
  return BigIntOf(prod);
}

// pdslint: secret(a, e)
// pdslint: const-time-exempt(window ladder skips the digit-0 multiply and
// gates on IsZero/BitLength; leaks only the exponent's bit length and
// zero-window pattern, accepted for the 62-75x cached-encrypt speedup --
// the per-window table load and MontMul reduction below are branchless)
BigInt MontgomeryCtx::ModExp(const BigInt& a, const BigInt& e) const {
  if (e.IsZero()) {
    return BigInt::Mod(BigInt::One(), modulus_);
  }
  Limbs base = ToMont(a);

  // 4-bit fixed window: table[d] = a^d in Montgomery form.
  Limbs table[16];
  table[0] = one_mont_;
  table[1] = base;
  for (int d = 2; d < 16; ++d) {
    MontMul(table[d - 1], base, &table[d]);
  }

  const size_t windows = (e.BitLength() + 3) / 4;
  Limbs result;
  for (size_t w = windows; w-- > 0;) {
    const uint32_t digit = WindowDigit(e, w);
    if (result.empty()) {
      result = table[digit];
      continue;
    }
    for (int s = 0; s < 4; ++s) {
      MontMul(result, result, &result);
    }
    if (digit != 0) {
      MontMul(result, table[digit], &result);
    }
  }
  return FromMont(result);
}

FixedBaseTable::FixedBaseTable(const MontgomeryCtx* ctx, const BigInt& base,
                               size_t max_exp_bits)
    : ctx_(ctx), max_exp_bits_(max_exp_bits) {
  size_t rows = (max_exp_bits + 3) / 4;
  rows_.resize(rows);
  MontgomeryCtx::Limbs row_base = ctx_->ToMont(base);
  for (size_t i = 0; i < rows; ++i) {
    auto& row = rows_[i];
    row.resize(16);
    row[0] = ctx_->OneMont();
    row[1] = row_base;
    for (int d = 2; d < 16; ++d) {
      ctx_->MontMul(row[d - 1], row_base, &row[d]);
    }
    if (i + 1 < rows) {
      // next row base = row_base^16 = (row_base^8)^2
      ctx_->MontMul(row[8], row[8], &row_base);
    }
  }
  for (uint64_t limb : ctx_->mod_limbs()) {
    m32_.push_back(static_cast<uint32_t>(limb));
    m32_.push_back(static_cast<uint32_t>(limb >> 32));
  }
  // -m^-1 mod 2^64 reduced mod 2^32 is -m^-1 mod 2^32.
  n0_inv32_ = static_cast<uint32_t>(ctx_->n0_inv());
}

// pdslint: secret(e)
// pdslint: const-time-exempt(fixed-base windowing: the scalar ladder skips
// digit-0 rows, and both paths bound the loop by BitLength and load the
// row entry a digit selects; leaks the exponent's length and zero-window
// pattern only -- the BitLength abort guard is a public precomputation
// bound, not data-dependent control flow an attacker can drive)
MontgomeryCtx::Limbs FixedBaseTable::PowMont(const BigInt& e) const {
  if (e.BitLength() > max_exp_bits_) {
    std::abort();  // exponent exceeds the precomputed range
  }
  const MontgomeryCtx::Limbs& one = ctx_->OneMont();
  const size_t windows = (e.BitLength() + 3) / 4;
  if (!simd::Active()) {
    MontgomeryCtx::Limbs result = one;
    for (size_t w = 0; w < windows; ++w) {
      const uint32_t digit = WindowDigit(e, w);
      if (digit != 0) {
        ctx_->MontMul(result, rows_[w][digit], &result);
      }
    }
    return result;
  }

  // Lane split: lane l multiplies the entries of windows w = l (mod 4), a
  // 0 digit by its row's stored 1 and a window past the top by 1. Lane l
  // starts at window l's entry, and each MontMul4 call multiplies in the
  // next four windows' entries, packed from the one table.
  const size_t k = ctx_->limbs();
  std::vector<uint64_t> acc(8 * k);
  std::vector<uint64_t> operand(8 * k);
  auto pack = [&](size_t w0, uint64_t* quad) {
    for (size_t l = 0; l < 4; ++l) {
      const size_t w = w0 + l;
      PackLane(w < windows ? rows_[w][WindowDigit(e, w)] : one, l, quad);
    }
  };
  pack(0, acc.data());
  for (size_t w0 = 4; w0 < windows; w0 += 4) {
    pack(w0, operand.data());
    simd::MontMul4(2 * k, m32_.data(), n0_inv32_, acc.data(), operand.data(),
                   acc.data());
  }
  // Combine the lanes: three scalar MontMuls.
  MontgomeryCtx::Limbs result(k);
  MontgomeryCtx::Limbs lane(k);
  UnpackLane(acc.data(), 0, &result);
  for (size_t l = 1; l < 4; ++l) {
    UnpackLane(acc.data(), l, &lane);
    ctx_->MontMul(result, lane, &result);
  }
  return result;
}

BigInt FixedBaseTable::Pow(const BigInt& e) const {
  return ctx_->FromMont(PowMont(e));
}

}  // namespace pds::crypto
