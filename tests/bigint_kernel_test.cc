// Edge-case and randomized cross-check tests for the Montgomery kernel
// layer under BigInt::ModExp and Paillier (crypto/montgomery.h). The
// schoolbook ladder and BigInt::ModMul are the reference implementations;
// the 64-bit-limb kernel and the 4-lane AVX2 kernel under FixedBaseTable's
// lane split must agree with them bit for bit on every input, including
// the limb-boundary carry chains limb arithmetic is most likely to get
// wrong.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/bigint.h"
#include "crypto/montgomery.h"
#include "crypto/montgomery_simd.h"

namespace pds::crypto {
namespace {

/// Runs `fn` once on the active kernel and once with the scalar fallback
/// forced, restoring the dispatch state afterwards. Cross-check tests use
/// it so every assertion covers both the AVX2 and the scalar path.
template <typename Fn>
void ForEachKernel(Fn fn) {
  const bool was_forced = simd::force_scalar();
  simd::SetForceScalar(false);
  fn(simd::KernelName());
  simd::SetForceScalar(true);
  fn("forced-scalar");
  simd::SetForceScalar(was_forced);
}

/// The value of little-endian 64-bit limbs.
BigInt FromLimbs(const MontgomeryCtx::Limbs& x) {
  BigInt v;
  for (size_t j = x.size(); j-- > 0;) {
    v = BigInt::Add(BigInt::ShiftLeft(v, 64), BigInt(x[j]));
  }
  return v;
}

/// The low k little-endian 64-bit limbs of v.
MontgomeryCtx::Limbs ToLimbs(const BigInt& v, size_t k) {
  MontgomeryCtx::Limbs out(k);
  BigInt rest = v;
  for (uint64_t& limb : out) {
    limb = rest.ToU64();
    rest = BigInt::ShiftRight(rest, 64);
  }
  return out;
}

/// R = 2^(64k) for the context's limb count k.
BigInt MontgomeryR(const MontgomeryCtx& ctx) {
  return BigInt::ShiftLeft(BigInt::One(), 64 * ctx.limbs());
}

/// Reference MontMul for `ctx`: (a, b) -> a * b * R^-1 mod m by schoolbook
/// BigInt arithmetic.
auto MontMulReference(const MontgomeryCtx& ctx) {
  const BigInt& m = ctx.modulus();
  const BigInt r_inv = BigInt::ModInverse(BigInt::Mod(MontgomeryR(ctx), m), m);
  return [&ctx, &m, r_inv](const MontgomeryCtx::Limbs& a,
                           const MontgomeryCtx::Limbs& b) {
    return ToLimbs(BigInt::ModMul(BigInt::ModMul(FromLimbs(a), FromLimbs(b), m),
                                  r_inv, m),
                   ctx.limbs());
  };
}

/// A random odd modulus of exactly `bits` bits.
BigInt RandomOddModulus(size_t bits, Rng* rng) {
  BigInt m = BigInt::RandomBits(bits, rng);
  return m.IsOdd() ? m : BigInt::Add(m, BigInt::One());
}

/// Four MontMuls through one simd::MontMul4 call (requires AVX2): lane l
/// computes a[l]*b[l]*R^-1 mod m, with each 64-bit limb split into the
/// kernel's two 32-bit lane limbs.
void MontMulQuad(const MontgomeryCtx& ctx, const MontgomeryCtx::Limbs a[4],
                 const MontgomeryCtx::Limbs b[4],
                 MontgomeryCtx::Limbs out[4]) {
  const size_t k = ctx.limbs();
  std::vector<uint32_t> m32;
  for (uint64_t limb : ctx.mod_limbs()) {
    m32.push_back(static_cast<uint32_t>(limb));
    m32.push_back(static_cast<uint32_t>(limb >> 32));
  }
  std::vector<uint64_t> qa(8 * k), qb(8 * k), qo(8 * k);
  for (size_t l = 0; l < 4; ++l) {
    for (size_t j = 0; j < k; ++j) {
      qa[4 * (2 * j) + l] = a[l][j] & 0xFFFFFFFFu;
      qa[4 * (2 * j + 1) + l] = a[l][j] >> 32;
      qb[4 * (2 * j) + l] = b[l][j] & 0xFFFFFFFFu;
      qb[4 * (2 * j + 1) + l] = b[l][j] >> 32;
    }
  }
  simd::MontMul4(2 * k, m32.data(), static_cast<uint32_t>(ctx.n0_inv()),
                 qa.data(), qb.data(), qo.data());
  for (size_t l = 0; l < 4; ++l) {
    out[l].assign(k, 0);
    for (size_t j = 0; j < k; ++j) {
      out[l][j] = qo[4 * (2 * j) + l] | (qo[4 * (2 * j + 1) + l] << 32);
    }
  }
}

/// Odd moduli next to limb boundaries: 2^(64j) - c and 2^(64j) + c for
/// small odd c, where the CIOS carry limbs are live on nearly every round.
std::vector<BigInt> NearPowerOfTwoModuli(size_t max_limbs) {
  std::vector<BigInt> moduli;
  for (size_t j = 1; j <= max_limbs; ++j) {
    const BigInt r = BigInt::ShiftLeft(BigInt::One(), 64 * j);
    for (uint64_t c : {1u, 3u, 0x2Bu}) {
      moduli.push_back(BigInt::Sub(r, BigInt(c)));
      moduli.push_back(BigInt::Add(r, BigInt(c)));
    }
  }
  return moduli;
}

BigInt FromDecimal(const std::string& s) {
  BigInt x;
  for (char c : s) {
    x = BigInt::Add(BigInt::Mul(x, BigInt(10)),
                    BigInt(static_cast<uint64_t>(c - '0')));
  }
  return x;
}

TEST(MontgomeryCtxTest, UsableGate) {
  EXPECT_FALSE(MontgomeryCtx::Usable(BigInt::Zero()));
  EXPECT_FALSE(MontgomeryCtx::Usable(BigInt::One()));
  EXPECT_FALSE(MontgomeryCtx::Usable(BigInt(2)));
  EXPECT_FALSE(MontgomeryCtx::Usable(BigInt(4)));
  EXPECT_TRUE(MontgomeryCtx::Usable(BigInt(3)));
  EXPECT_TRUE(MontgomeryCtx::Usable(BigInt(0xFFFFFFFFull)));
}

TEST(MontgomeryCtxTest, ZeroAndOneOperands) {
  MontgomeryCtx ctx(BigInt(101));
  EXPECT_EQ(ctx.ModMul(BigInt::Zero(), BigInt(57)), BigInt::Zero());
  EXPECT_EQ(ctx.ModMul(BigInt(57), BigInt::Zero()), BigInt::Zero());
  EXPECT_EQ(ctx.ModMul(BigInt::One(), BigInt(57)), BigInt(57));
  EXPECT_EQ(ctx.ModMul(BigInt(57), BigInt::One()), BigInt(57));
  // a^0 = 1, 0^e = 0, 1^e = 1, a^1 = a.
  EXPECT_EQ(ctx.ModExp(BigInt(57), BigInt::Zero()), BigInt::One());
  EXPECT_EQ(ctx.ModExp(BigInt::Zero(), BigInt(12)), BigInt::Zero());
  EXPECT_EQ(ctx.ModExp(BigInt::One(), BigInt(12)), BigInt::One());
  EXPECT_EQ(ctx.ModExp(BigInt(57), BigInt::One()), BigInt(57));
  // 0^0 = 1 by the ladder's convention (matches schoolbook).
  EXPECT_EQ(ctx.ModExp(BigInt::Zero(), BigInt::Zero()),
            BigInt::ModExpSchoolbook(BigInt::Zero(), BigInt::Zero(),
                                     BigInt(101)));
}

TEST(MontgomeryCtxTest, OperandsLargerThanModulusAreReduced) {
  MontgomeryCtx ctx(BigInt(97));
  BigInt big = FromDecimal("123456789123456789123456789");
  EXPECT_EQ(ctx.ModMul(big, big),
            BigInt::ModMul(BigInt::Mod(big, BigInt(97)),
                           BigInt::Mod(big, BigInt(97)), BigInt(97)));
  EXPECT_EQ(ctx.ModExp(big, BigInt(65537)),
            BigInt::ModExpSchoolbook(big, BigInt(65537), BigInt(97)));
  // At the fold's sizes too: 0, m itself and values >= m^2 give
  // BigInt::ModMul's bytes.
  Rng rng(6403);
  for (size_t bits : {61u, 1024u, 2048u}) {
    MontgomeryCtx wide(RandomOddModulus(bits, &rng));
    const BigInt& m = wide.modulus();
    const std::vector<BigInt> inputs = {
        BigInt::Zero(), BigInt::One(), m, BigInt::Add(m, BigInt::One()),
        BigInt::Mul(m, m), BigInt::Add(BigInt::Mul(m, m), BigInt(7)),
        BigInt::RandomBits(3 * bits, &rng), BigInt::RandomBelow(m, &rng)};
    for (const BigInt& a : inputs) {
      for (const BigInt& b : inputs) {
        EXPECT_EQ(wide.ModMul(a, b), BigInt::ModMul(a, b, m))
            << "bits=" << bits << " a=" << a.ToDecimalString()
            << " b=" << b.ToDecimalString();
      }
    }
  }
}

TEST(MontgomeryCtxTest, LimbBoundaryCarryChains) {
  // Moduli and operands sitting right at 32/64/96-bit limb boundaries,
  // where the CIOS inner-loop carries propagate across every word.
  std::vector<BigInt> moduli = {
      BigInt(0xFFFFFFFFull),          // 2^32 - 1
      BigInt(0x100000001ull),         // 2^32 + 1
      BigInt(0xFFFFFFFFFFFFFFFFull),  // 2^64 - 1
      BigInt::Add(BigInt::ShiftLeft(BigInt::One(), 96), BigInt(0x2B)),
      BigInt::Sub(BigInt::ShiftLeft(BigInt::One(), 127), BigInt::One()),
  };
  for (const BigInt& m : moduli) {
    ASSERT_TRUE(MontgomeryCtx::Usable(m)) << m.ToDecimalString();
    MontgomeryCtx ctx(m);
    std::vector<BigInt> operands = {
        BigInt::Zero(), BigInt::One(), BigInt(0xFFFFFFFFull),
        BigInt::Sub(m, BigInt::One()),
        BigInt::Mod(BigInt(0xDEADBEEFCAFEBABEull), m)};
    for (const BigInt& a : operands) {
      for (const BigInt& b : operands) {
        EXPECT_EQ(ctx.ModMul(a, b), BigInt::ModMul(a, b, m))
            << "m=" << m.ToDecimalString() << " a=" << a.ToDecimalString()
            << " b=" << b.ToDecimalString();
      }
      EXPECT_EQ(ctx.ModExp(a, BigInt(0x10001)),
                BigInt::ModExpSchoolbook(a, BigInt(0x10001), m))
          << "m=" << m.ToDecimalString() << " a=" << a.ToDecimalString();
    }
  }
}

TEST(MontgomeryCtxTest, ToMontFromMontRoundTrip) {
  Rng rng(11);
  BigInt m = BigInt::GeneratePrime(160, &rng);
  MontgomeryCtx ctx(m);
  for (int i = 0; i < 50; ++i) {
    BigInt x = BigInt::RandomBelow(m, &rng);
    EXPECT_EQ(ctx.FromMont(ctx.ToMont(x)), x);
  }
  EXPECT_EQ(ctx.FromMont(ctx.OneMont()), BigInt::One());
}

TEST(MontgomeryCtxTest, OddThirtyTwoBitLimbCountModuli) {
  // Moduli whose 32-bit limb count is odd: R = 2^(64 * ceil(bits / 64))
  // is not 2^(32 * limbs32), so Montgomery forms differ from a 32-bit
  // kernel's while every ordinary-domain result must not.
  Rng rng(6401);
  for (size_t bits : {17u, 96u, 150u, 521u, 1056u, 2049u}) {
    MontgomeryCtx ctx(RandomOddModulus(bits, &rng));
    const BigInt& m = ctx.modulus();
    ASSERT_EQ(ctx.limbs(), (bits + 63) / 64) << "bits=" << bits;
    EXPECT_EQ(FromLimbs(ctx.OneMont()), BigInt::Mod(MontgomeryR(ctx), m))
        << "bits=" << bits;
    auto reference = MontMulReference(ctx);
    for (int i = 0; i < 8; ++i) {
      const BigInt a = BigInt::RandomBelow(m, &rng);
      const BigInt b = BigInt::RandomBelow(m, &rng);
      const MontgomeryCtx::Limbs al = ToLimbs(a, ctx.limbs());
      const MontgomeryCtx::Limbs bl = ToLimbs(b, ctx.limbs());
      MontgomeryCtx::Limbs got;
      ctx.MontMul(al, bl, &got);
      EXPECT_EQ(got, reference(al, bl)) << "bits=" << bits;
      EXPECT_EQ(ctx.ModMul(a, b), BigInt::ModMul(a, b, m)) << "bits=" << bits;
      const BigInt e = BigInt::RandomBits(64, &rng);
      EXPECT_EQ(ctx.ModExp(a, e), BigInt::ModExpSchoolbook(a, e, m))
          << "bits=" << bits;
    }
  }
}

TEST(MontgomeryCtxTest, NearPowerOfTwoModuliCarryLimbs) {
  // m = 2^(64j) +- c with all-ones operands: the accumulator reaches
  // 2^(64(k+1)) mid-round, so the CIOS carry limbs are live. Raw MontMul
  // against the reference, and ModMul against schoolbook ModMul.
  Rng rng(6402);
  std::vector<BigInt> moduli = NearPowerOfTwoModuli(8);
  for (size_t j : {16u, 32u, 33u}) {
    moduli.push_back(BigInt::Sub(BigInt::ShiftLeft(BigInt::One(), 64 * j),
                                 BigInt(0x2B)));
  }
  for (const BigInt& m : moduli) {
    MontgomeryCtx ctx(m);
    auto reference = MontMulReference(ctx);
    const std::vector<BigInt> operands = {
        BigInt::Zero(), BigInt::One(), BigInt::Sub(m, BigInt::One()),
        BigInt::Sub(m, BigInt(2)), FromLimbs(ctx.OneMont()),
        BigInt::RandomBelow(m, &rng)};
    for (const BigInt& a : operands) {
      for (const BigInt& b : operands) {
        const MontgomeryCtx::Limbs al = ToLimbs(a, ctx.limbs());
        const MontgomeryCtx::Limbs bl = ToLimbs(b, ctx.limbs());
        MontgomeryCtx::Limbs got;
        ctx.MontMul(al, bl, &got);
        EXPECT_EQ(got, reference(al, bl))
            << "m=" << m.ToDecimalString() << " a=" << a.ToDecimalString()
            << " b=" << b.ToDecimalString();
        EXPECT_EQ(ctx.ModMul(a, b), BigInt::ModMul(a, b, m))
            << "m=" << m.ToDecimalString();
      }
    }
  }
}

TEST(BigIntModExpTest, EvenModulusFallsBackToSchoolbook) {
  // Montgomery requires an odd modulus; ModExp must still be correct for
  // even ones via the schoolbook path.
  // m = 1 takes neither path: every result is 0.
  std::vector<BigInt> moduli = {BigInt::One(), BigInt(2), BigInt(4096),
                                BigInt(0x100000000ull),
                                BigInt(2 * 3 * 5 * 7 * 11 * 13)};
  Rng rng(5);
  for (const BigInt& m : moduli) {
    for (int i = 0; i < 20; ++i) {
      BigInt a = BigInt::RandomBelow(m, &rng);
      BigInt e(rng.Uniform(1000));
      EXPECT_EQ(BigInt::ModExp(a, e, m), BigInt::ModExpSchoolbook(a, e, m))
          << "m=" << m.ToDecimalString();
    }
  }
}

TEST(BigIntModExpTest, RandomizedMontgomeryVsSchoolbookCrossCheck) {
  // Seeded randomized sweep: (modulus, a, b, e) draws, each checking
  // ModMul and ModExp against the schoolbook reference. 1000 draws below
  // 512 bits, then 120 from 512 to 4096 bits, where the workload's p^2,
  // q^2 (1024) and n^2 (2048) live: 64-bit limb counts 1..64 within a
  // fixed budget. Any kernel carry bug shows up here with a reproducible
  // seed.
  Rng rng(20260805);
  for (int iter = 0; iter < 1120; ++iter) {
    const size_t bits = iter < 1000 ? 8 + rng.Uniform(504)      // 8..511
                                    : 512 + rng.Uniform(3585);  // ..4096
    BigInt m = BigInt::RandomBits(bits, &rng);
    if (!m.IsOdd()) {
      m = BigInt::Add(m, BigInt::One());
    }
    if (!MontgomeryCtx::Usable(m)) {
      continue;
    }
    MontgomeryCtx ctx(m);
    BigInt a = BigInt::RandomBelow(m, &rng);
    BigInt b = BigInt::RandomBelow(m, &rng);
    ASSERT_EQ(ctx.ModMul(a, b), BigInt::ModMul(a, b, m))
        << "iter=" << iter << " m=" << m.ToDecimalString();
    BigInt e = BigInt::RandomBits(1 + rng.Uniform(96), &rng);
    ASSERT_EQ(ctx.ModExp(a, e), BigInt::ModExpSchoolbook(a, e, m))
        << "iter=" << iter << " m=" << m.ToDecimalString();
  }
}

TEST(MontgomerySimdTest, ForceScalarFlipsDispatch) {
  // The dispatch PowMont's lane split relies on: forcing the fallback must
  // actually change the selected kernel when AVX2 exists, and must be a
  // no-op (already scalar) when it does not.
  const bool was_forced = simd::force_scalar();
  simd::SetForceScalar(false);
  if (simd::Avx2Supported()) {
    EXPECT_TRUE(simd::Active());
    EXPECT_STREQ(simd::KernelName(), "avx2");
  } else {
    EXPECT_FALSE(simd::Active());
    EXPECT_STREQ(simd::KernelName(), "scalar");
  }
  simd::SetForceScalar(true);
  EXPECT_FALSE(simd::Active());
  EXPECT_STREQ(simd::KernelName(), "scalar");
  simd::SetForceScalar(was_forced);
}

TEST(MontgomerySimdTest, MontMulQuadMatchesScalarKernel) {
  // Four independent lanes through one MontMul4 call must equal four
  // scalar MontMuls bit for bit, across limb counts that exercise partial
  // registers, odd 32-bit limb counts (a zero top limb in the kernel's
  // modulus) and long carry chains.
  if (!simd::Avx2Supported()) {
    GTEST_SKIP() << "no AVX2: MontMul4 is unreachable on this CPU";
  }
  Rng rng(424243);
  for (size_t bits : {32u, 64u, 96u, 160u, 256u, 521u, 1024u, 2048u, 4096u}) {
    MontgomeryCtx ctx(RandomOddModulus(bits, &rng));
    MontgomeryCtx::Limbs a[4], b[4], expected[4], got[4];
    for (size_t l = 0; l < 4; ++l) {
      a[l] = ctx.ToMont(BigInt::RandomBelow(ctx.modulus(), &rng));
      b[l] = ctx.ToMont(BigInt::RandomBelow(ctx.modulus(), &rng));
      ctx.MontMul(a[l], b[l], &expected[l]);
    }
    MontMulQuad(ctx, a, b, got);
    for (size_t l = 0; l < 4; ++l) {
      EXPECT_EQ(got[l], expected[l]) << "bits=" << bits << " lane=" << l;
    }
  }
}

TEST(MontgomerySimdTest, MontMulQuadEdgeOperands) {
  // Every lane against scalar MontMul on the operands 0, 1, m-1 and
  // R mod m: the 16 rotations put every operand pair in every lane, so the
  // conditional subtract is decided per lane and no lane is skipped.
  if (!simd::Avx2Supported()) {
    GTEST_SKIP() << "no AVX2: MontMul4 is unreachable on this CPU";
  }
  Rng rng(4711);
  std::vector<BigInt> moduli = {
      BigInt::Sub(BigInt::ShiftLeft(BigInt::One(), 127), BigInt::One()),
      RandomOddModulus(96, &rng), RandomOddModulus(1056, &rng),
      RandomOddModulus(2048, &rng)};
  for (const BigInt& m : NearPowerOfTwoModuli(4)) {
    moduli.push_back(m);
  }
  for (const BigInt& m : moduli) {
    MontgomeryCtx ctx(m);
    const size_t k = ctx.limbs();
    const MontgomeryCtx::Limbs ops[4] = {
        ToLimbs(BigInt::Zero(), k), ToLimbs(BigInt::One(), k),
        ToLimbs(BigInt::Sub(m, BigInt::One()), k), ctx.OneMont()};
    for (size_t r = 0; r < 4; ++r) {
      for (size_t q = 0; q < 4; ++q) {
        MontgomeryCtx::Limbs a[4], b[4], got[4];
        for (size_t l = 0; l < 4; ++l) {
          a[l] = ops[(l + r) % 4];
          b[l] = ops[(l + q) % 4];
        }
        MontMulQuad(ctx, a, b, got);
        for (size_t l = 0; l < 4; ++l) {
          MontgomeryCtx::Limbs expected;
          ctx.MontMul(a[l], b[l], &expected);
          EXPECT_EQ(got[l], expected)
              << "m=" << m.ToDecimalString() << " lane=" << l
              << " a=op" << (l + r) % 4 << " b=op" << (l + q) % 4;
        }
      }
    }
  }
}

TEST(FixedBaseTableTest, MatchesModExpAcrossExponentRange) {
  Rng rng(77);
  BigInt m = BigInt::GeneratePrime(192, &rng);
  MontgomeryCtx ctx(m);
  BigInt g = BigInt::RandomBelow(m, &rng);
  FixedBaseTable table(&ctx, g, /*max_exp_bits=*/128);

  // Edge exponents: 0, 1, single-digit, digit boundaries, max width.
  std::vector<BigInt> exps = {
      BigInt::Zero(), BigInt::One(), BigInt(15), BigInt(16), BigInt(255),
      BigInt(256), BigInt(0xFFFFFFFFull),
      BigInt::Sub(BigInt::ShiftLeft(BigInt::One(), 128), BigInt::One())};
  for (int i = 0; i < 100; ++i) {
    exps.push_back(BigInt::RandomBits(1 + rng.Uniform(128), &rng));
  }
  for (const BigInt& e : exps) {
    EXPECT_EQ(table.Pow(e), ctx.ModExp(g, e)) << "e=" << e.ToDecimalString();
  }
}

TEST(FixedBaseTableTest, LaneSplitMatchesScalarLadder) {
  // With AVX2 active, PowMont sends window w to lane w mod 4 and pads past
  // the top window with 1. Every window count 0..33 (most not a multiple
  // of 4), exponents with one nonzero window, a whole lane of zero windows
  // or all-15 digits, at moduli with odd and even 32-bit limb counts up to
  // n^2's size: both dispatch paths give ModExp's Montgomery form.
  constexpr size_t kWindows = 33;
  auto from_digits = [](const std::vector<uint32_t>& digits) {
    BigInt e;
    for (size_t w = digits.size(); w-- > 0;) {
      e = BigInt::Add(BigInt::ShiftLeft(e, 4), BigInt(digits[w]));
    }
    return e;
  };
  Rng rng(5150);
  for (size_t bits : {96u, 521u, 1024u, 2048u}) {
    MontgomeryCtx ctx(RandomOddModulus(bits, &rng));
    const BigInt g = BigInt::RandomBelow(ctx.modulus(), &rng);
    FixedBaseTable table(&ctx, g, 4 * kWindows);
    std::vector<BigInt> exps;
    for (size_t e_bits = 0; e_bits <= 4 * kWindows; e_bits += 3) {
      exps.push_back(BigInt::RandomBits(e_bits, &rng));
    }
    for (size_t w = 0; w < kWindows; ++w) {
      exps.push_back(
          BigInt::ShiftLeft(BigInt(1 + rng.Uniform(15)), 4 * w));
    }
    for (size_t lane = 0; lane < 4; ++lane) {
      std::vector<uint32_t> digits(kWindows);
      for (size_t w = 0; w < kWindows; ++w) {
        digits[w] = w % 4 == lane ? 0 : 1 + rng.Uniform(15);
      }
      exps.push_back(from_digits(digits));
    }
    exps.push_back(from_digits(std::vector<uint32_t>(kWindows, 15)));
    for (const BigInt& e : exps) {
      const MontgomeryCtx::Limbs expected = ctx.ToMont(ctx.ModExp(g, e));
      ForEachKernel([&](const char* kernel) {
        EXPECT_EQ(table.PowMont(e), expected)
            << "kernel=" << kernel << " bits=" << bits
            << " e=" << e.ToDecimalString();
      });
    }
  }
}

TEST(FixedBaseTableTest, PowMontComposesWithMontMul) {
  Rng rng(78);
  BigInt m = BigInt::GeneratePrime(128, &rng);
  MontgomeryCtx ctx(m);
  BigInt g = BigInt::RandomBelow(m, &rng);
  FixedBaseTable table(&ctx, g, 64);

  // g^a * g^b computed in the Montgomery domain equals g^(a+b).
  BigInt a(123456789), b(987654321);
  MontgomeryCtx::Limbs prod = table.PowMont(a);
  MontgomeryCtx::Limbs gb = table.PowMont(b);
  ctx.MontMul(prod, gb, &prod);
  EXPECT_EQ(ctx.FromMont(prod), ctx.ModExp(g, BigInt::Add(a, b)));
}

}  // namespace
}  // namespace pds::crypto
