#include "crypto/montgomery_simd.h"

#include <atomic>
#include <cstdlib>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__)
#define PDS_SIMD_HAVE_AVX2_BUILD 1
#include <immintrin.h>
#else
#define PDS_SIMD_HAVE_AVX2_BUILD 0
#endif

namespace pds::crypto::simd {

namespace {

std::atomic<bool> g_force_scalar{false};

#if PDS_SIMD_HAVE_AVX2_BUILD

/// Scratch for the (k+1)-limb accumulator, reused across calls on the same
/// thread so the hot loop never allocates after warm-up.
std::vector<uint64_t>& Scratch() {
  thread_local std::vector<uint64_t> buf;
  return buf;
}

/// Per-lane final step: the accumulator `t` (lane-interleaved, k+1 limbs)
/// is < 2m; subtract m once iff t >= m. Branchless like the scalar
/// MontgomeryCtx kernel — compute t - m unconditionally, then mask-select
/// t or t - m — so no lane's control flow or early exit depends on the
/// secret-derived accumulator, and every lane is canonical.
// pdslint: secret(t)
void ConditionalSubtract(size_t k, const uint32_t* m_limbs,
                         const uint64_t* t, uint64_t* out) {
  for (size_t lane = 0; lane < 4; ++lane) {
    uint64_t borrow = 0;
    for (size_t i = 0; i < k; ++i) {
      uint64_t diff = t[4 * i + lane] - m_limbs[i] - borrow;
      out[4 * i + lane] = diff & 0xFFFFFFFFu;
      borrow = (diff >> 63) & 1;
    }
    // t >= m iff the carry limb (which may hold >32 live bits) is nonzero
    // or the subtraction did not borrow.
    const uint64_t tk = t[4 * k + lane];
    const uint64_t ge = ((tk | (0 - tk)) >> 63) | (borrow ^ 1);
    const uint64_t mask = 0 - ge;  // all-ones when t >= m
    for (size_t i = 0; i < k; ++i) {
      out[4 * i + lane] =
          (out[4 * i + lane] & mask) | (t[4 * i + lane] & ~mask);
    }
  }
}

__attribute__((target("avx2"))) inline __m256i Load4(const uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

__attribute__((target("avx2"))) inline void Store4(uint64_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// `v` in every lane. vpmuludq reads the low 32 bits of each 64-bit lane,
/// so a 32-bit broadcast serves as a 64-bit one.
__attribute__((target("avx2"))) inline __m256i Broadcast(uint32_t v) {
  return _mm256_set1_epi32(static_cast<int>(v));
}

/// AVX2 4-lane Montgomery multiply, one vpmuludq per lane product. Each
/// round (one 32-bit limb b[i]) walks the accumulator once: step j adds
/// a[j]*b[i] into limb j, then mw*m[j], each sum with its own carry, and
/// stores the result one limb down (the round's division by 2^32). Every
/// sum stays below 2^64: a 32-bit limb plus a 32x32-bit product plus a
/// 32-bit carry is at most 2^64 - 1. Given a < m, t < 2m after each round.
// pdslint: secret(a, b)
__attribute__((target("avx2"))) void MontMul4Avx2(
    size_t k, const uint32_t* m_limbs, uint32_t n0_inv, const uint64_t* a,
    const uint64_t* b, uint64_t* out) {
  std::vector<uint64_t>& tbuf = Scratch();
  tbuf.assign(4 * (k + 1), 0);
  uint64_t* t = tbuf.data();
  const __m256i mask = _mm256_set1_epi64x(0xFFFFFFFFll);
  const __m256i vninv = Broadcast(n0_inv);
  for (size_t i = 0; i < k; ++i) {
    const __m256i bi = Load4(b + 4 * i);
    // Step 0 picks mw so that limb 0 of t + a*b[i] + mw*m is zero.
    __m256i cur = _mm256_add_epi64(Load4(t), _mm256_mul_epu32(Load4(a), bi));
    const __m256i mw = _mm256_and_si256(_mm256_mul_epu32(cur, vninv), mask);
    __m256i red =
        _mm256_add_epi64(_mm256_and_si256(cur, mask),
                         _mm256_mul_epu32(mw, Broadcast(m_limbs[0])));
    __m256i carry = _mm256_srli_epi64(cur, 32);
    __m256i red_carry = _mm256_srli_epi64(red, 32);
    for (size_t j = 1; j < k; ++j) {
      cur = _mm256_add_epi64(
          _mm256_add_epi64(Load4(t + 4 * j),
                           _mm256_mul_epu32(Load4(a + 4 * j), bi)),
          carry);
      red = _mm256_add_epi64(
          _mm256_add_epi64(_mm256_and_si256(cur, mask),
                           _mm256_mul_epu32(mw, Broadcast(m_limbs[j]))),
          red_carry);
      Store4(t + 4 * (j - 1), _mm256_and_si256(red, mask));
      carry = _mm256_srli_epi64(cur, 32);
      red_carry = _mm256_srli_epi64(red, 32);
    }
    cur = _mm256_add_epi64(Load4(t + 4 * k), carry);
    red = _mm256_add_epi64(_mm256_and_si256(cur, mask), red_carry);
    Store4(t + 4 * (k - 1), _mm256_and_si256(red, mask));
    Store4(t + 4 * k, _mm256_add_epi64(_mm256_srli_epi64(cur, 32),
                                       _mm256_srli_epi64(red, 32)));
  }
  ConditionalSubtract(k, m_limbs, t, out);
}

bool DetectAvx2() { return __builtin_cpu_supports("avx2") != 0; }

#else

bool DetectAvx2() { return false; }

#endif  // PDS_SIMD_HAVE_AVX2_BUILD

}  // namespace

bool Avx2Supported() {
  static const bool supported = DetectAvx2();
  return supported;
}

void SetForceScalar(bool force) {
  g_force_scalar.store(force, std::memory_order_relaxed);
}

bool force_scalar() {
  return g_force_scalar.load(std::memory_order_relaxed);
}

bool Active() { return Avx2Supported() && !force_scalar(); }

const char* KernelName() { return Active() ? "avx2" : "scalar"; }

// pdslint: secret(a, b)
void MontMul4(size_t k, const uint32_t* m_limbs, uint32_t n0_inv,
              const uint64_t* a, const uint64_t* b, uint64_t* out) {
#if PDS_SIMD_HAVE_AVX2_BUILD
  if (Avx2Supported()) {
    MontMul4Avx2(k, m_limbs, n0_inv, a, b, out);
    return;
  }
#endif
  std::abort();  // programming error: callers gate on Active()
}

}  // namespace pds::crypto::simd
