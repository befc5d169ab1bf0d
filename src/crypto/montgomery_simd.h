#ifndef PDS_CRYPTO_MONTGOMERY_SIMD_H_
#define PDS_CRYPTO_MONTGOMERY_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace pds::crypto::simd {

/// Multi-lane Montgomery multiplication: four independent Montgomery
/// products over one shared modulus, run in lockstep on AVX2. This is the
/// kernel under FixedBaseTable::PowMont's lane split: one fixed-base
/// exponentiation sends window w to lane w mod 4, so every kernel call
/// advances four windows of the same Paillier encryption.
///
/// Lane-interleaved layout: a residue quartet is a `uint64_t[4 * k]` array
/// where element `[4*j + l]` holds 32-bit limb `j` of lane `l` as a value
/// < 2^32 widened to 64 bits. Limb `j` of all four lanes is contiguous,
/// which is exactly one AVX2 register load (4 x 64-bit slots, 32-bit
/// payloads — the shape `vpmuludq` multiplies natively).
///
/// Dispatch: the AVX2 kernel is compiled behind a function-level target
/// attribute and selected at runtime via CPU-feature detection: PowMont
/// takes the lane split only when Active(), and otherwise its scalar
/// ladder. Aes128 and Sha256 check their own CPU features and
/// force_scalar(), so SetForceScalar sends every caller to its portable
/// path. Both paths of each caller produce identical bytes — enforced by
/// bigint_kernel_test and symmetric_kernel_test.

/// True when this build carries the AVX2 kernel and the CPU reports AVX2.
bool Avx2Supported();

/// Test hook: send every dispatching caller to its portable path even when
/// the hardware path is available. Thread-safe (atomic); tests flip it
/// around a cross-check.
void SetForceScalar(bool force);
bool force_scalar();

/// True when dispatching callers take the hardware path: AVX2 is supported
/// and the portable path is not forced.
bool Active();

/// "avx2" or "scalar" — which path Active() selects.
const char* KernelName();

/// out = a*b*R^-1 mod m for each of the four lanes, R = 2^(32k), result
/// canonical (< m); each lane needs a < m. `m_limbs` is the k-limb
/// little-endian modulus (32-bit limbs), `n0_inv` is -m^-1 mod 2^32. `a`,
/// `b`, `out` are lane-interleaved 4*k-element arrays as described above;
/// `out` may alias `a` or `b`. Requires Avx2Supported() (checked: aborts
/// otherwise); it ignores SetForceScalar, which is for callers.
void MontMul4(size_t k, const uint32_t* m_limbs, uint32_t n0_inv,
              const uint64_t* a, const uint64_t* b, uint64_t* out);

}  // namespace pds::crypto::simd

#endif  // PDS_CRYPTO_MONTGOMERY_SIMD_H_
