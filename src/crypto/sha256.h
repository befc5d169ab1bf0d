#ifndef PDS_CRYPTO_SHA256_H_
#define PDS_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace pds::crypto {

/// Incremental SHA-256 (FIPS 180-4), implemented from scratch.
///
/// Usage:
///   Sha256 h;
///   h.Update(a); h.Update(b);
///   std::array<uint8_t, 32> digest = h.Finish();
///
/// Dispatch: the compression function has a SHA-NI path (sha256rnds2 /
/// sha256msg1 / sha256msg2) compiled behind a function-level target
/// attribute and selected at runtime from CPU detection, like
/// simd::MontMul4's AVX2 path; simd::SetForceScalar forces the portable
/// path, which is the fallback and the test reference. Both produce the
/// same digest on every input.
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;
  using Digest = std::array<uint8_t, kDigestSize>;
  /// Chaining state: the eight working words between blocks.
  using State = std::array<uint32_t, 8>;

  Sha256();
  /// Resumes a hash whose first block was hashed by Midstate(): the result
  /// equals Update(that block) on a fresh object.
  explicit Sha256(const State& midstate);

  /// Chaining state after hashing exactly one 64-byte block. An HMAC key
  /// caches this for its ipad and opad blocks.
  static State Midstate(const uint8_t block[kBlockSize]);

  void Update(ByteView data);
  /// Finalizes and returns the digest; the object must not be reused after.
  Digest Finish();

  /// One-shot convenience.
  static Digest Hash(ByteView data);

 private:
  State state_;
  uint64_t total_len_ = 0;
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_ = 0;
};

}  // namespace pds::crypto

#endif  // PDS_CRYPTO_SHA256_H_
