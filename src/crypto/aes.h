#ifndef PDS_CRYPTO_AES_H_
#define PDS_CRYPTO_AES_H_

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace pds::crypto {

/// AES-128 block cipher (FIPS 197), encryption direction only — every mode
/// used in the library (CTR, SIV-style deterministic encryption, CMAC-free
/// HMAC tags) needs only the forward permutation.
///
/// Dispatch: an AES-NI path (aeskeygenassist key schedule, aesenc /
/// aesenclast blocks) is compiled behind a function-level target attribute
/// and selected at runtime from CPU detection, like simd::MontMul4's AVX2
/// path; simd::SetForceScalar forces the portable path. The portable path
/// reads the S-box by a masked scan of all 256 entries, so no load address
/// depends on the key or the state. Both paths store the same FIPS-197 round
/// keys and produce the same ciphertext. The destructor wipes the round keys.
class Aes128 {
 public:
  static constexpr size_t kBlockSize = 16;
  static constexpr size_t kKeySize = 16;
  using Block = std::array<uint8_t, kBlockSize>;
  using Key = std::array<uint8_t, kKeySize>;

  explicit Aes128(const Key& key);
  ~Aes128();

  /// Encrypts one 16-byte block in place.
  void EncryptBlock(uint8_t block[kBlockSize]) const;

  Block EncryptBlock(const Block& in) const {
    Block out = in;
    EncryptBlock(out.data());
    return out;
  }

 private:
  // 11 round keys of 16 bytes, in FIPS-197 byte order on both paths.
  uint8_t round_keys_[176];  // pdslint: secret
};

/// AES-128-CTR keystream applied to `data` in place. Encryption and
/// decryption are the same operation. `nonce` is the 16-byte initial counter
/// block; successive blocks increment its last 4 bytes big-endian.
void AesCtrXor(const Aes128& aes, const Aes128::Block& nonce, uint8_t* data,
               size_t len);

}  // namespace pds::crypto

#endif  // PDS_CRYPTO_AES_H_
