#ifndef PDS_CRYPTO_CIPHER_H_
#define PDS_CRYPTO_CIPHER_H_

#include "common/bytes.h"
#include "common/result.h"
#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace pds::crypto {

/// 32-byte symmetric key shared by the token fleet (in the PDS architecture
/// all tokens of one application domain hold a common secret, provisioned at
/// personalization time).
using SymmetricKey = Sha256::Digest;

SymmetricKey KeyFromString(std::string_view passphrase);

/// Deterministic authenticated encryption (SIV construction):
/// IV = HMAC(k1, plaintext)[0..16), ciphertext = AES-CTR(k2, IV, plaintext).
/// Equal plaintexts yield equal ciphertexts — this is what the [TNP14]
/// noise-based and histogram-based protocols require so that the SSI can
/// group/partition ciphertexts without decrypting.
class DetCipher {
 public:
  explicit DetCipher(const SymmetricKey& key);

  Bytes Encrypt(ByteView plaintext) const;
  /// Fails with IntegrityViolation when the SIV check does not match
  /// (tampered or truncated ciphertext).
  [[nodiscard]] Result<Bytes> Decrypt(ByteView ciphertext) const;

  /// Ciphertext overhead in bytes (the 16-byte SIV tag).
  static constexpr size_t kOverhead = 16;

 private:
  HmacKey mac_key_;
  Aes128 aes_;
};

/// Non-deterministic (randomized) authenticated encryption:
/// random 16-byte nonce + AES-CTR + HMAC tag over nonce||ciphertext.
/// Equal plaintexts yield different ciphertexts — used by the secure
/// aggregation protocol where the SSI must learn nothing at all.
class NonDetCipher {
 public:
  explicit NonDetCipher(const SymmetricKey& key);

  Bytes Encrypt(ByteView plaintext, Rng* rng) const;
  [[nodiscard]] Result<Bytes> Decrypt(ByteView ciphertext) const;

  /// Nonce (16) + truncated HMAC tag (16).
  static constexpr size_t kOverhead = 32;

 private:
  HmacKey mac_key_;
  Aes128 aes_;
};

}  // namespace pds::crypto

#endif  // PDS_CRYPTO_CIPHER_H_
