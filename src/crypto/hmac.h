#ifndef PDS_CRYPTO_HMAC_H_
#define PDS_CRYPTO_HMAC_H_

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace pds::crypto {

/// HMAC-SHA256 key (RFC 2104) with its ipad and opad blocks hashed once:
/// the two chaining states are cached, and Mac() resumes from them, so a
/// message of up to 55 bytes costs two compressions instead of four. The
/// destructor wipes both states.
class HmacKey {
 public:
  explicit HmacKey(ByteView key);
  ~HmacKey();

  Sha256::Digest Mac(ByteView message) const;

  /// Overwrites both chaining states with zeros (token zeroization).
  void Wipe();

 private:
  Sha256::State inner_;  // pdslint: secret
  Sha256::State outer_;  // pdslint: secret
};

/// HMAC-SHA256 (RFC 2104). Used for message authentication in the global
/// protocols (integrity against a weakly-malicious SSI) and for key
/// derivation inside tokens.
Sha256::Digest HmacSha256(ByteView key, ByteView message);

/// HKDF-style key derivation: derive a 32-byte subkey from `master` bound to
/// a textual `label` (e.g., "table-heap-encryption").
Sha256::Digest DeriveKey(ByteView master, ByteView label);

/// Constant-time digest comparison.
bool DigestEqual(const Sha256::Digest& a, const Sha256::Digest& b);

}  // namespace pds::crypto

#endif  // PDS_CRYPTO_HMAC_H_
