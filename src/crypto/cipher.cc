#include "crypto/cipher.h"

#include <algorithm>
#include <cstring>

#include "crypto/hmac.h"

namespace pds::crypto {

namespace {

Aes128::Key AesKeyFrom(const SymmetricKey& key, std::string_view label) {
  Sha256::Digest derived = DeriveKey(ByteView(key.data(), key.size()),
                                     ByteView(label));
  Aes128::Key out;
  std::memcpy(out.data(), derived.data(), out.size());
  return out;
}

HmacKey MacKeyFrom(const SymmetricKey& key, std::string_view label) {
  const Sha256::Digest derived =
      DeriveKey(ByteView(key.data(), key.size()), ByteView(label));
  return HmacKey(ByteView(derived.data(), derived.size()));
}

/// Writes `iv` and then `plaintext` AES-CTR-encrypted under it into `out`,
/// which holds iv.size() + plaintext.size() bytes.
void WriteIvAndBody(const Aes128& aes, const Aes128::Block& iv,
                    ByteView plaintext, uint8_t* out) {
  std::copy(iv.begin(), iv.end(), out);
  std::copy_n(plaintext.data(), plaintext.size(), out + iv.size());
  AesCtrXor(aes, iv, out + iv.size(), plaintext.size());
}

}  // namespace

SymmetricKey KeyFromString(std::string_view passphrase) {
  return Sha256::Hash(ByteView(passphrase));
}

DetCipher::DetCipher(const SymmetricKey& key)
    : mac_key_(MacKeyFrom(key, "det-mac")), aes_(AesKeyFrom(key, "det-enc")) {}

Bytes DetCipher::Encrypt(ByteView plaintext) const {
  const Sha256::Digest mac = mac_key_.Mac(plaintext);
  Aes128::Block iv;
  std::memcpy(iv.data(), mac.data(), iv.size());

  Bytes out(kOverhead + plaintext.size());
  WriteIvAndBody(aes_, iv, plaintext, out.data());
  return out;
}

Result<Bytes> DetCipher::Decrypt(ByteView ciphertext) const {
  if (ciphertext.size() < kOverhead) {
    return Status::IntegrityViolation("ciphertext too short");
  }
  Aes128::Block iv;
  std::memcpy(iv.data(), ciphertext.data(), iv.size());
  Bytes plaintext(ciphertext.data() + kOverhead,
                  ciphertext.data() + ciphertext.size());
  AesCtrXor(aes_, iv, plaintext.data(), plaintext.size());

  // Recompute the SIV and compare with the IV that was used.
  const Sha256::Digest mac = mac_key_.Mac(ByteView(plaintext));
  uint8_t diff = 0;
  for (size_t i = 0; i < iv.size(); ++i) {
    diff |= static_cast<uint8_t>(iv[i] ^ mac[i]);
  }
  if (diff != 0) {
    return Status::IntegrityViolation("deterministic cipher tag mismatch");
  }
  return plaintext;
}

NonDetCipher::NonDetCipher(const SymmetricKey& key)
    : mac_key_(MacKeyFrom(key, "nondet-mac")),
      aes_(AesKeyFrom(key, "nondet-enc")) {}

Bytes NonDetCipher::Encrypt(ByteView plaintext, Rng* rng) const {
  Aes128::Block nonce;
  rng->FillBytes(nonce.data(), nonce.size());
  // nonce (16) | body | tag (16), sized once.
  Bytes out(kOverhead + plaintext.size());
  WriteIvAndBody(aes_, nonce, plaintext, out.data());

  const size_t authed = nonce.size() + plaintext.size();
  const Sha256::Digest tag = mac_key_.Mac(ByteView(out.data(), authed));
  std::memcpy(out.data() + authed, tag.data(), kOverhead - nonce.size());
  return out;
}

Result<Bytes> NonDetCipher::Decrypt(ByteView ciphertext) const {
  if (ciphertext.size() < kOverhead) {
    return Status::IntegrityViolation("ciphertext too short");
  }
  size_t body_len = ciphertext.size() - kOverhead;
  ByteView authed = ciphertext.subview(0, 16 + body_len);
  const Sha256::Digest tag = mac_key_.Mac(authed);
  uint8_t diff = 0;
  const uint8_t* stored_tag = ciphertext.data() + 16 + body_len;
  for (size_t i = 0; i < 16; ++i) {
    diff |= static_cast<uint8_t>(stored_tag[i] ^ tag[i]);
  }
  if (diff != 0) {
    return Status::IntegrityViolation("nondeterministic cipher tag mismatch");
  }

  Aes128::Block nonce;
  std::memcpy(nonce.data(), ciphertext.data(), nonce.size());
  Bytes plaintext(ciphertext.data() + 16, ciphertext.data() + 16 + body_len);
  AesCtrXor(aes_, nonce, plaintext.data(), plaintext.size());
  return plaintext;
}

}  // namespace pds::crypto
