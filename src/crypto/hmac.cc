#include "crypto/hmac.h"

#include <cstring>

namespace pds::crypto {

namespace {

/// Midstate of the key block XORed with `pad` (0x36 inner, 0x5c outer).
// pdslint: secret(key_block)
Sha256::State PadMidstate(const uint8_t key_block[Sha256::kBlockSize],
                          uint8_t pad) {
  uint8_t padded[Sha256::kBlockSize];
  for (size_t i = 0; i < Sha256::kBlockSize; ++i) {
    padded[i] = static_cast<uint8_t>(key_block[i] ^ pad);
  }
  const Sha256::State midstate = Sha256::Midstate(padded);
  explicit_bzero(padded, sizeof(padded));
  return midstate;
}

}  // namespace

// The key's length is public and picks the RFC 2104 key-block rule; only its
// bytes are secret, and they reach the hash through PadMidstate.
HmacKey::HmacKey(ByteView raw) {
  uint8_t key_block[Sha256::kBlockSize] = {};
  if (raw.size() > Sha256::kBlockSize) {
    const Sha256::Digest digest = Sha256::Hash(raw);
    std::memcpy(key_block, digest.data(), digest.size());
  } else if (!raw.empty()) {
    std::memcpy(key_block, raw.data(), raw.size());
  }
  inner_ = PadMidstate(key_block, 0x36);
  outer_ = PadMidstate(key_block, 0x5c);
  explicit_bzero(key_block, sizeof(key_block));
}

HmacKey::~HmacKey() { Wipe(); }

void HmacKey::Wipe() {
  explicit_bzero(inner_.data(), sizeof(inner_));
  explicit_bzero(outer_.data(), sizeof(outer_));
}

Sha256::Digest HmacKey::Mac(ByteView message) const {
  Sha256 inner(inner_);
  inner.Update(message);
  const Sha256::Digest inner_digest = inner.Finish();
  Sha256 outer(outer_);
  outer.Update(ByteView(inner_digest.data(), inner_digest.size()));
  return outer.Finish();
}

Sha256::Digest HmacSha256(ByteView key, ByteView message) {
  return HmacKey(key).Mac(message);
}

Sha256::Digest DeriveKey(ByteView master, ByteView label) {
  return HmacSha256(master, label);
}

bool DigestEqual(const Sha256::Digest& a, const Sha256::Digest& b) {
  uint8_t diff = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    diff |= static_cast<uint8_t>(a[i] ^ b[i]);
  }
  return diff == 0;
}

}  // namespace pds::crypto
