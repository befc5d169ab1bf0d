// Planted leak: the byte-wise AES-128 the portable path used before its
// S-box reads became a masked scan. Both the block function's SubBytes and
// the key schedule's SubWord load kSbox at an address chosen by secret
// state — a cache-timing side channel. ctest asserts every such load is
// flagged.

#include <cstdint>
#include <cstring>

extern const uint8_t kSbox[256];
extern const uint8_t kRcon[10];

// pdslint: secret(key, round_keys)
void ExpandKey(const uint8_t key[16], uint8_t round_keys[176]) {
  std::memcpy(round_keys, key, 16);
  for (int i = 4; i < 44; ++i) {
    uint8_t temp[4];
    std::memcpy(temp, round_keys + 4 * (i - 1), 4);
    if (i % 4 == 0) {
      uint8_t t = temp[0];
      temp[0] = kSbox[temp[1]] ^ kRcon[i / 4 - 1];  // FLAG
      temp[1] = kSbox[temp[2]];  // FLAG
      temp[2] = kSbox[temp[3]];  // FLAG
      temp[3] = kSbox[t];        // FLAG
    }
    for (int b = 0; b < 4; ++b) {
      round_keys[4 * i + b] =
          static_cast<uint8_t>(round_keys[4 * (i - 4) + b] ^ temp[b]);
    }
  }
}

// pdslint: secret(s)
void SubBytes(uint8_t s[16]) {
  for (int i = 0; i < 16; ++i) {
    s[i] = kSbox[s[i]];  // FLAG
  }
}
