#include "crypto/aes.h"

#include <cstring>

#include "crypto/montgomery_simd.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define PDS_AES_HAVE_AESNI_BUILD 1
#include <immintrin.h>
#else
#define PDS_AES_HAVE_AESNI_BUILD 0
#endif

namespace pds::crypto {

namespace {

constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                               0x20, 0x40, 0x80, 0x1b, 0x36};

uint8_t XTime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

/// Constant-time SubBytes on the first `n` (<= 16) bytes: every S-box entry
/// is read for every byte and kept only where it matches, so no load address
/// depends on the bytes.
// pdslint: secret(bytes)
void SubBytesMasked(uint8_t* bytes, size_t n) {
  uint8_t out[Aes128::kBlockSize] = {};
  for (uint32_t v = 0; v < 256; ++v) {
    const uint8_t entry = kSbox[v];
    for (size_t j = 0; j < n; ++j) {
      // (x - 1) >> 8 has its low byte set exactly when x == 0.
      const uint32_t x = bytes[j] ^ v;
      out[j] |= static_cast<uint8_t>(entry & ((x - 1) >> 8));
    }
  }
  std::memcpy(bytes, out, n);
}

/// FIPS-197 key expansion into 11 round keys of 16 bytes.
// pdslint: secret(key, rk)
void ExpandKeyPortable(const uint8_t* key, uint8_t* rk) {
  std::memcpy(rk, key, Aes128::kKeySize);
  for (int i = 4; i < 44; ++i) {
    uint8_t temp[4];
    std::memcpy(temp, rk + 4 * (i - 1), 4);
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon.
      const uint8_t first = temp[0];
      temp[0] = temp[1];
      temp[1] = temp[2];
      temp[2] = temp[3];
      temp[3] = first;
      SubBytesMasked(temp, 4);
      temp[0] ^= kRcon[i / 4 - 1];
    }
    for (int b = 0; b < 4; ++b) {
      rk[4 * i + b] = static_cast<uint8_t>(rk[4 * (i - 4) + b] ^ temp[b]);
    }
  }
}

// pdslint: secret(rk, s)
void EncryptBlockPortable(const uint8_t* rk, uint8_t* s) {
  auto add_round_key = [&](int round) {
    const uint8_t* round_key = rk + 16 * round;
    for (int i = 0; i < 16; ++i) {
      s[i] ^= round_key[i];
    }
  };
  auto shift_rows = [&]() {
    uint8_t t;
    // Row 1: rotate left by 1.
    t = s[1]; s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
    // Row 2: rotate left by 2.
    std::swap(s[2], s[10]);
    std::swap(s[6], s[14]);
    // Row 3: rotate left by 3.
    t = s[15]; s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
  };
  auto mix_columns = [&]() {
    for (int c = 0; c < 4; ++c) {
      uint8_t* col = s + 4 * c;
      uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      uint8_t all = static_cast<uint8_t>(a0 ^ a1 ^ a2 ^ a3);
      col[0] = static_cast<uint8_t>(a0 ^ all ^ XTime(static_cast<uint8_t>(a0 ^ a1)));
      col[1] = static_cast<uint8_t>(a1 ^ all ^ XTime(static_cast<uint8_t>(a1 ^ a2)));
      col[2] = static_cast<uint8_t>(a2 ^ all ^ XTime(static_cast<uint8_t>(a2 ^ a3)));
      col[3] = static_cast<uint8_t>(a3 ^ all ^ XTime(static_cast<uint8_t>(a3 ^ a0)));
    }
  };

  add_round_key(0);
  for (int round = 1; round <= 9; ++round) {
    SubBytesMasked(s, Aes128::kBlockSize);
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  SubBytesMasked(s, Aes128::kBlockSize);
  shift_rows();
  add_round_key(10);
}

#if PDS_AES_HAVE_AESNI_BUILD

/// One key-expansion step: prefix-XOR the previous round key's words, then
/// XOR in aeskeygenassist's RotWord(SubWord(w3)) ^ Rcon.
template <int kRoundConstant>
__attribute__((target("aes"))) __m128i ExpandStep(__m128i prev) {
  const __m128i assist = _mm_shuffle_epi32(
      _mm_aeskeygenassist_si128(prev, kRoundConstant), 0xFF);
  prev = _mm_xor_si128(prev, _mm_slli_si128(prev, 4));
  prev = _mm_xor_si128(prev, _mm_slli_si128(prev, 4));
  prev = _mm_xor_si128(prev, _mm_slli_si128(prev, 4));
  return _mm_xor_si128(prev, assist);
}

// pdslint: secret(key, rk)
__attribute__((target("aes"))) void ExpandKeyAesNi(const uint8_t* key,
                                                   uint8_t* rk) {
  __m128i* out = reinterpret_cast<__m128i*>(rk);
  __m128i round = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key));
  _mm_storeu_si128(out, round);
  round = ExpandStep<0x01>(round);
  _mm_storeu_si128(out + 1, round);
  round = ExpandStep<0x02>(round);
  _mm_storeu_si128(out + 2, round);
  round = ExpandStep<0x04>(round);
  _mm_storeu_si128(out + 3, round);
  round = ExpandStep<0x08>(round);
  _mm_storeu_si128(out + 4, round);
  round = ExpandStep<0x10>(round);
  _mm_storeu_si128(out + 5, round);
  round = ExpandStep<0x20>(round);
  _mm_storeu_si128(out + 6, round);
  round = ExpandStep<0x40>(round);
  _mm_storeu_si128(out + 7, round);
  round = ExpandStep<0x80>(round);
  _mm_storeu_si128(out + 8, round);
  round = ExpandStep<0x1b>(round);
  _mm_storeu_si128(out + 9, round);
  round = ExpandStep<0x36>(round);
  _mm_storeu_si128(out + 10, round);
}

// pdslint: secret(rk, block)
__attribute__((target("aes"))) void EncryptBlockAesNi(const uint8_t* rk,
                                                      uint8_t* block) {
  const __m128i* keys = reinterpret_cast<const __m128i*>(rk);
  __m128i state = _mm_xor_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block)),
      _mm_loadu_si128(keys));
  for (int round = 1; round < 10; ++round) {
    state = _mm_aesenc_si128(state, _mm_loadu_si128(keys + round));
  }
  state = _mm_aesenclast_si128(state, _mm_loadu_si128(keys + 10));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(block), state);
}

/// True when the CPU has AES-NI and the test hook does not force the
/// portable path.
bool UseAesNi() {
  static const bool supported = __builtin_cpu_supports("aes");
  return supported && !simd::force_scalar();
}

#endif  // PDS_AES_HAVE_AESNI_BUILD

}  // namespace

Aes128::Aes128(const Key& key) {
#if PDS_AES_HAVE_AESNI_BUILD
  if (UseAesNi()) {
    ExpandKeyAesNi(key.data(), round_keys_);
    return;
  }
#endif
  ExpandKeyPortable(key.data(), round_keys_);
}

Aes128::~Aes128() { explicit_bzero(round_keys_, sizeof(round_keys_)); }

void Aes128::EncryptBlock(uint8_t block[kBlockSize]) const {
#if PDS_AES_HAVE_AESNI_BUILD
  if (UseAesNi()) {
    EncryptBlockAesNi(round_keys_, block);
    return;
  }
#endif
  EncryptBlockPortable(round_keys_, block);
}

void AesCtrXor(const Aes128& aes, const Aes128::Block& nonce, uint8_t* data,
               size_t len) {
  Aes128::Block counter = nonce;
  size_t pos = 0;
  while (pos < len) {
    Aes128::Block keystream = aes.EncryptBlock(counter);
    size_t take = std::min<size_t>(Aes128::kBlockSize, len - pos);
    for (size_t i = 0; i < take; ++i) {
      data[pos + i] ^= keystream[i];
    }
    pos += take;
    // Increment last 4 bytes big-endian.
    for (int i = 15; i >= 12; --i) {
      if (++counter[i] != 0) {
        break;
      }
    }
  }
}

}  // namespace pds::crypto
