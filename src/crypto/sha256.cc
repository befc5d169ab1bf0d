#include "crypto/sha256.h"

#include <cstring>

#include "crypto/montgomery_simd.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define PDS_SHA_HAVE_SHANI_BUILD 1
#include <immintrin.h>
#else
#define PDS_SHA_HAVE_SHANI_BUILD 0
#endif

namespace pds::crypto {

namespace {

alignas(16) constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr Sha256::State kInitState = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                      0xa54ff53a, 0x510e527f, 0x9b05688c,
                                      0x1f83d9ab, 0x5be0cd19};

uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

/// Portable compression of one 64-byte block into `st`.
// pdslint: secret(st, block)
void CompressBlockPortable(uint32_t st[8], const uint8_t* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[4 * i]) << 24) |
           (static_cast<uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = st[0], b = st[1], c = st[2], d = st[3];
  uint32_t e = st[4], f = st[5], g = st[6], h = st[7];

  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
    uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  st[0] += a;
  st[1] += b;
  st[2] += c;
  st[3] += d;
  st[4] += e;
  st[5] += f;
  st[6] += g;
  st[7] += h;
}

#if PDS_SHA_HAVE_SHANI_BUILD

/// SHA-NI compression: the state lives in two registers in the ABEF/CDGH
/// order sha256rnds2 expects, and each 4-round group adds its K words to
/// one message register. The loop is fully unrolled, so the 4-register
/// message window stays in registers.
// pdslint: secret(st, blocks)
__attribute__((target("sha,sse4.1"))) void CompressShaNi(
    uint32_t st[8], const uint8_t* blocks, size_t n) {
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(st));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(st + 4));
  const __m128i badc = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(badc, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, badc, 0xF0);

  for (size_t blk = 0; blk < n; ++blk) {
    const uint8_t* block = blocks + Sha256::kBlockSize * blk;
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i msg[4];
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      __m128i& cur = msg[i % 4];
      if (i < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)),
            bswap);
      }
      __m128i wk = _mm_add_epi32(
          cur, _mm_load_si128(reinterpret_cast<const __m128i*>(kK + 4 * i)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (i >= 3 && i <= 14) {
        // Finish W[4(i+1) .. 4(i+1)+3], whose sigma0 half msg1 started two
        // groups ago.
        __m128i& next = msg[(i + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, msg[(i + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (i >= 1 && i <= 12) {
        __m128i& prev = msg[(i + 3) % 4];
        prev = _mm_sha256msg1_epu32(prev, cur);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(st), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(st + 4), hgfe);
}

#endif  // PDS_SHA_HAVE_SHANI_BUILD

/// Compresses `n` consecutive blocks on the SHA-NI path when the CPU has
/// it and the test hook does not force the portable one.
void Compress(Sha256::State* st, const uint8_t* blocks, size_t n) {
#if PDS_SHA_HAVE_SHANI_BUILD
  static const bool supported =
      __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
  if (supported && !simd::force_scalar()) {
    CompressShaNi(st->data(), blocks, n);
    return;
  }
#endif
  for (size_t blk = 0; blk < n; ++blk) {
    CompressBlockPortable(st->data(), blocks + Sha256::kBlockSize * blk);
  }
}

}  // namespace

Sha256::Sha256() : state_(kInitState) {}

Sha256::Sha256(const State& midstate)
    : state_(midstate), total_len_(kBlockSize) {}

Sha256::State Sha256::Midstate(const uint8_t block[kBlockSize]) {
  State st = kInitState;
  Compress(&st, block, 1);
  return st;
}

void Sha256::Update(ByteView data) {
  total_len_ += data.size();
  size_t pos = 0;
  if (buffer_len_ > 0) {
    size_t take = std::min<size_t>(kBlockSize - buffer_len_, data.size());
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    pos = take;
    if (buffer_len_ == kBlockSize) {
      Compress(&state_, buffer_, 1);
      buffer_len_ = 0;
    }
  }
  const size_t whole = (data.size() - pos) / kBlockSize;
  if (whole > 0) {
    Compress(&state_, data.data() + pos, whole);
    pos += whole * kBlockSize;
  }
  if (pos < data.size()) {
    std::memcpy(buffer_, data.data() + pos, data.size() - pos);
    buffer_len_ = data.size() - pos;
  }
}

Sha256::Digest Sha256::Finish() {
  // One padding write: 0x80, zeros up to the length field (spilling into a
  // second block when fewer than 9 bytes are free), then the bit length.
  const uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kBlockSize - 8) {
    std::memset(buffer_ + buffer_len_, 0, kBlockSize - buffer_len_);
    Compress(&state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, kBlockSize - 8 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[kBlockSize - 8 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  Compress(&state_, buffer_, 1);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Sha256::Digest Sha256::Hash(ByteView data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

}  // namespace pds::crypto
