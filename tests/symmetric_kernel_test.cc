// Cross-check harness for the token's symmetric primitives: every check
// runs on the dispatched path (AES-NI and SHA-NI where the CPU has them)
// and again with simd::SetForceScalar forcing the portable path, against a
// reference computed on the portable path. A hardware path that drifts by
// one bit from FIPS-197 / FIPS 180-4 fails here.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/cipher.h"
#include "crypto/hmac.h"
#include "crypto/montgomery_simd.h"
#include "crypto/sha256.h"

namespace pds::crypto {
namespace {

/// Runs `fn` on the dispatched path, then with the portable path forced.
template <typename Fn>
void ForEachKernel(Fn fn) {
  const bool was_forced = simd::force_scalar();
  simd::SetForceScalar(false);
  fn("dispatched");
  simd::SetForceScalar(true);
  fn("forced-portable");
  simd::SetForceScalar(was_forced);
}

/// `fn()` evaluated with the portable path forced: the reference.
template <typename Fn>
auto Portable(Fn fn) {
  const bool was_forced = simd::force_scalar();
  simd::SetForceScalar(true);
  auto out = fn();
  simd::SetForceScalar(was_forced);
  return out;
}

Bytes RandomBytes(Rng* rng, size_t n) {
  Bytes out(n);
  rng->FillBytes(out.data(), n);
  return out;
}

std::string Hex(const Sha256::Digest& d) {
  return ToHex(ByteView(d.data(), d.size()));
}

/// HMAC-SHA256 straight from RFC 2104, with no cached midstates.
Sha256::Digest TextbookHmac(ByteView key, ByteView message) {
  Bytes block(Sha256::kBlockSize, 0);
  if (key.size() > Sha256::kBlockSize) {
    const Sha256::Digest hashed = Sha256::Hash(key);
    std::copy(hashed.begin(), hashed.end(), block.begin());
  } else {
    std::copy_n(key.data(), key.size(), block.begin());
  }
  Bytes ipad(block), opad(block);
  for (size_t i = 0; i < block.size(); ++i) {
    ipad[i] ^= 0x36;
    opad[i] ^= 0x5c;
  }
  Sha256 inner;
  inner.Update(ByteView(ipad));
  inner.Update(message);
  const Sha256::Digest inner_digest = inner.Finish();
  Sha256 outer;
  outer.Update(ByteView(opad));
  outer.Update(ByteView(inner_digest.data(), inner_digest.size()));
  return outer.Finish();
}

Aes128::Key KeyOf(const Bytes& bytes) {
  Aes128::Key key;
  std::copy(bytes.begin(), bytes.end(), key.begin());
  return key;
}

TEST(SymmetricKernelTest, AesBlocksAndKeySchedulesOnRandomKeys) {
  // Each key is scheduled on both paths and each schedule encrypts on both
  // paths: the round keys and the block functions must agree.
  Rng rng(197);
  for (int trial = 0; trial < 32; ++trial) {
    const Aes128::Key key = KeyOf(RandomBytes(&rng, Aes128::kKeySize));
    std::vector<Aes128::Block> blocks(8);
    for (auto& b : blocks) rng.FillBytes(b.data(), b.size());
    const Aes128 reference = Portable([&] { return Aes128(key); });
    const auto expected = Portable([&] {
      std::vector<Aes128::Block> out;
      for (const auto& b : blocks) out.push_back(reference.EncryptBlock(b));
      return out;
    });
    ForEachKernel([&](const char* schedule_kernel) {
      const Aes128 aes(key);
      ForEachKernel([&](const char* block_kernel) {
        for (size_t i = 0; i < blocks.size(); ++i) {
          EXPECT_EQ(aes.EncryptBlock(blocks[i]), expected[i])
              << "schedule=" << schedule_kernel << " block=" << block_kernel
              << " trial=" << trial << " block " << i;
        }
      });
    });
  }
}

TEST(SymmetricKernelTest, AesCtrAcrossLengthsAndCounterWrap) {
  Rng rng(4);
  const Aes128::Key key = KeyOf(RandomBytes(&rng, Aes128::kKeySize));
  Aes128::Block nonce;
  rng.FillBytes(nonce.data(), nonce.size());
  std::fill(nonce.begin() + 12, nonce.end(), 0xff);  // wraps after block 0
  const Bytes plain = RandomBytes(&rng, 100);
  for (size_t len = 0; len <= plain.size(); ++len) {
    const Bytes expected = Portable([&] {
      Bytes out(plain.begin(), plain.begin() + len);
      AesCtrXor(Aes128(key), nonce, out.data(), out.size());
      return out;
    });
    ForEachKernel([&](const char* kernel) {
      Bytes out(plain.begin(), plain.begin() + len);
      AesCtrXor(Aes128(key), nonce, out.data(), out.size());
      EXPECT_EQ(out, expected) << "kernel=" << kernel << " len=" << len;
    });
  }
}

TEST(SymmetricKernelTest, Sha256EveryLengthWithRandomChunkings) {
  Rng rng(180);
  const Bytes message = RandomBytes(&rng, 300);
  for (size_t len = 0; len <= message.size(); ++len) {
    const ByteView prefix(message.data(), len);
    const Sha256::Digest expected =
        Portable([&] { return Sha256::Hash(prefix); });
    ForEachKernel([&](const char* kernel) {
      EXPECT_EQ(Sha256::Hash(prefix), expected)
          << "kernel=" << kernel << " len=" << len;
      for (int chunking = 0; chunking < 3; ++chunking) {
        Sha256 h;
        size_t pos = 0;
        while (pos < len) {
          const size_t take = std::min<size_t>(len - pos, rng.Uniform(150));
          h.Update(prefix.subview(pos, take));
          pos += take;
        }
        EXPECT_EQ(h.Finish(), expected)
            << "kernel=" << kernel << " len=" << len << " chunking "
            << chunking;
      }
    });
  }
}

TEST(SymmetricKernelTest, HmacMidstatesMatchTextbookHmac) {
  Rng rng(2104);
  for (size_t key_len : {0, 1, 32, 64, 65, 200}) {
    const Bytes key = RandomBytes(&rng, key_len);
    for (size_t msg_len : {0, 1, 40, 55, 56, 64, 119, 200}) {
      const Bytes message = RandomBytes(&rng, msg_len);
      const Sha256::Digest expected = Portable(
          [&] { return TextbookHmac(ByteView(key), ByteView(message)); });
      ForEachKernel([&](const char* kernel) {
        const HmacKey cached{ByteView(key)};
        EXPECT_EQ(cached.Mac(ByteView(message)), expected)
            << "kernel=" << kernel << " key_len=" << key_len
            << " msg_len=" << msg_len;
        // A cached key reused across messages keeps answering the same.
        EXPECT_EQ(cached.Mac(ByteView(message)), expected);
        EXPECT_EQ(HmacSha256(ByteView(key), ByteView(message)), expected);
      });
    }
  }
}

TEST(SymmetricKernelTest, CipherCiphertextsFromFixedSeed) {
  // The same keys, plaintexts and nonce stream on both paths: byte-identical
  // ciphertexts, and each path decrypts the other's. The digest over every
  // ciphertext pins the output of the byte-wise implementation these paths
  // replaced.
  const SymmetricKey key = KeyFromString("symmetric-kernel-fleet");
  auto encrypt_all = [&] {
    const DetCipher det(key);
    const NonDetCipher nondet(key);
    Rng nonces(2026);
    std::vector<Bytes> out;
    for (size_t len = 0; len <= 80; ++len) {
      Bytes plain(len);
      for (size_t i = 0; i < len; ++i) {
        plain[i] = static_cast<uint8_t>(7 * i + len);
      }
      out.push_back(det.Encrypt(ByteView(plain)));
      out.push_back(nondet.Encrypt(ByteView(plain), &nonces));
    }
    return out;
  };
  const std::vector<Bytes> expected = Portable(encrypt_all);
  Sha256 all;
  for (const Bytes& ct : expected) all.Update(ByteView(ct));
  EXPECT_EQ(Hex(all.Finish()),
            "8aceb50c40d33d9aeb5d3acaaaa30c7eda74f2b8356c16794e72706913a043d9");
  ForEachKernel([&](const char* kernel) {
    EXPECT_EQ(encrypt_all(), expected) << "kernel=" << kernel;
    const DetCipher det(key);
    const NonDetCipher nondet(key);
    for (size_t i = 0; i < expected.size(); ++i) {
      auto plain = i % 2 == 0 ? det.Decrypt(ByteView(expected[i]))
                              : nondet.Decrypt(ByteView(expected[i]));
      ASSERT_TRUE(plain.ok()) << "kernel=" << kernel << " ciphertext " << i;
      EXPECT_EQ(plain->size(), i / 2) << "kernel=" << kernel;
    }
  });
}

TEST(SymmetricKernelTest, KnownAnswerVectorsOnEveryPath) {
  struct HmacCase {
    Bytes key;
    std::string data;
    std::string mac;
  };
  // RFC 4231 cases 1, 2, 3, 4, 6 and 7 (case 5 truncates its output).
  const std::vector<HmacCase> hmac_cases = {
      {Bytes(20, 0x0b), "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {FromHex("4a656665"), "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(20, 0xaa), std::string(50, '\xdd'),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {FromHex("0102030405060708090a0b0c0d0e0f10111213141516171819"),
       std::string(50, '\xcd'),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {Bytes(131, 0xaa),
       "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {Bytes(131, 0xaa),
       "This is a test using a larger than block-size key and a larger than "
       "block-size data. The key needs to be hashed before being used by the "
       "HMAC algorithm.",
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  // FIPS 180-4 examples: (message, digest).
  const std::vector<std::pair<std::string, std::string>> sha_cases = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
  };
  ForEachKernel([&](const char* kernel) {
    for (const auto& [message, digest] : sha_cases) {
      EXPECT_EQ(Hex(Sha256::Hash(ByteView(message))), digest)
          << kernel << " len=" << message.size();
    }
    for (const HmacCase& c : hmac_cases) {
      EXPECT_EQ(Hex(HmacKey(ByteView(c.key)).Mac(ByteView(c.data))), c.mac)
          << kernel << " key_len=" << c.key.size();
    }
    // FIPS 197 Appendix B and Appendix C.1.
    const Aes128 b(KeyOf(FromHex("2b7e151628aed2a6abf7158809cf4f3c")));
    Bytes block = FromHex("3243f6a8885a308d313198a2e0370734");
    b.EncryptBlock(block.data());
    EXPECT_EQ(ToHex(ByteView(block)), "3925841d02dc09fbdc118597196a0b32")
        << kernel;
    const Aes128 c1(KeyOf(FromHex("000102030405060708090a0b0c0d0e0f")));
    block = FromHex("00112233445566778899aabbccddeeff");
    c1.EncryptBlock(block.data());
    EXPECT_EQ(ToHex(ByteView(block)), "69c4e0d86a7b0430d8cdb78070b4c55a")
        << kernel;
  });
}

}  // namespace
}  // namespace pds::crypto
