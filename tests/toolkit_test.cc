#include <gtest/gtest.h>

#include "crypto/sra.h"
#include "global/toolkit.h"

namespace pds::global {
namespace {

TEST(SraTest, EncryptDecryptRoundTrip) {
  Rng rng(1);
  crypto::BigInt p = crypto::SraCipher::GeneratePrime(128, &rng);
  auto cipher = crypto::SraCipher::Create(p, &rng);
  ASSERT_TRUE(cipher.ok());
  auto x = cipher->EncodeItem("hello");
  ASSERT_TRUE(x.ok());
  auto ct = cipher->Encrypt(*x);
  ASSERT_TRUE(ct.ok());
  auto pt = cipher->Decrypt(*ct);
  ASSERT_TRUE(pt.ok());
  auto item = cipher->DecodeItem(*pt);
  ASSERT_TRUE(item.ok());
  EXPECT_EQ(*item, "hello");
}

TEST(SraTest, Commutativity) {
  Rng rng(2);
  crypto::BigInt p = crypto::SraCipher::GeneratePrime(128, &rng);
  auto c1 = crypto::SraCipher::Create(p, &rng);
  auto c2 = crypto::SraCipher::Create(p, &rng);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  auto x = c1->EncodeItem("commute");
  ASSERT_TRUE(x.ok());

  auto e12 = c2->Encrypt(*c1->Encrypt(*x));
  auto e21 = c1->Encrypt(*c2->Encrypt(*x));
  ASSERT_TRUE(e12.ok());
  ASSERT_TRUE(e21.ok());
  EXPECT_EQ(*e12, *e21);

  // Decryption in either order recovers the item.
  auto d = c1->Decrypt(*c2->Decrypt(*e12));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*c1->DecodeItem(*d), "commute");
}

TEST(SraTest, RejectsOversizedItem) {
  Rng rng(3);
  crypto::BigInt p = crypto::SraCipher::GeneratePrime(64, &rng);
  auto cipher = crypto::SraCipher::Create(p, &rng);
  ASSERT_TRUE(cipher.ok());
  EXPECT_FALSE(cipher->EncodeItem(std::string(20, 'x')).ok());
}

TEST(SecureSumTest, MatchesPlainSum) {
  Rng rng(4);
  std::vector<uint64_t> values = {10, 25, 7, 100, 3};
  Metrics metrics;
  auto sum = SecureSum(values, 1ULL << 32, &rng, &metrics);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 145u);
  EXPECT_EQ(metrics.messages, values.size() + 1);
}

TEST(SecureSumTest, ZeroValuesAndWraparound) {
  Rng rng(5);
  Metrics metrics;
  auto sum = SecureSum({0, 0, 0}, 100, &rng, &metrics);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 0u);
  // Values summing beyond the modulus wrap (documented protocol behaviour).
  auto wrapped = SecureSum({60, 60, 60}, 100, &rng, &metrics);
  ASSERT_TRUE(wrapped.ok());
  EXPECT_EQ(*wrapped, 80u);
}

TEST(SecureSumTest, RejectsTooFewSites) {
  Rng rng(6);
  EXPECT_FALSE(SecureSum({1, 2}, 100, &rng, nullptr).ok());
}

TEST(SecureSumTest, RejectsOutOfRangeValue) {
  Rng rng(7);
  EXPECT_FALSE(SecureSum({1, 2, 200}, 100, &rng, nullptr).ok());
}

TEST(SecureSetUnionTest, ComputesUnion) {
  Rng rng(8);
  Metrics metrics;
  auto result = SecureSetUnion(
      {{"apple", "pear"}, {"pear", "plum"}, {"apple", "fig"}}, 128, &rng,
      &metrics);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::set<std::string> expected = {"apple", "pear", "plum", "fig"};
  EXPECT_EQ(*result, expected);
  EXPECT_GT(metrics.token_crypto_ops, 0u);
}

TEST(SecureSetUnionTest, DisjointAndIdenticalSets) {
  Rng rng(9);
  auto disjoint = SecureSetUnion({{"a"}, {"b"}}, 128, &rng, nullptr);
  ASSERT_TRUE(disjoint.ok());
  EXPECT_EQ(disjoint->size(), 2u);

  auto identical = SecureSetUnion({{"x", "y"}, {"x", "y"}}, 128, &rng,
                                  nullptr);
  ASSERT_TRUE(identical.ok());
  EXPECT_EQ(identical->size(), 2u);
}

TEST(SecureSetUnionTest, EmptySetsHandled) {
  Rng rng(10);
  auto result = SecureSetUnion({{}, {"only"}}, 128, &rng, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, std::set<std::string>{"only"});
}

TEST(SecureIntersectionSizeTest, CountsCommonItems) {
  Rng rng(11);
  Metrics metrics;
  auto size = SecureIntersectionSize(
      {{"a", "b", "c"}, {"b", "c", "d"}, {"c", "b", "e"}}, 128, &rng,
      &metrics);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 2u);  // b and c
}

TEST(SecureIntersectionSizeTest, EmptyIntersection) {
  Rng rng(12);
  auto size = SecureIntersectionSize({{"a"}, {"b"}}, 128, &rng, nullptr);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 0u);
}

TEST(SecureScalarProductTest, MatchesPlainDotProduct) {
  Rng rng(13);
  Metrics metrics;
  std::vector<uint64_t> a = {1, 2, 3, 4};
  std::vector<uint64_t> b = {10, 20, 30, 40};
  auto result = SecureScalarProduct(a, b, 256, &rng, &metrics);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, 1 * 10 + 2 * 20 + 3 * 30 + 4 * 40u);
}

TEST(SecureScalarProductTest, ZeroVector) {
  Rng rng(14);
  auto result = SecureScalarProduct({0, 0}, {5, 7}, 256, &rng, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 0u);
}

TEST(SecureScalarProductTest, RejectsLengthMismatch) {
  Rng rng(15);
  EXPECT_FALSE(SecureScalarProduct({1}, {1, 2}, 256, &rng, nullptr).ok());
}

}  // namespace
}  // namespace pds::global
