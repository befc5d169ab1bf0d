#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/montgomery_simd.h"
#include "crypto/paillier.h"
#include "crypto/sha256.h"
#include "mcu/secure_token.h"

namespace pds::crypto {
namespace {

// ---------------------------------------------------------------------------
// SlotLayout sizing and guard-bit boundaries.
// ---------------------------------------------------------------------------

TEST(SlotLayoutTest, ForFleetSizesGuardBitsFromFleet) {
  auto layout = SlotLayout::ForFleet(/*fleet_size=*/64, /*max_value=*/255,
                                     /*num_counters=*/8,
                                     /*plaintext_bits=*/256);
  ASSERT_TRUE(layout.ok()) << layout.status().ToString();
  EXPECT_EQ(layout->num_slots, 8u);
  // 255 needs 8 value bits; 64 participants need 7 guard bits.
  EXPECT_EQ(layout->guard_bits, 7u);
  EXPECT_EQ(layout->slot_bits, 15u);
  EXPECT_EQ(layout->max_slot_value, 255u);
  EXPECT_EQ(layout->max_addends(), 128u);
  EXPECT_GE(layout->max_addends(), 64u);
  EXPECT_LE(layout->total_bits(), 255u);
}

TEST(SlotLayoutTest, MaxFleetPerSlotWidthBoundary) {
  // With max_value = 1 (1 value bit) the slot width is 1 + guard_bits.
  // A fleet of exactly 2^g participants needs g+1 guard bits (bit_width),
  // while 2^g - 1 participants need only g: the boundary the guard math
  // must not get wrong, since fleet_size == max_addends is the largest
  // fleet a slot width can absorb without overflow.
  for (uint32_t g = 1; g <= 16; ++g) {
    const size_t pow2 = size_t{1} << g;
    auto at = SlotLayout::ForFleet(pow2, 1, 1, 256);
    ASSERT_TRUE(at.ok());
    EXPECT_EQ(at->guard_bits, g + 1) << "fleet=" << pow2;
    EXPECT_GE(at->max_addends(), pow2);
    auto below = SlotLayout::ForFleet(pow2 - 1, 1, 1, 256);
    ASSERT_TRUE(below.ok());
    EXPECT_EQ(below->guard_bits, g) << "fleet=" << pow2 - 1;
    EXPECT_GE(below->max_addends(), pow2 - 1);
  }
}

TEST(SlotLayoutTest, RejectsLayoutsThatCannotFit) {
  // Degenerate inputs.
  EXPECT_FALSE(SlotLayout::ForFleet(0, 10, 4, 256).ok());
  EXPECT_FALSE(SlotLayout::ForFleet(10, 10, 0, 256).ok());
  // Slot wider than 63 bits: 60 value bits + 7 guard bits.
  EXPECT_FALSE(
      SlotLayout::ForFleet(64, (uint64_t{1} << 60) - 1, 1, 4096).ok());
  // Total width must stay strictly below plaintext_bits. 16 slots of
  // 15 bits = 240 <= 255 fits in 256-bit n; 17 slots = 255 still fits;
  // 18 slots = 270 must be rejected.
  EXPECT_TRUE(SlotLayout::ForFleet(64, 255, 17, 256).ok());
  EXPECT_FALSE(SlotLayout::ForFleet(64, 255, 18, 256).ok());
}

TEST(SlotLayoutTest, ZeroMaxValueStillGetsOneValueBit) {
  auto layout = SlotLayout::ForFleet(3, 0, 2, 256);
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout->slot_bits, 1u + 2u);  // 1 value bit + bit_width(3)=2
}

// ---------------------------------------------------------------------------
// Pack / unpack round trips.
// ---------------------------------------------------------------------------

TEST(PackSlotsTest, PackUnpackRoundTrip) {
  auto layout = SlotLayout::ForFleet(64, 255, 8, 256);
  ASSERT_TRUE(layout.ok());
  std::vector<uint64_t> values = {0, 1, 255, 17, 0, 254, 3, 128};
  auto packed = PackSlots(*layout, values);
  ASSERT_TRUE(packed.ok());
  auto unpacked = UnpackSlots(*layout, *packed);
  ASSERT_TRUE(unpacked.ok());
  EXPECT_EQ(*unpacked, values);
}

TEST(PackSlotsTest, RejectsWrongArityAndOversizeValues) {
  auto layout = SlotLayout::ForFleet(64, 255, 8, 256);
  ASSERT_TRUE(layout.ok());
  EXPECT_FALSE(PackSlots(*layout, std::vector<uint64_t>(7, 0)).ok());
  EXPECT_FALSE(PackSlots(*layout, std::vector<uint64_t>(9, 0)).ok());
  std::vector<uint64_t> oversize(8, 0);
  oversize[3] = 256;  // max_slot_value is 255
  EXPECT_FALSE(PackSlots(*layout, oversize).ok());
}

TEST(UnpackSlotsTest, RejectsValueWiderThanLayout) {
  auto layout = SlotLayout::ForFleet(64, 255, 8, 256);
  ASSERT_TRUE(layout.ok());
  BigInt too_wide = BigInt::ShiftLeft(BigInt::One(), layout->total_bits());
  EXPECT_FALSE(UnpackSlots(*layout, too_wide).ok());
}

TEST(PackSlotsTest, PropertyRandomRoundTripAcrossLayouts) {
  Rng rng(2024);
  for (int iter = 0; iter < 200; ++iter) {
    const size_t fleet = 1 + rng.Next() % 512;
    const uint64_t max_value = rng.Next() % (uint64_t{1} << 20);
    const size_t counters = 1 + rng.Next() % 12;
    auto layout = SlotLayout::ForFleet(fleet, max_value, counters, 1024);
    ASSERT_TRUE(layout.ok()) << layout.status().ToString();
    std::vector<uint64_t> values(counters);
    for (auto& v : values) {
      v = max_value == 0 ? 0 : rng.Next() % (max_value + 1);
    }
    auto packed = PackSlots(*layout, values);
    ASSERT_TRUE(packed.ok());
    auto unpacked = UnpackSlots(*layout, *packed);
    ASSERT_TRUE(unpacked.ok());
    EXPECT_EQ(*unpacked, values);
  }
}

// ---------------------------------------------------------------------------
// PackedAggregate: encrypt / fold / decrypt-unpack over a real keypair.
// ---------------------------------------------------------------------------

class PackedAggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<Rng>(42);
    auto ph = Paillier::Generate(256, rng_.get());
    ASSERT_TRUE(ph.ok()) << ph.status().ToString();
    paillier_ = std::make_unique<Paillier>(std::move(ph).value());
  }

  std::unique_ptr<Rng> rng_;
  std::unique_ptr<Paillier> paillier_;
};

TEST_F(PackedAggregateTest, EncryptDecryptUnpackRoundTrip) {
  auto agg = PackedAggregate::Create(*paillier_, /*fleet_size=*/64,
                                     /*max_value=*/255, /*num_counters=*/8);
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  std::vector<uint64_t> values = {9, 0, 255, 1, 77, 200, 3, 128};
  auto ct = agg->EncryptPacked(values, rng_.get());
  ASSERT_TRUE(ct.ok());
  auto back = agg->DecryptUnpack(*ct);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, values);
}

TEST_F(PackedAggregateTest, HomomorphicSlotwiseSumAcrossFleet) {
  constexpr size_t kFleet = 64;
  constexpr size_t kCounters = 8;
  constexpr uint64_t kMaxValue = 255;
  auto agg = PackedAggregate::Create(*paillier_, kFleet, kMaxValue, kCounters);
  ASSERT_TRUE(agg.ok());
  ASSERT_TRUE(agg->CheckAddBudget(kFleet).ok());

  std::vector<uint64_t> expected(kCounters, 0);
  BigInt sum_ct;
  Rng data_rng(7);
  for (size_t t = 0; t < kFleet; ++t) {
    std::vector<uint64_t> values(kCounters);
    for (size_t j = 0; j < kCounters; ++j) {
      values[j] = data_rng.Next() % (kMaxValue + 1);
      expected[j] += values[j];
    }
    auto ct = agg->EncryptPacked(values, rng_.get());
    ASSERT_TRUE(ct.ok());
    sum_ct = t == 0 ? *ct : agg->Add(sum_ct, *ct);
  }
  auto totals = agg->DecryptUnpack(sum_ct);
  ASSERT_TRUE(totals.ok()) << totals.status().ToString();
  EXPECT_EQ(*totals, expected);
}

TEST_F(PackedAggregateTest, GuardBitsAbsorbWorstCaseFleetSum) {
  // Every participant contributes max_value to every slot: the largest sum
  // the guard bits must absorb without carrying into the next slot.
  constexpr size_t kFleet = 16;
  constexpr uint64_t kMaxValue = 7;
  auto agg = PackedAggregate::Create(*paillier_, kFleet, kMaxValue, 4);
  ASSERT_TRUE(agg.ok());
  BigInt sum_ct;
  std::vector<uint64_t> all_max(4, kMaxValue);
  for (size_t t = 0; t < kFleet; ++t) {
    auto ct = agg->EncryptPacked(all_max, rng_.get());
    ASSERT_TRUE(ct.ok());
    sum_ct = t == 0 ? *ct : agg->Add(sum_ct, *ct);
  }
  auto totals = agg->DecryptUnpack(sum_ct);
  ASSERT_TRUE(totals.ok());
  EXPECT_EQ(*totals, std::vector<uint64_t>(4, kFleet * kMaxValue));
}

TEST_F(PackedAggregateTest, CheckAddBudgetEnforcesGuardCapacity) {
  auto agg = PackedAggregate::Create(*paillier_, 64, 255, 8);
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->layout().max_addends(), 128u);
  EXPECT_TRUE(agg->CheckAddBudget(64).ok());
  EXPECT_TRUE(agg->CheckAddBudget(128).ok());
  EXPECT_FALSE(agg->CheckAddBudget(129).ok());
}

TEST_F(PackedAggregateTest, PropertyFleetSumsAcrossSlotWidths) {
  // Randomized fleets at several slot widths: decrypt-unpack of the
  // homomorphic sum must equal the plaintext slot-wise sums.
  Rng data_rng(5);
  for (uint64_t max_value : {1ULL, 15ULL, 4095ULL}) {
    const size_t fleet = 1 + data_rng.Next() % 24;
    const size_t counters = 1 + data_rng.Next() % 6;
    auto agg = PackedAggregate::Create(*paillier_, fleet, max_value, counters);
    ASSERT_TRUE(agg.ok()) << agg.status().ToString();
    std::vector<uint64_t> expected(counters, 0);
    BigInt sum_ct;
    for (size_t t = 0; t < fleet; ++t) {
      std::vector<uint64_t> values(counters);
      for (size_t j = 0; j < counters; ++j) {
        values[j] = data_rng.Next() % (max_value + 1);
        expected[j] += values[j];
      }
      auto ct = agg->EncryptPacked(values, rng_.get());
      ASSERT_TRUE(ct.ok());
      sum_ct = t == 0 ? *ct : agg->Add(sum_ct, *ct);
    }
    auto totals = agg->DecryptUnpack(sum_ct);
    ASSERT_TRUE(totals.ok());
    EXPECT_EQ(*totals, expected);
  }
}

// ---------------------------------------------------------------------------
// SecureToken packed encryption.
// ---------------------------------------------------------------------------

TEST_F(PackedAggregateTest, SecureTokenEncryptPackedCountsSlots) {
  auto agg = PackedAggregate::Create(*paillier_, 64, 255, 8);
  ASSERT_TRUE(agg.ok());
  mcu::SecureToken::Config config;
  config.token_id = 3;
  config.rng_seed = 77;
  mcu::SecureToken token(config);
  std::vector<uint64_t> values = {1, 2, 3, 4, 5, 6, 7, 8};
  auto ct = token.EncryptPacked(*agg, values);
  ASSERT_TRUE(ct.ok()) << ct.status().ToString();
  EXPECT_EQ(token.crypto_ops().encryptions, 1u);
  EXPECT_EQ(token.crypto_ops().packed_slots, 8u);
  auto back = agg->DecryptUnpack(*ct);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, values);

  token.Tamper();
  EXPECT_FALSE(token.EncryptPacked(*agg, values).ok());
}

// ---------------------------------------------------------------------------
// Byte identity of the packed path on both dispatch paths.
// ---------------------------------------------------------------------------

TEST(PackedPaillierDigestTest, KeysCiphertextsFoldAndTotalsArePinned) {
  // For three 1024-bit keys: n, 64 EncryptPacked ciphertexts from a fixed
  // RNG, their Add fold and the DecryptUnpack totals, hashed in that order.
  // The digest was computed with the 32-bit-limb Montgomery kernel and no
  // lane split; the lane-split encrypt (AVX2) and the scalar ladder (forced)
  // must both reproduce it.
  constexpr size_t kFleet = 64;
  constexpr size_t kCounters = 8;
  constexpr uint64_t kMaxValue = 255;
  const bool was_forced = simd::force_scalar();
  for (bool force : {false, true}) {
    simd::SetForceScalar(force);
    Sha256 all;
    for (uint64_t seed : {1, 2, 3}) {
      Rng key_rng(seed);
      auto key = Paillier::Generate(1024, &key_rng);
      ASSERT_TRUE(key.ok()) << key.status().ToString();
      all.Update(ByteView(key->public_key().n.ToBytes()));
      auto agg = PackedAggregate::Create(*key, kFleet, kMaxValue, kCounters);
      ASSERT_TRUE(agg.ok()) << agg.status().ToString();
      Rng rng(100 + seed);
      std::vector<uint64_t> expected(kCounters, 0);
      BigInt sum;
      for (size_t t = 0; t < kFleet; ++t) {
        std::vector<uint64_t> values(kCounters);
        for (size_t j = 0; j < kCounters; ++j) {
          values[j] = rng.Uniform(kMaxValue + 1);
          expected[j] += values[j];
        }
        auto ct = agg->EncryptPacked(values, &rng);
        ASSERT_TRUE(ct.ok()) << ct.status().ToString();
        all.Update(ByteView(ct->ToBytes()));
        sum = t == 0 ? *ct : agg->Add(sum, *ct);
      }
      all.Update(ByteView(sum.ToBytes()));
      auto totals = agg->DecryptUnpack(sum);
      ASSERT_TRUE(totals.ok()) << totals.status().ToString();
      EXPECT_EQ(*totals, expected) << "seed=" << seed << " forced=" << force;
      for (uint64_t total : *totals) {
        all.Update(ByteView(BigInt(total).ToBytes()));
      }
    }
    const Sha256::Digest digest = all.Finish();
    EXPECT_EQ(
        ToHex(ByteView(digest.data(), digest.size())),
        "5f296a5f2270a4746fb4bc0cdb43f75dc9f8969e9df76bb07528e4e35f78afd7")
        << "forced_scalar=" << force;
  }
  simd::SetForceScalar(was_forced);
}

}  // namespace
}  // namespace pds::crypto
