#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>

#include "common/rng.h"
#include "global/agg_protocols.h"
#include "global/integrity.h"
#include "net/adversary.h"

namespace pds::global {
namespace {

class AggProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    crypto::SymmetricKey fleet_key = crypto::KeyFromString("fleet-test");
    for (uint64_t i = 0; i < 8; ++i) {
      mcu::SecureToken::Config cfg;
      cfg.token_id = i;
      cfg.fleet_key = fleet_key;
      cfg.rng_seed = 100 + i;
      tokens_.push_back(std::make_unique<mcu::SecureToken>(cfg));
    }
    // Deterministic tuples: groups city-0..city-4, values derived from i.
    Rng rng(55);
    for (uint64_t i = 0; i < 8; ++i) {
      Participant p;
      p.token = tokens_[i].get();
      int tuples = 5 + static_cast<int>(rng.Uniform(10));
      for (int t = 0; t < tuples; ++t) {
        SourceTuple st;
        st.group = "city-" + std::to_string(rng.Uniform(5));
        st.value = static_cast<double>(rng.Uniform(100));
        p.tuples.push_back(std::move(st));
      }
      participants_.push_back(std::move(p));
    }
  }

  void CheckMatchesPlain(AggregationProtocol* protocol, AggFunc func) {
    auto expected = PlainAggregate(participants_, func);
    auto output = protocol->Execute(participants_, func);
    ASSERT_TRUE(output.ok()) << output.status().ToString();
    ASSERT_EQ(output->groups.size(), expected.size());
    for (auto& [group, value] : expected) {
      ASSERT_TRUE(output->groups.count(group)) << group;
      EXPECT_NEAR(output->groups[group], value, 1e-9) << group;
    }
  }

  std::vector<std::unique_ptr<mcu::SecureToken>> tokens_;
  std::vector<Participant> participants_;
};

TEST_F(AggProtocolTest, SecureAggSum) {
  SecureAggProtocol protocol({/*partition_capacity=*/16});
  CheckMatchesPlain(&protocol, AggFunc::kSum);
}

TEST_F(AggProtocolTest, SecureAggCountAndAvg) {
  SecureAggProtocol protocol({16});
  CheckMatchesPlain(&protocol, AggFunc::kCount);
  CheckMatchesPlain(&protocol, AggFunc::kAvg);
}

TEST_F(AggProtocolTest, SecureAggLeaksNothingButCount) {
  SecureAggProtocol protocol({16});
  auto output = protocol.Execute(participants_, AggFunc::kSum);
  ASSERT_TRUE(output.ok());
  // Non-deterministic encryption: every observed tuple is its own class.
  EXPECT_EQ(output->leakage.distinct_classes,
            output->leakage.tuples_observed);
  EXPECT_FALSE(output->leakage.plaintext_groups_visible);
  EXPECT_DOUBLE_EQ(output->leakage.MaxClassFraction(),
                   1.0 / static_cast<double>(output->leakage.tuples_observed));
}

TEST_F(AggProtocolTest, SecureAggUsesMultipleRounds) {
  SecureAggProtocol small({8});
  auto output = small.Execute(participants_, AggFunc::kSum);
  ASSERT_TRUE(output.ok());
  EXPECT_GT(output->metrics.rounds, 2u);

  SecureAggProtocol large({100000});
  auto output2 = large.Execute(participants_, AggFunc::kSum);
  ASSERT_TRUE(output2.ok());
  EXPECT_LE(output2->metrics.rounds, 2u);
  // Fewer rounds -> less token work.
  EXPECT_LT(output2->metrics.token_crypto_ops,
            output->metrics.token_crypto_ops);
}

TEST_F(AggProtocolTest, SecureAggRejectsImpossibleCapacity) {
  // Capacity below the distinct group count cannot converge.
  SecureAggProtocol protocol({2});
  auto output = protocol.Execute(participants_, AggFunc::kSum);
  EXPECT_EQ(output.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(AggProtocolTest, SecureAggRejectsZeroCapacity) {
  // A zero capacity would divide by zero in the partition loop; it must
  // fail before any token does any work.
  SecureAggProtocol protocol({0});
  auto output = protocol.Execute(participants_, AggFunc::kSum);
  EXPECT_EQ(output.status().code(), StatusCode::kInvalidArgument);
  for (const auto& token : tokens_) {
    EXPECT_EQ(token->crypto_ops().total(), 0u);
  }
}

TEST_F(AggProtocolTest, NoiseProtocolsRejectUnboundedSendLists) {
  // Every token refuses a send list one reply batch cannot carry (and a
  // ratio that is not a finite non-negative number); the in-process run
  // makes the same check up front, so these fail fast and touch no token.
  for (double ratio : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                       1e12}) {
    WhiteNoiseProtocol protocol({ratio, 3});
    auto output = protocol.Execute(participants_, AggFunc::kSum);
    EXPECT_EQ(output.status().code(), StatusCode::kInvalidArgument) << ratio;
  }
  DomainNoiseProtocol::Config cfg;
  for (int i = 0; i < 5; ++i) {
    cfg.domain.push_back("city-" + std::to_string(i));
  }
  cfg.fakes_per_value = UINT32_MAX;
  DomainNoiseProtocol domain(cfg);
  auto output = domain.Execute(participants_, AggFunc::kSum);
  EXPECT_EQ(output.status().code(), StatusCode::kInvalidArgument);
  for (const auto& token : tokens_) {
    EXPECT_EQ(token->crypto_ops().total(), 0u);
  }
}

TEST_F(AggProtocolTest, WhiteNoiseSumCountAvg) {
  WhiteNoiseProtocol protocol({/*noise_ratio=*/0.3, /*noise_seed=*/3});
  CheckMatchesPlain(&protocol, AggFunc::kSum);
  CheckMatchesPlain(&protocol, AggFunc::kCount);
  CheckMatchesPlain(&protocol, AggFunc::kAvg);
}

TEST_F(AggProtocolTest, WhiteNoiseInflatesObservedClasses) {
  WhiteNoiseProtocol noisy({1.0, 3});
  WhiteNoiseProtocol quiet({0.0, 3});
  auto noisy_out = noisy.Execute(participants_, AggFunc::kSum);
  auto quiet_out = quiet.Execute(participants_, AggFunc::kSum);
  ASSERT_TRUE(noisy_out.ok());
  ASSERT_TRUE(quiet_out.ok());
  // Without noise the SSI sees exactly the true number of groups.
  EXPECT_EQ(quiet_out->leakage.distinct_classes, 5u);
  // With noise it sees many more classes and more tuples.
  EXPECT_GT(noisy_out->leakage.distinct_classes, 5u);
  EXPECT_GT(noisy_out->leakage.tuples_observed,
            quiet_out->leakage.tuples_observed);
  EXPECT_FALSE(noisy_out->leakage.plaintext_groups_visible);
}

TEST_F(AggProtocolTest, WhiteNoiseSingleRound) {
  WhiteNoiseProtocol protocol({0.2, 3});
  auto output = protocol.Execute(participants_, AggFunc::kSum);
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->metrics.rounds, 2u);  // send + aggregate
}

TEST_F(AggProtocolTest, DomainNoiseSum) {
  DomainNoiseProtocol::Config cfg;
  for (int i = 0; i < 5; ++i) {
    cfg.domain.push_back("city-" + std::to_string(i));
  }
  // Extra domain values nobody has: the SSI must not distinguish them.
  cfg.domain.push_back("city-ghost");
  DomainNoiseProtocol protocol(cfg);
  CheckMatchesPlain(&protocol, AggFunc::kSum);
  CheckMatchesPlain(&protocol, AggFunc::kAvg);
}

TEST_F(AggProtocolTest, DomainNoiseFlattensHistogram) {
  DomainNoiseProtocol::Config cfg;
  for (int i = 0; i < 5; ++i) {
    cfg.domain.push_back("city-" + std::to_string(i));
  }
  cfg.fakes_per_value = 20;  // strong flattening
  DomainNoiseProtocol noisy(cfg);
  WhiteNoiseProtocol bare({0.0, 3});

  auto noisy_out = noisy.Execute(participants_, AggFunc::kSum);
  auto bare_out = bare.Execute(participants_, AggFunc::kSum);
  ASSERT_TRUE(noisy_out.ok());
  ASSERT_TRUE(bare_out.ok());
  // The dominant class is a smaller fraction under domain noise.
  EXPECT_LT(noisy_out->leakage.MaxClassFraction(),
            bare_out->leakage.MaxClassFraction());
  // And the entropy of the SSI's view is closer to uniform (higher).
  EXPECT_GT(noisy_out->leakage.ClassEntropyBits(),
            bare_out->leakage.ClassEntropyBits() - 0.2);
}

TEST_F(AggProtocolTest, DomainNoiseRejectsOutOfDomainGroup) {
  DomainNoiseProtocol::Config cfg;
  cfg.domain = {"not-a-city"};
  DomainNoiseProtocol protocol(cfg);
  auto output = protocol.Execute(participants_, AggFunc::kSum);
  EXPECT_EQ(output.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(AggProtocolTest, HistogramSumCountAvg) {
  HistogramProtocol protocol({/*num_buckets=*/4});
  CheckMatchesPlain(&protocol, AggFunc::kSum);
  CheckMatchesPlain(&protocol, AggFunc::kCount);
  CheckMatchesPlain(&protocol, AggFunc::kAvg);
}

TEST_F(AggProtocolTest, HistogramLeaksOnlyBuckets) {
  HistogramProtocol protocol({3});
  auto output = protocol.Execute(participants_, AggFunc::kSum);
  ASSERT_TRUE(output.ok());
  EXPECT_LE(output->leakage.distinct_classes, 3u);
  EXPECT_FALSE(output->leakage.plaintext_groups_visible);
}

TEST_F(AggProtocolTest, BucketCountTradesLeakageForTokenWork) {
  HistogramProtocol coarse({1});
  HistogramProtocol fine({64});
  auto coarse_out = coarse.Execute(participants_, AggFunc::kSum);
  auto fine_out = fine.Execute(participants_, AggFunc::kSum);
  ASSERT_TRUE(coarse_out.ok());
  ASSERT_TRUE(fine_out.ok());
  // More buckets -> the SSI's view has more classes (more leakage).
  EXPECT_GE(fine_out->leakage.distinct_classes,
            coarse_out->leakage.distinct_classes);
}

PackedPaillierProtocol::Config PackedCfg() {
  PackedPaillierProtocol::Config cfg;
  for (int i = 0; i < 5; ++i) {
    cfg.domain.push_back("city-" + std::to_string(i));
  }
  // Up to ~14 tuples of value <= 99 per participant per group.
  cfg.max_slot_value = 4096;
  cfg.paillier_bits = 256;  // fast test keypair; the scheme is size-agnostic
  return cfg;
}

TEST_F(AggProtocolTest, PackedPaillierSumCountAvg) {
  PackedPaillierProtocol protocol(PackedCfg());
  CheckMatchesPlain(&protocol, AggFunc::kSum);
  CheckMatchesPlain(&protocol, AggFunc::kCount);
  CheckMatchesPlain(&protocol, AggFunc::kAvg);
}

TEST_F(AggProtocolTest, PackedPaillierLeaksOnlyFleetSize) {
  PackedPaillierProtocol protocol(PackedCfg());
  auto output = protocol.Execute(participants_, AggFunc::kSum);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  // One non-deterministic ciphertext per participant: the SSI sees the
  // fleet size and nothing else.
  EXPECT_EQ(output->leakage.tuples_observed, participants_.size());
  EXPECT_EQ(output->leakage.distinct_classes, participants_.size());
  EXPECT_FALSE(output->leakage.plaintext_groups_visible);
}

TEST_F(AggProtocolTest, PackedPaillierSingleRoundFleetPlusOneOps) {
  PackedPaillierProtocol protocol(PackedCfg());
  auto output = protocol.Execute(participants_, AggFunc::kSum);
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->metrics.rounds, 1u);
  // One packed encryption per token + one querier decrypt-unpack, however
  // many groups the domain has.
  EXPECT_EQ(output->metrics.token_crypto_ops, participants_.size() + 1);
  EXPECT_EQ(output->metrics.ssi_ops, participants_.size() - 1);
}

TEST_F(AggProtocolTest, PackedPaillierRejectsOutOfDomainGroup) {
  PackedPaillierProtocol::Config cfg = PackedCfg();
  cfg.domain = {"not-a-city"};
  PackedPaillierProtocol protocol(cfg);
  auto output = protocol.Execute(participants_, AggFunc::kSum);
  EXPECT_EQ(output.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(AggProtocolTest, PackedPaillierRejectsNonIntegerValues) {
  participants_[2].tuples[0].value = 1.5;
  PackedPaillierProtocol protocol(PackedCfg());
  auto output = protocol.Execute(participants_, AggFunc::kSum);
  EXPECT_EQ(output.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(AggProtocolTest, EmptyParticipantsRejected) {
  std::vector<Participant> none;
  SecureAggProtocol p1({16});
  EXPECT_FALSE(p1.Execute(none, AggFunc::kSum).ok());
  WhiteNoiseProtocol p2({0.1, 1});
  EXPECT_FALSE(p2.Execute(none, AggFunc::kSum).ok());
  HistogramProtocol p3({4});
  EXPECT_FALSE(p3.Execute(none, AggFunc::kSum).ok());
}

TEST_F(AggProtocolTest, ParticipantWithNoTuples) {
  participants_[3].tuples.clear();
  SecureAggProtocol protocol({32});
  CheckMatchesPlain(&protocol, AggFunc::kSum);
}

TEST_F(AggProtocolTest, MetricsInvariantsHoldForEveryProtocol) {
  // Every message the [TNP14] protocols account crosses the single
  // token <-> SSI link in exactly one direction, so the directional split
  // must always re-sum to the total — and any run has at least one round.
  SecureAggProtocol secure({16});
  WhiteNoiseProtocol white({0.3, 3});
  DomainNoiseProtocol::Config dn_cfg;
  for (int i = 0; i < 5; ++i) {
    dn_cfg.domain.push_back("city-" + std::to_string(i));
  }
  DomainNoiseProtocol domain(dn_cfg);
  HistogramProtocol histogram({4});
  PackedPaillierProtocol packed(PackedCfg());
  AggregationProtocol* protocols[] = {&secure, &white, &domain, &histogram,
                                      &packed};
  for (AggregationProtocol* protocol : protocols) {
    auto output = protocol->Execute(participants_, AggFunc::kSum);
    ASSERT_TRUE(output.ok()) << protocol->name() << ": "
                             << output.status().ToString();
    const Metrics& m = output->metrics;
    EXPECT_EQ(m.bytes, m.bytes_token_to_ssi + m.bytes_ssi_to_token)
        << protocol->name();
    EXPECT_GT(m.rounds, 0u) << protocol->name();
    EXPECT_GT(m.bytes_token_to_ssi, 0u) << protocol->name();
    EXPECT_GT(m.messages, 0u) << protocol->name();
  }
}

class IntegrityTest : public ::testing::Test {
 protected:
  IntegrityTest() {
    mcu::SecureToken::Config cfg;
    cfg.token_id = 1;
    cfg.fleet_key = crypto::KeyFromString("fleet");
    producer_ = std::make_unique<mcu::SecureToken>(cfg);
    cfg.token_id = 2;
    verifier_ = std::make_unique<mcu::SecureToken>(cfg);
  }

  Result<std::vector<SealedTuple>> MakeBatch(uint64_t participant, int n) {
    std::vector<Bytes> cts;
    for (int i = 0; i < n; ++i) {
      std::string payload = "tuple-" + std::to_string(i);
      PDS_ASSIGN_OR_RETURN(
          Bytes ct, producer_->EncryptNonDet(ByteView(std::string_view(
                        payload))));
      cts.push_back(std::move(ct));
    }
    return SealTuples(producer_.get(), participant, cts);
  }

  std::unique_ptr<mcu::SecureToken> producer_;
  std::unique_ptr<mcu::SecureToken> verifier_;
};

TEST_F(IntegrityTest, CleanBatchVerifies) {
  auto batch = MakeBatch(7, 20);
  ASSERT_TRUE(batch.ok());
  auto manifest = MakeManifest(producer_.get(), 7, 20);
  ASSERT_TRUE(manifest.ok());
  auto verdict = VerifyBatch(verifier_.get(), *batch, {*manifest});
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict->ok) << verdict->problem;
}

TEST_F(IntegrityTest, DetectsAlteration) {
  auto batch = MakeBatch(7, 20);
  ASSERT_TRUE(batch.ok());
  (*batch)[5].payload_ct[3] ^= 0xFF;
  auto manifest = MakeManifest(producer_.get(), 7, 20);
  auto verdict = VerifyBatch(verifier_.get(), *batch, {*manifest});
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(verdict->ok);
  EXPECT_NE(verdict->problem.find("altered"), std::string::npos);
}

TEST_F(IntegrityTest, DetectsDrop) {
  auto batch = MakeBatch(7, 20);
  ASSERT_TRUE(batch.ok());
  batch->erase(batch->begin() + 10);
  auto manifest = MakeManifest(producer_.get(), 7, 20);
  auto verdict = VerifyBatch(verifier_.get(), *batch, {*manifest});
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(verdict->ok);
}

TEST_F(IntegrityTest, DetectsDuplication) {
  auto batch = MakeBatch(7, 20);
  ASSERT_TRUE(batch.ok());
  batch->push_back((*batch)[0]);
  auto manifest = MakeManifest(producer_.get(), 7, 20);
  auto verdict = VerifyBatch(verifier_.get(), *batch, {*manifest});
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(verdict->ok);
  EXPECT_NE(verdict->problem.find("duplicated"), std::string::npos);
}

TEST_F(IntegrityTest, DetectsForgedManifest) {
  auto batch = MakeBatch(7, 20);
  ASSERT_TRUE(batch.ok());
  auto manifest = MakeManifest(producer_.get(), 7, 20);
  manifest->tuple_count = 19;  // SSI lies about the count
  auto verdict = VerifyBatch(verifier_.get(), *batch, {*manifest});
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(verdict->ok);
  EXPECT_NE(verdict->problem.find("manifest"), std::string::npos);
}

TEST_F(IntegrityTest, DetectsUnknownParticipant) {
  auto batch = MakeBatch(7, 5);
  ASSERT_TRUE(batch.ok());
  auto manifest = MakeManifest(producer_.get(), 8, 5);  // wrong id
  auto verdict = VerifyBatch(verifier_.get(), *batch, {*manifest});
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(verdict->ok);
}

TEST_F(IntegrityTest, AnyTamperingIsDetected) {
  // Drops, replays, alterations and forged counts mixed in one batch: bit i
  // of `mask` applies action i with a seed of its own, so the masks cover
  // every combination. Verification must fail whenever any action applied.
  const net::AdversaryAction actions[] = {
      net::AdversaryAction::kOmitCiphertext,
      net::AdversaryAction::kReplayCiphertext,
      net::AdversaryAction::kSubstituteCiphertext,
      net::AdversaryAction::kForgeManifest};
  for (uint64_t mask = 0; mask < 16; ++mask) {
    auto batch = MakeBatch(7, 50);
    ASSERT_TRUE(batch.ok());
    auto manifest = MakeManifest(producer_.get(), 7, 50);
    ASSERT_TRUE(manifest.ok());
    std::vector<Manifest> manifests = {*manifest};
    for (uint64_t i = 0; i < 4; ++i) {
      if ((mask >> i) & 1) {
        EXPECT_FALSE(net::ApplySealedTampering({actions[i], 31 * mask + i},
                                               &*batch, &manifests)
                         .empty());
      }
    }
    auto verdict = VerifyBatch(verifier_.get(), *batch, manifests);
    ASSERT_TRUE(verdict.ok());
    EXPECT_EQ(verdict->ok, mask == 0) << "mask " << mask;
  }
}

}  // namespace
}  // namespace pds::global
