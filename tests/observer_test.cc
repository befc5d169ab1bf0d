// global::HbcObserver against a reference notebook: a std::map from each
// class key to its count, fed the same seeded keys. The observer tells
// classes apart by a digest of the key, so the keys cover the shapes the
// SSI sees and the ones a short digest would confuse: the empty key,
// 4-byte bucket ids, 73-byte ciphertexts, 256-byte packed ciphertexts,
// every length across SHA-256's block boundary, and pairs that differ only
// in their last byte. Planted duplicates fix known class sizes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "global/observer.h"

namespace pds::global {
namespace {

/// The reference: every key kept whole, counted in a map.
class ReferenceNotebook {
 public:
  void ObserveTuple(ByteView class_key, bool plaintext_group) {
    ++classes_[class_key.ToString()];
    ++tuples_;
    plaintext_seen_ |= plaintext_group;
  }

  LeakageReport Report() const {
    LeakageReport report;
    report.tuples_observed = tuples_;
    report.distinct_classes = classes_.size();
    for (const auto& [key, count] : classes_) {
      report.class_sizes.push_back(count);
    }
    std::sort(report.class_sizes.begin(), report.class_sizes.end());
    report.plaintext_groups_visible = plaintext_seen_;
    return report;
  }

 private:
  std::map<std::string, uint64_t> classes_;
  uint64_t tuples_ = 0;
  bool plaintext_seen_ = false;
};

void ExpectSameReport(const LeakageReport& got, const LeakageReport& want) {
  EXPECT_EQ(got.tuples_observed, want.tuples_observed);
  EXPECT_EQ(got.distinct_classes, want.distinct_classes);
  EXPECT_EQ(got.class_sizes, want.class_sizes);
  EXPECT_EQ(got.plaintext_groups_visible, want.plaintext_groups_visible);
  EXPECT_EQ(got.MaxClassFraction(), want.MaxClassFraction());
  EXPECT_EQ(got.ClassEntropyBits(), want.ClassEntropyBits());
}

Bytes RandomKey(Rng* rng, size_t size) {
  Bytes key(size);
  rng->FillBytes(key.data(), key.size());
  return key;
}

/// One observation: a class key and whether the SSI reads it as cleartext.
struct Observation {
  Bytes key;
  bool plaintext = false;
};

/// The seeded key set, each distinct key repeated by its multiplicity and
/// the whole sequence shuffled.
std::vector<Observation> SeededObservations(uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> distinct;
  distinct.push_back({});  // the empty key
  for (uint32_t bucket = 0; bucket < 64; ++bucket) {
    Bytes id(4);
    EncodeU32(id.data(), bucket);
    distinct.push_back(std::move(id));
  }
  for (int i = 0; i < 400; ++i) {
    distinct.push_back(RandomKey(&rng, 4));
  }
  for (int i = 0; i < 1000; ++i) {
    distinct.push_back(RandomKey(&rng, 73));
  }
  for (int i = 0; i < 300; ++i) {
    distinct.push_back(RandomKey(&rng, 256));
  }
  for (size_t size = 1; size <= 130; ++size) {
    distinct.push_back(RandomKey(&rng, size));
  }
  // Pairs that differ only in their last byte.
  for (size_t size : {1, 4, 55, 56, 64, 73, 256}) {
    for (int i = 0; i < 20; ++i) {
      Bytes key = RandomKey(&rng, size);
      Bytes twin = key;
      twin.back() ^= static_cast<uint8_t>(1 + rng.Uniform(255));
      distinct.push_back(std::move(key));
      distinct.push_back(std::move(twin));
    }
  }
  // Random draws may repeat a short key; the reference counts that too.

  std::vector<Observation> out;
  for (size_t i = 0; i < distinct.size(); ++i) {
    // Planted classes of known size: the empty key 50 times, bucket id 0
    // 13 times, the first 73-byte key 7 times; every other key 1-4 times.
    uint64_t copies = 1 + rng.Uniform(4);
    if (i == 0) {
      copies = 50;
    } else if (i == 1) {
      copies = 13;
    } else if (i == 1 + 64 + 400) {
      copies = 7;
    }
    for (uint64_t c = 0; c < copies; ++c) {
      out.push_back({distinct[i], false});
    }
  }
  rng.Shuffle(&out);
  return out;
}

TEST(HbcObserverTest, EmptyNotebookReportsNothing) {
  ExpectSameReport(HbcObserver().Report(), ReferenceNotebook().Report());
  EXPECT_TRUE(HbcObserver().Report().class_sizes.empty());
}

TEST(HbcObserverTest, MatchesReferenceOnSeededKeys) {
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::vector<Observation> observations = SeededObservations(seed);
    HbcObserver observer;
    ReferenceNotebook reference;
    for (size_t i = 0; i < observations.size(); ++i) {
      const Observation& o = observations[i];
      observer.ObserveTuple(ByteView(o.key), o.plaintext);
      reference.ObserveTuple(ByteView(o.key), o.plaintext);
      if (i == observations.size() / 2) {
        // A report mid-run leaves the notebook as it was.
        ExpectSameReport(observer.Report(), reference.Report());
      }
    }
    const LeakageReport report = observer.Report();
    ExpectSameReport(report, reference.Report());
    EXPECT_FALSE(report.plaintext_groups_visible);
    // The planted classes are among the sizes, the empty key's the largest.
    ASSERT_FALSE(report.class_sizes.empty());
    EXPECT_EQ(report.class_sizes.back(), 50u);
    for (uint64_t planted : {13u, 7u}) {
      EXPECT_NE(std::find(report.class_sizes.begin(), report.class_sizes.end(),
                          planted),
                report.class_sizes.end());
    }
  }
}

TEST(HbcObserverTest, OnePlaintextKeyMarksTheRun) {
  HbcObserver observer;
  ReferenceNotebook reference;
  const Bytes cipher = {1, 2, 3};
  const Bytes clear = {'c', 'i', 't', 'y'};
  for (const auto& [key, plaintext] :
       {std::pair{cipher, false}, std::pair{clear, true},
        std::pair{cipher, false}}) {
    observer.ObserveTuple(ByteView(key), plaintext);
    reference.ObserveTuple(ByteView(key), plaintext);
  }
  ExpectSameReport(observer.Report(), reference.Report());
  EXPECT_TRUE(observer.Report().plaintext_groups_visible);
  EXPECT_EQ(observer.Report().class_sizes, (std::vector<uint64_t>{1, 2}));
}

}  // namespace
}  // namespace pds::global
