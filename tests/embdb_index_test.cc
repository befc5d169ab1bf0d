#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "common/rng.h"
#include "embdb/key_index.h"
#include "embdb/reorganize.h"
#include "embdb/tree_index.h"
#include "flash/flash.h"
#include "mcu/ram_gauge.h"

namespace pds::embdb {
namespace {

flash::Geometry IndexGeometry() {
  flash::Geometry g;
  g.page_size = 512;
  g.pages_per_block = 8;
  g.block_count = 1024;
  return g;
}

class KeyIndexTest : public ::testing::Test {
 protected:
  KeyIndexTest() : chip_(IndexGeometry()), alloc_(&chip_), gauge_(64 * 1024) {}

  std::unique_ptr<KeyLogIndex> NewIndex(double bits_per_key = 16.0,
                                        uint32_t key_blocks = 32,
                                        uint32_t bloom_blocks = 8) {
    auto keys = alloc_.Allocate(key_blocks);
    auto bloom = alloc_.Allocate(bloom_blocks);
    EXPECT_TRUE(keys.ok());
    EXPECT_TRUE(bloom.ok());
    KeyLogIndex::Options opts;
    opts.bits_per_key = bits_per_key;
    auto index = std::make_unique<KeyLogIndex>(*keys, *bloom, &gauge_, opts);
    EXPECT_TRUE(index->Init().ok());
    return index;
  }

  flash::FlashChip chip_;
  flash::PartitionAllocator alloc_;
  mcu::RamGauge gauge_;
};

TEST_F(KeyIndexTest, LookupFindsAllDuplicates) {
  auto index = NewIndex();
  // "lyon" at rowids 20, 30, 50, 70, 90 — the tutorial's example.
  std::vector<uint64_t> lyon_rows = {20, 30, 50, 70, 90};
  for (uint64_t r = 0; r < 100; ++r) {
    bool is_lyon =
        std::find(lyon_rows.begin(), lyon_rows.end(), r) != lyon_rows.end();
    ASSERT_TRUE(
        index->Insert(Value::Str(is_lyon ? "lyon" : "city-" +
                                           std::to_string(r)), r).ok());
  }
  std::vector<uint64_t> rowids;
  KeyLogIndex::LookupStats stats;
  ASSERT_TRUE(index->Lookup(Value::Str("lyon"), &rowids, &stats).ok());
  std::sort(rowids.begin(), rowids.end());
  EXPECT_EQ(rowids, lyon_rows);
  EXPECT_EQ(stats.matches, 5u);
}

TEST_F(KeyIndexTest, AbsentKeyFindsNothing) {
  auto index = NewIndex();
  for (uint64_t r = 0; r < 200; ++r) {
    ASSERT_TRUE(index->Insert(Value::U64(r), r).ok());
  }
  std::vector<uint64_t> rowids;
  KeyLogIndex::LookupStats stats;
  ASSERT_TRUE(index->Lookup(Value::U64(9999), &rowids, &stats).ok());
  EXPECT_TRUE(rowids.empty());
}

TEST_F(KeyIndexTest, SummaryScanIsCheaperThanKeyScan) {
  // The E1 shape: lookup IO = summary pages + hit pages << key pages.
  auto index = NewIndex(16.0);
  for (uint64_t r = 0; r < 2000; ++r) {
    ASSERT_TRUE(
        index->Insert(Value::Str("city-" + std::to_string(r % 500)), r).ok());
  }
  std::vector<uint64_t> rowids;
  KeyLogIndex::LookupStats stats;
  ASSERT_TRUE(index->Lookup(Value::Str("city-7"), &rowids, &stats).ok());
  EXPECT_EQ(rowids.size(), 4u);  // 2000/500
  EXPECT_GT(index->num_key_pages_flushed(), 0u);
  // Summary is ~2 bytes/key vs 32-byte entries: ~16x fewer pages.
  EXPECT_LT(stats.summary_pages,
            std::max(1u, index->num_key_pages_flushed() / 8));
  // Total lookup IO far below scanning all key pages.
  EXPECT_LT(stats.summary_pages + stats.key_pages,
            index->num_key_pages_flushed());
}

TEST_F(KeyIndexTest, LowBitsPerKeyRaisesFalsePositives) {
  auto precise = NewIndex(16.0);
  auto sloppy = NewIndex(2.0);
  for (uint64_t r = 0; r < 3000; ++r) {
    ASSERT_TRUE(precise->Insert(Value::U64(r), r).ok());
    ASSERT_TRUE(sloppy->Insert(Value::U64(r), r).ok());
  }
  uint64_t fp_precise = 0, fp_sloppy = 0;
  std::vector<uint64_t> rowids;
  KeyLogIndex::LookupStats stats;
  for (uint64_t probe = 100000; probe < 100200; ++probe) {
    ASSERT_TRUE(precise->Lookup(Value::U64(probe), &rowids, &stats).ok());
    fp_precise += stats.false_positive_pages;
    ASSERT_TRUE(sloppy->Lookup(Value::U64(probe), &rowids, &stats).ok());
    fp_sloppy += stats.false_positive_pages;
  }
  EXPECT_GT(fp_sloppy, fp_precise);
}

TEST_F(KeyIndexTest, UnflushedEntriesVisible) {
  auto index = NewIndex();
  ASSERT_TRUE(index->Insert(Value::Str("fresh"), 42).ok());
  std::vector<uint64_t> rowids;
  KeyLogIndex::LookupStats stats;
  ASSERT_TRUE(index->Lookup(Value::Str("fresh"), &rowids, &stats).ok());
  ASSERT_EQ(rowids.size(), 1u);
  EXPECT_EQ(rowids[0], 42u);
}

TEST_F(KeyIndexTest, ScanEntriesSeesEverything) {
  auto index = NewIndex();
  for (uint64_t r = 0; r < 137; ++r) {
    ASSERT_TRUE(index->Insert(Value::U64(r * 3), r).ok());
  }
  uint64_t count = 0;
  ASSERT_TRUE(index
                  ->ScanEntries([&](const uint8_t* key, uint64_t rowid) {
                    (void)key;
                    (void)rowid;
                    ++count;
                    return Status::Ok();
                  })
                  .ok());
  EXPECT_EQ(count, 137u);
}

TEST_F(KeyIndexTest, RamChargeReleasedOnDestruction) {
  size_t before = gauge_.in_use();
  {
    auto index = NewIndex();
    EXPECT_GT(gauge_.in_use(), before);
  }
  EXPECT_EQ(gauge_.in_use(), before);
}

class TreeIndexTest : public ::testing::Test {
 protected:
  TreeIndexTest() : chip_(IndexGeometry()), alloc_(&chip_), gauge_(64 * 1024) {}

  /// Builds a tree over n entries with key = f(i), rowid = i.
  Result<TreeIndex> BuildTree(
      uint64_t n, const std::function<Value(uint64_t)>& key_of,
      size_t sort_ram = 8 * 1024) {
    // Feed through a key log + reorganizer, exercising the whole pipeline.
    auto keys = alloc_.Allocate(64);
    auto bloom = alloc_.Allocate(16);
    KeyLogIndex source(*keys, *bloom, &gauge_, {});
    PDS_RETURN_IF_ERROR(source.Init());
    for (uint64_t i = 0; i < n; ++i) {
      PDS_RETURN_IF_ERROR(source.Insert(key_of(i), i));
    }
    Reorganizer::Options opts;
    opts.sort_ram_bytes = sort_ram;
    return Reorganizer::Reorganize(&source, &alloc_, &gauge_, opts);
  }

  flash::FlashChip chip_;
  flash::PartitionAllocator alloc_;
  mcu::RamGauge gauge_;
};

TEST_F(TreeIndexTest, EmptyTree) {
  auto tree = BuildTree(0, [](uint64_t) { return Value::U64(0); });
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->height(), 0u);
  std::vector<uint64_t> rowids;
  TreeIndex::LookupStats stats;
  ASSERT_TRUE(tree->Lookup(Value::U64(5), &rowids, &stats).ok());
  EXPECT_TRUE(rowids.empty());
}

TEST_F(TreeIndexTest, SingleLeaf) {
  auto tree = BuildTree(5, [](uint64_t i) { return Value::U64(i); });
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->height(), 1u);
  std::vector<uint64_t> rowids;
  TreeIndex::LookupStats stats;
  ASSERT_TRUE(tree->Lookup(Value::U64(3), &rowids, &stats).ok());
  ASSERT_EQ(rowids.size(), 1u);
  EXPECT_EQ(rowids[0], 3u);
}

TEST_F(TreeIndexTest, MultiLevelLookupEveryKey) {
  // 512-byte pages -> 15 leaf entries/page; 3000 entries -> height >= 2.
  const uint64_t n = 3000;
  auto tree = BuildTree(n, [](uint64_t i) { return Value::U64(i * 7); });
  ASSERT_TRUE(tree.ok());
  EXPECT_GE(tree->height(), 2u);
  EXPECT_EQ(tree->num_entries(), n);

  Rng rng(5);
  std::vector<uint64_t> rowids;
  TreeIndex::LookupStats stats;
  for (int t = 0; t < 200; ++t) {
    uint64_t i = rng.Uniform(n);
    ASSERT_TRUE(tree->Lookup(Value::U64(i * 7), &rowids, &stats).ok());
    ASSERT_EQ(rowids.size(), 1u) << "key " << i * 7;
    EXPECT_EQ(rowids[0], i);
  }
}

TEST_F(TreeIndexTest, AbsentKeysReturnEmpty) {
  auto tree = BuildTree(3000, [](uint64_t i) { return Value::U64(i * 2); });
  ASSERT_TRUE(tree.ok());
  std::vector<uint64_t> rowids;
  TreeIndex::LookupStats stats;
  for (uint64_t odd = 1; odd < 100; odd += 2) {
    ASSERT_TRUE(tree->Lookup(Value::U64(odd), &rowids, &stats).ok());
    EXPECT_TRUE(rowids.empty()) << odd;
  }
}

TEST_F(TreeIndexTest, DuplicateRunsSpanLeaves) {
  // Few distinct keys, many duplicates: runs cross leaf boundaries.
  const uint64_t n = 1000;
  auto tree = BuildTree(n, [](uint64_t i) { return Value::U64(i % 7); });
  ASSERT_TRUE(tree.ok());
  std::vector<uint64_t> rowids;
  TreeIndex::LookupStats stats;
  for (uint64_t k = 0; k < 7; ++k) {
    ASSERT_TRUE(tree->Lookup(Value::U64(k), &rowids, &stats).ok());
    // ceil/floor of 1000/7.
    EXPECT_NEAR(static_cast<double>(rowids.size()), 1000.0 / 7, 1.0);
    // All returned rowids must actually have this key and be ascending.
    for (size_t i = 0; i < rowids.size(); ++i) {
      EXPECT_EQ(rowids[i] % 7, k);
      if (i > 0) {
        EXPECT_LT(rowids[i - 1], rowids[i]);
      }
    }
  }
}

TEST_F(TreeIndexTest, LookupIoIsLogarithmic) {
  const uint64_t n = 5000;
  auto tree = BuildTree(n, [](uint64_t i) { return Value::U64(i); });
  ASSERT_TRUE(tree.ok());
  std::vector<uint64_t> rowids;
  TreeIndex::LookupStats stats;
  ASSERT_TRUE(tree->Lookup(Value::U64(2500), &rowids, &stats).ok());
  // height-1 internal reads + a couple of leaves.
  EXPECT_LE(stats.internal_pages, tree->height() - 1);
  EXPECT_LE(stats.leaf_pages, 2u);
  EXPECT_LT(stats.internal_pages + stats.leaf_pages,
            tree->num_leaf_pages() / 4);
}

TEST_F(TreeIndexTest, RangeScan) {
  auto tree = BuildTree(500, [](uint64_t i) { return Value::U64(i); });
  ASSERT_TRUE(tree.ok());
  std::vector<uint64_t> seen;
  ASSERT_TRUE(tree->Range(Value::U64(100), Value::U64(149),
                          [&](const uint8_t* key, uint64_t rowid) {
                            (void)key;
                            seen.push_back(rowid);
                            return Status::Ok();
                          })
                  .ok());
  ASSERT_EQ(seen.size(), 50u);
  EXPECT_EQ(seen.front(), 100u);
  EXPECT_EQ(seen.back(), 149u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST_F(TreeIndexTest, StringKeys) {
  auto tree = BuildTree(800, [](uint64_t i) {
    return Value::Str("city-" + std::to_string(i % 40));
  });
  ASSERT_TRUE(tree.ok());
  std::vector<uint64_t> rowids;
  TreeIndex::LookupStats stats;
  ASSERT_TRUE(tree->Lookup(Value::Str("city-13"), &rowids, &stats).ok());
  EXPECT_EQ(rowids.size(), 20u);
  for (uint64_t r : rowids) {
    EXPECT_EQ(r % 40, 13u);
  }
}

TEST_F(TreeIndexTest, BuilderRejectsOutOfOrder) {
  auto leaf = alloc_.Allocate(4);
  auto internal = alloc_.Allocate(2);
  TreeIndexBuilder builder(*leaf, *internal);
  uint8_t e1[32] = {0}, e2[32] = {0};
  e1[0] = 5;
  e2[0] = 3;  // smaller key after larger
  ASSERT_TRUE(builder.Add(e1).ok());
  EXPECT_EQ(builder.Add(e2).code(), StatusCode::kInvalidArgument);
}

TEST_F(TreeIndexTest, CorruptRootCountFailsCleanly) {
  // 270 entries on 512-byte pages: 18 full leaves of 15 entries and one
  // full root of 18 internal entries.
  flash::Partition leaf, internal;
  ASSERT_TRUE(AllocateTreePartitions(&alloc_, 270, &leaf, &internal).ok());
  TreeIndexBuilder builder(leaf, internal);
  for (uint64_t i = 0; i < 270; ++i) {
    uint8_t entry[TreeIndex::kLeafEntrySize];
    Value::U64(i).EncodeKey(entry);
    EncodeU64BE(entry + Value::kKeyWidth, i);
    ASSERT_TRUE(builder.Add(entry).ok());
  }
  auto tree = builder.Finish();
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ASSERT_EQ(tree->height(), 2u);
  ASSERT_EQ(tree->num_leaf_pages(), 18u);
  ASSERT_EQ(tree->num_internal_pages(), 1u);

  std::vector<uint64_t> rowids;
  TreeIndex::LookupStats stats;
  ASSERT_TRUE(tree->Lookup(Value::U64(269), &rowids, &stats).ok());
  ASSERT_EQ(rowids, std::vector<uint64_t>{269});

  // Bit 31 is the top bit of the root's u16 count (bytes 2-3): the count
  // now claims 32,786 entries on a page that holds 18.
  const uint32_t root = internal.first_block() * internal.pages_per_block();
  ASSERT_TRUE(chip_.CorruptBit(root, 31).ok());
  EXPECT_EQ(tree->Lookup(Value::U64(1000), &rowids, &stats).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(tree->Range(Value::U64(500), Value::U64(600),
                        [](const uint8_t*, uint64_t) { return Status::Ok(); })
                .code(),
            StatusCode::kCorruption);
}

TEST_F(TreeIndexTest, ReorganizationSpeedsUpLookups) {
  // The E4 claim: after reorganization, lookups cost far fewer IOs.
  auto keys = alloc_.Allocate(128);
  auto bloom = alloc_.Allocate(32);
  KeyLogIndex source(*keys, *bloom, &gauge_, {});
  ASSERT_TRUE(source.Init().ok());
  const uint64_t n = 4000;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(source.Insert(Value::U64(i), i).ok());
  }

  chip_.ResetStats();
  std::vector<uint64_t> rowids;
  KeyLogIndex::LookupStats kstats;
  ASSERT_TRUE(source.Lookup(Value::U64(1234), &rowids, &kstats).ok());
  uint64_t log_reads = chip_.stats().page_reads;

  auto tree = Reorganizer::Reorganize(&source, &alloc_, &gauge_, {});
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();

  chip_.ResetStats();
  TreeIndex::LookupStats tstats;
  ASSERT_TRUE(tree->Lookup(Value::U64(1234), &rowids, &tstats).ok());
  uint64_t tree_reads = chip_.stats().page_reads;

  EXPECT_LT(tree_reads, log_reads);
  ASSERT_EQ(rowids.size(), 1u);
  EXPECT_EQ(rowids[0], 1234u);
}

TEST_F(TreeIndexTest, ReorganizationPreservesEveryEntry) {
  auto keys = alloc_.Allocate(64);
  auto bloom = alloc_.Allocate(16);
  KeyLogIndex source(*keys, *bloom, &gauge_, {});
  ASSERT_TRUE(source.Init().ok());
  Rng rng(11);
  std::map<uint64_t, std::vector<uint64_t>> expected;
  for (uint64_t r = 0; r < 2000; ++r) {
    uint64_t key = rng.Uniform(300);
    expected[key].push_back(r);
    ASSERT_TRUE(source.Insert(Value::U64(key), r).ok());
  }
  auto tree = Reorganizer::Reorganize(&source, &alloc_, &gauge_, {});
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->num_entries(), 2000u);

  std::vector<uint64_t> rowids;
  TreeIndex::LookupStats stats;
  for (auto& [key, rows] : expected) {
    ASSERT_TRUE(tree->Lookup(Value::U64(key), &rowids, &stats).ok());
    EXPECT_EQ(rowids, rows) << "key " << key;  // ascending rowids
  }
}

}  // namespace
}  // namespace pds::embdb
