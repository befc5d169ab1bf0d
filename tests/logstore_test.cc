#include <gtest/gtest.h>

#include <string>

#include "flash/flash.h"
#include "logstore/sequential_log.h"

namespace pds::logstore {
namespace {

flash::Geometry SmallGeometry() {
  flash::Geometry g;
  g.page_size = 128;
  g.pages_per_block = 4;
  g.block_count = 64;
  return g;
}

class LogTest : public ::testing::Test {
 protected:
  LogTest() : chip_(SmallGeometry()), alloc_(&chip_) {}

  flash::Partition NewPartition(uint32_t blocks) {
    auto p = alloc_.Allocate(blocks);
    EXPECT_TRUE(p.ok());
    return *p;
  }

  flash::FlashChip chip_;
  flash::PartitionAllocator alloc_;
};

TEST_F(LogTest, SequentialAppendAndRead) {
  SequentialLog log(NewPartition(2));
  Bytes a(128, 0xAA), b(128, 0xBB);
  auto p0 = log.AppendPage(ByteView(a));
  auto p1 = log.AppendPage(ByteView(b));
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*p0, 0u);
  EXPECT_EQ(*p1, 1u);
  EXPECT_EQ(log.num_pages(), 2u);

  ByteView out;
  ASSERT_TRUE(log.ViewPage(0, &out).ok());
  EXPECT_EQ(out[0], 0xAA);
  ASSERT_TRUE(log.ViewPage(1, &out).ok());
  EXPECT_EQ(out[0], 0xBB);
}

TEST_F(LogTest, ReadBeyondHeadFails) {
  SequentialLog log(NewPartition(1));
  ByteView out;
  EXPECT_EQ(log.ViewPage(0, &out).code(), StatusCode::kOutOfRange);
}

TEST_F(LogTest, FillsToCapacityThenFails) {
  SequentialLog log(NewPartition(1));  // 4 pages
  Bytes page(128, 1);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(log.AppendPage(ByteView(page)).ok());
  }
  EXPECT_EQ(log.AppendPage(ByteView(page)).status().code(),
            StatusCode::kResourceExhausted);
}

TEST_F(LogTest, ResetRewinds) {
  SequentialLog log(NewPartition(1));
  Bytes page(128, 1);
  ASSERT_TRUE(log.AppendPage(ByteView(page)).ok());
  ASSERT_TRUE(log.Reset().ok());
  EXPECT_EQ(log.num_pages(), 0u);
  ASSERT_TRUE(log.AppendPage(ByteView(page)).ok());  // reusable after erase
}

TEST_F(LogTest, RecordRoundTripSmall) {
  RecordLog log(NewPartition(4));
  auto a0 = log.Append(ByteView(std::string_view("hello")));
  auto a1 = log.Append(ByteView(std::string_view("world")));
  ASSERT_TRUE(a0.ok());
  ASSERT_TRUE(a1.ok());
  EXPECT_EQ(log.num_records(), 2u);

  Bytes rec;
  ASSERT_TRUE(log.ReadAt(*a0, &rec).ok());
  EXPECT_EQ(ByteView(rec).ToString(), "hello");
  ASSERT_TRUE(log.ReadAt(*a1, &rec).ok());
  EXPECT_EQ(ByteView(rec).ToString(), "world");
}

TEST_F(LogTest, RecordsSpanPages) {
  RecordLog log(NewPartition(8));
  // 100-byte records on 128-byte pages force spanning.
  std::vector<uint64_t> addrs;
  for (int i = 0; i < 10; ++i) {
    std::string payload(100, static_cast<char>('a' + i));
    auto addr = log.Append(ByteView(std::string_view(payload)));
    ASSERT_TRUE(addr.ok());
    addrs.push_back(*addr);
  }
  for (int i = 0; i < 10; ++i) {
    Bytes rec;
    ASSERT_TRUE(log.ReadAt(addrs[i], &rec).ok());
    ASSERT_EQ(rec.size(), 100u);
    EXPECT_EQ(rec[0], static_cast<uint8_t>('a' + i));
    EXPECT_EQ(rec[99], static_cast<uint8_t>('a' + i));
  }
}

TEST_F(LogTest, RecordLargerThanPage) {
  RecordLog log(NewPartition(8));
  std::string big(500, 'z');
  auto addr = log.Append(ByteView(std::string_view(big)));
  ASSERT_TRUE(addr.ok());
  Bytes rec;
  ASSERT_TRUE(log.ReadAt(*addr, &rec).ok());
  EXPECT_EQ(ByteView(rec).ToString(), big);
}

TEST_F(LogTest, EmptyRecord) {
  RecordLog log(NewPartition(1));
  auto addr = log.Append(ByteView());
  ASSERT_TRUE(addr.ok());
  Bytes rec = {1, 2, 3};
  ASSERT_TRUE(log.ReadAt(*addr, &rec).ok());
  EXPECT_TRUE(rec.empty());
}

TEST_F(LogTest, ReaderIteratesInOrder) {
  RecordLog log(NewPartition(8));
  for (int i = 0; i < 50; ++i) {
    std::string payload = "record-" + std::to_string(i);
    ASSERT_TRUE(log.Append(ByteView(std::string_view(payload))).ok());
  }

  auto reader = log.NewReader();
  int i = 0;
  Bytes rec;
  while (!reader.AtEnd()) {
    ASSERT_TRUE(reader.Next(&rec).ok());
    EXPECT_EQ(ByteView(rec).ToString(), "record-" + std::to_string(i));
    ++i;
  }
  EXPECT_EQ(i, 50);
  EXPECT_EQ(reader.Next(&rec).code(), StatusCode::kOutOfRange);
}

TEST_F(LogTest, ScanCostsOnePageReadPerPage) {
  RecordLog log(NewPartition(8));
  // 30-byte records, 128-byte pages -> several records per page.
  for (int i = 0; i < 40; ++i) {
    std::string payload(30, static_cast<char>('a' + (i % 26)));
    ASSERT_TRUE(log.Append(ByteView(std::string_view(payload))).ok());
  }
  uint32_t flushed_pages = log.num_pages_used();
  ASSERT_GT(flushed_pages, 2u);

  chip_.ResetStats();
  auto reader = log.NewReader();
  Bytes rec;
  while (!reader.AtEnd()) {
    ASSERT_TRUE(reader.Next(&rec).ok());
  }
  // The reader caches one page: a full scan reads each flushed page once.
  EXPECT_LE(chip_.stats().page_reads, flushed_pages);
}

TEST_F(LogTest, TailVisibleBeforeFlush) {
  RecordLog log(NewPartition(1));
  // One small record stays in the RAM tail (page not full).
  auto addr = log.Append(ByteView(std::string_view("tiny")));
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(log.num_pages_used(), 1u);  // the RAM tail counts as a page

  chip_.ResetStats();
  Bytes rec;
  ASSERT_TRUE(log.ReadAt(*addr, &rec).ok());
  EXPECT_EQ(ByteView(rec).ToString(), "tiny");
  EXPECT_EQ(chip_.stats().page_reads, 0u);  // served from RAM
}

TEST_F(LogTest, ReadAtBadOffsetFails) {
  RecordLog log(NewPartition(1));
  ASSERT_TRUE(log.Append(ByteView(std::string_view("x"))).ok());
  Bytes rec;
  EXPECT_FALSE(log.ReadAt(9999, &rec).ok());
}

TEST_F(LogTest, RecordLogReset) {
  RecordLog log(NewPartition(2));
  ASSERT_TRUE(log.Append(ByteView(std::string_view("abc"))).ok());
  ASSERT_TRUE(log.Reset().ok());
  EXPECT_EQ(log.num_records(), 0u);
  EXPECT_EQ(log.size_bytes(), 0u);
  auto addr = log.Append(ByteView(std::string_view("def")));
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(*addr, 0u);
}

TEST_F(LogTest, SequentialWritesNeverTriggerInPlaceUpdate) {
  // Meta-test of the framework: a record log filling many pages must never
  // hit the NAND write-once check.
  RecordLog log(NewPartition(16));  // 16 blocks * 4 pages * 128 B = 8 KB
  for (int i = 0; i < 300; ++i) {   // 300 * 21 B < 8 KB
    std::string payload(17, static_cast<char>(i % 256));
    ASSERT_TRUE(log.Append(ByteView(std::string_view(payload))).ok())
        << "append " << i;
  }
}

}  // namespace
}  // namespace pds::logstore
