#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>

#include "flash/flash.h"
#include "obs/obs.h"

namespace pds::flash {
namespace {

Geometry SmallGeometry() {
  Geometry g;
  g.page_size = 256;
  g.pages_per_block = 4;
  g.block_count = 8;
  return g;
}

/// This process's resident set (VmRSS) in bytes; 0 if unreadable.
uint64_t ResidentBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024;
    }
  }
  return 0;
}

TEST(GeometryTest, DerivedSizes) {
  Geometry g = SmallGeometry();
  EXPECT_EQ(g.total_pages(), 32u);
}

TEST(FlashChipTest, ErasedPageReadsAllOnes) {
  FlashChip chip(SmallGeometry());
  Bytes page;
  ASSERT_TRUE(chip.ReadPage(0, &page).ok());
  ASSERT_EQ(page.size(), 256u);
  for (uint8_t b : page) {
    EXPECT_EQ(b, 0xFF);
  }
}

TEST(FlashChipTest, ViewPageCountsLikeReadPage) {
  FlashChip chip(SmallGeometry());
  Bytes data = {1, 2, 3};
  ASSERT_TRUE(chip.ProgramPage(2, ByteView(data)).ok());
  ASSERT_TRUE(chip.MarkBadPage(5).ok());
  obs::Registry& reg = obs::Registry::Global();
  obs::Counter* reads = reg.GetCounter("flash.page_reads", "ops");

  struct Probe {
    uint32_t page;
    StatusCode code;
    uint64_t counted;  // reads each call must count
  };
  // A programmed page, an erased page, a bad page (counted, then IoError)
  // and a page past the chip (OutOfRange, not counted).
  for (Probe probe : {Probe{2, StatusCode::kOk, 1},
                      Probe{0, StatusCode::kOk, 1},
                      Probe{5, StatusCode::kIoError, 1},
                      Probe{32, StatusCode::kOutOfRange, 0}}) {
    const uint64_t stats0 = chip.stats().page_reads;
    const uint64_t counter0 = reads->Value();
    Bytes copy;
    EXPECT_EQ(chip.ReadPage(probe.page, &copy).code(), probe.code);
    const uint64_t stats1 = chip.stats().page_reads;
    const uint64_t counter1 = reads->Value();
    ByteView view;
    EXPECT_EQ(chip.ViewPage(probe.page, &view).code(), probe.code);
    EXPECT_EQ(stats1 - stats0, probe.counted) << "page " << probe.page;
    EXPECT_EQ(chip.stats().page_reads - stats1, probe.counted);
#if PDS_OBS_ENABLED
    EXPECT_EQ(counter1 - counter0, probe.counted);
    EXPECT_EQ(reads->Value() - counter1, probe.counted);
#else
    (void)counter0, (void)counter1;
#endif
    if (probe.code == StatusCode::kOk) {
      ASSERT_EQ(view.size(), 256u);
      EXPECT_TRUE(view == ByteView(copy));
    }
  }

  ByteView programmed, erased;
  ASSERT_TRUE(chip.ViewPage(2, &programmed).ok());
  ASSERT_TRUE(chip.ViewPage(0, &erased).ok());
  EXPECT_EQ(programmed[0], 1);
  EXPECT_EQ(programmed[2], 3);
  for (size_t i = 3; i < programmed.size(); ++i) {
    EXPECT_EQ(programmed[i], 0xFF) << i;
  }
  for (size_t i = 0; i < erased.size(); ++i) {
    EXPECT_EQ(erased[i], 0xFF) << i;
  }
  // The view is the chip's copy: a retention error shows through it.
  ASSERT_TRUE(chip.CorruptBit(2, 8 * 1 + 4).ok());
  EXPECT_EQ(programmed[1], 2 ^ 0x10);
}

TEST(FlashChipTest, ProgramAndEraseCountOnce) {
  // A programmed page and an erased block each count exactly once, in the
  // chip's Stats and in the process-wide counter; a refused program or
  // erase counts nowhere.
  FlashChip chip(SmallGeometry());
  obs::Registry& reg = obs::Registry::Global();
  obs::Counter* programs = reg.GetCounter("flash.page_programs", "ops");
  obs::Counter* erases = reg.GetCounter("flash.block_erases", "ops");
  const Bytes one = {1};
  const Bytes oversized(257, 0);

  Stats last = chip.stats();
  uint64_t programs_last = programs->Value();
  uint64_t erases_last = erases->Value();
  auto expect_moved = [&](const char* what, const Status& status,
                          StatusCode code, uint64_t programmed,
                          uint64_t erased) {
    EXPECT_EQ(status.code(), code) << what;
    const Stats moved = chip.stats() - last;
    EXPECT_EQ(moved.page_programs, programmed) << what;
    EXPECT_EQ(moved.block_erases, erased) << what;
    EXPECT_EQ(moved.page_reads, 0u) << what;
#if PDS_OBS_ENABLED
    EXPECT_EQ(programs->Value() - programs_last, programmed) << what;
    EXPECT_EQ(erases->Value() - erases_last, erased) << what;
#endif
    last = chip.stats();
    programs_last = programs->Value();
    erases_last = erases->Value();
  };
  expect_moved("program", chip.ProgramPage(0, ByteView(one)), StatusCode::kOk,
               1, 0);
  expect_moved("program in place", chip.ProgramPage(0, ByteView(one)),
               StatusCode::kFailedPrecondition, 0, 0);
  expect_moved("program oversized", chip.ProgramPage(1, ByteView(oversized)),
               StatusCode::kInvalidArgument, 0, 0);
  expect_moved("program past the chip", chip.ProgramPage(32, ByteView(one)),
               StatusCode::kOutOfRange, 0, 0);
  expect_moved("erase", chip.EraseBlock(0), StatusCode::kOk, 0, 1);
  expect_moved("erase past the chip", chip.EraseBlock(8),
               StatusCode::kOutOfRange, 0, 0);
  expect_moved("program after erase", chip.ProgramPage(0, ByteView(one)),
               StatusCode::kOk, 1, 0);
  EXPECT_EQ(chip.WearOf(0), 1u);
}

TEST(FlashChipTest, HoldsOnlyWhatItPrograms) {
  // token_pds's chip: 2,048 blocks of 64 pages of 2,048 B, 256 MiB in all.
  // Programming one page in each of two blocks, and reading one page of
  // every block, must leave host memory far below the chip's capacity.
  Geometry g;
  g.page_size = 2048;
  g.pages_per_block = 64;
  g.block_count = 2048;
  const uint64_t before = ResidentBytes();
  ASSERT_GT(before, 0u);
  FlashChip chip(g);
  const Bytes data(g.page_size, 0x5A);
  ASSERT_TRUE(chip.ProgramPage(0, ByteView(data)).ok());
  ASSERT_TRUE(chip.ProgramPage(1000 * g.pages_per_block + 3,
                               ByteView(data)).ok());
  ByteView page;
  for (uint32_t block = 0; block < g.block_count; ++block) {
    ASSERT_TRUE(chip.ViewPage(block * g.pages_per_block + 3, &page).ok());
    EXPECT_EQ(page[0], block == 1000 ? 0x5A : 0xFF) << block;
  }
  const uint64_t after = ResidentBytes();
  EXPECT_LT(after, before + (uint64_t{8} << 20))
      << "VmRSS grew from " << before << " to " << after << " bytes";
}

TEST(FlashChipTest, ViewOutlivesOtherBlocksFirstProgram) {
  // A view into a programmed block points into that block's storage, which
  // the chip never frees or moves: other blocks getting their storage
  // leaves it intact, and after its own block is erased and reprogrammed
  // it reads the new bytes.
  FlashChip chip(SmallGeometry());
  const Bytes first = {1, 2, 3, 4};
  ASSERT_TRUE(chip.ProgramPage(5, ByteView(first)).ok());  // block 1
  ByteView view;
  ASSERT_TRUE(chip.ViewPage(5, &view).ok());
  Bytes expected(256, 0xFF);
  std::copy(first.begin(), first.end(), expected.begin());
  for (uint32_t block = 0; block < SmallGeometry().block_count; ++block) {
    if (block != 1) {
      ASSERT_TRUE(chip.ProgramPage(block * 4 + 2, ByteView(first)).ok());
    }
    EXPECT_TRUE(view == ByteView(expected)) << "after block " << block;
  }
  ASSERT_TRUE(chip.EraseBlock(1).ok());
  const Bytes second = {9, 8, 7};
  ASSERT_TRUE(chip.ProgramPage(5, ByteView(second)).ok());
  EXPECT_EQ(view[0], 9);
  EXPECT_EQ(view[2], 7);
  EXPECT_EQ(view[3], 0xFF);
}

TEST(FlashChipTest, ProgramThenRead) {
  FlashChip chip(SmallGeometry());
  Bytes data = {1, 2, 3, 4};
  ASSERT_TRUE(chip.ProgramPage(5, ByteView(data)).ok());
  Bytes page;
  ASSERT_TRUE(chip.ReadPage(5, &page).ok());
  EXPECT_EQ(page[0], 1);
  EXPECT_EQ(page[3], 4);
  EXPECT_EQ(page[4], 0xFF);  // remainder stays erased
}

TEST(FlashChipTest, RejectsInPlaceUpdate) {
  FlashChip chip(SmallGeometry());
  Bytes data = {1};
  ASSERT_TRUE(chip.ProgramPage(0, ByteView(data)).ok());
  Status s = chip.ProgramPage(0, ByteView(data));
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(FlashChipTest, EraseEnablesReprogram) {
  FlashChip chip(SmallGeometry());
  Bytes data = {9};
  ASSERT_TRUE(chip.ProgramPage(0, ByteView(data)).ok());
  ASSERT_TRUE(chip.EraseBlock(0).ok());
  EXPECT_FALSE(chip.IsProgrammed(0));
  ASSERT_TRUE(chip.ProgramPage(0, ByteView(data)).ok());
  EXPECT_TRUE(chip.IsProgrammed(0));
}

TEST(FlashChipTest, EraseIsBlockGrained) {
  FlashChip chip(SmallGeometry());
  Bytes data = {7};
  // Program pages 0..3 (block 0) and 4 (block 1).
  for (uint32_t p = 0; p <= 4; ++p) {
    ASSERT_TRUE(chip.ProgramPage(p, ByteView(data)).ok());
  }
  ASSERT_TRUE(chip.EraseBlock(0).ok());
  for (uint32_t p = 0; p < 4; ++p) {
    EXPECT_FALSE(chip.IsProgrammed(p));
  }
  EXPECT_TRUE(chip.IsProgrammed(4));  // block 1 untouched
}

TEST(FlashChipTest, BoundsChecked) {
  FlashChip chip(SmallGeometry());
  Bytes page;
  EXPECT_EQ(chip.ReadPage(32, &page).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(chip.ProgramPage(32, ByteView(page)).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(chip.EraseBlock(8).code(), StatusCode::kOutOfRange);
}

TEST(FlashChipTest, RejectsOversizedWrite) {
  FlashChip chip(SmallGeometry());
  Bytes data(257, 0);
  EXPECT_EQ(chip.ProgramPage(0, ByteView(data)).code(),
            StatusCode::kInvalidArgument);
}

TEST(FlashChipTest, StatsCountOperations) {
  FlashChip chip(SmallGeometry());
  Bytes data = {1};
  Bytes page;
  ASSERT_TRUE(chip.ProgramPage(0, ByteView(data)).ok());
  ASSERT_TRUE(chip.ReadPage(0, &page).ok());
  ASSERT_TRUE(chip.ReadPage(1, &page).ok());
  ASSERT_TRUE(chip.EraseBlock(0).ok());
  EXPECT_EQ(chip.stats().page_programs, 1u);
  EXPECT_EQ(chip.stats().page_reads, 2u);
  EXPECT_EQ(chip.stats().block_erases, 1u);

  chip.ResetStats();
  EXPECT_EQ(chip.stats().page_reads, 0u);
}

TEST(FlashChipTest, StatsTimeModel) {
  Stats s;
  s.page_reads = 10;
  s.page_programs = 4;
  s.block_erases = 2;
  CostModel cost;  // 25 / 250 / 1500 us
  EXPECT_DOUBLE_EQ(s.TimeUs(cost), 10 * 25.0 + 4 * 250.0 + 2 * 1500.0);
}

TEST(FlashChipTest, StatsDifference) {
  Stats a{10, 5, 2}, b{4, 3, 1};
  Stats d = a - b;
  EXPECT_EQ(d.page_reads, 6u);
  EXPECT_EQ(d.page_programs, 2u);
  EXPECT_EQ(d.block_erases, 1u);
}

TEST(FlashStats, FieldCountGuard) {
  // Structured bindings of exactly this arity fail to compile when a field
  // is added to Stats — forcing whoever adds one to also update ResetStats,
  // operator-, ToString, the obs counters in flash.cc, and this test (the
  // static_assert in flash.h backs this up against padding/type drift).
  Stats s{7, 5, 3};
  auto& [reads, programs, erases] = s;
  EXPECT_EQ(reads, 7u);
  EXPECT_EQ(programs, 5u);
  EXPECT_EQ(erases, 3u);

  // operator- must cover every field.
  Stats d = Stats{10, 8, 6} - s;
  auto& [dr, dp, de] = d;
  EXPECT_EQ(dr, 3u);
  EXPECT_EQ(dp, 3u);
  EXPECT_EQ(de, 3u);

  // ToString must mention every field's value.
  std::string str = s.ToString();
  EXPECT_NE(str.find('7'), std::string::npos);
  EXPECT_NE(str.find('5'), std::string::npos);
  EXPECT_NE(str.find('3'), std::string::npos);
}

TEST(FlashChipTest, WearTracking) {
  FlashChip chip(SmallGeometry());
  ASSERT_TRUE(chip.EraseBlock(3).ok());
  ASSERT_TRUE(chip.EraseBlock(3).ok());
  ASSERT_TRUE(chip.EraseBlock(1).ok());
  EXPECT_EQ(chip.WearOf(3), 2u);
  EXPECT_EQ(chip.WearOf(1), 1u);
  EXPECT_EQ(chip.WearOf(0), 0u);
  EXPECT_EQ(chip.MaxWear(), 2u);
}

TEST(FlashChipTest, WearOfPastChipIsZero) {
  // Past the chip WearOf answers 0, as IsProgrammed answers false, rather
  // than reading past the wear table.
  FlashChip chip(SmallGeometry());
  ASSERT_TRUE(chip.EraseBlock(7).ok());
  EXPECT_EQ(chip.WearOf(7), 1u);
  EXPECT_EQ(chip.WearOf(8), 0u);
  EXPECT_EQ(chip.WearOf(UINT32_MAX), 0u);
  EXPECT_FALSE(chip.IsProgrammed(32));
}

TEST(PartitionTest, LocalAddressing) {
  FlashChip chip(SmallGeometry());
  Partition part(&chip, /*first_block=*/2, /*num_blocks=*/2);
  EXPECT_EQ(part.num_pages(), 8u);

  Bytes data = {42};
  ASSERT_TRUE(part.ProgramPage(0, ByteView(data)).ok());
  // Local page 0 is chip page 8 (block 2 * 4 pages).
  EXPECT_TRUE(chip.IsProgrammed(8));
  EXPECT_FALSE(chip.IsProgrammed(0));

  ByteView page;
  ASSERT_TRUE(part.ViewPage(0, &page).ok());
  EXPECT_EQ(page[0], 42);
}

TEST(PartitionTest, BoundsWithinPartition) {
  FlashChip chip(SmallGeometry());
  Partition part(&chip, 2, 2);
  Bytes data = {1};
  EXPECT_EQ(part.ProgramPage(8, ByteView(data)).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(part.EraseBlock(2).code(), StatusCode::kOutOfRange);
}

TEST(PartitionTest, EraseAll) {
  FlashChip chip(SmallGeometry());
  Partition part(&chip, 1, 2);
  Bytes data = {1};
  for (uint32_t p = 0; p < part.num_pages(); ++p) {
    ASSERT_TRUE(part.ProgramPage(p, ByteView(data)).ok());
  }
  ASSERT_TRUE(part.EraseAll().ok());
  for (uint32_t p = 0; p < part.num_pages(); ++p) {
    ASSERT_TRUE(part.ProgramPage(p, ByteView(data)).ok());
  }
}

TEST(PartitionTest, DefaultInvalid) {
  Partition part;
  EXPECT_FALSE(part.valid());
  ByteView page;
  EXPECT_EQ(part.ViewPage(0, &page).code(), StatusCode::kFailedPrecondition);
}

TEST(PartitionAllocatorTest, DisjointAllocations) {
  FlashChip chip(SmallGeometry());
  PartitionAllocator alloc(&chip);

  auto p1 = alloc.Allocate(3);
  ASSERT_TRUE(p1.ok());
  auto p2 = alloc.Allocate(3);
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(alloc.blocks_used(), 6u);
  EXPECT_EQ(alloc.blocks_free(), 2u);

  // Writing through p1 and p2 touches different chip pages.
  Bytes data = {1};
  ASSERT_TRUE(p1->ProgramPage(0, ByteView(data)).ok());
  ASSERT_TRUE(p2->ProgramPage(0, ByteView(data)).ok());
  EXPECT_TRUE(chip.IsProgrammed(0));
  EXPECT_TRUE(chip.IsProgrammed(12));
}

TEST(PartitionAllocatorTest, ExhaustsChip) {
  FlashChip chip(SmallGeometry());
  PartitionAllocator alloc(&chip);
  ASSERT_TRUE(alloc.Allocate(8).ok());
  EXPECT_EQ(alloc.Allocate(1).status().code(),
            StatusCode::kResourceExhausted);

  // A request whose end would wrap past 2^32 blocks is refused as well,
  // and the next partition still starts after the first.
  FlashChip fresh(SmallGeometry());
  PartitionAllocator wrap(&fresh);
  ASSERT_TRUE(wrap.Allocate(3).ok());
  EXPECT_EQ(wrap.Allocate(UINT32_MAX - 1).status().code(),
            StatusCode::kResourceExhausted);
  auto next = wrap.Allocate(2);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->first_block(), 3u);
  EXPECT_EQ(wrap.blocks_free(), 3u);
}

TEST(PartitionAllocatorTest, RejectsZeroBlocks) {
  FlashChip chip(SmallGeometry());
  PartitionAllocator alloc(&chip);
  EXPECT_EQ(alloc.Allocate(0).status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pds::flash
