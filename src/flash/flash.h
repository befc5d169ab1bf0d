#ifndef PDS_FLASH_FLASH_H_
#define PDS_FLASH_FLASH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/obs.h"

namespace pds::flash {

/// Physical layout of a NAND flash chip.
///
/// NAND is written by *page* and erased by *block* (a block is a contiguous
/// group of pages). A page can be programmed only once between two erases of
/// its block — the simulator enforces this, so data structures that rely on
/// in-place updates fail loudly.
struct Geometry {
  uint32_t page_size = 2048;      // bytes per page
  uint32_t pages_per_block = 64;  // pages per erase block
  uint32_t block_count = 1024;    // number of erase blocks

  uint32_t total_pages() const { return pages_per_block * block_count; }
};

/// Latency model, defaults from typical SLC NAND datasheets.
struct CostModel {
  double read_page_us = 25.0;
  double program_page_us = 250.0;
  double erase_block_us = 1500.0;
};

/// Operation counters. `TimeUs` converts counts into simulated time under a
/// CostModel; benchmarks report both raw counts and simulated time.
struct Stats {
  uint64_t page_reads = 0;
  uint64_t page_programs = 0;
  uint64_t block_erases = 0;

  double TimeUs(const CostModel& cost) const {
    return static_cast<double>(page_reads) * cost.read_page_us +
           static_cast<double>(page_programs) * cost.program_page_us +
           static_cast<double>(block_erases) * cost.erase_block_us;
  }

  Stats operator-(const Stats& other) const {
    return Stats{page_reads - other.page_reads,
                 page_programs - other.page_programs,
                 block_erases - other.block_erases};
  }

  std::string ToString() const;
};

/// Drift guard for Stats: ResetStats() (zero-init), operator-, ToString(),
/// and the obs counter emission in flash.cc must cover every field. The
/// flash_test field-count test destructures Stats with structured bindings
/// of exactly this arity, so adding a field without updating every consumer
/// fails to compile; this assert additionally catches padding/type drift.
static_assert(sizeof(Stats) == 3 * sizeof(uint64_t),
              "flash::Stats fields changed: update ResetStats/operator-/"
              "ToString, the obs counters in flash.cc, and the "
              "FlashStats.FieldCountGuard test in flash_test.cc");

/// In-memory NAND flash chip simulator with write-once-per-erase semantics
/// and per-block wear counters. The chip holds only what it programs: a
/// block gets its storage (0xFF) on its first program, and every page of a
/// never-programmed block reads one chip-owned erased page, so host memory
/// follows the data stored, not the chip's capacity. Storage, once a block
/// has it, is never freed or moved.
class FlashChip {
 public:
  explicit FlashChip(const Geometry& geometry);

  FlashChip(const FlashChip&) = delete;
  FlashChip& operator=(const FlashChip&) = delete;

  const Geometry& geometry() const { return geometry_; }

  /// Reads one full page where it lies: `*out` views the chip's copy of the
  /// page (page_size bytes). This is the one place a page read is counted:
  /// `stats()` and the `flash.page_reads` counter. Reading an erased page
  /// yields 0xFF bytes, as on real NAND; a fault-injected bad page fails
  /// with IoError after its read is counted. The view is valid until the
  /// page's block is next erased. A view of a page in a never-programmed
  /// block is a view of the chip's one erased page: it keeps reading 0xFF
  /// after that block's first program.
  [[nodiscard]] Status ViewPage(uint32_t page, ByteView* out);

  /// Copies one full page into `out` (resized to page_size): a ViewPage
  /// that outlives the next erase of the page's block.
  [[nodiscard]] Status ReadPage(uint32_t page, Bytes* out);

  /// Programs a page, counted in `stats()` and `flash.page_programs`. Fails
  /// uncounted with FailedPrecondition if the page was already programmed
  /// since the last erase of its block (random in-place writes are
  /// physically impossible on NAND). `data` may be shorter than the page;
  /// the remainder stays 0xFF.
  [[nodiscard]] Status ProgramPage(uint32_t page, ByteView data);

  /// Erases a whole block, resetting all its pages to 0xFF; counted in
  /// `stats()`, `flash.block_erases` and the block's wear.
  [[nodiscard]] Status EraseBlock(uint32_t block);

  bool IsProgrammed(uint32_t page) const;

  /// Erase count of a block (wear); 0 past the chip.
  uint32_t WearOf(uint32_t block) const {
    return block < wear_.size() ? wear_[block] : 0;
  }
  uint32_t MaxWear() const;

  /// Fault injection (testing): flips one stored bit, as a retention error
  /// or disturbed cell would; a never-programmed block gets its storage
  /// first, so no other page sees the flip. Does not touch the stats.
  [[nodiscard]] Status CorruptBit(uint32_t page, uint32_t bit_offset);
  /// Fault injection (testing): the page fails with IoError on every
  /// subsequent read (a worn-out or unreadable page).
  [[nodiscard]] Status MarkBadPage(uint32_t page);

  /// Simulated device time is `stats().TimeUs(cost)`.
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

 private:
  /// Process-wide obs metrics (aggregated over all chips), resolved once at
  /// construction so per-op emission is a single atomic add.
  struct ObsHooks {
    obs::Counter* reads = nullptr;
    obs::Counter* programs = nullptr;
    obs::Counter* erases = nullptr;
  };

  /// The first byte of `page` in its block's storage, which the block gets
  /// (pages_per_block * page_size bytes of 0xFF) on the first call.
  uint8_t* BackedPage(uint32_t page);

  Geometry geometry_;
  std::vector<Bytes> blocks_;      // per block; empty until first program
  Bytes erased_page_;              // page_size 0xFF bytes, never written
  std::vector<uint8_t> programmed_;  // one flag per page
  std::vector<uint8_t> bad_;       // fault-injected unreadable pages
  std::vector<uint32_t> wear_;     // erase count per block
  Stats stats_;
  ObsHooks obs_;
};

/// A contiguous range of blocks of a chip, exposed with block/page indices
/// local to the partition. Every on-flash structure (table heap, index log,
/// inverted-index buckets...) owns one partition, which makes allocation and
/// whole-structure deallocation block-grained — exactly the "allocate and
/// de-allocate on large grains" rule from the tutorial.
class Partition {
 public:
  Partition() : chip_(nullptr), first_block_(0), num_blocks_(0) {}
  Partition(FlashChip* chip, uint32_t first_block, uint32_t num_blocks);

  FlashChip* chip() const { return chip_; }
  uint32_t first_block() const { return first_block_; }
  uint32_t num_blocks() const { return num_blocks_; }
  uint32_t pages_per_block() const {
    return chip_->geometry().pages_per_block;
  }
  uint32_t page_size() const { return chip_->geometry().page_size; }
  uint32_t num_pages() const { return num_blocks_ * pages_per_block(); }

  /// FlashChip::ViewPage on a partition-local page; the view is valid
  /// until the page's block is next erased.
  [[nodiscard]] Status ViewPage(uint32_t local_page, ByteView* out);
  [[nodiscard]] Status ProgramPage(uint32_t local_page, ByteView data);
  [[nodiscard]] Status EraseBlock(uint32_t local_block);
  /// Erases every block in the partition.
  [[nodiscard]] Status EraseAll();

  bool valid() const { return chip_ != nullptr; }

 private:
  [[nodiscard]] Status CheckPage(uint32_t local_page) const;

  FlashChip* chip_;
  uint32_t first_block_;
  uint32_t num_blocks_;
};

/// Hands out disjoint partitions of a chip, front to back, with a free
/// list for whole-partition reclamation — the tutorial's "allocation &
/// de-allocation are made on large grains (Flash block basis)".
class PartitionAllocator {
 public:
  explicit PartitionAllocator(FlashChip* chip) : chip_(chip) {}

  const Geometry& geometry() const { return chip_->geometry(); }

  /// Allocates `num_blocks` blocks — reusing a freed range when one is
  /// large enough (first fit, split on surplus), else fresh blocks — and
  /// fails with ResourceExhausted when the chip is full.
  [[nodiscard]] Result<Partition> Allocate(uint32_t num_blocks);

  /// Returns a partition's blocks to the allocator (erasing them). The
  /// caller must no longer use the partition or structures built on it.
  [[nodiscard]] Status Free(const Partition& partition);

  uint32_t blocks_used() const { return next_block_ - freed_blocks_; }
  uint32_t blocks_free() const {
    return chip_->geometry().block_count - next_block_ + freed_blocks_;
  }

 private:
  struct FreeRange {
    uint32_t first_block;
    uint32_t num_blocks;
  };

  FlashChip* chip_;
  uint32_t next_block_ = 0;
  uint32_t freed_blocks_ = 0;
  std::vector<FreeRange> free_list_;
};

}  // namespace pds::flash

#endif  // PDS_FLASH_FLASH_H_
