#include "flash/flash.h"

#include <algorithm>
#include <cstring>

namespace pds::flash {
namespace {

/// Where `page` starts in its block's storage.
size_t OffsetInBlock(const Geometry& g, uint32_t page) {
  return static_cast<size_t>(page % g.pages_per_block) * g.page_size;
}

}  // namespace

std::string Stats::ToString() const {
  return "reads=" + std::to_string(page_reads) +
         " programs=" + std::to_string(page_programs) +
         " erases=" + std::to_string(block_erases);
}

FlashChip::FlashChip(const Geometry& geometry)
    : geometry_(geometry),
      blocks_(geometry.block_count),
      erased_page_(geometry.page_size, 0xFF),
      programmed_(geometry.total_pages(), 0),
      bad_(geometry.total_pages(), 0),
      wear_(geometry.block_count, 0) {
  obs::Registry& reg = obs::Registry::Global();
  obs_.reads = reg.GetCounter("flash.page_reads", "ops");
  obs_.programs = reg.GetCounter("flash.page_programs", "ops");
  obs_.erases = reg.GetCounter("flash.block_erases", "ops");
}

Status FlashChip::ViewPage(uint32_t page, ByteView* out) {
  if (page >= geometry_.total_pages()) {
    return Status::OutOfRange("page " + std::to_string(page) +
                              " beyond chip capacity");
  }
  ++stats_.page_reads;
  obs_.reads->Add(1);
  if (bad_[page]) {
    return Status::IoError("page " + std::to_string(page) +
                           " is unreadable (fault injected)");
  }
  const Bytes& block = blocks_[page / geometry_.pages_per_block];
  *out = block.empty()
             ? ByteView(erased_page_)
             : ByteView(block.data() + OffsetInBlock(geometry_, page),
                        geometry_.page_size);
  return Status::Ok();
}

Status FlashChip::ReadPage(uint32_t page, Bytes* out) {
  ByteView view;
  PDS_RETURN_IF_ERROR(ViewPage(page, &view));
  out->assign(view.data(), view.data() + view.size());
  return Status::Ok();
}

Status FlashChip::ProgramPage(uint32_t page, ByteView data) {
  if (page >= geometry_.total_pages()) {
    return Status::OutOfRange("page " + std::to_string(page) +
                              " beyond chip capacity");
  }
  if (data.size() > geometry_.page_size) {
    return Status::InvalidArgument("data larger than page");
  }
  if (programmed_[page]) {
    return Status::FailedPrecondition(
        "page " + std::to_string(page) +
        " already programmed since last erase (NAND forbids in-place "
        "update)");
  }
  ++stats_.page_programs;
  obs_.programs->Add(1);
  programmed_[page] = 1;
  std::memcpy(BackedPage(page), data.data(), data.size());
  // Remainder of the page stays erased (0xFF).
  return Status::Ok();
}

uint8_t* FlashChip::BackedPage(uint32_t page) {
  Bytes& block = blocks_[page / geometry_.pages_per_block];
  if (block.empty()) {
    block.assign(
        static_cast<size_t>(geometry_.pages_per_block) * geometry_.page_size,
        0xFF);
  }
  return block.data() + OffsetInBlock(geometry_, page);
}

Status FlashChip::EraseBlock(uint32_t block) {
  if (block >= geometry_.block_count) {
    return Status::OutOfRange("block " + std::to_string(block) +
                              " beyond chip capacity");
  }
  ++stats_.block_erases;
  obs_.erases->Add(1);
  ++wear_[block];
  // Refilled in place (a never-programmed block has nothing to refill), so
  // a view into the block stays valid.
  std::fill(blocks_[block].begin(), blocks_[block].end(), 0xFF);
  uint32_t first_page = block * geometry_.pages_per_block;
  std::fill(programmed_.begin() + first_page,
            programmed_.begin() + first_page + geometry_.pages_per_block, 0);
  return Status::Ok();
}

bool FlashChip::IsProgrammed(uint32_t page) const {
  if (page >= geometry_.total_pages()) {
    return false;
  }
  return programmed_[page] != 0;
}

Status FlashChip::CorruptBit(uint32_t page, uint32_t bit_offset) {
  if (page >= geometry_.total_pages() ||
      bit_offset >= geometry_.page_size * 8) {
    return Status::OutOfRange("corruption target out of range");
  }
  BackedPage(page)[bit_offset / 8] ^=
      static_cast<uint8_t>(1u << (bit_offset % 8));
  return Status::Ok();
}

Status FlashChip::MarkBadPage(uint32_t page) {
  if (page >= geometry_.total_pages()) {
    return Status::OutOfRange("page beyond chip capacity");
  }
  bad_[page] = 1;
  return Status::Ok();
}

uint32_t FlashChip::MaxWear() const {
  uint32_t max = 0;
  for (uint32_t w : wear_) {
    max = std::max(max, w);
  }
  return max;
}

Partition::Partition(FlashChip* chip, uint32_t first_block,
                     uint32_t num_blocks)
    : chip_(chip), first_block_(first_block), num_blocks_(num_blocks) {}

Status Partition::CheckPage(uint32_t local_page) const {
  if (chip_ == nullptr) {
    return Status::FailedPrecondition("partition not initialized");
  }
  if (local_page >= num_pages()) {
    return Status::OutOfRange("local page " + std::to_string(local_page) +
                              " beyond partition of " +
                              std::to_string(num_pages()) + " pages");
  }
  return Status::Ok();
}

Status Partition::ViewPage(uint32_t local_page, ByteView* out) {
  PDS_RETURN_IF_ERROR(CheckPage(local_page));
  return chip_->ViewPage(first_block_ * pages_per_block() + local_page, out);
}

Status Partition::ProgramPage(uint32_t local_page, ByteView data) {
  PDS_RETURN_IF_ERROR(CheckPage(local_page));
  return chip_->ProgramPage(first_block_ * pages_per_block() + local_page,
                            data);
}

Status Partition::EraseBlock(uint32_t local_block) {
  if (chip_ == nullptr) {
    return Status::FailedPrecondition("partition not initialized");
  }
  if (local_block >= num_blocks_) {
    return Status::OutOfRange("local block beyond partition");
  }
  return chip_->EraseBlock(first_block_ + local_block);
}

Status Partition::EraseAll() {
  for (uint32_t b = 0; b < num_blocks_; ++b) {
    PDS_RETURN_IF_ERROR(EraseBlock(b));
  }
  return Status::Ok();
}

Result<Partition> PartitionAllocator::Allocate(uint32_t num_blocks) {
  if (num_blocks == 0) {
    return Status::InvalidArgument("cannot allocate empty partition");
  }
  // First fit from the free list, splitting surplus blocks back.
  for (size_t i = 0; i < free_list_.size(); ++i) {
    FreeRange& range = free_list_[i];
    if (range.num_blocks >= num_blocks) {
      Partition p(chip_, range.first_block, num_blocks);
      range.first_block += num_blocks;
      range.num_blocks -= num_blocks;
      freed_blocks_ -= num_blocks;
      if (range.num_blocks == 0) {
        free_list_.erase(free_list_.begin() + static_cast<long>(i));
      }
      return p;
    }
  }
  if (num_blocks > chip_->geometry().block_count - next_block_) {
    return Status::ResourceExhausted(
        "flash chip full: requested " + std::to_string(num_blocks) +
        " blocks, free " + std::to_string(blocks_free()));
  }
  Partition p(chip_, next_block_, num_blocks);
  next_block_ += num_blocks;
  return p;
}

Status PartitionAllocator::Free(const Partition& partition) {
  if (!partition.valid() || partition.chip() != chip_) {
    return Status::InvalidArgument("partition not from this allocator");
  }
  // Erase the blocks so the next owner starts clean.
  for (uint32_t b = 0; b < partition.num_blocks(); ++b) {
    PDS_RETURN_IF_ERROR(chip_->EraseBlock(partition.first_block() + b));
  }
  free_list_.push_back({partition.first_block(), partition.num_blocks()});
  freed_blocks_ += partition.num_blocks();
  return Status::Ok();
}

}  // namespace pds::flash
