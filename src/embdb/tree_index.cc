#include "embdb/tree_index.h"

#include <cstring>
#include <string>

namespace pds::embdb {

namespace {

uint8_t PageLevel(ByteView page) { return page[0]; }

/// The page's entry count, checked against what a page of `entry_size`
/// entries can hold: a flipped count bit must not send a scan past the page.
Status PageCount(ByteView page, size_t entry_size, uint16_t* count) {
  *count = GetU16(page.data() + 2);
  if (TreeIndex::kPageHeader + size_t{*count} * entry_size > page.size()) {
    return Status::Corruption("tree page count " + std::to_string(*count) +
                              " overruns its page");
  }
  return Status::Ok();
}

/// In an internal page of `count` entries, returns the child to descend
/// into for `key`: the last entry whose first_key is strictly less than key,
/// or entry 0. (Lower-bound descent so duplicate runs starting in an earlier
/// subtree are not skipped.)
uint32_t PickChild(ByteView page, uint16_t count, const uint8_t* key) {
  uint32_t chosen = 0;
  for (uint16_t i = 0; i < count; ++i) {
    const uint8_t* entry = page.data() + TreeIndex::kPageHeader +
                           i * TreeIndex::kInternalEntrySize;
    if (std::memcmp(entry, key, Value::kKeyWidth) < 0) {
      chosen = i;
    } else {
      break;
    }
  }
  const uint8_t* entry = page.data() + TreeIndex::kPageHeader +
                         chosen * TreeIndex::kInternalEntrySize;
  return GetU32(entry + Value::kKeyWidth);
}

}  // namespace

Status TreeIndex::DescendToLeaf(const uint8_t* encoded, uint32_t* leaf_page,
                                LookupStats* stats) {
  uint32_t page_no = root_page_;
  ByteView page;
  for (uint32_t level = height_ - 1; level >= 1; --level) {
    PDS_RETURN_IF_ERROR(internal_log_.ViewPage(page_no, &page));
    if (stats != nullptr) {
      ++stats->internal_pages;
    }
    if (PageLevel(page) != level) {
      return Status::Corruption("tree level mismatch");
    }
    uint16_t count = 0;
    PDS_RETURN_IF_ERROR(PageCount(page, kInternalEntrySize, &count));
    page_no = PickChild(page, count, encoded);
  }
  *leaf_page = page_no;
  return Status::Ok();
}

// pdslint: ram-exempt(callers charge the returned rowid list against their
// gauge as soon as Lookup returns; see SpjExecutor::Execute step 1)
Status TreeIndex::Lookup(const Value& key, std::vector<uint64_t>* rowids,
                         LookupStats* stats) {
  rowids->clear();
  if (stats != nullptr) {
    *stats = LookupStats();
  }
  if (height_ == 0) {
    return Status::Ok();
  }
  uint8_t encoded[Value::kKeyWidth];
  key.EncodeKey(encoded);

  uint32_t leaf = 0;
  if (height_ > 1) {
    PDS_RETURN_IF_ERROR(DescendToLeaf(encoded, &leaf, stats));
  }

  // Scan forward across consecutive leaves while keys <= target.
  ByteView page;
  bool done = false;
  while (!done && leaf < leaf_log_.num_pages()) {
    PDS_RETURN_IF_ERROR(leaf_log_.ViewPage(leaf, &page));
    if (stats != nullptr) {
      ++stats->leaf_pages;
    }
    uint16_t count = 0;
    PDS_RETURN_IF_ERROR(PageCount(page, kLeafEntrySize, &count));
    for (uint16_t i = 0; i < count; ++i) {
      const uint8_t* entry =
          page.data() + kPageHeader + i * kLeafEntrySize;
      int cmp = std::memcmp(entry, encoded, Value::kKeyWidth);
      if (cmp < 0) {
        continue;
      }
      if (cmp > 0) {
        done = true;
        break;
      }
      rowids->push_back(GetU64BE(entry + Value::kKeyWidth));
      if (stats != nullptr) {
        ++stats->matches;
      }
    }
    ++leaf;
  }
  return Status::Ok();
}

Status TreeIndex::Range(
    const Value& lo, const Value& hi,
    const std::function<Status(const uint8_t*, uint64_t)>& emit) {
  if (height_ == 0) {
    return Status::Ok();
  }
  uint8_t lo_key[Value::kKeyWidth], hi_key[Value::kKeyWidth];
  lo.EncodeKey(lo_key);
  hi.EncodeKey(hi_key);

  uint32_t leaf = 0;
  if (height_ > 1) {
    PDS_RETURN_IF_ERROR(DescendToLeaf(lo_key, &leaf, nullptr));
  }

  ByteView page;
  bool done = false;
  while (!done && leaf < leaf_log_.num_pages()) {
    PDS_RETURN_IF_ERROR(leaf_log_.ViewPage(leaf, &page));
    uint16_t count = 0;
    PDS_RETURN_IF_ERROR(PageCount(page, kLeafEntrySize, &count));
    for (uint16_t i = 0; i < count; ++i) {
      const uint8_t* entry =
          page.data() + kPageHeader + i * kLeafEntrySize;
      if (std::memcmp(entry, lo_key, Value::kKeyWidth) < 0) {
        continue;
      }
      if (std::memcmp(entry, hi_key, Value::kKeyWidth) > 0) {
        done = true;
        break;
      }
      PDS_RETURN_IF_ERROR(emit(entry, GetU64BE(entry + Value::kKeyWidth)));
    }
    ++leaf;
  }
  return Status::Ok();
}

Status AllocateTreePartitions(flash::PartitionAllocator* allocator,
                              uint64_t entries, flash::Partition* leaf,
                              flash::Partition* internal) {
  const uint32_t ps = allocator->geometry().page_size;
  const uint32_t ppb = allocator->geometry().pages_per_block;

  auto pages_for = [ps](uint64_t n, size_t entry_size) -> uint32_t {
    uint64_t per_page = (ps - TreeIndex::kPageHeader) / entry_size;
    return static_cast<uint32_t>((n + per_page - 1) / per_page);
  };
  auto blocks_for = [ppb](uint32_t pages) -> uint32_t {
    return std::max(1u, (pages + ppb - 1) / ppb);
  };

  uint32_t leaf_pages = pages_for(std::max<uint64_t>(entries, 1),
                                  TreeIndex::kLeafEntrySize);
  Result<flash::Partition> leaf_part =
      allocator->Allocate(blocks_for(leaf_pages));
  if (!leaf_part.ok()) {
    return leaf_part.status();
  }
  *leaf = *leaf_part;

  uint32_t internal_pages = 0;
  uint32_t level_pages = leaf_pages;
  uint64_t fan_out =
      (ps - TreeIndex::kPageHeader) / TreeIndex::kInternalEntrySize;
  while (level_pages > 1) {
    level_pages =
        static_cast<uint32_t>((level_pages + fan_out - 1) / fan_out);
    internal_pages += level_pages;
  }
  Result<flash::Partition> internal_part =
      allocator->Allocate(blocks_for(internal_pages + 1));
  if (!internal_part.ok()) {
    return internal_part.status();
  }
  *internal = *internal_part;
  return Status::Ok();
}

TreeIndexBuilder::TreeIndexBuilder(flash::Partition leaf_partition,
                                   flash::Partition internal_partition) {
  index_.leaf_log_ = logstore::SequentialLog(leaf_partition);
  index_.internal_log_ = logstore::SequentialLog(internal_partition);
}

Status TreeIndexBuilder::FlushLevel(size_t level, uint32_t* page_out) {
  Level& lv = levels_[level];
  if (lv.pending_entries == 0) {
    return Status::FailedPrecondition("empty level flush");
  }
  const size_t ps = (level == 0) ? index_.leaf_log_.page_size()
                                 : index_.internal_log_.page_size();
  Bytes page;
  page.reserve(ps);
  page.push_back(static_cast<uint8_t>(level));
  page.push_back(0);
  PutU16(&page, static_cast<uint16_t>(lv.pending_entries));
  page.insert(page.end(), lv.buffer.begin(), lv.buffer.end());

  Result<uint32_t> page_no =
      (level == 0) ? index_.leaf_log_.AppendPage(ByteView(page))
                   : index_.internal_log_.AppendPage(ByteView(page));
  if (!page_no.ok()) {
    return page_no.status();
  }
  *page_out = *page_no;
  ++lv.pages_flushed;
  lv.buffer.clear();
  lv.pending_entries = 0;
  return Status::Ok();
}

Status TreeIndexBuilder::AddToLevel(size_t level, const uint8_t* key,
                                    uint32_t child_page) {
  if (levels_.size() <= level) {
    levels_.resize(level + 1);
  }
  Level& lv = levels_[level];
  const size_t entry_size = (level == 0) ? TreeIndex::kLeafEntrySize
                                         : TreeIndex::kInternalEntrySize;
  const size_t ps = (level == 0) ? index_.leaf_log_.page_size()
                                 : index_.internal_log_.page_size();

  if (level == 0) {
    // `key` here is the full 32-byte leaf entry.
    lv.buffer.insert(lv.buffer.end(), key, key + TreeIndex::kLeafEntrySize);
  } else {
    lv.buffer.insert(lv.buffer.end(), key, key + Value::kKeyWidth);
    PutU32(&lv.buffer, child_page);
  }
  ++lv.pending_entries;

  if (TreeIndex::kPageHeader + lv.buffer.size() + entry_size > ps) {
    // Page complete: remember its first key before flushing.
    uint8_t first_key[Value::kKeyWidth];
    std::memcpy(first_key, lv.buffer.data(), Value::kKeyWidth);
    uint32_t page_no = 0;
    PDS_RETURN_IF_ERROR(FlushLevel(level, &page_no));
    PDS_RETURN_IF_ERROR(AddToLevel(level + 1, first_key, page_no));
  }
  return Status::Ok();
}

Status TreeIndexBuilder::Add(const uint8_t* entry) {
  if (finished_) {
    return Status::FailedPrecondition("builder already finished");
  }
  if (has_last_ &&
      std::memcmp(entry, last_entry_, kEntrySizeForOrderCheck) < 0) {
    return Status::InvalidArgument("tree entries must be added in order");
  }
  std::memcpy(last_entry_, entry, kEntrySizeForOrderCheck);
  has_last_ = true;
  ++num_entries_;
  return AddToLevel(0, entry, 0);
}

Result<TreeIndex> TreeIndexBuilder::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("builder already finished");
  }
  finished_ = true;
  index_.num_entries_ = num_entries_;

  if (num_entries_ == 0) {
    index_.height_ = 0;
    return std::move(index_);
  }

  for (size_t level = 0;; ++level) {
    if (level >= levels_.size()) {
      return Status::Internal("tree build ran past top level");
    }
    Level& lv = levels_[level];
    if (lv.pending_entries > 0) {
      uint8_t first_key[Value::kKeyWidth];
      std::memcpy(first_key, lv.buffer.data(), Value::kKeyWidth);
      uint32_t page_no = 0;
      PDS_RETURN_IF_ERROR(FlushLevel(level, &page_no));
      if (lv.pages_flushed == 1 &&
          (level + 1 >= levels_.size() ||
           (levels_[level + 1].pending_entries == 0 &&
            levels_[level + 1].pages_flushed == 0))) {
        // This single page is the root.
        index_.root_page_ = page_no;
        index_.height_ = static_cast<uint32_t>(level + 1);
        return std::move(index_);
      }
      PDS_RETURN_IF_ERROR(AddToLevel(level + 1, first_key, page_no));
    } else if (lv.pages_flushed == 1) {
      // Completed exactly at a page boundary and nothing above: the single
      // flushed page is the root. Its entry was propagated upward, so the
      // level above holds exactly one pending entry describing it.
      if (level + 1 < levels_.size() &&
          (levels_[level + 1].pending_entries > 1 ||
           levels_[level + 1].pages_flushed > 0)) {
        continue;  // more structure above; keep flushing upward
      }
      // Root is this level's only page.
      index_.root_page_ = (level == 0) ? 0 : index_.internal_log_.num_pages() - 1;
      index_.height_ = static_cast<uint32_t>(level + 1);
      return std::move(index_);
    }
  }
}

}  // namespace pds::embdb
