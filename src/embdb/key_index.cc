#include "embdb/key_index.h"

#include <cstring>

namespace pds::embdb {

KeyLogIndex::KeyLogIndex(flash::Partition keys_partition,
                         flash::Partition bloom_partition,
                         mcu::RamGauge* gauge, const Options& options)
    : keys_log_(keys_partition),
      bloom_log_(bloom_partition),
      gauge_(gauge),
      options_(options) {
  size_t epp = entries_per_page();
  size_t filter_bits = static_cast<size_t>(
      static_cast<double>(epp) * options_.bits_per_key);
  filter_bytes_ = (filter_bits + 7) / 8;
  if (filter_bytes_ == 0) {
    filter_bytes_ = 1;
  }
  num_probes_ = BloomFilter::OptimalProbes(options_.bits_per_key);
}

KeyLogIndex::~KeyLogIndex() {
  if (charged_ram_ > 0) {
    gauge_->Release(charged_ram_);
  }
}

Status KeyLogIndex::Init() {
  if (initialized_) {
    return Status::FailedPrecondition("index already initialized");
  }
  if (filter_bytes_ > bloom_log_.page_size()) {
    return Status::InvalidArgument(
        "bloom filter larger than a flash page; lower bits_per_key");
  }
  size_t ram = keys_log_.page_size()   // open keys page
               + bloom_log_.page_size()  // open bloom page
               + filter_bytes_;          // open filter
  PDS_RETURN_IF_ERROR(gauge_->Acquire(ram));
  charged_ram_ = ram;
  open_filter_ = std::make_unique<BloomFilter>(
      static_cast<uint32_t>(filter_bytes_ * 8), num_probes_);
  initialized_ = true;
  return Status::Ok();
}

Status KeyLogIndex::FlushKeysPage() {
  if (keys_buffer_.empty()) {
    return Status::Ok();
  }
  PDS_ASSIGN_OR_RETURN(uint32_t page,
                       keys_log_.AppendPage(ByteView(keys_buffer_)));
  (void)page;
  keys_buffer_.clear();

  // Append the page's filter to the bloom buffer.
  const Bytes& filter_bits = open_filter_->bytes();
  bloom_buffer_.insert(bloom_buffer_.end(), filter_bits.begin(),
                       filter_bits.end());
  open_filter_ = std::make_unique<BloomFilter>(
      static_cast<uint32_t>(filter_bytes_ * 8), num_probes_);

  if (bloom_buffer_.size() + filter_bytes_ > bloom_log_.page_size()) {
    PDS_ASSIGN_OR_RETURN(uint32_t bpage,
                         bloom_log_.AppendPage(ByteView(bloom_buffer_)));
    (void)bpage;
    bloom_buffer_.clear();
  }
  return Status::Ok();
}

Status KeyLogIndex::Insert(const Value& key, uint64_t rowid) {
  if (!initialized_) {
    return Status::FailedPrecondition("index not initialized");
  }
  uint8_t entry[kEntrySize];
  key.EncodeKey(entry);
  EncodeU64BE(entry + Value::kKeyWidth, rowid);

  keys_buffer_.insert(keys_buffer_.end(), entry, entry + kEntrySize);
  open_filter_->Add(ByteView(entry, Value::kKeyWidth));
  ++num_entries_;

  if (keys_buffer_.size() + kEntrySize > keys_log_.page_size()) {
    PDS_RETURN_IF_ERROR(FlushKeysPage());
  }
  return Status::Ok();
}

Status KeyLogIndex::Lookup(const Value& key, std::vector<uint64_t>* rowids,
                           LookupStats* stats) {
  if (!initialized_) {
    return Status::FailedPrecondition("index not initialized");
  }
  rowids->clear();
  *stats = LookupStats();

  uint8_t encoded[Value::kKeyWidth];
  key.EncodeKey(encoded);
  ByteView key_view(encoded, Value::kKeyWidth);

  // Phase 1: summary scan — collect candidate keys pages. The candidate
  // list is data-dependent, so it is charged against the MCU gauge as it
  // grows (a huge false-positive set must fail like any oversized plan).
  std::vector<uint32_t> candidates;
  PDS_ASSIGN_OR_RETURN(mcu::RamCharge candidates_charge,
                       mcu::RamCharge::Make(gauge_, 0));
  uint32_t flushed_key_pages = keys_log_.num_pages();
  uint32_t filter_index = 0;
  ByteView bloom_page;
  const size_t fpp = filters_per_page();
  for (uint32_t bp = 0; bp < bloom_log_.num_pages() &&
                        filter_index < flushed_key_pages;
       ++bp) {
    PDS_RETURN_IF_ERROR(bloom_log_.ViewPage(bp, &bloom_page));
    ++stats->summary_pages;
    for (size_t f = 0; f < fpp && filter_index < flushed_key_pages; ++f) {
      BloomFilter filter(
          ByteView(bloom_page.data() + f * filter_bytes_, filter_bytes_),
          num_probes_);
      if (filter.MayContain(key_view)) {
        PDS_RETURN_IF_ERROR(candidates_charge.Grow(sizeof(uint32_t)));
        candidates.push_back(filter_index);
      }
      ++filter_index;
    }
  }
  // Filters still buffered in RAM (their keys pages are flushed).
  for (size_t off = 0; off + filter_bytes_ <= bloom_buffer_.size() &&
                       filter_index < flushed_key_pages;
       off += filter_bytes_) {
    BloomFilter filter(ByteView(bloom_buffer_.data() + off, filter_bytes_),
                       num_probes_);
    if (filter.MayContain(key_view)) {
      PDS_RETURN_IF_ERROR(candidates_charge.Grow(sizeof(uint32_t)));
      candidates.push_back(filter_index);
    }
    ++filter_index;
  }

  // Phase 2: read candidate keys pages.
  ByteView keys_page;
  for (uint32_t page : candidates) {
    PDS_RETURN_IF_ERROR(keys_log_.ViewPage(page, &keys_page));
    ++stats->key_pages;
    bool hit = false;
    for (size_t off = 0; off + kEntrySize <= keys_page.size();
         off += kEntrySize) {
      if (std::memcmp(keys_page.data() + off, encoded, Value::kKeyWidth) ==
          0) {
        rowids->push_back(GetU64BE(keys_page.data() + off + Value::kKeyWidth));
        ++stats->matches;
        hit = true;
      }
    }
    if (!hit) {
      ++stats->false_positive_pages;
    }
  }

  // Phase 3: the open keys page in RAM (no IO).
  for (size_t off = 0; off + kEntrySize <= keys_buffer_.size();
       off += kEntrySize) {
    if (std::memcmp(keys_buffer_.data() + off, encoded, Value::kKeyWidth) ==
        0) {
      rowids->push_back(GetU64BE(keys_buffer_.data() + off + Value::kKeyWidth));
      ++stats->matches;
    }
  }
  return Status::Ok();
}

Status KeyLogIndex::ScanEntries(
    const std::function<Status(const uint8_t*, uint64_t)>& emit) {
  if (!initialized_) {
    return Status::FailedPrecondition("index not initialized");
  }
  ByteView page;
  for (uint32_t p = 0; p < keys_log_.num_pages(); ++p) {
    PDS_RETURN_IF_ERROR(keys_log_.ViewPage(p, &page));
    for (size_t off = 0; off + kEntrySize <= page.size(); off += kEntrySize) {
      // A fully erased slot (page tail) cannot occur: pages are written with
      // exactly the packed entries, and the page read returns the programmed
      // prefix plus 0xFF padding beyond it — entries_per_page * kEntrySize
      // bounds the loop via page content size below.
      PDS_RETURN_IF_ERROR(
          emit(page.data() + off, GetU64BE(page.data() + off + Value::kKeyWidth)));
    }
  }
  for (size_t off = 0; off + kEntrySize <= keys_buffer_.size();
       off += kEntrySize) {
    PDS_RETURN_IF_ERROR(emit(keys_buffer_.data() + off,
                             GetU64BE(keys_buffer_.data() + off +
                                    Value::kKeyWidth)));
  }
  return Status::Ok();
}

}  // namespace pds::embdb
