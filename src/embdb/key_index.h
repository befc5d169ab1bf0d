#ifndef PDS_EMBDB_KEY_INDEX_H_
#define PDS_EMBDB_KEY_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "embdb/bloom.h"
#include "embdb/value.h"
#include "flash/flash.h"
#include "logstore/sequential_log.h"
#include "mcu/ram_gauge.h"

namespace pds::embdb {

/// PBFilter-style selection index built from two sequential logs
/// (tutorial slide "How to build an index in log structures?"):
///
///  - Log1 "Keys": (key, rowid) entries appended at tuple insertion,
///    packed into pages (vertical partition of the indexed column).
///  - Log2 "Bloom Filters": one Bloom summary per Keys page, itself packed
///    into pages (~2 bytes per key).
///
/// Lookup scans Log2 (cheap: |Log2| page reads), then reads only the Keys
/// pages whose summary is positive: |Log2| IOs + ~1 IO per true hit plus a
/// tunable false-positive tax — the "Summary Scan (17 IOs)" vs "Table scan
/// (640 IOs)" figure of the tutorial, reproduced by paper_bench's E1
/// records.
class KeyLogIndex {
 public:
  struct Options {
    double bits_per_key = 16.0;
  };

  /// IO breakdown of one lookup, for benchmarks and tests.
  struct LookupStats {
    uint32_t summary_pages = 0;      // Log2 pages read
    uint32_t key_pages = 0;          // Log1 pages read (bloom positives)
    uint32_t false_positive_pages = 0;  // Log1 pages read with no match
    uint32_t matches = 0;
  };

  KeyLogIndex(flash::Partition keys_partition,
              flash::Partition bloom_partition, mcu::RamGauge* gauge,
              const Options& options);
  ~KeyLogIndex();

  KeyLogIndex(const KeyLogIndex&) = delete;
  KeyLogIndex& operator=(const KeyLogIndex&) = delete;

  /// Charges the index's resident RAM (two page buffers + one open filter).
  [[nodiscard]] Status Init();

  /// Appends one (key, rowid) entry.
  [[nodiscard]] Status Insert(const Value& key, uint64_t rowid);

  /// Finds all rowids whose key equals `key`.
  [[nodiscard]] Status Lookup(const Value& key, std::vector<uint64_t>* rowids,
                LookupStats* stats);

  /// Streams every entry in insertion order (used by reorganization).
  /// The callback receives the 24-byte encoded key and the rowid.
  [[nodiscard]] Status ScanEntries(
      const std::function<Status(const uint8_t*, uint64_t)>& emit);

  uint64_t num_entries() const { return num_entries_; }
  uint32_t num_key_pages_flushed() const { return keys_log_.num_pages(); }
  uint32_t num_summary_pages_flushed() const { return bloom_log_.num_pages(); }

  static constexpr size_t kEntrySize = Value::kKeyWidth + 8;  // key + rowid

 private:
  size_t entries_per_page() const {
    return keys_log_.page_size() / kEntrySize;
  }
  size_t filters_per_page() const {
    return bloom_log_.page_size() / filter_bytes_;
  }

  /// Programs the buffered keys page and appends its filter to the bloom
  /// buffer (programming a bloom page when that fills too).
  [[nodiscard]] Status FlushKeysPage();

  logstore::SequentialLog keys_log_;
  logstore::SequentialLog bloom_log_;
  mcu::RamGauge* gauge_;
  Options options_;

  size_t filter_bytes_ = 0;
  uint32_t num_probes_ = 1;
  bool initialized_ = false;
  size_t charged_ram_ = 0;

  Bytes keys_buffer_;           // packed entries of the open keys page
  Bytes bloom_buffer_;          // packed filters of the open bloom page
  std::unique_ptr<BloomFilter> open_filter_;  // filter of the open keys page
  uint64_t num_entries_ = 0;
};

}  // namespace pds::embdb

#endif  // PDS_EMBDB_KEY_INDEX_H_
