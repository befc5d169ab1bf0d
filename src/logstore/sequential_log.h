#ifndef PDS_LOGSTORE_SEQUENTIAL_LOG_H_
#define PDS_LOGSTORE_SEQUENTIAL_LOG_H_

#include <cstdint>

#include "common/bytes.h"
#include "common/result.h"
#include "common/status.h"
#include "flash/flash.h"

namespace pds::logstore {

/// Append-only sequence of pages on a flash partition.
///
/// This is the fundamental building block of Part II of the tutorial:
/// "Pages are written sequentially (and never updated nor moved), random
/// writes are avoided by construction; allocation & de-allocation are made
/// on large grains." The log can only grow at its head or be reset whole
/// (block-grained erase).
class SequentialLog {
 public:
  SequentialLog() = default;
  explicit SequentialLog(flash::Partition partition)
      : partition_(partition) {}

  /// Appends one page of data; returns the page index within the log.
  [[nodiscard]] Result<uint32_t> AppendPage(ByteView data);

  /// Views a flushed page where it lies (flash::Partition::ViewPage); the
  /// view is valid until the log is next Reset.
  [[nodiscard]] Status ViewPage(uint32_t page, ByteView* out);

  uint32_t num_pages() const { return head_; }
  uint32_t capacity_pages() const { return partition_.num_pages(); }
  uint32_t page_size() const { return partition_.page_size(); }
  /// Chip backing the log's partition (null for a default-constructed log).
  /// Lets layered structures attribute flash::Stats deltas to themselves.
  flash::FlashChip* chip() const { return partition_.chip(); }

  /// Erases every block and rewinds the head.
  [[nodiscard]] Status Reset();

 private:
  flash::Partition partition_;
  uint32_t head_ = 0;
};

/// Variable-length records packed into a SequentialLog as a byte stream
/// (u32 length prefix + payload, records may span page boundaries).
///
/// The current tail page lives in MCU RAM until it fills — mirroring how an
/// embedded engine buffers the open flash page — so reads cover both flushed
/// pages and the RAM tail. Records are addressed by their byte offset, which
/// gives the "1 IO per result" random-read behaviour of the tutorial's
/// indexes.
class RecordLog {
 public:
  RecordLog() = default;
  explicit RecordLog(flash::Partition partition)
      : log_(partition) {}

  /// Appends a record; returns its address (byte offset of its length
  /// prefix). Records of length 0xFFFFFFFF are rejected (reserved).
  [[nodiscard]] Result<uint64_t> Append(ByteView record);

  /// Random access by record address.
  [[nodiscard]] Status ReadAt(uint64_t offset, Bytes* record);

  uint64_t num_records() const { return num_records_; }
  uint64_t size_bytes() const { return size_bytes_; }
  uint32_t page_size() const { return log_.page_size(); }
  flash::FlashChip* chip() const { return log_.chip(); }
  /// Pages occupied (flushed pages plus the RAM tail if non-empty).
  uint32_t num_pages_used() const;

  [[nodiscard]] Status Reset();

  /// Streaming reader that keeps a view of its current page: a full scan
  /// costs exactly `num_pages_used()` page reads.
  class Reader {
   public:
    explicit Reader(RecordLog* log) : log_(log) {}

    bool AtEnd() const { return offset_ >= log_->size_bytes_; }
    /// Reads the next record. Returns OutOfRange at end.
    [[nodiscard]] Status Next(Bytes* record);
    /// Address of the record that the next call to Next() will return.
    uint64_t offset() const { return offset_; }

   private:
    [[nodiscard]] Status FetchSpan(uint64_t offset, size_t len, uint8_t* out);

    RecordLog* log_;
    uint64_t offset_ = 0;
    ByteView cached_page_;
    int64_t cached_page_index_ = -1;
  };

  Reader NewReader() { return Reader(this); }

 private:
  friend class Reader;

  /// Copies the byte range [offset, offset+len) of the stream into out,
  /// from whole-page views (flushed) or the RAM tail.
  [[nodiscard]] Status ReadSpan(uint64_t offset, size_t len, uint8_t* out);

  SequentialLog log_;
  Bytes tail_;  // open page buffered in MCU RAM
  uint64_t size_bytes_ = 0;
  uint64_t num_records_ = 0;
};

}  // namespace pds::logstore

#endif  // PDS_LOGSTORE_SEQUENTIAL_LOG_H_
