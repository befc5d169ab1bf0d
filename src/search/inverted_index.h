#ifndef PDS_SEARCH_INVERTED_INDEX_H_
#define PDS_SEARCH_INVERTED_INDEX_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/status.h"
#include "flash/flash.h"
#include "mcu/ram_gauge.h"
#include "search/tokenizer.h"

namespace pds::search {

/// One posting: a (term, docid, weight) triple, the unit the tutorial's
/// embedded search engine stores ("Stores triples (keyword, docid, weight)").
/// Terms are represented by their 64-bit hash — an embedded device cannot
/// afford an in-RAM term dictionary; the 2^-64 collision probability is the
/// standard trade (same as Microsearch).
struct Posting {
  uint64_t term_hash = 0;
  uint32_t docid = 0;
  uint16_t weight = 0;  // term frequency in the document

  static constexpr size_t kEncodedSize = 14;
};

/// Sequential, log-only inverted index: a RAM hash table of bucket heads
/// pointing to chains of flash pages, newest page first. Pages are written
/// strictly sequentially; each page carries a back-pointer to the previous
/// page of its bucket (the structure in the tutorial's "How to store the
/// inverted index sequentially?" slide).
///
/// Insertion order is docid-increasing, so walking a chain newest-to-oldest
/// and each page back-to-front yields docids in *descending* order — the
/// property that enables pipeline merge at query time.
class InvertedIndexLog {
 public:
  struct Options {
    uint32_t num_buckets = 64;
    /// RAM dedicated to buffering postings before a flush (charged to the
    /// MCU gauge for the lifetime of the index).
    size_t insert_buffer_bytes = 2048;
  };

  InvertedIndexLog(flash::Partition partition, mcu::RamGauge* gauge,
                   const Options& options);
  ~InvertedIndexLog();

  InvertedIndexLog(const InvertedIndexLog&) = delete;
  InvertedIndexLog& operator=(const InvertedIndexLog&) = delete;

  /// Call once before use; charges the RAM the index permanently occupies
  /// (hash table + insert buffer).
  Status Init();

  /// Adds the postings of one document, in ascending term order. Docids
  /// must be strictly increasing across calls, and `term_freqs` strictly
  /// ascending by term (as TermFrequencies returns them); InvalidArgument
  /// otherwise, with nothing added.
  Status AddDocument(uint32_t docid, const TermCounts& term_freqs);

  /// Flushes buffered postings to flash (call before querying to make the
  /// cost model exact; queries also read the RAM buffer correctly without).
  Status FlushBuffer();

  /// Streaming cursor over one term's postings in descending docid order.
  class TermCursor {
   public:
    bool AtEnd() const { return at_end_; }
    uint32_t docid() const { return current_.docid; }
    uint16_t weight() const { return current_.weight; }

    /// Moves to the next (older) posting of the term.
    Status Advance();

   private:
    friend class InvertedIndexLog;
    TermCursor(InvertedIndexLog* index, uint64_t term_hash);

    /// Views a chain page where it lies and marks the triples holding this
    /// term, in one forward pass that compares only term hashes. Corruption
    /// when the page's triple count overruns the page.
    Status LoadPage(uint32_t page_addr);

    InvertedIndexLog* index_ = nullptr;
    uint64_t term_hash_ = 0;
    bool at_end_ = true;
    Posting current_;

    // Unflushed postings of this bucket (scanned first, newest first).
    std::vector<Posting> ram_postings_;
    size_t ram_pos_ = 0;

    // The current chain page and one bit per triple of it that holds the
    // term. Advance pops the marks from the highest triple down, decoding
    // only marked triples; the low `mark_words_` words are not yet drained.
    const uint8_t* page_ = nullptr;
    std::vector<uint64_t> marks_;
    size_t mark_words_ = 0;
    uint32_t next_prev_addr_ = kNullPage;
  };

  /// Opens a cursor for a term; positions it on the newest posting.
  Result<TermCursor> OpenTerm(std::string_view term);

  /// Number of documents containing `term` (walks the full chain: one read
  /// per chain page — this is the first pass of the two-pass query).
  Result<uint32_t> DocumentFrequency(std::string_view term);

  uint32_t num_documents() const { return num_documents_; }
  uint32_t num_pages() const { return next_page_; }
  uint32_t page_size() const { return partition_.page_size(); }
  static uint64_t HashTerm(std::string_view term);

  static constexpr uint32_t kNullPage = 0xFFFFFFFFu;

 private:
  friend class TermCursor;

  uint32_t BucketOf(uint64_t term_hash) const {
    return static_cast<uint32_t>(term_hash % num_buckets());
  }
  uint32_t num_buckets() const { return options_.num_buckets; }
  size_t buffer_bytes_used() const {
    return buffered_count_ * Posting::kEncodedSize;
  }

  /// Writes all buffered postings of one bucket into chained pages.
  Status FlushBucket(uint32_t bucket);

  flash::Partition partition_;
  mcu::RamGauge* gauge_;
  Options options_;
  bool initialized_ = false;

  std::vector<uint32_t> bucket_heads_;  // RAM hash table of chain heads
  std::vector<std::vector<Posting>> buffer_;  // per-bucket pending postings
  size_t buffered_count_ = 0;
  size_t charged_ram_ = 0;

  uint32_t next_page_ = 0;
  uint32_t num_documents_ = 0;
  uint32_t last_docid_ = 0;
  bool any_document_ = false;
};

}  // namespace pds::search

#endif  // PDS_SEARCH_INVERTED_INDEX_H_
