#include "search/inverted_index.h"

#include <algorithm>
#include <bit>
#include <string>

#include "common/hash.h"

namespace pds::search {

namespace {
constexpr size_t kPageHeader = 6;  // u32 prev + u16 count

void EncodePosting(uint8_t* p, const Posting& posting) {
  EncodeU64(p, posting.term_hash);
  EncodeU32(p + 8, posting.docid);
  p[12] = static_cast<uint8_t>(posting.weight);
  p[13] = static_cast<uint8_t>(posting.weight >> 8);
}
}  // namespace

InvertedIndexLog::InvertedIndexLog(flash::Partition partition,
                                   mcu::RamGauge* gauge,
                                   const Options& options)
    : partition_(partition), gauge_(gauge), options_(options) {}

InvertedIndexLog::~InvertedIndexLog() {
  if (charged_ram_ > 0) {
    gauge_->Release(charged_ram_);
  }
}

Status InvertedIndexLog::Init() {
  if (initialized_) {
    return Status::FailedPrecondition("already initialized");
  }
  size_t ram = options_.num_buckets * sizeof(uint32_t)  // hash table
               + options_.insert_buffer_bytes;          // insert buffer
  PDS_RETURN_IF_ERROR(gauge_->Acquire(ram));
  charged_ram_ = ram;
  bucket_heads_.assign(options_.num_buckets, kNullPage);
  buffer_.assign(options_.num_buckets, {});
  initialized_ = true;
  return Status::Ok();
}

uint64_t InvertedIndexLog::HashTerm(std::string_view term) {
  return Fnv1a64(term);
}

// pdslint: ram-exempt(insert buffer RAM is charged up-front in Init;
// FlushBuffer bounds it at options_.insert_buffer_bytes)
Status InvertedIndexLog::AddDocument(uint32_t docid,
                                     const TermCounts& term_freqs) {
  if (!initialized_) {
    return Status::FailedPrecondition("index not initialized");
  }
  if (any_document_ && docid <= last_docid_) {
    return Status::InvalidArgument(
        "docids must be strictly increasing (pipeline merge relies on it)");
  }
  for (size_t i = 1; i < term_freqs.size(); ++i) {
    if (term_freqs[i].term <= term_freqs[i - 1].term) {
      return Status::InvalidArgument(
          "term counts must be strictly ascending by term");
    }
  }
  for (const auto& [term, tf] : term_freqs) {
    Posting posting;
    posting.term_hash = HashTerm(term);
    posting.docid = docid;
    posting.weight =
        static_cast<uint16_t>(std::min<uint32_t>(tf, 0xFFFF));
    buffer_[BucketOf(posting.term_hash)].push_back(posting);
    ++buffered_count_;
    if (buffer_bytes_used() >= options_.insert_buffer_bytes) {
      PDS_RETURN_IF_ERROR(FlushBuffer());
    }
  }
  last_docid_ = docid;
  any_document_ = true;
  ++num_documents_;
  return Status::Ok();
}

Status InvertedIndexLog::FlushBucket(uint32_t bucket) {
  std::vector<Posting>& postings = buffer_[bucket];
  if (postings.empty()) {
    return Status::Ok();
  }
  const uint32_t ps = partition_.page_size();
  const size_t per_page = (ps - kPageHeader) / Posting::kEncodedSize;

  size_t pos = 0;
  Bytes page;
  while (pos < postings.size()) {
    size_t batch = std::min(per_page, postings.size() - pos);
    page.assign(kPageHeader + batch * Posting::kEncodedSize, 0);
    EncodeU32(page.data(), bucket_heads_[bucket]);
    page[4] = static_cast<uint8_t>(batch);
    page[5] = static_cast<uint8_t>(batch >> 8);
    for (size_t i = 0; i < batch; ++i) {
      EncodePosting(page.data() + kPageHeader + i * Posting::kEncodedSize,
                    postings[pos + i]);
    }
    if (next_page_ >= partition_.num_pages()) {
      return Status::ResourceExhausted("inverted index partition full");
    }
    PDS_RETURN_IF_ERROR(partition_.ProgramPage(next_page_, ByteView(page)));
    bucket_heads_[bucket] = next_page_;
    ++next_page_;
    pos += batch;
  }
  buffered_count_ -= postings.size();
  postings.clear();
  return Status::Ok();
}

Status InvertedIndexLog::FlushBuffer() {
  for (uint32_t b = 0; b < num_buckets(); ++b) {
    PDS_RETURN_IF_ERROR(FlushBucket(b));
  }
  return Status::Ok();
}

// pdslint: ram-exempt(ram_postings_ snapshots one bucket of the insert
// buffer, whose RAM is charged in Init)
InvertedIndexLog::TermCursor::TermCursor(InvertedIndexLog* index,
                                         uint64_t term_hash)
    : index_(index), term_hash_(term_hash) {
  uint32_t bucket = index_->BucketOf(term_hash);
  for (const Posting& p : index_->buffer_[bucket]) {
    if (p.term_hash == term_hash) {
      ram_postings_.push_back(p);
    }
  }
  ram_pos_ = ram_postings_.size();
  next_prev_addr_ = index_->bucket_heads_[bucket];
  const size_t triples_per_page =
      (index_->page_size() - kPageHeader) / Posting::kEncodedSize;
  marks_.assign((triples_per_page + 63) / 64, 0);
}

Status InvertedIndexLog::TermCursor::LoadPage(uint32_t page_addr) {
  ByteView page;
  PDS_RETURN_IF_ERROR(index_->partition_.ViewPage(page_addr, &page));
  const uint16_t count = GetU16(page.data() + 4);
  if (kPageHeader + size_t{count} * Posting::kEncodedSize > page.size()) {
    return Status::Corruption("posting page count " + std::to_string(count) +
                              " overruns its page");
  }
  next_prev_addr_ = GetU32(page.data());
  page_ = page.data();
  mark_words_ = (count + 63) / 64;
  std::fill_n(marks_.begin(), mark_words_, uint64_t{0});
  const uint8_t* triple = page_ + kPageHeader;
  for (uint32_t i = 0; i < count; ++i, triple += Posting::kEncodedSize) {
    marks_[i / 64] |= uint64_t{GetU64(triple) == term_hash_} << (i % 64);
  }
  return Status::Ok();
}

Status InvertedIndexLog::TermCursor::Advance() {
  if (ram_pos_ > 0) {
    --ram_pos_;
    current_ = ram_postings_[ram_pos_];
    at_end_ = false;
    return Status::Ok();
  }
  for (;;) {
    while (mark_words_ > 0) {
      uint64_t& word = marks_[mark_words_ - 1];
      if (word == 0) {
        --mark_words_;
        continue;
      }
      // Highest marked triple first: the page holds docids ascending.
      const int bit = 63 - std::countl_zero(word);
      word ^= uint64_t{1} << bit;
      const uint8_t* triple =
          page_ + kPageHeader +
          ((mark_words_ - 1) * 64 + static_cast<size_t>(bit)) *
              Posting::kEncodedSize;
      current_.term_hash = term_hash_;
      current_.docid = GetU32(triple + 8);
      current_.weight = GetU16(triple + 12);
      at_end_ = false;
      return Status::Ok();
    }
    if (next_prev_addr_ == kNullPage) {
      at_end_ = true;
      return Status::Ok();
    }
    // Chain to the previous (older) page.
    PDS_RETURN_IF_ERROR(LoadPage(next_prev_addr_));
  }
}

Result<InvertedIndexLog::TermCursor> InvertedIndexLog::OpenTerm(
    std::string_view term) {
  if (!initialized_) {
    return Status::FailedPrecondition("index not initialized");
  }
  TermCursor cursor(this, HashTerm(term));
  PDS_RETURN_IF_ERROR(cursor.Advance());
  return cursor;
}

Result<uint32_t> InvertedIndexLog::DocumentFrequency(std::string_view term) {
  PDS_ASSIGN_OR_RETURN(TermCursor cursor, OpenTerm(term));
  uint32_t df = 0;
  while (!cursor.AtEnd()) {
    ++df;
    PDS_RETURN_IF_ERROR(cursor.Advance());
  }
  return df;
}

}  // namespace pds::search
