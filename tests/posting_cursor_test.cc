// Pins the posting cursor, the tokenizer feeding it and the index pages it
// reads against small in-test references: a std::map of postings per term,
// a "C"-locale isalnum/tolower split, and a SHA-256 over every index page.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "crypto/sha256.h"
#include "flash/flash.h"
#include "mcu/ram_gauge.h"
#include "search/inverted_index.h"
#include "search/search_engine.h"
#include "search/tokenizer.h"

namespace pds::search {
namespace {

constexpr size_t kPageHeader = 6;  // u32 prev + u16 count

uint32_t TriplesPerPage(uint32_t page_size) {
  return static_cast<uint32_t>((page_size - kPageHeader) /
                               Posting::kEncodedSize);
}

flash::Geometry CursorGeometry(uint32_t page_size) {
  flash::Geometry g;
  g.page_size = page_size;
  g.pages_per_block = 16;
  g.block_count = 256;
  return g;
}

/// The tokenizer's contract, written with the C library's classifiers:
/// maximal runs of std::isalnum bytes, each byte lowered with std::tolower.
std::vector<std::string> ReferenceTokens(std::string_view text) {
  std::vector<std::string> tokens;
  std::string cur;
  for (char c : text) {
    unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u)) {
      cur.push_back(static_cast<char>(std::tolower(u)));
    } else if (!cur.empty()) {
      tokens.push_back(cur);
      cur.clear();
    }
  }
  if (!cur.empty()) {
    tokens.push_back(cur);
  }
  return tokens;
}

std::map<std::string, uint32_t> ReferenceCounts(std::string_view text) {
  std::map<std::string, uint32_t> counts;
  for (const std::string& token : ReferenceTokens(text)) {
    ++counts[token];
  }
  return counts;
}

/// TermFrequencies as (term, count) pairs, comparable with a map's.
std::vector<std::pair<std::string, uint32_t>> Frequencies(
    std::string_view text) {
  std::vector<std::pair<std::string, uint32_t>> out;
  for (const auto& [term, count] : TermFrequencies(text)) {
    out.emplace_back(std::string(term), count);
  }
  return out;
}

std::vector<std::pair<std::string, uint32_t>> ReferenceFrequencies(
    std::string_view text) {
  std::map<std::string, uint32_t> counts = ReferenceCounts(text);
  return {counts.begin(), counts.end()};
}

TEST(TokenizerTest, MatchesCLocaleReferenceOnAllBytes) {
  // Each byte value alone, between letters, and between digits.
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    for (std::string text :
         {std::string(1, c), std::string("aB") + c + "Cd",
          std::string("7") + c + c + "9z", std::string(3, c) + " x"}) {
      EXPECT_EQ(Tokenize(text), ReferenceTokens(text)) << "byte " << b;
      EXPECT_EQ(Frequencies(text), ReferenceFrequencies(text)) << "byte " << b;
    }
  }
  // All 256 byte values in one text, in ascending and in random order,
  // with repeats so counts above one appear.
  std::string all;
  for (int b = 0; b < 256; ++b) {
    all.push_back(static_cast<char>(b));
  }
  Rng rng(256);
  std::string mixed;
  for (int i = 0; i < 4096; ++i) {
    mixed.push_back(static_cast<char>(rng.Uniform(256)));
  }
  for (const std::string& text : {all, all + all, mixed}) {
    EXPECT_EQ(Tokenize(text), ReferenceTokens(text));
    EXPECT_EQ(Frequencies(text), ReferenceFrequencies(text));
  }
}

struct RefPosting {
  uint32_t docid;
  uint16_t weight;
  bool operator==(const RefPosting& o) const {
    return docid == o.docid && weight == o.weight;
  }
};

/// Postings per term in the order a cursor must return them (newest first).
using Reference = std::map<std::string, std::vector<RefPosting>>;

void AddToReference(Reference* ref, uint32_t docid, std::string_view text) {
  for (const auto& [term, tf] : ReferenceCounts(text)) {
    (*ref)[term].insert(
        (*ref)[term].begin(),
        RefPosting{docid, static_cast<uint16_t>(std::min<uint32_t>(tf, 0xFFFF))});
  }
}

std::vector<RefPosting> Walk(InvertedIndexLog* index, std::string_view term) {
  std::vector<RefPosting> out;
  auto cursor = index->OpenTerm(term);
  EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
  if (!cursor.ok()) {
    return out;
  }
  while (!cursor->AtEnd()) {
    out.push_back(RefPosting{cursor->docid(), cursor->weight()});
    Status st = cursor->Advance();
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (!st.ok()) {
      break;
    }
  }
  return out;
}

const std::vector<std::string>& Vocabulary() {
  static const std::vector<std::string> vocab = {
      "data",  "privacy", "server",  "token",  "flash",   "query",
      "index", "secure",  "log",     "page",   "medical", "folder",
      "badge", "agenda",  "x",       "b2b",    "42",      "aggregate",
      "owner", "consent", "audit",   "sql",    "join",    "tree",
      "bloom", "ssi",     "leakage", "noise",  "group",   "count"};
  return vocab;
}

/// A seeded document: vocabulary words in random case, joined by random
/// punctuation and whitespace.
std::string RandomDocument(Rng* rng, uint32_t max_words) {
  static const char kSeparators[] = " ,.;:!?-\t\n()/'\"";
  const auto& vocab = Vocabulary();
  std::string text;
  uint32_t words = 1 + static_cast<uint32_t>(rng->Uniform(max_words));
  for (uint32_t w = 0; w < words; ++w) {
    std::string word = vocab[rng->Uniform(vocab.size())];
    for (char& c : word) {
      if (rng->Bernoulli(0.3)) {
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      }
    }
    text += word;
    uint32_t seps = 1 + static_cast<uint32_t>(rng->Uniform(3));
    for (uint32_t s = 0; s < seps; ++s) {
      text.push_back(kSeparators[rng->Uniform(sizeof(kSeparators) - 1)]);
    }
  }
  return text;
}

void ExpectMatchesReference(InvertedIndexLog* index, const Reference& ref,
                            const std::string& label) {
  for (const auto& [term, postings] : ref) {
    EXPECT_EQ(Walk(index, term), postings) << label << " term " << term;
    auto df = index->DocumentFrequency(term);
    ASSERT_TRUE(df.ok()) << df.status().ToString();
    EXPECT_EQ(*df, postings.size()) << label << " term " << term;
  }
  for (const char* absent : {"absent", "zebra", "", "DATA"}) {
    // "DATA" is never indexed in upper case: postings hold lowered terms.
    EXPECT_TRUE(Walk(index, absent).empty()) << label << " " << absent;
    auto df = index->DocumentFrequency(absent);
    ASSERT_TRUE(df.ok());
    EXPECT_EQ(*df, 0u) << label << " " << absent;
  }
}

TEST(PostingCursorTest, MatchesMapReferenceAcrossBucketsAndPageSizes) {
  for (uint32_t page_size : {512u, 2048u}) {
    for (uint32_t buckets : {1u, 2u, 3u, 5u, 8u, 13u, 16u}) {
      for (size_t buffer : {size_t{700}, size_t{4096}}) {
        flash::FlashChip chip(CursorGeometry(page_size));
        flash::PartitionAllocator alloc(&chip);
        mcu::RamGauge gauge(64 * 1024);
        auto part = alloc.Allocate(128);
        ASSERT_TRUE(part.ok());
        InvertedIndexLog::Options opts;
        opts.num_buckets = buckets;
        opts.insert_buffer_bytes = buffer;
        InvertedIndexLog index(*part, &gauge, opts);
        ASSERT_TRUE(index.Init().ok());

        Rng rng(1000 + page_size + buckets * 7 + buffer);
        Reference ref;
        for (uint32_t d = 1; d <= 300; ++d) {
          std::string text = RandomDocument(&rng, 40);
          auto tf = TermFrequencies(text);
          ASSERT_TRUE(index.AddDocument(d, tf).ok());
          AddToReference(&ref, d, text);
        }
        // The last postings stay in the RAM insert buffer: the cursor
        // must return them first, then walk the flushed chain.
        std::string label = "page " + std::to_string(page_size) +
                            " buckets " + std::to_string(buckets) +
                            " buffer " + std::to_string(buffer);
        ExpectMatchesReference(&index, ref, label + " unflushed");
        ASSERT_TRUE(index.FlushBuffer().ok());
        ExpectMatchesReference(&index, ref, label + " flushed");
        EXPECT_GT(index.num_pages(), 1u) << label;
      }
    }
  }
}

/// One bucket and an insert buffer of exactly one page's triples: every
/// flush programs one full page, and document d is triple (d - 1) % per
/// page of page (d - 1) / per page.
class FullPageIndex {
 public:
  explicit FullPageIndex(uint32_t page_size)
      : chip_(CursorGeometry(page_size)), alloc_(&chip_), gauge_(64 * 1024) {
    auto part = alloc_.Allocate(32);
    EXPECT_TRUE(part.ok());
    InvertedIndexLog::Options opts;
    opts.num_buckets = 1;
    opts.insert_buffer_bytes = TriplesPerPage(page_size) * Posting::kEncodedSize;
    index_ = std::make_unique<InvertedIndexLog>(*part, &gauge_, opts);
    EXPECT_TRUE(index_->Init().ok());
  }

  InvertedIndexLog* index() { return index_.get(); }

 private:
  flash::FlashChip chip_;
  flash::PartitionAllocator alloc_;
  mcu::RamGauge gauge_;
  std::unique_ptr<InvertedIndexLog> index_;
};

TEST(PostingCursorTest, MarksAtWordEdgesOfFullPages) {
  for (uint32_t page_size : {512u, 2048u}) {
    const uint32_t per_page = TriplesPerPage(page_size);
    std::vector<std::vector<uint32_t>> cases = {
        {0}, {per_page - 1}, {0, per_page - 1}, {}};
    if (page_size == 2048) {
      ASSERT_EQ(per_page, 145u);
      for (uint32_t t : {62u, 63u, 64u, 127u, 128u}) {
        cases.push_back({t});
      }
      cases.push_back({62, 63, 64, 127, 128});
    } else {
      ASSERT_EQ(per_page, 36u);
    }
    std::vector<uint32_t> all(per_page);
    for (uint32_t t = 0; t < per_page; ++t) {
      all[t] = t;
    }
    cases.push_back(all);

    for (const std::vector<uint32_t>& triples : cases) {
      FullPageIndex fixture(page_size);
      InvertedIndexLog* index = fixture.index();
      Reference ref;
      const uint32_t pages = 3;
      for (uint32_t d = 1; d <= pages * per_page; ++d) {
        uint32_t triple = (d - 1) % per_page;
        bool hit = std::find(triples.begin(), triples.end(), triple) !=
                   triples.end();
        // Weights vary with the docid so a decode from the wrong triple
        // shows up.
        std::string text = hit ? "Needle" : "hay";
        for (uint32_t r = 0; r < d % 3; ++r) {
          text += hit ? " needle" : " HAY";
        }
        auto tf = TermFrequencies(text);
        ASSERT_TRUE(index->AddDocument(d, tf).ok());
        AddToReference(&ref, d, text);
      }
      ASSERT_EQ(index->num_pages(), pages);
      std::string label = "page " + std::to_string(page_size) + " matches " +
                          std::to_string(triples.size());
      if (!triples.empty()) {
        label += " first " + std::to_string(triples.front());
      }
      EXPECT_EQ(Walk(index, "needle"), ref["needle"]) << label;
      EXPECT_EQ(Walk(index, "hay"), ref["hay"]) << label;
      auto df = index->DocumentFrequency("needle");
      ASSERT_TRUE(df.ok());
      EXPECT_EQ(*df, pages * triples.size()) << label;
    }
  }
}

TEST(PostingCursorTest, SearchMatchesNaiveOnSeededCorpora) {
  for (uint32_t page_size : {512u, 2048u}) {
    for (uint32_t buckets : {1u, 4u, 16u}) {
      flash::FlashChip chip(CursorGeometry(page_size));
      flash::PartitionAllocator alloc(&chip);
      mcu::RamGauge gauge(1 << 20);
      auto part = alloc.Allocate(128);
      ASSERT_TRUE(part.ok());
      EmbeddedSearchEngine::Options opts;
      opts.index.num_buckets = buckets;
      opts.index.insert_buffer_bytes = 1024;
      EmbeddedSearchEngine engine(*part, &gauge, opts);
      ASSERT_TRUE(engine.Init().ok());
      Rng rng(7 * page_size + buckets);
      for (int d = 0; d < 400; ++d) {
        ASSERT_TRUE(engine.AddDocument(RandomDocument(&rng, 25)).ok());
      }
      const auto& vocab = Vocabulary();
      for (int q = 0; q < 20; ++q) {
        std::vector<std::string> query;
        uint32_t terms = 1 + static_cast<uint32_t>(rng.Uniform(4));
        for (uint32_t t = 0; t < terms; ++t) {
          query.push_back(vocab[rng.Uniform(vocab.size())]);
        }
        if (q % 5 == 0) {
          query.push_back("Absent");
        }
        auto pipeline = engine.Search(query, 10);
        auto naive = engine.SearchNaive(query, 10);
        ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
        ASSERT_TRUE(naive.ok()) << naive.status().ToString();
        ASSERT_EQ(pipeline->size(), naive->size());
        for (size_t i = 0; i < pipeline->size(); ++i) {
          EXPECT_EQ((*pipeline)[i].docid, (*naive)[i].docid) << "rank " << i;
          EXPECT_NEAR((*pipeline)[i].score, (*naive)[i].score, 1e-9);
        }
      }
    }
  }
}

/// SHA-256 over every page a seeded mixed-case index programs, pinned from
/// the byte-at-a-time codecs and the std::map term counter the index was
/// first written with: a faster kernel must not move one page byte.
TEST(PostingCursorTest, IndexPagesMatchPinnedDigest) {
  flash::FlashChip chip(CursorGeometry(2048));
  flash::PartitionAllocator alloc(&chip);
  mcu::RamGauge gauge(1 << 20);
  auto part = alloc.Allocate(128);
  ASSERT_TRUE(part.ok());
  EmbeddedSearchEngine::Options opts;
  opts.index.num_buckets = 8;
  opts.index.insert_buffer_bytes = 2048;
  EmbeddedSearchEngine engine(*part, &gauge, opts);
  ASSERT_TRUE(engine.Init().ok());
  Rng rng(20140324);
  for (int d = 0; d < 3000; ++d) {
    ASSERT_TRUE(engine.AddDocument(RandomDocument(&rng, 30)).ok());
  }
  ASSERT_TRUE(engine.Flush().ok());

  crypto::Sha256 sha;
  Bytes page;
  const uint32_t first = part->first_block() * part->pages_per_block();
  for (uint32_t p = 0; p < engine.num_index_pages(); ++p) {
    ASSERT_TRUE(chip.ReadPage(first + p, &page).ok());
    sha.Update(ByteView(page));
  }
  EXPECT_EQ(engine.num_index_pages(), 1880u);
  EXPECT_EQ(ToHex(ByteView(sha.Finish().data(), crypto::Sha256::kDigestSize)),
            "55494458ab8581de1f13a898fb97b24b583746f68f39b5a3a8d9ebe11730ec88");

  chip.ResetStats();
  auto hits = engine.Search({"Privacy", "AUDIT", "b2b"}, 3);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());
  EXPECT_EQ((*hits)[0].docid, 2726u);
  EXPECT_EQ(chip.stats().page_reads, 1410u);
}

/// A bit flip in the top of a page's triple count makes the count claim
/// far more triples than a page holds. The cursor must report corruption
/// rather than read past the page.
TEST(PostingCursorTest, CorruptTripleCountFailsCleanly) {
  flash::FlashChip chip(CursorGeometry(512));
  flash::PartitionAllocator alloc(&chip);
  mcu::RamGauge gauge(64 * 1024);
  auto part = alloc.Allocate(32);
  ASSERT_TRUE(part.ok());
  EmbeddedSearchEngine::Options opts;
  opts.index.num_buckets = 1;
  opts.index.insert_buffer_bytes = 512;
  EmbeddedSearchEngine engine(*part, &gauge, opts);
  ASSERT_TRUE(engine.Init().ok());
  for (int d = 0; d < 200; ++d) {
    ASSERT_TRUE(engine.AddDocument("needle hay " + std::to_string(d)).ok());
  }
  ASSERT_TRUE(engine.Flush().ok());
  ASSERT_GT(engine.num_index_pages(), 2u);
  const size_t ram_before = gauge.in_use();

  // Bit 47 is the top bit of the u16 count at bytes 4-5 of the oldest page.
  const uint32_t first = part->first_block() * part->pages_per_block();
  ASSERT_TRUE(chip.CorruptBit(first, 47).ok());

  auto hits = engine.Search({"needle"}, 10);
  EXPECT_EQ(hits.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(gauge.in_use(), ram_before);
}

}  // namespace
}  // namespace pds::search
