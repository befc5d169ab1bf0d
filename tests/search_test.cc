#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/rng.h"
#include "flash/flash.h"
#include "mcu/ram_gauge.h"
#include "search/search_engine.h"
#include "search/tokenizer.h"

namespace pds::search {
namespace {

TEST(TokenizerTest, BasicSplit) {
  auto tokens = Tokenize("Hello, World! foo-bar42");
  std::vector<std::string> expected = {"hello", "world", "foo", "bar42"};
  EXPECT_EQ(tokens, expected);
}

TEST(TokenizerTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("... !!! ---").empty());
}

TEST(TokenizerTest, TermFrequencies) {
  TermCounts tf = TermFrequencies("the cat and the hat and the cat");
  TermCounts expected = {{"and", 2}, {"cat", 2}, {"hat", 1}, {"the", 3}};
  EXPECT_EQ(tf, expected);
}

flash::Geometry EngineGeometry() {
  flash::Geometry g;
  g.page_size = 512;
  g.pages_per_block = 8;
  g.block_count = 256;
  return g;
}

class SearchEngineTest : public ::testing::Test {
 protected:
  SearchEngineTest()
      : chip_(EngineGeometry()),
        alloc_(&chip_),
        gauge_(64 * 1024) {}

  std::unique_ptr<EmbeddedSearchEngine> NewEngine(
      uint32_t blocks = 64, size_t buffer_bytes = 1024) {
    auto part = alloc_.Allocate(blocks);
    EXPECT_TRUE(part.ok());
    EmbeddedSearchEngine::Options opts;
    opts.index.num_buckets = 16;
    opts.index.insert_buffer_bytes = buffer_bytes;
    auto engine =
        std::make_unique<EmbeddedSearchEngine>(*part, &gauge_, opts);
    EXPECT_TRUE(engine->Init().ok());
    return engine;
  }

  flash::FlashChip chip_;
  flash::PartitionAllocator alloc_;
  mcu::RamGauge gauge_;
};

TEST_F(SearchEngineTest, SingleTermQuery) {
  auto engine = NewEngine();
  ASSERT_TRUE(engine->AddDocument("apples and oranges").ok());
  ASSERT_TRUE(engine->AddDocument("oranges and bananas").ok());
  ASSERT_TRUE(engine->AddDocument("bananas and cherries").ok());
  ASSERT_TRUE(engine->Flush().ok());

  auto results = engine->Search({"apples"}, 10);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].docid, 1u);
}

TEST_F(SearchEngineTest, NoMatchesEmptyResult) {
  auto engine = NewEngine();
  ASSERT_TRUE(engine->AddDocument("apples").ok());
  auto results = engine->Search({"zebra"}, 10);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

TEST_F(SearchEngineTest, EmptyQueryAndEmptyIndex) {
  auto engine = NewEngine();
  auto r1 = engine->Search({"anything"}, 10);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->empty());
  ASSERT_TRUE(engine->AddDocument("doc").ok());
  auto r2 = engine->Search({}, 10);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->empty());
}

TEST_F(SearchEngineTest, TfWeighting) {
  auto engine = NewEngine();
  // doc1 mentions "privacy" once, doc2 three times; same idf -> doc2 wins.
  ASSERT_TRUE(engine->AddDocument("privacy matters today").ok());
  ASSERT_TRUE(
      engine->AddDocument("privacy privacy privacy is the topic").ok());
  ASSERT_TRUE(engine->AddDocument("unrelated filler text").ok());
  ASSERT_TRUE(engine->Flush().ok());

  auto results = engine->Search({"privacy"}, 10);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 2u);
  EXPECT_EQ((*results)[0].docid, 2u);
  EXPECT_EQ((*results)[1].docid, 1u);
  EXPECT_GT((*results)[0].score, (*results)[1].score);
}

TEST_F(SearchEngineTest, IdfWeighting) {
  auto engine = NewEngine();
  // "common" appears everywhere (idf = 0), "rare" in one doc.
  ASSERT_TRUE(engine->AddDocument("common rare").ok());
  ASSERT_TRUE(engine->AddDocument("common").ok());
  ASSERT_TRUE(engine->AddDocument("common").ok());
  ASSERT_TRUE(engine->AddDocument("common").ok());
  ASSERT_TRUE(engine->Flush().ok());

  auto results = engine->Search({"common", "rare"}, 10);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  // doc1 holds the only positive-score hit ("rare"); docs with only
  // "common" score log(4/4) = 0.
  EXPECT_EQ((*results)[0].docid, 1u);
  double expected = 1.0 * std::log(4.0 / 1.0);
  EXPECT_NEAR((*results)[0].score, expected, 1e-9);
}

TEST_F(SearchEngineTest, MultiTermScoresSum) {
  auto engine = NewEngine();
  ASSERT_TRUE(engine->AddDocument("alpha beta").ok());
  ASSERT_TRUE(engine->AddDocument("alpha").ok());
  ASSERT_TRUE(engine->AddDocument("beta").ok());
  ASSERT_TRUE(engine->AddDocument("gamma").ok());
  ASSERT_TRUE(engine->Flush().ok());

  auto results = engine->Search({"alpha", "beta"}, 10);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 3u);
  EXPECT_EQ((*results)[0].docid, 1u);  // matches both terms
  double idf = std::log(4.0 / 2.0);
  EXPECT_NEAR((*results)[0].score, 2 * idf, 1e-9);
  EXPECT_NEAR((*results)[1].score, idf, 1e-9);
}

TEST_F(SearchEngineTest, TopNBoundsResults) {
  auto engine = NewEngine();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine->AddDocument("needle filler" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(engine->AddDocument("haystack only").ok());
  ASSERT_TRUE(engine->Flush().ok());

  auto results = engine->Search({"needle"}, 5);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 5u);
}

TEST_F(SearchEngineTest, PipelineMatchesNaive) {
  // The pipeline evaluator and the container-per-docid strawman must agree.
  auto engine = NewEngine();
  Rng rng(77);
  std::vector<std::string> vocab = {"data",   "privacy", "server", "token",
                                    "flash",  "query",   "index",  "secure",
                                    "log",    "page"};
  for (int d = 0; d < 60; ++d) {
    std::string text;
    int len = 3 + static_cast<int>(rng.Uniform(10));
    for (int w = 0; w < len; ++w) {
      text += vocab[rng.Uniform(vocab.size())] + " ";
    }
    ASSERT_TRUE(engine->AddDocument(text).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());

  for (auto query : std::vector<std::vector<std::string>>{
           {"data"}, {"privacy", "token"}, {"secure", "flash", "query"}}) {
    auto pipeline = engine->Search(query, 10);
    auto naive = engine->SearchNaive(query, 10);
    ASSERT_TRUE(pipeline.ok());
    ASSERT_TRUE(naive.ok());
    ASSERT_EQ(pipeline->size(), naive->size());
    for (size_t i = 0; i < pipeline->size(); ++i) {
      EXPECT_EQ((*pipeline)[i].docid, (*naive)[i].docid) << "rank " << i;
      EXPECT_NEAR((*pipeline)[i].score, (*naive)[i].score, 1e-9);
    }
  }
}

TEST_F(SearchEngineTest, QueryWorksWithUnflushedBuffer) {
  auto engine = NewEngine(/*blocks=*/64, /*buffer_bytes=*/8192);
  ASSERT_TRUE(engine->AddDocument("buffered document").ok());
  // No flush: postings still in RAM.
  auto results = engine->Search({"buffered"}, 10);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
}

TEST_F(SearchEngineTest, ResultsSpanFlushedAndBuffered) {
  auto engine = NewEngine(/*blocks=*/64, /*buffer_bytes=*/256);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine->AddDocument("keyword number" + std::to_string(i)).ok());
  }
  // Small buffer flushed several times; latest postings may be in RAM.
  auto results = engine->Search({"keyword"}, 20);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 10u);
}

TEST_F(SearchEngineTest, PipelineRamIsBoundedNaiveIsNot) {
  // A tight RAM budget: pipeline succeeds, naive exhausts RAM.
  mcu::RamGauge tight(6 * 1024);
  auto part = alloc_.Allocate(64);
  ASSERT_TRUE(part.ok());
  EmbeddedSearchEngine::Options opts;
  opts.index.num_buckets = 16;
  opts.index.insert_buffer_bytes = 1024;
  opts.naive_container_bytes = 64;
  EmbeddedSearchEngine engine(*part, &tight, opts);
  ASSERT_TRUE(engine.Init().ok());

  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(engine.AddDocument("popular term doc").ok());
  }
  ASSERT_TRUE(engine.Flush().ok());

  auto pipeline = engine.Search({"popular"}, 10);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  EXPECT_EQ(pipeline->size(), 10u);

  auto naive = engine.SearchNaive({"popular"}, 10);
  EXPECT_EQ(naive.status().code(), StatusCode::kResourceExhausted);
  // The failed query must not leak RAM.
  auto retry = engine.Search({"popular"}, 10);
  EXPECT_TRUE(retry.ok());
}

TEST_F(SearchEngineTest, DescendingDocidInvariant) {
  // Verify the cursor contract directly: postings arrive docid-descending.
  auto part = alloc_.Allocate(32);
  ASSERT_TRUE(part.ok());
  InvertedIndexLog::Options opts;
  opts.num_buckets = 4;
  opts.insert_buffer_bytes = 256;
  InvertedIndexLog index(*part, &gauge_, opts);
  ASSERT_TRUE(index.Init().ok());

  for (uint32_t d = 1; d <= 100; ++d) {
    TermCounts tf = {{"term", d % 5 + 1}};
    ASSERT_TRUE(index.AddDocument(d, tf).ok());
  }

  auto cursor = index.OpenTerm("term");
  ASSERT_TRUE(cursor.ok());
  uint32_t prev = 0xFFFFFFFF;
  uint32_t count = 0;
  while (!cursor->AtEnd()) {
    EXPECT_LT(cursor->docid(), prev);
    prev = cursor->docid();
    ++count;
    ASSERT_TRUE(cursor->Advance().ok());
  }
  EXPECT_EQ(count, 100u);
}

TEST_F(SearchEngineTest, RejectsNonIncreasingDocids) {
  auto part = alloc_.Allocate(32);
  ASSERT_TRUE(part.ok());
  InvertedIndexLog::Options opts;
  InvertedIndexLog index(*part, &gauge_, opts);
  ASSERT_TRUE(index.Init().ok());
  TermCounts tf = {{"x", 1}};
  ASSERT_TRUE(index.AddDocument(5, tf).ok());
  EXPECT_EQ(index.AddDocument(5, tf).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index.AddDocument(4, tf).code(), StatusCode::kInvalidArgument);
}

TEST_F(SearchEngineTest, AddDocumentRejectsUnsortedOrDuplicateTerms) {
  auto part = alloc_.Allocate(32);
  ASSERT_TRUE(part.ok());
  InvertedIndexLog::Options opts;
  InvertedIndexLog index(*part, &gauge_, opts);
  ASSERT_TRUE(index.Init().ok());
  TermCounts unsorted = {{"beta", 1}, {"alpha", 2}};
  TermCounts duplicate = {{"alpha", 1}, {"alpha", 2}};
  TermCounts sorted = {{"alpha", 1}, {"beta", 2}};
  EXPECT_EQ(index.AddDocument(1, unsorted).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(index.AddDocument(1, duplicate).code(),
            StatusCode::kInvalidArgument);
  // A rejected document adds nothing and does not use up its docid.
  EXPECT_EQ(index.num_documents(), 0u);
  auto df = index.DocumentFrequency("alpha");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(*df, 0u);
  ASSERT_TRUE(index.AddDocument(1, sorted).ok());
  ASSERT_TRUE(index.AddDocument(2, TermCounts{}).ok());
  df = index.DocumentFrequency("beta");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(*df, 1u);
  EXPECT_EQ(index.num_documents(), 2u);
}

TEST_F(SearchEngineTest, DocumentFrequencyCounts) {
  auto part = alloc_.Allocate(32);
  ASSERT_TRUE(part.ok());
  InvertedIndexLog::Options opts;
  InvertedIndexLog index(*part, &gauge_, opts);
  ASSERT_TRUE(index.Init().ok());
  for (uint32_t d = 1; d <= 10; ++d) {
    TermCounts tf;
    if (d % 2 == 0) {
      tf.push_back({"evens", 1});
    }
    tf.push_back({"everywhere", 1});
    ASSERT_TRUE(index.AddDocument(d, tf).ok());
  }
  auto df1 = index.DocumentFrequency("everywhere");
  auto df2 = index.DocumentFrequency("evens");
  auto df3 = index.DocumentFrequency("absent");
  ASSERT_TRUE(df1.ok());
  ASSERT_TRUE(df2.ok());
  ASSERT_TRUE(df3.ok());
  EXPECT_EQ(*df1, 10u);
  EXPECT_EQ(*df2, 5u);
  EXPECT_EQ(*df3, 0u);
}

TEST_F(SearchEngineTest, QueryIoCostScalesWithChainNotCorpus) {
  // Pipeline merge reads each touched bucket page at most twice (two-pass),
  // never the whole index.
  auto engine = NewEngine(/*blocks=*/128, /*buffer_bytes=*/512);
  for (int i = 0; i < 200; ++i) {
    // "rare" appears in 5 documents; the rest only share other terms.
    std::string text = (i % 40 == 0) ? "rare event" : "ordinary event";
    ASSERT_TRUE(engine->AddDocument(text).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());

  chip_.ResetStats();
  auto results = engine->Search({"rare"}, 10);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 5u);
  uint64_t reads = chip_.stats().page_reads;
  EXPECT_LT(reads, engine->num_index_pages());  // far below a full scan
}

}  // namespace
}  // namespace pds::search
