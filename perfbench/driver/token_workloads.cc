// The token workload: one token's Part II engine, written and queried by
// its owner, over a simulated NAND chip and a few KB of RAM.
//
// token_pds: one operation is an owner session on a fresh chip. The write
// phase loads a TPC-D-like instance (workloads::LoadTpcd, 16k lineitems),
// builds the Tjoin index and two Tselect indexes (external sort in
// logstore) and indexes a 20k-document Zipf corpus
// (EmbeddedSearchEngine::AddDocument). The read phase then runs a seeded
// batch of tutorial SPJ queries (SpjExecutor::Execute under a 64 KB
// RamGauge) and 3-term top-10 EmbeddedSearchEngine::Search calls.
//
// Queries come from a seeded pool. Every answer is compared with the first
// answer for the same query, and a seeded sample of the pool with the RAM-
// hungry reference evaluators (NaiveHashJoinSpj as a row multiset,
// SearchNaive as a ranking).

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "embdb/database.h"
#include "embdb/executor.h"
#include "embdb/join_index.h"
#include "flash/flash.h"
#include "mcu/ram_gauge.h"
#include "obs/obs.h"
#include "search/search_engine.h"
#include "workloads/tpcd.h"

namespace pdsbench {

namespace {

using pds::Status;
using pds::embdb::SpjQuery;
using pds::embdb::Tuple;
using pds::workloads::TpcdNode;

constexpr uint64_t kScale = 16;           // 16k lineitems
constexpr size_t kDocuments = 20000;
constexpr size_t kVocabulary = 1000;
constexpr size_t kPoolSize = 64;          // distinct queries per workload
constexpr size_t kCheckedSample = 16;     // pool entries checked vs reference
constexpr size_t kTokenRamBytes = 64 * 1024;
constexpr size_t kBuildRamBytes = 16 * 1024 * 1024;
constexpr size_t kSearchRamBytes = 10 * 1024 * 1024;
constexpr uint32_t kSearchBlocks = 1536;
constexpr size_t kSpjPerOp = 256;         // read batch of one session
constexpr size_t kSearchesPerOp = 48;

pds::flash::Geometry TokenGeometry() {
  pds::flash::Geometry g;
  g.page_size = 2048;
  g.pages_per_block = 64;
  g.block_count = 2048;
  return g;
}

/// Everything the token workloads generate from the seed.
struct Inputs {
  pds::workloads::TpcdConfig tpcd;
  std::vector<std::string> documents;
  std::vector<SpjQuery> spj_pool;
  std::vector<std::vector<std::string>> search_pool;
  std::vector<size_t> checked;  // pool entries checked against a reference
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  in.tpcd.num_suppliers = 10 * kScale;
  in.tpcd.num_customers = 50 * kScale;
  in.tpcd.num_orders = 200 * kScale;
  in.tpcd.num_partsupps = 100 * kScale;
  in.tpcd.num_lineitems = 1000 * kScale;
  in.tpcd.seed = seed;
  in.tpcd.table_options.data_blocks = 64;
  in.tpcd.table_options.directory_blocks = 16;

  pds::Rng rng(seed ^ 0x746f6b656eull);
  for (size_t i = 0; i < kPoolSize; ++i) {
    in.spj_pool.push_back(pds::workloads::TutorialQuery(
        static_cast<uint32_t>(rng.Uniform(in.tpcd.num_segments)),
        rng.Uniform(in.tpcd.num_suppliers)));
  }
  pds::ZipfSampler zipf(kVocabulary, 0.9, seed + 1);
  for (size_t d = 0; d < kDocuments; ++d) {
    std::string text;
    const uint64_t len = 8 + rng.Uniform(16);
    for (uint64_t w = 0; w < len; ++w) {
      text += "term" + std::to_string(zipf.Sample()) + " ";
    }
    in.documents.push_back(std::move(text));
  }
  for (size_t i = 0; i < kPoolSize; ++i) {
    std::vector<std::string> terms;
    while (terms.size() < 3) {
      std::string t = "term" + std::to_string(zipf.Sample());
      if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
        terms.push_back(std::move(t));
      }
    }
    in.search_pool.push_back(std::move(terms));
  }
  std::vector<size_t> order(kPoolSize);
  for (size_t i = 0; i < kPoolSize; ++i) {
    order[i] = i;
  }
  rng.Shuffle(&order);
  in.checked.assign(order.begin(), order.begin() + kCheckedSample);
  return in;
}

/// Costs of one write phase, measured with the steady clock and the chip's
/// operation counters.
struct IngestCost {
  double load_ms = 0;
  double sort_ms = 0;
  uint64_t sort_reads = 0;
  double index_corpus_ms = 0;
  pds::flash::Stats flash;
};

/// One token: a NAND chip with the TPC-D tables, their indexes and the
/// search engine's partition.
struct Token {
  std::unique_ptr<pds::flash::FlashChip> chip;
  pds::mcu::RamGauge build_ram{kBuildRamBytes};
  pds::mcu::RamGauge search_ram{kSearchRamBytes};
  std::unique_ptr<pds::embdb::Database> db;
  pds::workloads::TpcdInstance tpcd;
  std::unique_ptr<pds::embdb::TjoinIndex> tjoin;
  std::unique_ptr<pds::embdb::TselectIndex> tsel_customer;
  std::unique_ptr<pds::embdb::TselectIndex> tsel_supplier;
  std::unique_ptr<pds::search::EmbeddedSearchEngine> engine;

  Token()
      : chip(std::make_unique<pds::flash::FlashChip>(TokenGeometry())),
        db(std::make_unique<pds::embdb::Database>(chip.get(), &build_ram)) {}

  /// Loads the tables and builds the Tjoin and two Tselect indexes.
  Status LoadTables(const Inputs& in, IngestCost* cost) {
    double t0 = NowMs();
    {
      pds::obs::Span span("embdb.load-tpcd", "bench");
      PDS_ASSIGN_OR_RETURN(tpcd, pds::workloads::LoadTpcd(db.get(), in.tpcd));
      PDS_ASSIGN_OR_RETURN(
          pds::embdb::TjoinIndex tj,
          pds::embdb::TjoinIndex::Build(tpcd.path, db->allocator()));
      tjoin = std::make_unique<pds::embdb::TjoinIndex>(std::move(tj));
    }
    cost->load_ms += NowMs() - t0;
    const pds::flash::Stats before = chip->stats();
    t0 = NowMs();
    {
      pds::obs::Span span("logstore.tselect-build", "bench");
      PDS_ASSIGN_OR_RETURN(
          pds::embdb::TselectIndex tc,
          pds::embdb::TselectIndex::Build(tpcd.path, TpcdNode::kCustomer, 2,
                                          db->allocator(), &build_ram));
      PDS_ASSIGN_OR_RETURN(
          pds::embdb::TselectIndex ts,
          pds::embdb::TselectIndex::Build(tpcd.path, TpcdNode::kSupplier, 1,
                                          db->allocator(), &build_ram));
      tsel_customer = std::make_unique<pds::embdb::TselectIndex>(std::move(tc));
      tsel_supplier = std::make_unique<pds::embdb::TselectIndex>(std::move(ts));
    }
    cost->sort_ms += NowMs() - t0;
    cost->sort_reads += (chip->stats() - before).page_reads;
    return Status::Ok();
  }

  /// Indexes the corpus into a fresh search partition.
  Status IndexCorpus(const Inputs& in, IngestCost* cost) {
    const double t0 = NowMs();
    pds::obs::Span span("search.index-corpus", "bench");
    PDS_ASSIGN_OR_RETURN(pds::flash::Partition part,
                         db->allocator()->Allocate(kSearchBlocks));
    pds::search::EmbeddedSearchEngine::Options opts;
    opts.index.num_buckets = 16;
    opts.index.insert_buffer_bytes = 16384;
    engine = std::make_unique<pds::search::EmbeddedSearchEngine>(
        part, &search_ram, opts);
    PDS_RETURN_IF_ERROR(engine->Init());
    for (const std::string& doc : in.documents) {
      PDS_RETURN_IF_ERROR(engine->AddDocument(doc).status());
    }
    PDS_RETURN_IF_ERROR(engine->Flush());
    cost->index_corpus_ms += NowMs() - t0;
    return Status::Ok();
  }

  pds::embdb::SpjExecutor Executor(pds::mcu::RamGauge* gauge) {
    return pds::embdb::SpjExecutor(
        tpcd.path, tjoin.get(), {tsel_customer.get(), tsel_supplier.get()},
        gauge);
  }
};

/// A result row set as a sorted multiset of printed rows.
using Rows = std::vector<std::string>;

Rows ToMultiset(const std::vector<Tuple>& tuples) {
  Rows rows;
  rows.reserve(tuples.size());
  for (const Tuple& t : tuples) {
    std::string row;
    for (const auto& v : t) {
      row += v.ToString();
      row += '\x1f';
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

pds::Result<Rows> NaiveSpj(Token* token, const SpjQuery& query) {
  pds::mcu::RamGauge unbounded(size_t{1} << 32);
  pds::embdb::NaiveHashJoinSpj naive(token->tpcd.path, &unbounded);
  std::vector<Tuple> tuples;
  pds::embdb::SpjStats stats;
  PDS_RETURN_IF_ERROR(naive.Execute(
      query,
      [&](const Tuple& t) {
        tuples.push_back(t);
        return Status::Ok();
      },
      &stats));
  return ToMultiset(tuples);
}

bool SameRanking(const std::vector<pds::search::SearchResult>& a,
                 const std::vector<pds::search::SearchResult>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].docid != b[i].docid ||
        std::abs(a[i].score - b[i].score) >
            1e-9 * std::max(1.0, std::abs(a[i].score))) {
      return false;
    }
  }
  return true;
}

bool IsChecked(const Inputs& in, size_t entry) {
  return std::find(in.checked.begin(), in.checked.end(), entry) !=
         in.checked.end();
}

/// FlashChip::ReadPage over pages spread across the whole chip.
double ReadPageNs(pds::flash::FlashChip* chip) {
  pds::Bytes page;
  uint32_t next = 0;
  return TimeCallNs(
      [&] {
        next = (next + 7919) % chip->geometry().total_pages();
        return chip->ReadPage(next, &page).ok();
      },
      100);
}

bool Fail(const char* workload, const std::string& what) {
  std::cerr << "pdsbench: " << workload << ": " << what << "\n";
  return false;
}

// ---------------------------------------------------------------------------

/// Read-phase costs of the counted sessions.
struct ReadCost {
  uint64_t queries = 0;
  uint64_t page_reads = 0;
  double device_ms = 0;
  std::vector<double> latency_ms;

  void Add(const pds::flash::Stats& delta, double ms) {
    ++queries;
    page_reads += delta.page_reads;
    device_ms += delta.TimeUs(pds::flash::CostModel{}) / 1e3;
    latency_ms.push_back(ms);
  }
  double PerQuery(double total) const {
    return queries == 0 ? 0.0 : total / static_cast<double>(queries);
  }
};

class TokenPds : public Workload {
 public:
  explicit TokenPds(const Options& opts)
      : seed_(opts.seed), pick_(opts.seed ^ 0x7069636b) {}

  const char* op_name() const override {
    return "token session: write phase, 256 SPJ queries, 48 searches";
  }

  Status Setup() override {
    in_ = MakeInputs(seed_);
    return Status::Ok();
  }

  /// A fresh chip and the session's seeded picks from the query pools.
  Status PrepareOp() override {
    token_.reset();
    token_ = std::make_unique<Token>();
    spj_entries_.clear();
    search_entries_.clear();
    for (size_t i = 0; i < kSpjPerOp; ++i) {
      spj_entries_.push_back(pick_.Uniform(kPoolSize));
    }
    for (size_t i = 0; i < kSearchesPerOp; ++i) {
      search_entries_.push_back(pick_.Uniform(kPoolSize));
    }
    return Status::Ok();
  }

  Status Op(bool count) override {
    IngestCost ingest;
    const pds::flash::Stats before = token_->chip->stats();
    PDS_RETURN_IF_ERROR(token_->LoadTables(in_, &ingest));
    PDS_RETURN_IF_ERROR(token_->IndexCorpus(in_, &ingest));
    ingest.flash = token_->chip->stats() - before;

    ReadCost spj;
    uint64_t rows = 0;
    spj_rows_.resize(kSpjPerOp);
    auto executor = token_->Executor(&token_ram_);
    for (size_t i = 0; i < kSpjPerOp; ++i) {
      const pds::flash::Stats q0 = token_->chip->stats();
      const double t0 = NowMs();
      spj_rows_[i].clear();
      pds::embdb::SpjStats stats;
      PDS_RETURN_IF_ERROR(executor.Execute(
          in_.spj_pool[spj_entries_[i]],
          [&](const Tuple& t) {
            spj_rows_[i].push_back(t);
            return Status::Ok();
          },
          &stats));
      spj.Add(token_->chip->stats() - q0, NowMs() - t0);
      rows += stats.result_rows;
    }

    ReadCost search;
    pds::obs::Counter* postings =
        pds::obs::Registry::Global().GetCounter("search.postings_merged", "ops");
    const uint64_t postings_before = postings->Value();
    token_->search_ram.ResetHighWater();
    hits_.resize(kSearchesPerOp);
    for (size_t i = 0; i < kSearchesPerOp; ++i) {
      const pds::flash::Stats q0 = token_->chip->stats();
      const double t0 = NowMs();
      PDS_ASSIGN_OR_RETURN(
          hits_[i],
          token_->engine->Search(in_.search_pool[search_entries_[i]], 10));
      search.Add(token_->chip->stats() - q0, NowMs() - t0);
    }

    if (count) {
      ++counted_ops_;
      ingest_.load_ms += ingest.load_ms;
      ingest_.sort_ms += ingest.sort_ms;
      ingest_.sort_reads += ingest.sort_reads;
      ingest_.index_corpus_ms += ingest.index_corpus_ms;
      ingest_.flash.page_programs += ingest.flash.page_programs;
      ingest_.flash.block_erases += ingest.flash.block_erases;
      for (double ms : spj.latency_ms) {
        spj_.latency_ms.push_back(ms);
      }
      spj_.queries += spj.queries;
      spj_.page_reads += spj.page_reads;
      spj_.device_ms += spj.device_ms;
      for (double ms : search.latency_ms) {
        search_.latency_ms.push_back(ms);
      }
      search_.queries += search.queries;
      search_.page_reads += search.page_reads;
      search_.device_ms += search.device_ms;
      result_rows_ += rows;
      postings_ += postings->Value() - postings_before;
      search_ram_high_water_ = std::max(search_ram_high_water_,
                                        token_->search_ram.high_water());
    }
    return Status::Ok();
  }

  /// Every session's token must hold what was written and answer every
  /// query like the reference for that query.
  bool CheckLastOp() override {
    if (token_->tjoin->num_rows() != in_.tpcd.num_lineitems ||
        token_->engine->num_documents() != in_.documents.size()) {
      return Fail("token_pds", "ingested row or document count is off");
    }
    for (size_t i = 0; i < kSpjPerOp; ++i) {
      const size_t entry = spj_entries_[i];
      Rows got = ToMultiset(spj_rows_[i]);
      auto it = spj_reference_.find(entry);
      if (it == spj_reference_.end()) {
        Rows want = got;
        if (IsChecked(in_, entry)) {
          auto naive = NaiveSpj(token_.get(), in_.spj_pool[entry]);
          if (!naive.ok()) {
            return Fail("token_pds",
                        "NaiveHashJoinSpj: " + naive.status().ToString());
          }
          want = std::move(*naive);
        }
        it = spj_reference_.emplace(entry, std::move(want)).first;
      }
      if (got != it->second) {
        return Fail("token_pds", "SPJ answer differs from its reference");
      }
    }
    for (size_t i = 0; i < kSearchesPerOp; ++i) {
      const size_t entry = search_entries_[i];
      auto it = search_reference_.find(entry);
      if (it == search_reference_.end()) {
        std::vector<pds::search::SearchResult> want = hits_[i];
        if (IsChecked(in_, entry)) {
          auto naive = token_->engine->SearchNaive(in_.search_pool[entry], 10);
          if (!naive.ok()) {
            return Fail("token_pds",
                        "SearchNaive: " + naive.status().ToString());
          }
          want = std::move(*naive);
        }
        it = search_reference_.emplace(entry, std::move(want)).first;
      }
      if (!SameRanking(hits_[i], it->second)) {
        return Fail("token_pds", "search ranking differs from its reference");
      }
    }
    return true;
  }

  Status LayerMetrics(const TraceSummary& trace, MetricSet* m) override {
    if (counted_ops_ == 0) {
      return Status::Internal("no counted session");
    }
    const double ops = static_cast<double>(counted_ops_);
    // Write phase, per session.
    m->Set("flash.programs_ingest",
           static_cast<double>(ingest_.flash.page_programs) / ops, "count");
    m->Set("flash.erases_ingest",
           static_cast<double>(ingest_.flash.block_erases) / ops, "count");
    m->Set("logstore.sort_page_reads",
           static_cast<double>(ingest_.sort_reads) / ops, "count");
    m->Set("logstore.sort_ms", ingest_.sort_ms / ops, "ms");
    m->Set("embdb.load_s", ingest_.load_ms / ops / 1e3, "s");
    m->Set("search.add_document_us",
           ingest_.index_corpus_ms * 1e3 /
               (ops * static_cast<double>(in_.documents.size())),
           "us");
    m->Set("flash.read_page_ns", ReadPageNs(token_->chip.get()), "ns");

    // Read phase, per query; span times are per traced session.
    const double spj_per_op = static_cast<double>(kSpjPerOp);
    const double search_per_op = static_cast<double>(kSearchesPerOp);
    m->Set("flash.reads_per_spj",
           spj_.PerQuery(static_cast<double>(spj_.page_reads)), "count");
    m->Set("flash.device_ms_per_spj", spj_.PerQuery(spj_.device_ms), "ms");
    m->Set("embdb.tselect_ms",
           trace.PerOp(trace.self_ms, "embdb.tselect") / spj_per_op, "ms");
    m->Set("embdb.merge_ms",
           trace.PerOp(trace.self_ms, "embdb.merge") / spj_per_op, "ms");
    m->Set("embdb.join_fetch_ms",
           trace.PerOp(trace.self_ms, "embdb.join_fetch") / spj_per_op, "ms");
    m->Set("embdb.rows_per_query",
           spj_.PerQuery(static_cast<double>(result_rows_)), "count");
    m->Set("embdb.spj_p50_ms", Median(spj_.latency_ms), "ms");
    m->Set("embdb.spj_p99_ms", Percentile(spj_.latency_ms, 99), "ms");
    m->Set("flash.reads_per_search",
           search_.PerQuery(static_cast<double>(search_.page_reads)), "count");
    m->Set("flash.device_ms_per_search", search_.PerQuery(search_.device_ms),
           "ms");
    m->Set("search.df_pass_ms",
           trace.PerOp(trace.self_ms, "search.df_pass") / search_per_op, "ms");
    m->Set("search.merge_pass_ms",
           trace.PerOp(trace.self_ms, "search.merge_pass") / search_per_op,
           "ms");
    m->Set("search.postings_per_query",
           search_.PerQuery(static_cast<double>(postings_)), "count");
    m->Set("search.ram_high_water_bytes",
           static_cast<double>(search_ram_high_water_), "B");
    m->Set("search.query_p50_ms", Median(search_.latency_ms), "ms");
    m->Set("search.query_p99_ms", Percentile(search_.latency_ms, 99), "ms");

    // The RAM peak of any SPJ pipeline stage over the whole pool.
    size_t ram_peak = 0;
    for (const SpjQuery& q : in_.spj_pool) {
      auto executor = token_->Executor(&token_ram_);
      pds::embdb::SpjStats stats;
      pds::embdb::QueryProfile profile;
      PDS_RETURN_IF_ERROR(executor.Execute(
          q, [](const Tuple&) { return Status::Ok(); }, &stats, &profile));
      for (const auto& stage : profile.stages) {
        ram_peak = std::max(ram_peak, stage.ram_peak_bytes);
      }
    }
    m->Set("embdb.ram_peak_bytes", static_cast<double>(ram_peak), "B");
    return Status::Ok();
  }

 private:
  uint64_t seed_;
  pds::Rng pick_;
  Inputs in_;
  std::unique_ptr<Token> token_;
  pds::mcu::RamGauge token_ram_{kTokenRamBytes};
  std::vector<size_t> spj_entries_;
  std::vector<size_t> search_entries_;
  std::vector<std::vector<Tuple>> spj_rows_;
  std::vector<std::vector<pds::search::SearchResult>> hits_;
  std::map<size_t, Rows> spj_reference_;
  std::map<size_t, std::vector<pds::search::SearchResult>> search_reference_;
  uint64_t counted_ops_ = 0;
  IngestCost ingest_;
  ReadCost spj_;
  ReadCost search_;
  uint64_t result_rows_ = 0;
  uint64_t postings_ = 0;
  size_t search_ram_high_water_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeTokenPds(const Options& opts) {
  return std::make_unique<TokenPds>(opts);
}

}  // namespace pdsbench
