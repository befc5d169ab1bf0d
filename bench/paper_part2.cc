// Part II of the tutorial, the embedded engine on a token: E1-E5, E12 and
// the RAM-budget ablation. Every number here is a flash or RAM counter,
// exact for a given seed.

#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "embdb/database.h"
#include "embdb/executor.h"
#include "embdb/key_index.h"
#include "embdb/kv_store.h"
#include "embdb/reorganize.h"
#include "embdb/timeseries.h"
#include "flash/flash.h"
#include "logstore/external_sort.h"
#include "mcu/calibration.h"
#include "mcu/ram_gauge.h"
#include "search/search_engine.h"
#include "workloads/tpcd.h"

#include "paper_bench.h"

namespace pds::bench {
namespace {

using embdb::Database;
using embdb::KeyLogIndex;
using embdb::Tuple;
using embdb::Value;
using flash::FlashChip;
using flash::PartitionAllocator;
using mcu::RamGauge;

constexpr size_t kTokenRam = 64 * 1024;
// Probes behind every per-lookup average (E4 lookups, E12 gets).
constexpr int kLookupProbes = 1000;

flash::Geometry Chip(uint32_t blocks) {
  flash::Geometry g;
  g.page_size = 2048;
  g.pages_per_block = 64;
  g.block_count = blocks;
  return g;
}

// ---- E1: Bloom-summary key-log index vs table scan -------------------------

struct Customers {
  FlashChip chip{Chip(1024)};
  RamGauge gauge{256 * 1024};
  Database db{&chip, &gauge};
};

/// A CUSTOMER table of `rows` rows over `cities` cities, key-log indexed on
/// CITY with a Bloom summary of `bits_per_key`.
Result<std::unique_ptr<Customers>> LoadCustomers(uint64_t rows,
                                                 uint32_t cities,
                                                 double bits_per_key) {
  auto f = std::make_unique<Customers>();
  embdb::Schema customer("customer",
                         {{"id", embdb::ColumnType::kUint64, ""},
                          {"name", embdb::ColumnType::kString, ""},
                          {"city", embdb::ColumnType::kString, ""}});
  Database::TableOptions topts;
  topts.data_blocks = 512;
  topts.directory_blocks = 32;
  PDS_RETURN_IF_ERROR(f->db.CreateTable(customer, topts));
  Database::IndexOptions iopts;
  iopts.key_log.bits_per_key = bits_per_key;
  iopts.keys_blocks = 64;
  iopts.bloom_blocks = 16;
  PDS_RETURN_IF_ERROR(f->db.CreateKeyIndex("customer", "city", iopts));
  Rng rng(1);
  for (uint64_t i = 0; i < rows; ++i) {
    Tuple t = {Value::U64(i),
               Value::Str("customer-name-padding-" + std::to_string(i)),
               Value::Str("city-" + std::to_string(rng.Uniform(cities)))};
    PDS_RETURN_IF_ERROR(f->db.Insert("customer", t).status());
  }
  return f;
}

/// CITY = `city` answered by a full table scan and by the index.
Status LookupCity(Customers* f, uint64_t rows, uint32_t cities,
                  const std::string& city, Records* out) {
  embdb::Predicate p{2, embdb::Predicate::Op::kEq, Value::Str(city)};
  uint64_t scan_matches = 0;
  f->chip.ResetStats();
  PDS_RETURN_IF_ERROR(f->db.SelectScan("customer", {p},
                                       [&](uint64_t, const Tuple&) {
                                         ++scan_matches;
                                         return Status::Ok();
                                       }));
  const uint64_t scan_reads = f->chip.stats().page_reads;
  std::vector<uint64_t> rowids;
  KeyLogIndex::LookupStats stats;
  f->chip.ResetStats();
  PDS_RETURN_IF_ERROR(f->db.key_index("customer", "city")
                          ->Lookup(Value::Str(city), &rowids, &stats));
  out->push_back(
      Record("E1", "lookup")
          .Num("rows", rows)
          .Num("cities", cities)
          .Str("key", city)
          .Num("table_pages", f->db.table("customer")->num_data_pages())
          .Num("scan_reads", scan_reads)
          .Num("scan_matches", scan_matches)
          .Num("index_reads", f->chip.stats().page_reads)
          .Num("summary_pages", stats.summary_pages)
          .Num("key_pages", stats.key_pages)
          .Num("false_pos_pages", stats.false_positive_pages)
          .Num("matches", stats.matches));
  return Status::Ok();
}

Status RunE1(Records* out) {
  // Table size at 100 cities, then selectivity at 20k rows.
  for (uint64_t rows : {5000, 20000, 40000}) {
    PDS_ASSIGN_OR_RETURN(auto f, LoadCustomers(rows, 100, 16.0));
    PDS_RETURN_IF_ERROR(LookupCity(f.get(), rows, 100, "city-7", out));
    if (rows == 20000) {
      PDS_RETURN_IF_ERROR(LookupCity(f.get(), rows, 100, "city-3", out));
    }
  }
  for (uint32_t cities : {10, 1000}) {
    PDS_ASSIGN_OR_RETURN(auto f, LoadCustomers(20000, cities, 16.0));
    PDS_RETURN_IF_ERROR(LookupCity(f.get(), 20000, cities, "city-3", out));
  }
  // Bits/key ablation over unique keys: every key page an absent-key probe
  // reads is a false positive.
  constexpr int kAbsentProbes = 50;
  for (double bits_per_key : {2.0, 8.0, 16.0, 24.0}) {
    PDS_ASSIGN_OR_RETURN(auto f, LoadCustomers(20000, 20000, bits_per_key));
    KeyLogIndex* index = f->db.key_index("customer", "city");
    std::vector<uint64_t> rowids;
    KeyLogIndex::LookupStats stats;
    uint64_t false_pos = 0;
    for (int i = 0; i < kAbsentProbes; ++i) {
      PDS_RETURN_IF_ERROR(index->Lookup(
          Value::Str("absent-" + std::to_string(i)), &rowids, &stats));
      false_pos += stats.false_positive_pages;
    }
    out->push_back(Record("E1", "bloom_bits")
                       .Num("bits_per_key", bits_per_key)
                       .Num("probes", kAbsentProbes)
                       .Num("false_pos_pages_per_probe",
                            static_cast<double>(false_pos) / kAbsentProbes)
                       .Num("summary_pages", stats.summary_pages));
  }
  return Status::Ok();
}

// ---- E2: NAND write patterns ------------------------------------------------

void WriteRecord(const char* series, uint32_t writes, const flash::Stats& s,
                 Records* out) {
  const flash::CostModel cost;
  out->push_back(Record("E2", series)
                     .Num("writes", writes)
                     .Num("programs", s.page_programs)
                     .Num("erases", s.block_erases)
                     .Num("device_ms", s.TimeUs(cost) / 1000.0)
                     .Num("us_per_write", s.TimeUs(cost) / writes));
}

/// `writes` pages programmed strictly in order, the log-structured way.
Status SequentialWrites(const char* series, uint32_t writes, Records* out) {
  FlashChip chip(Chip(512));
  const Bytes data(2048, 0xAB);
  for (uint32_t p = 0; p < writes; ++p) {
    PDS_RETURN_IF_ERROR(chip.ProgramPage(p, ByteView(data)));
  }
  WriteRecord(series, writes, chip.stats(), out);
  return Status::Ok();
}

Status RunE2(Records* out) {
  for (uint32_t n : {256, 1024, 4096}) {
    PDS_RETURN_IF_ERROR(SequentialWrites("sequential_write", n, out));
  }
  // The out-of-place alternative to an in-place update appends the new
  // version, which is a sequential write.
  for (uint32_t n : {256, 1024}) {
    PDS_RETURN_IF_ERROR(SequentialWrites("out_of_place", n, out));
  }
  // An update-in-place structure on a full chip: each update reads, erases
  // and reprograms the target's whole block (no spare blocks modeled; a
  // real FTL amortizes but pays the same asymptotics under churn).
  for (uint32_t n : {256, 1024}) {
    const flash::Geometry g = Chip(512);
    FlashChip chip(g);
    const Bytes data(2048, 0xCD);
    for (uint32_t p = 0; p < g.total_pages(); ++p) {
      PDS_RETURN_IF_ERROR(chip.ProgramPage(p, ByteView(data)));
    }
    chip.ResetStats();
    Rng rng(42);
    for (uint32_t u = 0; u < n; ++u) {
      const auto target = static_cast<uint32_t>(rng.Uniform(g.total_pages()));
      const uint32_t block = target / g.pages_per_block;
      const uint32_t first = block * g.pages_per_block;
      std::vector<Bytes> saved(g.pages_per_block);
      for (uint32_t i = 0; i < g.pages_per_block; ++i) {
        PDS_RETURN_IF_ERROR(chip.ReadPage(first + i, &saved[i]));
      }
      PDS_RETURN_IF_ERROR(chip.EraseBlock(block));
      saved[target - first] = data;
      for (uint32_t i = 0; i < g.pages_per_block; ++i) {
        PDS_RETURN_IF_ERROR(chip.ProgramPage(first + i, ByteView(saved[i])));
      }
    }
    WriteRecord("random_in_place", n, chip.stats(), out);
  }
  return Status::Ok();
}

// ---- E3: pipeline vs naive search -------------------------------------------

struct Corpus {
  FlashChip chip{Chip(2048)};
  RamGauge gauge{10 * 1024 * 1024};
  std::unique_ptr<search::EmbeddedSearchEngine> engine;
};

/// `docs` documents over a Zipf vocabulary of 1,000 terms.
Result<std::unique_ptr<Corpus>> BuildCorpus(int docs) {
  auto f = std::make_unique<Corpus>();
  PartitionAllocator alloc(&f->chip);
  PDS_ASSIGN_OR_RETURN(flash::Partition part, alloc.Allocate(1536));
  // A small bucket count and a larger insert buffer keep flushed bucket
  // pages reasonably full at corpus scale.
  search::EmbeddedSearchEngine::Options opts;
  opts.index.num_buckets = 16;
  opts.index.insert_buffer_bytes = 16384;
  f->engine = std::make_unique<search::EmbeddedSearchEngine>(part, &f->gauge,
                                                             opts);
  PDS_RETURN_IF_ERROR(f->engine->Init());
  Rng rng(3);
  ZipfSampler zipf(1000, 0.9, 5);
  for (int d = 0; d < docs; ++d) {
    std::string text;
    const int len = 8 + static_cast<int>(rng.Uniform(16));
    for (int w = 0; w < len; ++w) {
      text += "term" + std::to_string(zipf.Sample()) + " ";
    }
    PDS_RETURN_IF_ERROR(f->engine->AddDocument(text).status());
  }
  PDS_RETURN_IF_ERROR(f->engine->Flush());
  return f;
}

/// A `keywords`-term query mixing common and rarer terms.
std::vector<std::string> QueryTerms(int keywords) {
  std::vector<std::string> q;
  for (int i = 0; i < keywords; ++i) {
    q.push_back("term" + std::to_string(3 + i * 17));
  }
  return q;
}

Status RunE3(Records* out) {
  for (int docs : {1000, 5000, 20000}) {
    PDS_ASSIGN_OR_RETURN(auto f, BuildCorpus(docs));
    const std::vector<int> keyword_counts =
        docs == 1000 ? std::vector<int>{1, 3, 5} : std::vector<int>{3};
    for (int keywords : keyword_counts) {
      f->chip.ResetStats();
      f->gauge.ResetHighWater();
      PDS_ASSIGN_OR_RETURN(auto hits,
                           f->engine->Search(QueryTerms(keywords), 10));
      out->push_back(Record("E3", "pipeline")
                         .Num("docs", docs)
                         .Num("keywords", keywords)
                         .Num("page_reads", f->chip.stats().page_reads)
                         .Num("ram_high_water", f->gauge.high_water())
                         .Num("hits", hits.size())
                         .Num("index_pages", f->engine->num_index_pages()));
    }
    f->chip.ResetStats();
    f->gauge.ResetHighWater();
    PDS_RETURN_IF_ERROR(f->engine->SearchNaive(QueryTerms(3), 10).status());
    out->push_back(Record("E3", "naive")
                       .Num("docs", docs)
                       .Num("keywords", 3)
                       .Num("page_reads", f->chip.stats().page_reads)
                       .Num("ram_high_water", f->gauge.high_water())
                       .Bool("fits_64k", f->gauge.high_water() <= kTokenRam));
  }
  return Status::Ok();
}

// ---- E4: key-log index reorganized into a tree -----------------------------

struct KeyLog {
  FlashChip chip{Chip(2048)};
  RamGauge gauge{kTokenRam};
  PartitionAllocator alloc{&chip};
  std::unique_ptr<KeyLogIndex> index;
};

/// A key-log index over `entries` rowids; rowid i gets key `next_key()`.
template <typename KeyFn>
Result<std::unique_ptr<KeyLog>> BuildKeyLog(uint64_t entries, KeyFn next_key) {
  auto f = std::make_unique<KeyLog>();
  PDS_ASSIGN_OR_RETURN(flash::Partition keys, f->alloc.Allocate(512));
  PDS_ASSIGN_OR_RETURN(flash::Partition bloom, f->alloc.Allocate(64));
  f->index = std::make_unique<KeyLogIndex>(keys, bloom, &f->gauge,
                                           KeyLogIndex::Options{});
  PDS_RETURN_IF_ERROR(f->index->Init());
  for (uint64_t i = 0; i < entries; ++i) {
    PDS_RETURN_IF_ERROR(f->index->Insert(Value::U64(next_key()), i));
  }
  return f;
}

Status RunE4(Records* out) {
  for (uint64_t entries : {10000, 50000, 200000}) {
    Rng rng(13);
    PDS_ASSIGN_OR_RETURN(auto f, BuildKeyLog(entries, [&] {
                           return rng.Next() % (entries * 4);
                         }));
    const flash::Stats before = f->chip.stats();
    PDS_ASSIGN_OR_RETURN(
        embdb::TreeIndex tree,
        embdb::Reorganizer::Reorganize(f->index.get(), &f->alloc, &f->gauge,
                                       {}));
    const flash::Stats reorg = f->chip.stats() - before;

    Rng probe(21);
    std::vector<uint64_t> keys(kLookupProbes);
    for (uint64_t& key : keys) {
      key = probe.Next() % (entries * 4);
    }
    std::vector<uint64_t> rowids;
    uint64_t key_log_reads = 0;
    uint64_t tree_reads = 0;
    for (uint64_t key : keys) {
      KeyLogIndex::LookupStats kstats;
      f->chip.ResetStats();
      PDS_RETURN_IF_ERROR(f->index->Lookup(Value::U64(key), &rowids, &kstats));
      key_log_reads += f->chip.stats().page_reads;
      embdb::TreeIndex::LookupStats tstats;
      f->chip.ResetStats();
      PDS_RETURN_IF_ERROR(tree.Lookup(Value::U64(key), &rowids, &tstats));
      tree_reads += f->chip.stats().page_reads;
    }
    const double tree_per_lookup =
        static_cast<double>(tree_reads) / kLookupProbes;
    // Amortization: lookups after which the reorganization's IO has paid
    // for itself against a key-log lookup (|Log2| + ~2 key pages).
    const double saved_per_lookup =
        f->index->num_summary_pages_flushed() + 2.0 - tree_per_lookup;
    out->push_back(
        Record("E4", "lookup")
            .Num("entries", entries)
            .Num("probes", kLookupProbes)
            .Num("key_log_reads_per_lookup",
                 static_cast<double>(key_log_reads) / kLookupProbes)
            .Num("key_pages_total", f->index->num_key_pages_flushed())
            .Num("tree_reads_per_lookup", tree_per_lookup)
            .Num("tree_height", tree.height())
            .Num("crossover_lookups",
                 saved_per_lookup > 0
                     ? static_cast<double>(reorg.page_reads +
                                           reorg.page_programs) /
                           saved_per_lookup
                     : -1));
  }
  // The reorganization alone, on a fresh chip over unbounded random keys.
  for (uint64_t entries : {10000, 50000, 200000}) {
    Rng rng(5);
    PDS_ASSIGN_OR_RETURN(auto f,
                         BuildKeyLog(entries, [&] { return rng.Next(); }));
    f->chip.ResetStats();
    PDS_RETURN_IF_ERROR(embdb::Reorganizer::Reorganize(f->index.get(),
                                                       &f->alloc, &f->gauge,
                                                       {})
                            .status());
    const flash::Stats& cost = f->chip.stats();
    out->push_back(
        Record("E4", "reorganize")
            .Num("entries", entries)
            .Num("flash_reads", cost.page_reads)
            .Num("flash_programs", cost.page_programs)
            .Num("device_ms", cost.TimeUs(flash::CostModel()) / 1000.0));
  }
  return Status::Ok();
}

// ---- E5: pipeline SPJ with Tselect/Tjoin vs a hash join --------------------

Status RunE5(Records* out) {
  using workloads::TpcdNode;
  for (uint64_t scale : {1, 4, 16}) {
    FlashChip chip(Chip(4096));
    RamGauge gauge(16 * 1024 * 1024);
    Database db(&chip, &gauge);
    workloads::TpcdConfig cfg;
    cfg.num_suppliers = 10 * scale;
    cfg.num_customers = 50 * scale;
    cfg.num_orders = 200 * scale;
    cfg.num_partsupps = 100 * scale;
    cfg.num_lineitems = 1000 * scale;
    cfg.table_options.data_blocks = static_cast<uint32_t>(32 * scale);
    cfg.table_options.directory_blocks = static_cast<uint32_t>(8 * scale);
    PDS_ASSIGN_OR_RETURN(workloads::TpcdInstance inst,
                         workloads::LoadTpcd(&db, cfg));
    const flash::Stats before = chip.stats();
    PDS_ASSIGN_OR_RETURN(embdb::TjoinIndex tjoin,
                         embdb::TjoinIndex::Build(inst.path, db.allocator()));
    PDS_ASSIGN_OR_RETURN(
        embdb::TselectIndex tsel_cust,
        embdb::TselectIndex::Build(inst.path, TpcdNode::kCustomer, 2,
                                   db.allocator(), &gauge));
    PDS_ASSIGN_OR_RETURN(
        embdb::TselectIndex tsel_supp,
        embdb::TselectIndex::Build(inst.path, TpcdNode::kSupplier, 1,
                                   db.allocator(), &gauge));
    const flash::Stats build = chip.stats() - before;
    const embdb::SpjQuery query = workloads::TutorialQuery(0, 1);
    auto sink = [](const Tuple&) { return Status::Ok(); };

    // The pipeline plan, run under the real 64 KB token budget.
    RamGauge token_ram(kTokenRam);
    embdb::SpjExecutor executor(inst.path, &tjoin, {&tsel_cust, &tsel_supp},
                                &token_ram);
    embdb::SpjStats stats;
    chip.ResetStats();
    const bool pipeline_fits = executor.Execute(query, sink, &stats).ok();
    out->push_back(Record("E5", "pipeline")
                       .Num("scale", scale)
                       .Num("page_reads", chip.stats().page_reads)
                       .Num("ram_high_water", token_ram.high_water())
                       .Num("result_rows", stats.result_rows)
                       .Bool("fits_64k", pipeline_fits)
                       .Num("index_build_programs", build.page_programs));

    // The hash join's true footprint under an unbounded gauge, then
    // whether it runs on the token at all.
    RamGauge big_ram(1ULL << 30);
    embdb::NaiveHashJoinSpj naive(inst.path, &big_ram);
    chip.ResetStats();
    PDS_RETURN_IF_ERROR(naive.Execute(query, sink, &stats));
    const uint64_t naive_reads = chip.stats().page_reads;
    const uint64_t naive_rows = stats.result_rows;
    RamGauge small_ram(kTokenRam);
    embdb::NaiveHashJoinSpj constrained(inst.path, &small_ram);
    const bool naive_fits = constrained.Execute(query, sink, &stats).ok();
    out->push_back(Record("E5", "naive")
                       .Num("scale", scale)
                       .Num("page_reads", naive_reads)
                       .Num("ram_high_water", big_ram.high_water())
                       .Num("result_rows", naive_rows)
                       .Bool("fits_64k", naive_fits));
  }
  return Status::Ok();
}

// ---- E12: KV store and time series on the same two-log discipline ---------

Status RunE12(Records* out) {
  for (uint64_t keys : {1000, 10000, 50000}) {
    FlashChip chip(Chip(2048));
    RamGauge gauge(kTokenRam);
    PartitionAllocator alloc(&chip);
    PDS_ASSIGN_OR_RETURN(flash::Partition values, alloc.Allocate(512));
    PDS_ASSIGN_OR_RETURN(flash::Partition key_part, alloc.Allocate(512));
    PDS_ASSIGN_OR_RETURN(flash::Partition bloom, alloc.Allocate(128));
    embdb::KvStore kv(values, key_part, bloom, &gauge, {});
    PDS_RETURN_IF_ERROR(kv.Init());
    const std::string value(100, 'v');
    for (uint64_t k = 0; k < keys; ++k) {
      PDS_RETURN_IF_ERROR(kv.Put("user:" + std::to_string(k),
                                 ByteView(std::string_view(value))));
    }
    Rng rng(9);
    uint64_t reads = 0;
    for (int i = 0; i < kLookupProbes; ++i) {
      chip.ResetStats();
      PDS_RETURN_IF_ERROR(
          kv.Get("user:" + std::to_string(rng.Uniform(keys))).status());
      reads += chip.stats().page_reads;
    }
    out->push_back(Record("E12", "kv_get")
                       .Num("keys", keys)
                       .Num("probes", kLookupProbes)
                       .Num("page_reads_per_get",
                            static_cast<double>(reads) / kLookupProbes)
                       .Num("resident_ram", gauge.in_use()));
  }
  for (uint64_t points : {10000, 100000, 500000}) {
    FlashChip chip(Chip(2048));
    RamGauge gauge(kTokenRam);
    PartitionAllocator alloc(&chip);
    PDS_ASSIGN_OR_RETURN(flash::Partition data, alloc.Allocate(1024));
    PDS_ASSIGN_OR_RETURN(flash::Partition summary, alloc.Allocate(32));
    embdb::TimeSeriesStore ts(data, summary, &gauge);
    PDS_RETURN_IF_ERROR(ts.Init());
    Rng rng(13);
    for (uint64_t t = 1; t <= points; ++t) {
      PDS_RETURN_IF_ERROR(
          ts.Append(t, static_cast<double>(rng.Uniform(1000)) / 10.0));
    }
    embdb::TimeSeriesStore::QueryStats stats;
    uint64_t matched = 0;
    PDS_RETURN_IF_ERROR(ts.Range(points / 2, points / 2 + 100,
                                 [&](const embdb::TimeSeriesStore::Point&) {
                                   ++matched;
                                   return Status::Ok();
                                 },
                                 &stats));
    out->push_back(Record("E12", "ts_narrow_range")
                       .Num("points", points)
                       .Num("matched", matched)
                       .Num("data_pages", stats.data_pages)
                       .Num("pages_skipped", stats.pages_skipped));
    PDS_ASSIGN_OR_RETURN(auto agg, ts.Aggregate(10, points - 10, &stats));
    out->push_back(Record("E12", "ts_wide_aggregate")
                       .Num("points", points)
                       .Num("count", agg.count)
                       .Num("data_pages", stats.data_pages)
                       .Num("summary_pages", stats.summary_pages)
                       .Num("total_data_pages", ts.num_data_pages()));
  }
  return Status::Ok();
}

// ---- RAM-budget ablation (supports E3-E5) -----------------------------------

Status RunRamBudget(Records* out) {
  // External sort of 100k 32-byte entries: merge IO falls with the budget
  // until the merge is single-pass.
  constexpr uint64_t kEntries = 100000;
  for (size_t budget_kb : {2, 8, 32, 96, 256}) {
    FlashChip chip(Chip(4096));
    PartitionAllocator alloc(&chip);
    RamGauge gauge(budget_kb * 1024 + 8 * 1024);
    logstore::ExternalSorter::Options opts;
    opts.record_size = 32;
    opts.ram_budget_bytes = budget_kb * 1024;
    logstore::ExternalSorter sorter(&alloc, opts, &gauge);
    Rng rng(7);
    uint8_t rec[32] = {0};
    for (uint64_t i = 0; i < kEntries; ++i) {
      EncodeU64BE(rec, rng.Next());
      PDS_RETURN_IF_ERROR(sorter.Add(ByteView(rec, 32)));
    }
    const size_t runs = sorter.num_runs() + 1;
    chip.ResetStats();
    PDS_RETURN_IF_ERROR(
        sorter.Finish([](ByteView) { return Status::Ok(); }));
    out->push_back(
        Record("ram_budget", "sort")
            .Num("budget_kb", budget_kb)
            .Num("merge_reads", chip.stats().page_reads)
            .Num("merge_programs", chip.stats().page_programs)
            .Num("initial_runs", runs)
            .Num("single_pass_needs_kb",
                 mcu::SinglePassSortRam(kEntries, 32, 2048) / 1024.0));
  }
  // A k-keyword pipeline search is feasible exactly when the budget holds
  // k pages plus the top-N heap.
  const std::pair<size_t, int> searches[] = {
      {4, 1}, {4, 3}, {8, 3}, {16, 5}, {64, 5}};
  for (const auto& [budget_kb, keywords] : searches) {
    FlashChip chip(Chip(256));
    PartitionAllocator alloc(&chip);
    RamGauge gauge(budget_kb * 1024);
    PDS_ASSIGN_OR_RETURN(flash::Partition part, alloc.Allocate(256));
    search::EmbeddedSearchEngine::Options opts;
    opts.index.num_buckets = 16;
    opts.index.insert_buffer_bytes = 1024;
    search::EmbeddedSearchEngine engine(part, &gauge, opts);
    bool feasible = engine.Init().ok();
    if (feasible) {
      Rng rng(5);
      for (int d = 0; d < 500; ++d) {
        std::string text;
        for (int w = 0; w < 8; ++w) {
          text += "term" + std::to_string(rng.Uniform(50)) + " ";
        }
        PDS_RETURN_IF_ERROR(engine.AddDocument(text).status());
      }
      PDS_RETURN_IF_ERROR(engine.Flush());
      std::vector<std::string> query;
      for (int k = 0; k < keywords; ++k) {
        query.push_back("term" + std::to_string(3 + k));
      }
      feasible = engine.Search(query, 10).ok();
    }
    out->push_back(Record("ram_budget", "search")
                       .Num("budget_kb", budget_kb)
                       .Num("keywords", keywords)
                       .Bool("feasible", feasible)
                       .Num("needed_bytes",
                            mcu::SearchQueryRam(static_cast<size_t>(keywords),
                                                2048, 10, 16, 1024)));
  }
  // Streaming GROUP-BY: distinct groups before the budget trips.
  for (size_t budget_kb : {4, 16, 64, 256}) {
    RamGauge gauge(budget_kb * 1024);
    embdb::Aggregator agg(embdb::Aggregator::Func::kSum, &gauge);
    uint64_t max_groups = 0;
    while (max_groups < (1u << 20) &&
           agg.Add(Value::U64(max_groups), 1.0).ok()) {
      ++max_groups;
    }
    out->push_back(Record("ram_budget", "group_capacity")
                       .Num("budget_kb", budget_kb)
                       .Num("max_groups", max_groups));
  }
  return Status::Ok();
}

}  // namespace

Status RunPart2(Records* out) {
  PDS_RETURN_IF_ERROR(RunE1(out));
  PDS_RETURN_IF_ERROR(RunE2(out));
  PDS_RETURN_IF_ERROR(RunE3(out));
  PDS_RETURN_IF_ERROR(RunE4(out));
  PDS_RETURN_IF_ERROR(RunE5(out));
  PDS_RETURN_IF_ERROR(RunE12(out));
  return RunRamBudget(out);
}

}  // namespace pds::bench
