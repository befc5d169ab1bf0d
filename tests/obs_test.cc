#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "global/fleet_executor.h"
#include "obs/obs.h"
#include "workloads/tpcd.h"

namespace pds::obs {
namespace {

// Tests of live recording behavior are meaningless when the layer is
// compiled out; the registry/structure tests below still run.
#if PDS_OBS_ENABLED
#define SKIP_IF_OBS_DISABLED() (void)0
#else
#define SKIP_IF_OBS_DISABLED() GTEST_SKIP() << "built with PDS_OBS=OFF"
#endif

// Each TEST runs in its own process (gtest_discover_tests), but tests still
// reset the global tracer themselves so they hold under --gtest_filter=*.
void FreshTracer(size_t capacity = 1 << 12) {
  Tracer& tracer = Tracer::Global();
  tracer.SetEnabled(false);
  tracer.SetCapacity(capacity);
  tracer.SetEnabled(true);
}

size_t CountEvents(std::string_view name) {
  size_t n = 0;
  for (const SpanEvent& e : Tracer::Global().Events()) {
    if (name == e.name) {
      ++n;
    }
  }
  return n;
}

TEST(ObsCounter, AddValueReset) {
  SKIP_IF_OBS_DISABLED();
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(ObsGauge, TracksLastValueAndMax) {
  SKIP_IF_OBS_DISABLED();
  Gauge g;
  g.Set(10);
  g.Set(100);
  g.Set(25);
  EXPECT_DOUBLE_EQ(g.Value(), 25.0);
  EXPECT_DOUBLE_EQ(g.max(), 100.0);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
  EXPECT_DOUBLE_EQ(g.max(), 0.0);
}

TEST(ObsHistogram, Moments) {
  SKIP_IF_OBS_DISABLED();
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);  // empty histogram reads as zeros
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.Record(2.0);
  h.Record(8.0);
  h.Record(5.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 15.0);
  EXPECT_DOUBLE_EQ(h.min(), 2.0);
  EXPECT_DOUBLE_EQ(h.max(), 8.0);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  h.Record(3.0);
  EXPECT_DOUBLE_EQ(h.min(), 3.0);  // Reset re-arms the min sentinel
}

TEST(ObsHistogram, PowerOfTwoBuckets) {
  SKIP_IF_OBS_DISABLED();
  Histogram h;
  h.Record(1.5);  // frexp exp = 1
  h.Record(1.5);
  h.Record(100.0);  // frexp exp = 7
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(7), 1u);
}

TEST(ObsHistogram, PercentileWithinDocumentedRelativeError) {
  SKIP_IF_OBS_DISABLED();
  // Deterministic sweep: 1..1000, each exactly once. The exact percentile-p
  // value under the nearest-rank definition is then ceil(10 * p).
  Histogram h;
  for (int v = 1; v <= 1000; ++v) {
    h.Record(static_cast<double>(v));
  }
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
    double exact = std::ceil(10.0 * p);
    double got = h.Percentile(p);
    double rel_err = std::abs(got - exact) / exact;
    EXPECT_LE(rel_err, Histogram::kMaxRelativeError)
        << "p" << p << ": got " << got << ", exact " << exact;
  }
  // Percentiles are monotone in p and clamped to the observed range.
  double prev = 0;
  for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    double got = h.Percentile(p);
    EXPECT_GE(got, prev) << "p" << p;
    prev = got;
  }
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 1000.0);
}

TEST(ObsHistogram, PercentileEdgeCases) {
  SKIP_IF_OBS_DISABLED();
  Histogram h;
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);  // empty histogram reads as 0
  h.Record(7.0);
  // One sample: every percentile clamps to the single observed value.
  EXPECT_DOUBLE_EQ(h.Percentile(1), 7.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99.9), 7.0);
}

TEST(ObsSnapshotRing, CapturesDeltasAndEvictsOldest) {
  SKIP_IF_OBS_DISABLED();
  Registry& reg = Registry::Global();
  Counter* c = reg.GetCounter("obs_test.ring.rounds", "ops");
  SnapshotRing ring(2);
  EXPECT_EQ(ring.capacity(), 2u);

  c->Add(5);
  ring.Capture(reg);
  c->Add(2);
  ring.Capture(reg);

  auto delta_for = [](const SnapshotRing::Snapshot& snap,
                      std::string_view name) -> const SnapshotRing::Delta* {
    for (const SnapshotRing::Delta& d : snap.deltas) {
      if (d.name == name) {
        return &d;
      }
    }
    return nullptr;
  };
  std::vector<SnapshotRing::Snapshot> snaps = ring.Snapshots();
  ASSERT_EQ(snaps.size(), 2u);
  const SnapshotRing::Delta* first = delta_for(snaps[0], "obs_test.ring.rounds");
  ASSERT_NE(first, nullptr);
  EXPECT_DOUBLE_EQ(first->value, 5.0);
  EXPECT_DOUBLE_EQ(first->delta, 5.0);
  const SnapshotRing::Delta* second =
      delta_for(snaps[1], "obs_test.ring.rounds");
  ASSERT_NE(second, nullptr);
  EXPECT_DOUBLE_EQ(second->value, 7.0);
  EXPECT_DOUBLE_EQ(second->delta, 2.0);

  // An idle capture stores no delta for the unchanged counter; a third
  // capture evicts the oldest snapshot but the total capture count keeps
  // climbing.
  ring.Capture(reg);
  snaps = ring.Snapshots();
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(ring.captures(), 3u);
  EXPECT_EQ(snaps[1].seq, 3u);
  EXPECT_EQ(delta_for(snaps[1], "obs_test.ring.rounds"), nullptr);

  std::string json = ring.Json();
  EXPECT_NE(json.find("\"captures\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.ring.rounds\""), std::string::npos);
}

TEST(ObsRegistry, FindOrCreateIsStable) {
  Registry& reg = Registry::Global();
  Counter* a = reg.GetCounter("obs_test.stable", "ops");
  Counter* b = reg.GetCounter("obs_test.stable", "ops");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, reg.GetCounter("obs_test.other", "ops"));

  Gauge* g = reg.GetGauge("obs_test.gauge", "bytes");
  Histogram* h = reg.GetHistogram("obs_test.hist", "us");
  a->Add(7);
  g->Set(3.5);
  h->Record(1.0);

  std::string json = reg.MetricsJson();
  EXPECT_NE(json.find("\"obs_test.stable\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"unit\": \"bytes\""), std::string::npos);

  size_t before = reg.num_metrics();
  reg.ResetValues();
  EXPECT_EQ(reg.num_metrics(), before);  // registration survives
  EXPECT_EQ(a->Value(), 0u);
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
  EXPECT_EQ(h->count(), 0u);
}

TEST(ObsSpan, NestingRecordsParentLinkage) {
  SKIP_IF_OBS_DISABLED();
  FreshTracer();
  {
    Span outer("outer", "test");
    outer.AddArg("k", 1.0);
    {
      Span inner("inner", "test");
    }
  }
  Tracer::Global().SetEnabled(false);

  auto events = Tracer::Global().Events();
  ASSERT_EQ(events.size(), 2u);
  // The inner span ends (and is appended) first.
  const SpanEvent& inner = events[0];
  const SpanEvent& outer = events[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner.tid, outer.tid);
  ASSERT_EQ(outer.num_args, 1u);
  EXPECT_STREQ(outer.arg_key[0], "k");
  EXPECT_DOUBLE_EQ(outer.arg_val[0], 1.0);
}

TEST(ObsSpan, RemoteParentAdoptsCrossProcessSpanId) {
  SKIP_IF_OBS_DISABLED();
  FreshTracer();
  const uint64_t remote_id = 0xC0FFEE;
  {
    Span span("remote-child", "test", RemoteParent{remote_id});
    EXPECT_NE(span.id(), 0u);
    {
      Span nested("remote-grandchild", "test");
    }
  }
  Tracer::Global().SetEnabled(false);

  auto events = Tracer::Global().Events();
  ASSERT_EQ(events.size(), 2u);
  const SpanEvent& nested = events[0];
  const SpanEvent& child = events[1];
  EXPECT_STREQ(child.name, "remote-child");
  EXPECT_EQ(child.parent, remote_id);  // parented across the process gap
  EXPECT_EQ(nested.parent, child.id);  // locals nest under it as usual
}

TEST(ObsSpan, DisabledTracerRecordsNothing) {
  FreshTracer();
  Tracer::Global().SetEnabled(false);
  {
    Span span("ignored", "test");
  }
  Tracer::Global().Instant("ignored-instant", "test");
  EXPECT_EQ(Tracer::Global().num_events(), 0u);
  EXPECT_EQ(Tracer::Global().dropped(), 0u);
}

TEST(ObsSpan, CapacityOverflowCountsDrops) {
  SKIP_IF_OBS_DISABLED();
  FreshTracer(/*capacity=*/2);
  for (int i = 0; i < 5; ++i) {
    Span span("overflow", "test");
  }
  Tracer::Global().SetEnabled(false);
  EXPECT_EQ(Tracer::Global().num_events(), 2u);
  EXPECT_EQ(Tracer::Global().dropped(), 3u);
}

TEST(ObsTracer, InstantEventsCarryArgs) {
  SKIP_IF_OBS_DISABLED();
  FreshTracer();
  Tracer::Global().Instant("marker", "leakage", "classes", 5.0, "frac", 0.25);
  Tracer::Global().SetEnabled(false);

  auto events = Tracer::Global().Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].instant);
  EXPECT_STREQ(events[0].category, "leakage");
  ASSERT_EQ(events[0].num_args, 2u);
  EXPECT_DOUBLE_EQ(events[0].arg_val[0], 5.0);
  EXPECT_DOUBLE_EQ(events[0].arg_val[1], 0.25);
}

TEST(ObsTracer, ChromeTraceExportShape) {
  SKIP_IF_OBS_DISABLED();
  FreshTracer();
  {
    Span span("export-me", "test");
  }
  Tracer::Global().Instant("mark", "test");
  Tracer::Global().SetEnabled(false);

  std::string json = Tracer::Global().ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"export-me\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\": "), std::string::npos);
}

TEST(ObsTracer, InternedNamesAreStable) {
  const char* a = Tracer::Global().Intern(std::string("obs_test.dyn"));
  const char* b = Tracer::Global().Intern(std::string("obs_test.dyn"));
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "obs_test.dyn");
}

// The satellite concurrency contract: FleetExecutor worker threads record
// their fleet.unit spans loss-free, and the aggregate counters are identical
// at any thread count. Run under the tsan preset (tests/CMakePresets filter
// includes "Obs").
TEST(ObsFleetConcurrency, SpansAndCountersAreThreadCountInvariant) {
  SKIP_IF_OBS_DISABLED();
  constexpr size_t kUnits = 64;
  Counter* work = Registry::Global().GetCounter("obs_test.fleet_work", "ops");
  uint64_t expected_total = 0;
  for (size_t i = 0; i < kUnits; ++i) {
    expected_total += i + 1;
  }

  for (size_t threads : {1u, 2u, 8u}) {
    FreshTracer();
    work->Reset();

    global::FleetExecutor executor(threads);
    std::atomic<uint64_t> local_sum{0};
    Status s = executor.ParallelFor(kUnits, [&](size_t i) {
      work->Add(i + 1);
      local_sum.fetch_add(i + 1, std::memory_order_relaxed);
      return Status::Ok();
    });
    Tracer::Global().SetEnabled(false);

    ASSERT_TRUE(s.ok()) << "threads=" << threads;
    EXPECT_EQ(Tracer::Global().dropped(), 0u) << "threads=" << threads;
    EXPECT_EQ(CountEvents("fleet.unit"), kUnits) << "threads=" << threads;
    EXPECT_EQ(CountEvents("fleet.parallel_for"), 1u) << "threads=" << threads;
    EXPECT_EQ(work->Value(), expected_total) << "threads=" << threads;
    EXPECT_EQ(local_sum.load(), expected_total) << "threads=" << threads;
  }
}

// End-to-end EXPLAIN ANALYZE contract: the per-operator page-read counts in
// a QueryProfile must account for every chip page read during the query.
TEST(ObsSpjProfile, StageReadsMatchFlashStatsDelta) {
  flash::Geometry geo;
  geo.page_size = 2048;
  geo.pages_per_block = 64;
  geo.block_count = 512;
  auto chip = std::make_unique<flash::FlashChip>(geo);
  mcu::RamGauge build_ram(8 * 1024 * 1024);
  embdb::Database db(chip.get(), &build_ram);

  workloads::TpcdConfig cfg;
  cfg.num_suppliers = 4;
  cfg.num_customers = 12;
  cfg.num_orders = 40;
  cfg.num_partsupps = 20;
  cfg.num_lineitems = 150;
  cfg.table_options.data_blocks = 16;
  cfg.table_options.directory_blocks = 4;
  auto inst = workloads::LoadTpcd(&db, cfg);
  ASSERT_TRUE(inst.ok()) << inst.status().ToString();

  auto tjoin = embdb::TjoinIndex::Build(inst->path, db.allocator());
  auto tsel_cust = embdb::TselectIndex::Build(
      inst->path, workloads::TpcdNode::kCustomer, 2, db.allocator(),
      &build_ram);
  auto tsel_supp = embdb::TselectIndex::Build(
      inst->path, workloads::TpcdNode::kSupplier, 1, db.allocator(),
      &build_ram);
  ASSERT_TRUE(tjoin.ok() && tsel_cust.ok() && tsel_supp.ok());

  embdb::SpjQuery query = workloads::TutorialQuery(0, 1);
  mcu::RamGauge token_ram(64 * 1024);
  embdb::SpjExecutor executor(inst->path, &*tjoin, {&*tsel_cust, &*tsel_supp},
                              &token_ram);
  embdb::SpjStats stats;
  embdb::QueryProfile profile;
  flash::Stats before = chip->stats();
  Status s = executor.Execute(
      query, [](const embdb::Tuple&) { return Status::Ok(); }, &stats,
      &profile);
  ASSERT_TRUE(s.ok()) << s.ToString();
  flash::Stats delta = chip->stats() - before;

  ASSERT_EQ(profile.stages.size(), 3u);
  EXPECT_STREQ(profile.stages[0].op, "tselect");
  EXPECT_STREQ(profile.stages[1].op, "merge");
  EXPECT_STREQ(profile.stages[2].op, "join-fetch");
  EXPECT_EQ(profile.total_page_reads(), delta.page_reads);
  EXPECT_GT(delta.page_reads, 0u);
  for (const embdb::StageProfile& stage : profile.stages) {
    EXPECT_GT(stage.ram_peak_bytes, 0u);
  }
  // The rendered profile mentions every stage.
  std::string table = profile.ToString();
  EXPECT_NE(table.find("tselect"), std::string::npos);
  EXPECT_NE(table.find("join-fetch"), std::string::npos);
  EXPECT_NE(table.find("page_reads"), std::string::npos);
}

}  // namespace
}  // namespace pds::obs
