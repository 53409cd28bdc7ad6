// Unit tests for the observability layer (src/obs): registry instrument
// semantics (including per-thread cells and the runtime disable switch),
// probe macros, build-phase timers, and the JSON/table exporters.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "obs/build_phase_timer.h"
#include "obs/metrics_exporter.h"
#include "obs/metrics_registry.h"
#include "obs/query_probe.h"
#include "traversal/transitive_closure.h"

namespace reach {
namespace {

TEST(CounterTest, AddAccumulatesAndNameIsStable) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("widgets");
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  EXPECT_EQ(c.name(), "widgets");
  // Same name -> same instrument.
  EXPECT_EQ(&registry.GetCounter("widgets"), &c);
  EXPECT_NE(&registry.GetCounter("other"), &c);
}

TEST(CounterTest, PerThreadCellsMergeOnScrape) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("parallel");
  constexpr int kThreads = 4;
  constexpr uint64_t kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&c]() {
      for (uint64_t j = 0; j < kAddsPerThread; ++j) c.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kAddsPerThread);
}

// An attached cell is read at scrape time, on top of the counter's own
// cells; detaching folds its last value in, and Reset restarts the
// counter from 0 without touching the owner's cell.
TEST(CounterTest, AttachedCellsSumFoldOnDetachAndReset) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("events");
  c.Add(5);
  std::atomic<uint64_t> owned{0};
  {
    auto owner = std::make_unique<std::atomic<uint64_t>>(0);
    c.Attach(owner.get());
    c.Attach(&owned);
    owner->fetch_add(7);
    owned.fetch_add(3);
    EXPECT_EQ(c.Value(), 15u);
    // Attached cells count even while the registry is runtime-disabled.
    registry.set_enabled(false);
    owner->fetch_add(1);
    EXPECT_EQ(c.Value(), 16u);
    registry.set_enabled(true);
    c.Detach(owner.get());
  }  // the owner is gone; its 8 stay in the counter
  EXPECT_EQ(c.Value(), 16u);
  EXPECT_EQ(registry.Snapshot().counters.at("events"), 16u);

  registry.Reset();
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(owned.load(), 3u);  // the owner's own count is untouched
  owned.fetch_add(2);
  c.Add(1);
  EXPECT_EQ(c.Value(), 3u);
  c.Detach(&owned);
  EXPECT_EQ(c.Value(), 3u);
  owned.fetch_add(100);  // no longer read
  EXPECT_EQ(c.Value(), 3u);
}

TEST(CounterTest, RuntimeDisableMakesAddANoOp) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("gated");
  registry.set_enabled(false);
  c.Add(100);
  EXPECT_EQ(c.Value(), 0u);
  registry.set_enabled(true);
  c.Add(1);
  EXPECT_EQ(c.Value(), 1u);
}

TEST(GaugeTest, LastWriteWins) {
  MetricsRegistry registry;
  Gauge& g = registry.GetGauge("threads");
  g.Set(4);
  g.Set(8);
  EXPECT_EQ(g.Value(), 8.0);
  registry.set_enabled(false);
  g.Set(16);
  EXPECT_EQ(g.Value(), 8.0);
}

TEST(HistogramTest, Log2BucketMapping) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("latency");
  // floor(log2(v + 1)): 0 -> bucket 0; 1, 2 -> bucket 1; 3..6 -> bucket 2.
  h.Record(0);
  h.Record(1);
  h.Record(2);
  h.Record(3);
  h.Record(6);
  const MetricsSnapshot snap = registry.Snapshot();
  const HistogramSnapshot& hs = snap.histograms.at("latency");
  ASSERT_GE(hs.buckets.size(), 3u);
  EXPECT_EQ(hs.buckets[0], 1u);
  EXPECT_EQ(hs.buckets[1], 2u);
  EXPECT_EQ(hs.buckets[2], 2u);
  EXPECT_EQ(hs.count, 5u);
  EXPECT_EQ(hs.sum, 12u);
  EXPECT_DOUBLE_EQ(hs.Mean(), 12.0 / 5.0);
}

TEST(HistogramTest, BucketBoundsMatchTheRecordMapping) {
  // Bucket b covers [2^b - 1, 2^(b+1) - 2]; bounds must agree with where
  // Record actually lands values.
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 2u);
  EXPECT_EQ(Histogram::BucketLowerBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 6u);
  // Adjacent buckets tile the value space with no gaps.
  for (size_t b = 0; b + 1 < Histogram::kNumBuckets; ++b) {
    EXPECT_EQ(Histogram::BucketUpperBound(b) + 1,
              Histogram::BucketLowerBound(b + 1));
  }
  // The last bucket absorbs everything above it.
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1),
            UINT64_MAX);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndResetZeroes) {
  MetricsRegistry registry;
  registry.GetCounter("b").Add(2);
  registry.GetCounter("a").Add(1);
  registry.GetGauge("g").Set(3.5);
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters.begin()->first, "a");  // std::map: sorted keys
  EXPECT_EQ(snap.counters.at("a"), 1u);
  EXPECT_EQ(snap.counters.at("b"), 2u);
  EXPECT_EQ(snap.gauges.at("g"), 3.5);

  registry.Reset();
  const MetricsSnapshot after = registry.Snapshot();
  EXPECT_EQ(after.counters.at("a"), 0u);
  EXPECT_EQ(after.counters.at("b"), 0u);
}

// Scrapes race the owner threads' writes by design; run under TSan this
// fails if a cell field is read without synchronization. Scraped values
// never decrease while writers only add, and the final scrape is exact.
// One more input is an attached atomic its owners `fetch_add` into.
TEST(MetricsRegistryTest, ScrapesWhileThreadsRecord) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("ops");
  Histogram& histogram = registry.GetHistogram("ns");
  std::atomic<uint64_t> attached{0};
  counter.Attach(&attached);
  constexpr int kThreads = 4;
  constexpr uint64_t kOpsPerThread = 20000;
  std::atomic<int> running{kThreads};
  std::vector<std::thread> writers;
  for (int i = 0; i < kThreads; ++i) {
    writers.emplace_back([&]() {
      for (uint64_t j = 0; j < kOpsPerThread; ++j) {
        counter.Add();
        attached.fetch_add(1, std::memory_order_relaxed);
        histogram.Record(j % 100);
      }
      running.fetch_sub(1);
    });
  }
  uint64_t last_count = 0;
  uint64_t last_value = 0;
  while (running.load() > 0) {
    const MetricsSnapshot snap = registry.Snapshot();
    const uint64_t value = counter.Value();
    EXPECT_GE(value, last_value);
    EXPECT_GE(snap.histograms.at("ns").count, last_count);
    last_value = value;
    last_count = snap.histograms.at("ns").count;
  }
  for (std::thread& t : writers) t.join();
  const MetricsSnapshot final_snap = registry.Snapshot();
  EXPECT_EQ(final_snap.counters.at("ops"), 2 * kThreads * kOpsPerThread);
  EXPECT_EQ(final_snap.histograms.at("ns").count, kThreads * kOpsPerThread);
  uint64_t bucketed = 0;
  for (uint64_t b : final_snap.histograms.at("ns").buckets) bucketed += b;
  EXPECT_EQ(bucketed, kThreads * kOpsPerThread);
}

TEST(MetricsRegistryTest, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

TEST(QueryProbeTest, MacrosRecordWhenCompiledIn) {
  QueryProbe probe;
  REACH_PROBE_INC(probe, queries);
  REACH_PROBE_ADD(probe, vertices_visited, 7);
  if (kMetricsCompiled) {
    EXPECT_EQ(probe.queries, 1u);
    EXPECT_EQ(probe.vertices_visited, 7u);
  } else {
    EXPECT_EQ(probe.queries, 0u);
    EXPECT_EQ(probe.vertices_visited, 0u);
  }
}

TEST(QueryProbeTest, ResetMergeAndFieldEnumeration) {
  QueryProbe a;
  a.queries = 2;
  a.labels_scanned = 5;
  QueryProbe b;
  b.queries = 3;
  b.fallbacks = 1;
  a.MergeFrom(b);
  EXPECT_EQ(a.queries, 5u);
  EXPECT_EQ(a.labels_scanned, 5u);
  EXPECT_EQ(a.fallbacks, 1u);

  size_t fields = 0;
  uint64_t total = 0;
  std::string first_field;
  a.ForEachField([&](const char* name, uint64_t value) {
    if (fields == 0) first_field = name;
    ++fields;
    total += value;
  });
  EXPECT_EQ(fields, 8u);
  // Exporters and the bench probe-delta helper rely on this ordering.
  EXPECT_EQ(first_field, "queries");
  EXPECT_EQ(total, 5u + 5u + 1u);

  a.Reset();
  a.ForEachField([](const char*, uint64_t value) { EXPECT_EQ(value, 0u); });
}

TEST(BuildPhaseTimerTest, RecordsPhasesInOrder) {
  std::vector<PhaseTiming> phases;
  {
    BuildPhaseTimer t1(&phases, "first");
    t1.Stop();
    t1.Stop();  // idempotent: no double record
    BuildPhaseTimer t2(&phases, "second");
  }
  if (kMetricsCompiled) {
    ASSERT_EQ(phases.size(), 2u);
    EXPECT_EQ(phases[0].name, "first");
    EXPECT_EQ(phases[1].name, "second");
    EXPECT_GE(phases[0].elapsed.count(), 0);
  } else {
    EXPECT_TRUE(phases.empty());
  }
}

TEST(PeakRssTest, ReportsSomethingOnLinux) {
#ifdef __linux__
  EXPECT_GT(PeakRssBytes(), 0u);
#else
  (void)PeakRssBytes();  // must at least not crash
#endif
}

IndexReport SampleReport() {
  IndexReport report;
  report.name = "sample \"quoted\"";
  report.complete = true;
  report.size_bytes = 1024;
  report.num_entries = 16;
  report.build_ns = 123456;
  report.peak_build_memory_bytes = 4096;
  report.phases.push_back({"order", std::chrono::nanoseconds(1000)});
  report.phases.push_back({"label", std::chrono::nanoseconds(2000)});
  report.probe.queries = 9;
  report.probe.labels_scanned = 27;
  return report;
}

TEST(MetricsExporterTest, JsonContainsEveryFieldAndEscapes) {
  MetricsExporter exporter;
  exporter.Add(SampleReport());
  MetricsRegistry registry;
  registry.GetCounter("c1").Add(5);
  exporter.SetRegistrySnapshot(registry.Snapshot());

  const std::string json = exporter.ToJson();
  EXPECT_NE(json.find("\"schema\": \"reach.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"sample \\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"size_bytes\": 1024"), std::string::npos);
  EXPECT_NE(json.find("\"total_ns\": 123456"), std::string::npos);
  EXPECT_NE(json.find("\"peak_rss_bytes\": 4096"), std::string::npos);
  EXPECT_NE(json.find("\"order\""), std::string::npos);
  EXPECT_NE(json.find("\"label\""), std::string::npos);
  EXPECT_NE(json.find("\"queries\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"labels_scanned\": 27"), std::string::npos);
  EXPECT_NE(json.find("\"c1\": 5"), std::string::npos);
  // Every probe field name must appear (ForEachField is the source of
  // truth, so new fields flow into the export automatically).
  QueryProbe{}.ForEachField([&](const char* name, uint64_t) {
    EXPECT_NE(json.find(std::string("\"") + name + "\""), std::string::npos)
        << name;
  });
  // Structurally balanced.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(MetricsExporterTest, HistogramsCarryBucketBounds) {
  MetricsExporter exporter;
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("h");
  h.Record(0);  // bucket 0: [0, 0]
  h.Record(4);  // bucket 2: [3, 6]
  exporter.SetRegistrySnapshot(registry.Snapshot());
  const std::string json = exporter.ToJson();
  // One [lo, hi] pair per emitted bucket, aligned with "buckets".
  EXPECT_NE(json.find("\"buckets\": [1, 0, 1]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"bucket_bounds\": [[0, 0], [1, 2], [3, 6]]"),
            std::string::npos)
      << json;
}

TEST(MetricsExporterTest, JsonIsDeterministic) {
  MetricsExporter exporter;
  exporter.Add(SampleReport());
  EXPECT_EQ(exporter.ToJson(), exporter.ToJson());
}

TEST(MetricsExporterTest, WriteJsonFileRoundTrips) {
  MetricsExporter exporter;
  exporter.Add(SampleReport());
  const std::string path =
      ::testing::TempDir() + "/reach_metrics_test_output.json";
  ASSERT_TRUE(exporter.WriteJsonFile(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), exporter.ToJson());
  std::remove(path.c_str());
}

TEST(MetricsExporterTest, WriteJsonFileFailsOnBadPath) {
  MetricsExporter exporter;
  exporter.Add(SampleReport());
  EXPECT_FALSE(exporter.WriteJsonFile("/nonexistent-dir/x/y/z.json"));
}

TEST(MetricsExporterTest, TableListsIndexesAndPhases) {
  MetricsExporter exporter;
  exporter.Add(SampleReport());
  const std::string table = exporter.ToTable();
  EXPECT_NE(table.find("sample"), std::string::npos);
  if (kMetricsCompiled) {
    EXPECT_NE(table.find("order"), std::string::npos);
  }
}

TEST(JsonEscapeTest, EscapesControlAndSpecialCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(MakeIndexReportTest, CollectsFromARealIndex) {
  TransitiveClosure tc;
  const Digraph g = RandomDag(32, 96, /*seed=*/5);
  tc.Build(g);
  tc.ResetProbe();
  size_t positives = 0;
  for (VertexId s = 0; s < g.NumVertices(); ++s) {
    positives += tc.Query(s, (s + 1) % g.NumVertices()) ? 1 : 0;
  }
  const IndexReport report = MakeIndexReport(tc);
  EXPECT_EQ(report.name, "tc");
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.size_bytes, tc.IndexSizeBytes());
  EXPECT_GT(report.build_ns, 0u);
  if (kMetricsCompiled) {
    EXPECT_EQ(report.probe.queries, g.NumVertices());
    EXPECT_EQ(report.probe.positives, positives);
    ASSERT_EQ(report.phases.size(), 2u);
    EXPECT_EQ(report.phases[0].name, "condense");
    EXPECT_EQ(report.phases[1].name, "closure_sweep");
#ifdef __linux__
    EXPECT_GT(report.peak_build_memory_bytes, 0u);
#endif
  }
}

}  // namespace
}  // namespace reach
