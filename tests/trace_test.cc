// Span-recorder suite (src/obs/trace.h): interning, nesting depths, ring
// wraparound, the Chrome-trace JSON exporter, and the serve-path
// slow-query log. The concurrency test at the bottom traces readers and
// a writer across background snapshot swaps while a scraper exports —
// the whole binary runs under TSan in CI.

#include "obs/trace.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/digraph.h"
#include "graph/generators.h"
#include "graph/rng.h"
#include "par/thread_pool.h"
#include "serve/reach_service.h"

namespace reach {
namespace {

// A structural JSON well-formedness check: balanced braces/brackets
// outside strings, valid escape usage inside them. Not a full parser, but
// enough to catch the classic exporter bugs (trailing commas aside).
void ExpectBalancedJson(const std::string& json) {
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      } else {
        // Raw control characters inside a string are invalid JSON — the
        // exporter must escape them.
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
            << "unescaped control character in JSON string";
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
        ++braces;
        break;
      case '}':
        --braces;
        EXPECT_GE(braces, 0);
        break;
      case '[':
        ++brackets;
        break;
      case ']':
        --brackets;
        EXPECT_GE(brackets, 0);
        break;
      default:
        break;
    }
  }
  EXPECT_FALSE(in_string) << "unterminated string";
  EXPECT_EQ(braces, 0) << "unbalanced braces";
  EXPECT_EQ(brackets, 0) << "unbalanced brackets";
}

TEST(TraceRecorderTest, InterningIsStableAndDense) {
  TraceRecorder recorder;
  const uint32_t a = recorder.Intern("alpha");
  const uint32_t b = recorder.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, recorder.Intern("alpha"));
  EXPECT_EQ(b, recorder.Intern("beta"));
  const std::vector<std::string> names = recorder.Names();
  ASSERT_GT(names.size(), std::max(a, b));
  EXPECT_EQ(names[a], "alpha");
  EXPECT_EQ(names[b], "beta");
}

TEST(TraceRecorderTest, DisabledRecorderRecordsNothing) {
  TraceRecorder recorder;
  ASSERT_FALSE(recorder.enabled());
  recorder.Record(recorder.Intern("dropped"), 0, 10);
  for (const auto& thread : recorder.Snapshot()) {
    EXPECT_TRUE(thread.events.empty());
    EXPECT_EQ(thread.dropped, 0u);
  }
}

TEST(TraceRecorderTest, RecordsEventsWhenEnabled) {
  TraceRecorder recorder;
  recorder.set_enabled(true);
  recorder.SetCurrentThreadName("tester");
  const uint32_t id = recorder.Intern("evt");
  recorder.Record(id, 100, 200);
  recorder.RecordInstant(recorder.Intern("mark"));
  const auto threads = recorder.Snapshot();
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads[0].name, "tester");
  ASSERT_EQ(threads[0].events.size(), 2u);
  EXPECT_EQ(threads[0].events[0].name_id, id);
  EXPECT_EQ(threads[0].events[0].start_ns, 100u);
  EXPECT_EQ(threads[0].events[0].end_ns, 200u);
  EXPECT_EQ(threads[0].events[0].kind, TraceEventKind::kSpan);
  EXPECT_EQ(threads[0].events[1].kind, TraceEventKind::kInstant);
}

TEST(TraceRecorderTest, RingWrapsKeepingNewestAndCountingDropped) {
  TraceRecorder recorder;
  recorder.set_thread_capacity(8);
  recorder.set_enabled(true);
  const uint32_t id = recorder.Intern("e");
  for (uint64_t i = 0; i < 20; ++i) recorder.Record(id, i, i + 1);
  const auto threads = recorder.Snapshot();
  ASSERT_EQ(threads.size(), 1u);
  const auto& trace = threads[0];
  ASSERT_EQ(trace.events.size(), 8u);
  EXPECT_EQ(trace.dropped, 12u);
  // The survivors are the newest 8, in chronological order.
  for (size_t i = 0; i < trace.events.size(); ++i) {
    EXPECT_EQ(trace.events[i].start_ns, 12 + i);
  }
}

TEST(TraceRecorderTest, ResetClearsRingsButKeepsNames) {
  TraceRecorder recorder;
  recorder.set_enabled(true);
  const uint32_t id = recorder.Intern("kept");
  recorder.Record(id, 1, 2);
  recorder.Reset();
  for (const auto& thread : recorder.Snapshot()) {
    EXPECT_TRUE(thread.events.empty());
    EXPECT_EQ(thread.dropped, 0u);
  }
  EXPECT_EQ(recorder.Intern("kept"), id);
}

TEST(TraceSpanTest, NestedSpansRecordDepthsAndContainment) {
  if (!kMetricsCompiled) {
    GTEST_SKIP() << "TraceSpan is a no-op shell under REACH_METRICS=OFF";
  }
  TraceRecorder recorder;
  recorder.set_enabled(true);
  const uint32_t outer_id = recorder.Intern("outer");
  const uint32_t inner_id = recorder.Intern("inner");
  {
    TraceSpan outer(outer_id, recorder);
    {
      TraceSpan inner(inner_id, recorder);
    }
  }
  const auto threads = recorder.Snapshot();
  ASSERT_EQ(threads.size(), 1u);
  // Spans complete at scope exit, so the inner span lands first.
  ASSERT_EQ(threads[0].events.size(), 2u);
  const TraceEvent& inner = threads[0].events[0];
  const TraceEvent& outer = threads[0].events[1];
  EXPECT_EQ(inner.name_id, inner_id);
  EXPECT_EQ(outer.name_id, outer_id);
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.end_ns, inner.end_ns);
}

TEST(TraceSpanTest, SpanOnDisabledRecorderIsInert) {
  TraceRecorder recorder;
  const uint32_t id = recorder.Intern("quiet");
  {
    TraceSpan span(id, recorder);
  }
  // Enabling afterwards must not resurrect the inert span's ring slot.
  recorder.set_enabled(true);
  for (const auto& thread : recorder.Snapshot()) {
    EXPECT_TRUE(thread.events.empty());
  }
}

TEST(TraceExporterTest, EmitsWellFormedChromeJson) {
  TraceRecorder recorder;
  recorder.set_enabled(true);
  recorder.SetCurrentThreadName("exporter \"test\" \\ thread");
  recorder.Record(recorder.Intern("span \"quoted\"\nname"), 1000, 2500);
  recorder.RecordInstant(recorder.Intern("marker"));
  const std::string json = TraceExporter(recorder).ToChromeJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("reach.trace.v1"), std::string::npos);
  // 1000ns span start = 1.000us timestamp.
  EXPECT_NE(json.find("\"ts\": 1.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 1.500"), std::string::npos);
}

TEST(TraceExporterTest, ReportsDroppedEvents) {
  TraceRecorder recorder;
  recorder.set_thread_capacity(8);
  recorder.set_enabled(true);
  const uint32_t id = recorder.Intern("e");
  for (uint64_t i = 0; i < 11; ++i) recorder.Record(id, i, i);
  const std::string json = TraceExporter(recorder).ToChromeJson();
  EXPECT_NE(json.find("\"dropped_events\": 3"), std::string::npos);
}

// ---------------------------------------------------------------------
// Slow-query log (ReachService).

Digraph ChainWithTail() {
  // 0 -> 1, 2 and 3 isolated: edge 1 -> 2 makes (0, 3) a query that
  // updates reach without ever making it true.
  return Digraph::FromEdges(4, {{0, 1}});
}

// Every slow record says which path answered and what it cost. Before
// the first index (a service never started), the search of the base
// graph answers; `grail` is read-only, so its insert is rejected and its
// index answers alone; on `pll` the updated copy answers alone (or the
// full build it asked for: on four vertices the insert passes the size
// bound). Nothing is ever answered around the index.
TEST(SlowQueryLogTest, RecordsNameTheAnswerPathAndWhatWasPending) {
  for (const char* spec : {"", "grail", "pll"}) {
    SCOPED_TRACE(spec);
    const bool started = *spec != '\0';
    const bool copies = std::string(spec) == "pll";
    ServiceOptions options;
    if (started) options.spec = spec;
    options.slow_query_threshold = std::chrono::nanoseconds(1);
    ReachService service(ChainWithTail(), options);
    if (started) {
      service.Start();
      service.Flush();  // first indexed snapshot
    }
    EXPECT_EQ(service.InsertEdge(1, 2), copies);
    EXPECT_EQ(service.PendingEdgeCount(), 0u);

    constexpr uint64_t kQueries = 3;
    const auto expect_source = [&](AnswerSource source) {
      if (copies) {
        EXPECT_TRUE(source == AnswerSource::kDelta ||
                    source == AnswerSource::kIndex);
      } else {
        EXPECT_EQ(source, started ? AnswerSource::kIndex
                                  : AnswerSource::kFallbackBfs);
      }
    };
    for (uint64_t i = 0; i < kQueries; ++i) {
      const ServeAnswer answer = service.Query(0, 3);
      EXPECT_FALSE(answer.reachable);
      expect_source(answer.source);
      EXPECT_TRUE(answer.exact);  // tiny graph: the search always completes
    }
    EXPECT_EQ(service.stats().slow_captured.load(), kQueries);

    const std::vector<SlowQueryRecord> slow = service.SlowQueries();
    ASSERT_EQ(slow.size(), static_cast<size_t>(kQueries));
    for (const SlowQueryRecord& rec : slow) {
      EXPECT_EQ(rec.s, 0u);
      EXPECT_EQ(rec.t, 3u);
      expect_source(rec.source);
      EXPECT_GT(rec.total_ns, 0u);
      EXPECT_EQ(rec.stage_ns[static_cast<size_t>(ServeStage::kIndexProbe)] > 0,
                started);
      EXPECT_EQ(rec.stage_ns[static_cast<size_t>(ServeStage::kDeltaClosure)],
                0u);
      EXPECT_EQ(
          rec.stage_ns[static_cast<size_t>(ServeStage::kFallbackBfs)] > 0,
          !started);
      EXPECT_EQ(rec.index_probes, started ? 1u : 0u);
      EXPECT_EQ(rec.pending_edges, 0u);
      EXPECT_EQ(rec.bfs_visits > 0, !started);
    }
    service.Stop();
  }
}

TEST(SlowQueryLogTest, ThresholdCaptureIsBoundedAndEvictsOldest) {
  ServiceOptions options;
  options.slow_query_threshold = std::chrono::nanoseconds(1);  // everything
  options.slow_log_capacity = 4;
  ReachService service(ScaleFreeDag(64, 2, 7), options);
  service.Start();
  service.Flush();

  constexpr uint64_t kQueries = 10;
  for (VertexId i = 0; i < kQueries; ++i) {
    service.Query(i % 64, (i + 1) % 64);
  }
  EXPECT_EQ(service.stats().slow_captured.load(), kQueries);
  EXPECT_EQ(service.stats().slow_dropped.load(), kQueries - 4);

  const std::vector<SlowQueryRecord> slow = service.SlowQueries();
  ASSERT_EQ(slow.size(), 4u);
  // Oldest-evicted: the survivors are the last four queries, in order.
  for (size_t i = 0; i < slow.size(); ++i) {
    EXPECT_EQ(slow[i].s, (kQueries - 4 + i) % 64);
  }

  service.ClearSlowQueries();
  EXPECT_TRUE(service.SlowQueries().empty());
  EXPECT_EQ(service.stats().slow_captured.load(), kQueries);  // totals kept
  service.Stop();
}

TEST(SlowQueryLogTest, NoCaptureWithoutThresholdOrDeadline) {
  ReachService service(ChainWithTail(), ServiceOptions{});
  service.Start();
  // Pre-index query: searches the base graph, but with no threshold nothing
  // qualifies for the log.
  service.Query(0, 1);
  service.Flush();
  service.Query(0, 1);
  EXPECT_TRUE(service.SlowQueries().empty());
  EXPECT_EQ(service.stats().slow_captured.load(), 0u);
  service.Stop();
}

// ---------------------------------------------------------------------
// Concurrency (the TSan target): readers, a writer forcing snapshot
// swaps, and a scraper exporting the global recorder, all concurrent.

TEST(TraceConcurrencyTest, TracedServeAcrossSnapshotSwaps) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.set_enabled(true);

  constexpr VertexId kN = 256;
  ServiceOptions options;
  options.slow_query_threshold = std::chrono::microseconds(1);
  options.slow_log_capacity = 32;
  ReachService service(ScaleFreeDag(kN, 2, 11), options);
  service.Start();
  service.Flush();

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256ss rng(100 + r);
      while (!stop.load(std::memory_order_relaxed)) {
        service.Query(static_cast<VertexId>(rng.NextBounded(kN)),
                      static_cast<VertexId>(rng.NextBounded(kN)));
      }
    });
  }
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string json = TraceExporter(recorder).ToChromeJson();
      EXPECT_FALSE(json.empty());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  Xoshiro256ss rng(55);
  for (int i = 0; i < 64; ++i) {
    service.InsertEdge(static_cast<VertexId>(rng.NextBounded(kN)),
                       static_cast<VertexId>(rng.NextBounded(kN)));
  }
  service.Flush();  // 64 swaps while readers and scraper run
  EXPECT_GE(service.stats().rebuilds.load(), 64u);
  // The readers may not have been scheduled yet on a loaded single-core
  // machine — issue one query directly so the serve spans are certainly
  // on the timeline before the checks below.
  service.Query(0, 1);

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  scraper.join();
  service.Stop();
  recorder.set_enabled(false);

  if (kMetricsCompiled) {
    // The serve stages made it onto the global timeline.
    const std::vector<std::string> names = recorder.Names();
    const auto has = [&names](const char* name) {
      for (const std::string& n : names) {
        if (n == name) return true;
      }
      return false;
    };
    EXPECT_TRUE(has("serve.query"));
    EXPECT_TRUE(has("serve.rebuild"));
    EXPECT_TRUE(has("serve.update.apply"));
    EXPECT_TRUE(has("serve.snapshot_swap"));
  }
}

// A task's completion signal fires from inside the task scope, so a
// scrape triggered by that signal can run before the worker records the
// task's pool.task span. ThreadPool::Quiesce() closes that window — this
// is the contract reach_cli relies on before writing the trace file.
TEST(TraceConcurrencyTest, QuiesceMakesPoolTaskSpansVisible) {
  if (!kMetricsCompiled) {
    GTEST_SKIP() << "pool.task spans require REACH_METRICS=ON";
  }
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Reset();
  recorder.set_enabled(true);

  std::mutex mu;
  std::condition_variable cv;
  bool signaled = false;
  ThreadPool::Global().Submit([&] {
    std::lock_guard<std::mutex> lock(mu);
    signaled = true;
    cv.notify_one();
  });
  {
    // Unblocks while the worker may still be unwinding the task scope.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return signaled; });
  }
  ThreadPool::Global().Quiesce();
  recorder.set_enabled(false);

  const std::vector<std::string> names = recorder.Names();
  uint32_t pool_task_id = UINT32_MAX;
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == "pool.task") pool_task_id = static_cast<uint32_t>(i);
  }
  ASSERT_NE(pool_task_id, UINT32_MAX);
  size_t spans = 0;
  for (const TraceRecorder::ThreadTrace& t : recorder.Snapshot()) {
    for (const TraceEvent& e : t.events) {
      if (e.name_id == pool_task_id) ++spans;
    }
  }
  EXPECT_GE(spans, 1u);
}

}  // namespace
}  // namespace reach
