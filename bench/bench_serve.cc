// Serving-engine latency and throughput (src/serve/): query percentiles
// under concurrent insert and mixed insert/delete churn streams, the
// scenario the §5 "integration into GDBMSs" challenge describes. The
// p50/p99 counters are the headline — mean latency hides the
// snapshot-swap and delta-closure tail.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/index_factory.h"
#include "graph/rng.h"
#include "obs/metrics_registry.h"
#include "plain/pruned_two_hop.h"
#include "serve/reach_service.h"

namespace reach::bench {
namespace {

double Percentile(std::vector<double>& sorted_ns, double p) {
  if (sorted_ns.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(p * (sorted_ns.size() - 1));
  return sorted_ns[idx];
}

// Query-mix knob: the answer-class bias of the measured workload. The
// biased mixes are 90/10 — the unreachable-biased one is the regime the
// fast-path layer and the negative-result cache target (paper §5: sparse
// real workloads are negative-dominated).
enum QueryMix : int64_t { kUniform = 0, kUnreachableBiased = 1, kReachableBiased = 2 };

const char* MixName(int64_t mix) {
  switch (mix) {
    case kUnreachableBiased: return "neg90";
    case kReachableBiased: return "pos90";
    default: return "uniform";
  }
}

std::vector<QueryPair> MixedPairs(const Digraph& g, int64_t mix,
                                  size_t count) {
  if (mix == kUniform) return RandomPairs(g, count, kSeed + 7);
  return BiasedPairs(g, mix == kUnreachableBiased, count, kSeed + 8);
}

// One reader measuring per-query latency while `writers` background
// threads stream inserts. Each insert publishes an updated copy of the
// index, and full builds run in the background when a copy outgrows its
// last build, so the measured distribution includes queries served
// mid-swap. Args:
// {writers, mix (0 uniform / 1 neg90 / 2 pos90), fastpath on/off}.
void BM_ServeQueryLatencyUnderWrites(benchmark::State& state) {
  const auto writers = static_cast<size_t>(state.range(0));
  const int64_t mix = state.range(1);
  const bool fastpath = state.range(2) != 0;
  const VertexId n = 1 << 14;
  const Digraph graph = ScaleFreeDag(n, 3, kSeed);

  ServiceOptions options;
  options.spec = fastpath ? "pll:fastpath=1" : "pll";
  // The 500µs slow-query threshold only trips on genuine tail queries.
  options.slow_query_threshold = std::chrono::microseconds(500);
  ReachService service(graph, options);
  service.Start();
  service.Flush();  // measure from the first indexed snapshot

  std::atomic<bool> stop{false};
  std::vector<std::thread> writer_threads;
  for (size_t w = 0; w < writers; ++w) {
    writer_threads.emplace_back([&, w] {
      Xoshiro256ss rng(kSeed + 100 + w);
      while (!stop.load(std::memory_order_relaxed)) {
        service.ApplyUpdate(
            {EdgeUpdate::Insert(static_cast<VertexId>(rng.NextBounded(n)),
                                static_cast<VertexId>(rng.NextBounded(n)))});
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }

  const std::vector<QueryPair> pool = MixedPairs(graph, mix, 1 << 12);
  MetricsRegistry& registry = MetricsRegistry::Global();
  const uint64_t fp_pos0 = registry.GetCounter("fastpath.hit.pos").Value();
  const uint64_t fp_neg0 = registry.GetCounter("fastpath.hit.neg").Value();
  const uint64_t fp_und0 = registry.GetCounter("fastpath.undecided").Value();

  size_t cursor = 0;
  std::vector<double> latencies_ns;
  for (auto _ : state) {
    const QueryPair q = pool[cursor++ % pool.size()];
    const auto begin = std::chrono::steady_clock::now();
    ServeAnswer answer = service.Query(q.source, q.target);
    const auto end = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(answer);
    latencies_ns.push_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
            .count());
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : writer_threads) th.join();
  service.Stop();

  std::sort(latencies_ns.begin(), latencies_ns.end());
  const double p50 = Percentile(latencies_ns, 0.50);
  const double p99 = Percentile(latencies_ns, 0.99);
  state.counters["p50_ns"] = p50;
  state.counters["p99_ns"] = p99;
  const ServeStats& stats = service.stats();
  // Fast-path hit rate is hits / total verdicts from the registry deltas.
  const double fp_hits = static_cast<double>(
      (registry.GetCounter("fastpath.hit.pos").Value() - fp_pos0) +
      (registry.GetCounter("fastpath.hit.neg").Value() - fp_neg0));
  const double fp_total =
      fp_hits + static_cast<double>(
                    registry.GetCounter("fastpath.undecided").Value() -
                    fp_und0);
  state.counters["fastpath_hit_rate"] =
      fp_hits / std::max(1.0, fp_total);
  // Mirror the headline numbers into the registry so the run's
  // "reach.metrics.v1" report carries the per-mix comparison.
  const std::string prefix = std::string("bench.serve.") + MixName(mix) +
                             (fastpath ? ".fastpath" : ".base");
  registry.GetGauge(prefix + ".p50_ns").Set(p50);
  registry.GetGauge(prefix + ".p99_ns").Set(p99);
  registry.GetGauge(prefix + ".fastpath_hit_rate")
      .Set(fp_hits / std::max(1.0, fp_total));
  state.counters["snapshots"] = static_cast<double>(stats.rebuilds.load());
  state.counters["delta_answers"] =
      static_cast<double>(stats.delta_answers.load());
  state.counters["fallback_answers"] =
      static_cast<double>(stats.fallback_answers.load());
  // The serve tail, printed alongside p50/p99: answers the service could
  // not verify, and slow-query-log activity ("serve.slow.*" in metrics).
  state.counters["inexact_answers"] =
      static_cast<double>(stats.inexact_answers.load());
  state.counters["slow_captured"] =
      static_cast<double>(stats.slow_captured.load());
  state.counters["slow_dropped"] =
      static_cast<double>(stats.slow_dropped.load());
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_ServeQueryLatencyUnderWrites)
    // {writers, mix, fastpath}: writer sweep on the uniform mix...
    ->Args({0, kUniform, 0})  // read-only baseline: index hits only
    ->Args({1, kUniform, 0})
    ->Args({4, kUniform, 0})
    // ...then the fastpath on/off comparison per answer-class mix, with
    // no writer so the percentiles isolate the query path (the neg90 pair
    // is the headline: unreachable-biased p50/p99, fastpath on vs off).
    ->Args({0, kUnreachableBiased, 0})
    ->Args({0, kUnreachableBiased, 1})
    ->Args({0, kReachableBiased, 0})
    ->Args({0, kReachableBiased, 1})
    ->Args({0, kUniform, 1})
    // ...and the unreachable-biased mix under write pressure, where every
    // insert publishes a new index copy and order filters keep deciding.
    ->Args({1, kUnreachableBiased, 0})
    ->Args({1, kUnreachableBiased, 1})
    ->Iterations(20000)
    ->Unit(benchmark::kMicrosecond);

// Churn mixes (the decremental serve path): one reader measures per-query
// latency while `writers` background threads stream mixed insert/delete
// batches through `ApplyUpdate`. Args: {writers, delete_pct} — 30 is the
// steady churn mix, 70 the delete-heavy one. The acceptance counters:
// p99 stays bounded while deletes flow, and full builds track the
// index's rebuild policy, never the per-delete count (no whole-index rebuild
// per delete anywhere on the serve path). Headlines land in the
// bench.serve.churn.* gauges.
void BM_ServeChurnMix(benchmark::State& state) {
  const auto writers = static_cast<size_t>(state.range(0));
  const auto delete_pct = static_cast<uint64_t>(state.range(1));
  const VertexId n = 1 << 14;
  const Digraph graph = ScaleFreeDag(n, 3, kSeed);

  ServiceOptions options;
  options.spec = "pll";
  // Full builds at this scale are slower than the writers, so bound the
  // batches waiting for a build's replay (default kBlock backpressure
  // parks the writers until the build catches up).
  options.max_pending_edges = 1024;
  ReachService service(graph, options);
  service.Start();
  service.Flush();

  std::atomic<bool> stop{false};
  std::vector<std::thread> writer_threads;
  for (size_t w = 0; w < writers; ++w) {
    writer_threads.emplace_back([&, w] {
      Xoshiro256ss rng(kSeed + 200 + w);
      // Each writer deletes from its own slice of the base edge set, so
      // delete targets mostly exist (re-deletes are ignored, not errors).
      std::vector<Edge> live;
      const std::vector<Edge> all = graph.Edges();
      for (size_t i = w; i < all.size(); i += writers) {
        live.push_back(all[i]);
      }
      while (!stop.load(std::memory_order_relaxed)) {
        UpdateBatch batch;
        const size_t batch_size = 1 + rng.NextBounded(4);
        for (size_t i = 0; i < batch_size; ++i) {
          if (!live.empty() && rng.NextBounded(100) < delete_pct) {
            const size_t pick = rng.NextBounded(live.size());
            batch.push_back(
                EdgeUpdate::Delete(live[pick].source, live[pick].target));
            live[pick] = live.back();
            live.pop_back();
          } else {
            const auto u = static_cast<VertexId>(rng.NextBounded(n));
            const auto v = static_cast<VertexId>(rng.NextBounded(n));
            if (u == v) continue;
            batch.push_back(EdgeUpdate::Insert(u, v));
            live.push_back({u, v});
          }
        }
        if (!batch.empty()) service.ApplyUpdate(batch);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }

  const std::vector<QueryPair> pool = MixedPairs(graph, kUniform, 1 << 12);
  size_t cursor = 0;
  std::vector<double> latencies_ns;
  for (auto _ : state) {
    const QueryPair q = pool[cursor++ % pool.size()];
    const auto begin = std::chrono::steady_clock::now();
    ServeAnswer answer = service.Query(q.source, q.target);
    const auto end = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(answer);
    latencies_ns.push_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
            .count());
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : writer_threads) th.join();
  service.Stop();

  std::sort(latencies_ns.begin(), latencies_ns.end());
  const double p50 = Percentile(latencies_ns, 0.50);
  const double p99 = Percentile(latencies_ns, 0.99);
  const ServeStats& stats = service.stats();
  const double deletes =
      std::max<double>(1.0, static_cast<double>(stats.deletes.load()));
  const double rebuilds = static_cast<double>(stats.full_builds.load());
  state.counters["p50_ns"] = p50;
  state.counters["p99_ns"] = p99;
  state.counters["deletes"] = static_cast<double>(stats.deletes.load());
  state.counters["snapshots"] = static_cast<double>(stats.rebuilds.load());
  state.counters["rebuilds_per_delete"] = rebuilds / deletes;

  MetricsRegistry& registry = MetricsRegistry::Global();
  const std::string prefix = std::string("bench.serve.churn.") +
                             (delete_pct >= 50 ? "delheavy" : "mixed");
  registry.GetGauge(prefix + ".p50_ns").Set(p50);
  registry.GetGauge(prefix + ".p99_ns").Set(p99);
  registry.GetGauge(prefix + ".deletes")
      .Set(static_cast<double>(stats.deletes.load()));
  registry.GetGauge(prefix + ".rebuilds_per_delete").Set(rebuilds / deletes);
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_ServeChurnMix)
    // {writers, delete_pct}: steady churn, then the delete-heavy mix.
    ->Args({2, 30})
    ->Args({2, 70})
    ->Iterations(5000)
    ->Unit(benchmark::kMicrosecond);

// Snapshot startup (docs/SNAPSHOTS.md): one iteration restores the same
// labeling twice — element-by-element from the RCHX v1 stream, then
// zero-copy from the mmap'd v2 snapshot file — so the reported speedup is
// a same-run, same-file-cache comparison. The registry gauges
// (bench.snapshot.load_stream_ns / load_mmap_ns / load_speedup) are the
// failover-readiness numbers the acceptance criteria gate on. Arg:
// compressed storage on/off.
void BM_SnapshotStartupLoad(benchmark::State& state) {
  const bool compress = state.range(0) != 0;
  const VertexId n = 1 << 15;
  const Digraph graph = ScaleFreeDag(n, 3, kSeed);
  TwoHopStorageOptions storage;
  storage.compress = compress;
  PrunedTwoHop built(VertexOrder::kDegree, 0x70'6c'6cULL, storage);
  built.Build(graph);

  const std::string mode = compress ? "compressed" : "flat";
  const std::string stream_path =
      "/tmp/reach_bench_snap_" + mode + ".v1.rchx";
  const std::string snap_path = "/tmp/reach_bench_snap_" + mode + ".rchx";
  uint64_t snapshot_bytes = 0;
  {
    std::ofstream out(stream_path, std::ios::binary | std::ios::trunc);
    if (!built.Save(out)) state.SkipWithError("stream save failed");
  }
  {
    std::ofstream out(snap_path, std::ios::binary | std::ios::trunc);
    if (!built.SaveSnapshot(out)) state.SkipWithError("snapshot save failed");
    snapshot_bytes = static_cast<uint64_t>(out.tellp());
  }

  double stream_ns = 0;
  double mmap_ns = 0;
  size_t iterations = 0;
  for (auto _ : state) {
    {
      PrunedTwoHop loaded;
      std::ifstream in(stream_path, std::ios::binary);
      const auto begin = std::chrono::steady_clock::now();
      if (!loaded.Load(in)) state.SkipWithError("stream load failed");
      stream_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - begin)
                       .count();
      benchmark::DoNotOptimize(loaded);
    }
    {
      PrunedTwoHop loaded;
      const auto begin = std::chrono::steady_clock::now();
      if (!loaded.LoadSnapshot(snap_path)) {
        state.SkipWithError("snapshot load failed");
      }
      mmap_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - begin)
                     .count();
      benchmark::DoNotOptimize(loaded);
    }
    ++iterations;
  }
  if (iterations == 0) return;
  stream_ns /= static_cast<double>(iterations);
  mmap_ns /= static_cast<double>(iterations);
  state.counters["load_stream_ns"] = stream_ns;
  state.counters["load_mmap_ns"] = mmap_ns;
  state.counters["load_speedup"] = stream_ns / std::max(1.0, mmap_ns);
  state.counters["snapshot_bytes_per_vertex"] =
      static_cast<double>(snapshot_bytes) / static_cast<double>(n);
  MetricsRegistry& registry = MetricsRegistry::Global();
  const std::string prefix = "bench.snapshot." + mode;
  registry.GetGauge(prefix + ".load_stream_ns").Set(stream_ns);
  registry.GetGauge(prefix + ".load_mmap_ns").Set(mmap_ns);
  registry.GetGauge(prefix + ".load_speedup")
      .Set(stream_ns / std::max(1.0, mmap_ns));
  registry.GetGauge(prefix + ".bytes_per_vertex")
      .Set(static_cast<double>(snapshot_bytes) / static_cast<double>(n));
  std::remove(stream_path.c_str());
  std::remove(snap_path.c_str());
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_SnapshotStartupLoad)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(20)
    ->Unit(benchmark::kMillisecond);

// Aggregate read throughput: `threads` benchmark reader threads share one
// service while a single background writer streams inserts.
ReachService* g_service = nullptr;
std::atomic<bool>* g_stop = nullptr;
std::thread* g_writer = nullptr;

void BM_ServeReadThroughput(benchmark::State& state) {
  constexpr VertexId kN = 1 << 14;
  if (state.thread_index() == 0) {
    ServiceOptions options;
    options.spec = "pll";
    options.slots = static_cast<size_t>(state.threads());
    g_service = new ReachService(ScaleFreeDag(kN, 3, kSeed), options);
    g_service->Start();
    g_service->Flush();
    g_stop = new std::atomic<bool>{false};
    g_writer = new std::thread([stop = g_stop, service = g_service] {
      Xoshiro256ss rng(kSeed + 99);
      while (!stop->load(std::memory_order_relaxed)) {
        service->ApplyUpdate(
            {EdgeUpdate::Insert(static_cast<VertexId>(rng.NextBounded(kN)),
                                static_cast<VertexId>(rng.NextBounded(kN)))});
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }
  Xoshiro256ss rng(kSeed + 13 * (state.thread_index() + 1));
  for (auto _ : state) {
    ServeAnswer answer =
        g_service->Query(static_cast<VertexId>(rng.NextBounded(kN)),
                         static_cast<VertexId>(rng.NextBounded(kN)));
    benchmark::DoNotOptimize(answer);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    g_stop->store(true, std::memory_order_relaxed);
    g_writer->join();
    g_service->Stop();
    state.counters["snapshots"] =
        static_cast<double>(g_service->stats().rebuilds.load());
    delete g_writer;
    delete g_stop;
    delete g_service;
    g_writer = nullptr;
    g_stop = nullptr;
    g_service = nullptr;
  }
}

BENCHMARK(BM_ServeReadThroughput)
    ->ThreadRange(1, 8)
    ->Iterations(20000)
    ->Unit(benchmark::kMicrosecond);

// Overload mix (docs/ROBUSTNESS.md): reader threads hammer a service
// whose write stream keeps publishing index copies, with the admission
// gate off
// (Arg 0) vs on (Arg N = max_inflight). The headline counters are the
// latency percentiles *of admitted queries only*: with the gate on,
// overload shows up as shed/degraded answers instead of a collapsing
// p99 — the acceptance criterion is p99_admitted(gated) staying within
// ~2x of the single-reader unloaded baseline, where the ungated run
// tails off far worse.
ReachService* g_ov_service = nullptr;
std::atomic<bool>* g_ov_stop = nullptr;
std::thread* g_ov_writer = nullptr;
std::mutex g_ov_mu;
std::vector<double> g_ov_latencies;         // admitted queries, merged
std::atomic<uint64_t> g_ov_answered{0};     // non-shed answers seen
std::atomic<uint64_t> g_ov_shed{0};
std::atomic<int> g_ov_pending_merges{0};

void BM_ServeOverloadMix(benchmark::State& state) {
  constexpr VertexId kN = 1 << 12;
  const auto max_inflight = static_cast<size_t>(state.range(0));
  if (state.thread_index() == 0) {
    ServiceOptions options;
    options.spec = "pll";
    options.slots = static_cast<size_t>(state.threads());
    options.max_inflight_queries = max_inflight;
    g_ov_service = new ReachService(ScaleFreeDag(kN, 3, kSeed), options);
    g_ov_service->Start();
    g_ov_service->Flush();
    g_ov_latencies.clear();
    g_ov_answered.store(0);
    g_ov_shed.store(0);
    g_ov_pending_merges.store(state.threads());
    g_ov_stop = new std::atomic<bool>{false};
    g_ov_writer = new std::thread([stop = g_ov_stop, svc = g_ov_service] {
      Xoshiro256ss rng(kSeed + 4242);
      while (!stop->load(std::memory_order_relaxed)) {
        svc->ApplyUpdate(
            {EdgeUpdate::Insert(static_cast<VertexId>(rng.NextBounded(kN)),
                                static_cast<VertexId>(rng.NextBounded(kN)))});
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  Xoshiro256ss rng(kSeed + 31 * (state.thread_index() + 1));
  std::vector<double> local_ns;
  for (auto _ : state) {
    const auto s = static_cast<VertexId>(rng.NextBounded(kN));
    const auto t = static_cast<VertexId>(rng.NextBounded(kN));
    const auto begin = std::chrono::steady_clock::now();
    const ServeAnswer answer = g_ov_service->Query(s, t);
    const auto end = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(answer);
    if (answer.source == AnswerSource::kShedded) {
      g_ov_shed.fetch_add(1, std::memory_order_relaxed);
    } else {
      g_ov_answered.fetch_add(1, std::memory_order_relaxed);
      local_ns.push_back(
          std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
              .count());
    }
  }
  {
    std::lock_guard<std::mutex> lock(g_ov_mu);
    g_ov_latencies.insert(g_ov_latencies.end(), local_ns.begin(),
                          local_ns.end());
  }
  g_ov_pending_merges.fetch_sub(1, std::memory_order_acq_rel);
  if (state.thread_index() == 0) {
    // Post-loop code runs per thread with no barrier: wait for every
    // reader to merge its latencies before computing the percentiles.
    while (g_ov_pending_merges.load(std::memory_order_acquire) > 0) {
      std::this_thread::yield();
    }
    g_ov_stop->store(true, std::memory_order_relaxed);
    g_ov_writer->join();
    g_ov_service->Stop();

    std::sort(g_ov_latencies.begin(), g_ov_latencies.end());
    const double p50 = Percentile(g_ov_latencies, 0.50);
    const double p99 = Percentile(g_ov_latencies, 0.99);
    const double answered =
        std::max<double>(1.0, static_cast<double>(g_ov_answered.load()));
    const double shed = static_cast<double>(g_ov_shed.load());
    const ServeStats& stats = g_ov_service->stats();
    const double degraded =
        static_cast<double>(stats.admission_cache_only.load() +
                            stats.admission_bfs_only.load());
    state.counters["p50_admitted_ns"] = p50;
    state.counters["p99_admitted_ns"] = p99;
    state.counters["shed_rate"] = shed / (answered + shed);
    state.counters["degraded_rate"] = degraded / answered;
    state.counters["snapshots"] =
        static_cast<double>(stats.rebuilds.load());

    MetricsRegistry& registry = MetricsRegistry::Global();
    const std::string prefix =
        std::string("bench.serve.overload.") +
        (state.threads() == 1
             ? "baseline"
             : (max_inflight == 0 ? "ungated" : "gated"));
    registry.GetGauge(prefix + ".p50_admitted_ns").Set(p50);
    registry.GetGauge(prefix + ".p99_admitted_ns").Set(p99);
    registry.GetGauge(prefix + ".shed_rate").Set(shed / (answered + shed));
    registry.GetGauge(prefix + ".degraded_rate").Set(degraded / answered);

    delete g_ov_writer;
    delete g_ov_stop;
    delete g_ov_service;
    g_ov_writer = nullptr;
    g_ov_stop = nullptr;
    g_ov_service = nullptr;
  }
  state.SetItemsProcessed(state.iterations());
}

// The writer's side of one served write (a write goes into a copy of the
// published index, which replaces it): `Clone` of the last copy, one
// update applied to the new copy, and the copy it replaces destroyed. The
// built index first takes 256 random inserts and deletes, so every copy
// carries inserted arcs, tombstones, delta labels and damage across the
// vertex range; the timed updates then delete and restore 64 base arcs in
// turn, so what they touch does not grow with n. The counters split the
// mean of the three phases. Args: {spec (0 pll / 1 dagger), n}.
void BM_IndexCopyWrite(benchmark::State& state) {
  const char* spec = state.range(0) == 0 ? "pll" : "dagger";
  const auto n = static_cast<VertexId>(state.range(1));
  const Digraph graph = ScaleFreeDag(n, 3, kSeed);
  MadeIndex made = MakeIndex(spec);
  auto* built = dynamic_cast<DynamicReachabilityIndex*>(made.plain.get());
  if (built == nullptr) {
    state.SkipWithError("spec has no dynamic index");
    return;
  }
  built->Build(graph);
  const std::vector<Edge> edges = graph.Edges();
  Xoshiro256ss rng(kSeed + 300);
  for (int i = 0; i < 256; ++i) {
    if (rng.NextBounded(2) == 0) {
      const Edge e = edges[rng.NextBounded(edges.size())];
      built->ApplyUpdate({EdgeUpdate::Delete(e.source, e.target)});
    } else {
      built->ApplyUpdate(
          {EdgeUpdate::Insert(static_cast<VertexId>(rng.NextBounded(n)),
                              static_cast<VertexId>(rng.NextBounded(n)))});
    }
  }
  std::vector<Edge> toggled;
  for (int i = 0; i < 64; ++i) {
    toggled.push_back(edges[rng.NextBounded(edges.size())]);
  }
  // Only copies from here on, as on the serve path once the built index
  // has been replaced.
  std::unique_ptr<DynamicReachabilityIndex> last = built->Clone();
  made.plain.reset();

  using Clock = std::chrono::steady_clock;
  Clock::duration clone{}, apply{}, free{};
  size_t step = 0;
  for (auto _ : state) {
    const Edge e = toggled[(step / 2) % toggled.size()];
    const EdgeUpdate update = step % 2 == 0
                                  ? EdgeUpdate::Delete(e.source, e.target)
                                  : EdgeUpdate::Insert(e.source, e.target);
    ++step;
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<DynamicReachabilityIndex> copy = last->Clone();
    const Clock::time_point t1 = Clock::now();
    benchmark::DoNotOptimize(copy->ApplyUpdate({update}));
    const Clock::time_point t2 = Clock::now();
    last = std::move(copy);
    const Clock::time_point t3 = Clock::now();
    clone += t1 - t0;
    apply += t2 - t1;
    free += t3 - t2;
  }
  const auto mean_ns = [&](Clock::duration d) {
    return std::chrono::duration<double, std::nano>(d).count() /
           static_cast<double>(std::max<size_t>(1, step));
  };
  state.counters["clone_ns"] = mean_ns(clone);
  state.counters["apply_ns"] = mean_ns(apply);
  state.counters["free_ns"] = mean_ns(free);
  MetricsRegistry::Global()
      .GetGauge(std::string("bench.serve.copy_write.") + spec + ".n" +
                std::to_string(n) + ".ns")
      .Set(mean_ns(clone + apply + free));
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_IndexCopyWrite)
    ->ArgsProduct({{0, 1}, {4096, 65536, 262144}})
    ->Iterations(4000)
    ->Unit(benchmark::kMicrosecond);

// The single-reader unloaded reference first, then the 8-reader overload
// pair: admission gate off vs capped at 4.
BENCHMARK(BM_ServeOverloadMix)
    ->Arg(0)
    ->Threads(1)
    ->Iterations(2000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ServeOverloadMix)
    ->Arg(0)
    ->Arg(4)
    ->Threads(8)
    ->Iterations(2000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace reach::bench

int main(int argc, char** argv) {
  return reach::bench::BenchMain(argc, argv, "bench_serve");
}
