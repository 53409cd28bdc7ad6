// reach_perfbench: the repository benchmark binary, driven by
// perfbench/run.py (see BENCHMARK.json at the repository root).
//
//   reach_perfbench --workload W --seed N --seconds S --trace 0|1
//
// Every input is generated from --seed: the same seed gives the same
// graphs, query streams and update streams. A run generates several inputs
// of its workload. One client thread runs a closed loop (the next
// operation is sent when the last one returns) and makes passes over the
// inputs' query streams in turn until --seconds is up. The graphs are the
// shapes bench_serve and perf_smoke use, at perf_smoke's 4k vertices:
//
//   serve-read    Queries a ReachService ("pll" snapshots, one query slot,
//                 the negative-result cache at its default capacity, so on)
//                 over a scale-free DAG (out-degree 3); no writes. Pairs
//                 are uniform, and a stream is four times the cache's
//                 capacity, so a pair rarely repeats before the cache has
//                 dropped it.
//   serve-churn   Queries the service over a scale-free DAG with the neg90
//                 mix and applies one update after every
//                 kChurnQueriesPerUpdate queries: a fixed cycle of deletes
//                 and inserts that swaps live edges with held-out ones and
//                 back (ChurnGraph). A background drain starts every
//                 kChurnDrainThreshold updates while the client goes on
//                 querying, so queries run beside drains and see up to
//                 2 * kChurnSwaps pending updates. Each pass ends in Flush
//                 (a read-your-writes barrier), so every pass starts with
//                 nothing pending. Queries pay for the pending-update
//                 closure and for delete verification; every insert
//                 invalidates the negative-result cache.
//   index-cyclic  The bare 2-hop index ("pll") on a cyclic Erdos-Renyi
//                 digraph of average degree 4, uniform pairs, no service:
//                 the layer every serve query ends in, on the input shape
//                 the DAG workloads miss. A query here is shorter than a
//                 clock read, so queries are timed in groups of
//                 kCyclicGroup: this workload's p50 and p99 are percentiles
//                 of group means, not of single queries.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones (query latency
// percentiles, client operations per second, set-up time), measured with
// the span recorder and the service's stage timers off. --trace 1 is a
// separate run with both on; it reports per-layer costs instead, and its
// traced_query_p50_ns against the untraced query_p50_ns is the tracing
// overhead.
//
// Every pass over an input does the same work, so its passes differ
// mainly in how much the machine's other tenants slowed them. Each pass
// yields its own p50, p99 and throughput; the run takes the best pass of
// each on every input, and reports the mean over its inputs. On a shared
// machine the best pass is the reading that repeats from run to run, where
// an average over the whole run would follow the neighbours' load.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/edge_update.h"
#include "core/fastpath_index.h"
#include "core/index_factory.h"
#include "core/query_workload.h"
#include "core/reachability_index.h"
#include "graph/digraph.h"
#include "graph/generators.h"
#include "graph/rng.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "serve/reach_service.h"

namespace {

using Clock = std::chrono::steady_clock;
using reach::Digraph;
using reach::Edge;
using reach::EdgeUpdate;
using reach::QueryPair;
using reach::ReachService;
using reach::ServeAnswer;
using reach::ServiceOptions;
using reach::UpdateBatch;
using reach::VertexId;
using Rng = reach::Xoshiro256ss;

// Shape of the generated inputs. At 16k vertices the run-to-run spread on
// a shared 4-vCPU VM was several times that at 4k, on every workload.
constexpr VertexId kScaleFreeVertices = 1 << 12;
constexpr size_t kScaleFreeOutDegree = 3;
constexpr VertexId kCyclicVertices = 1 << 12;
constexpr size_t kCyclicAvgDegree = 4;
constexpr size_t kSourcePool = 2048;

// Queries per pass. A serve-read stream is four times the service's
// default negative-cache capacity.
const size_t kReadStream = 4 * ServiceOptions{}.negcache_capacity;
constexpr size_t kCyclicStream = 1 << 16;

// serve-churn: edges swapped in and out (see ChurnGraph), the update rate
// and the drain threshold. A pass makes one group of 2 * kChurnSwaps
// updates and ends in Flush. The first drain outlasts the rest of the
// pass, so every pass sees the same profile of pending updates rather than
// one set by how drains race the client.
constexpr size_t kChurnSwaps = 64;
constexpr size_t kChurnQueriesPerUpdate = 16;
constexpr size_t kChurnDrainThreshold = 32;
constexpr size_t kChurnStream = 2 * kChurnSwaps * kChurnQueriesPerUpdate;
constexpr size_t kChurnCheckEvery = 64;

// index-cyclic: queries per timed group.
constexpr size_t kCyclicGroup = 16;

// Generated inputs per run: each has its own graph, stream and service or
// index, and the client's passes visit them in turn. One input's figures
// depend on the shape its graph happened to get; the mean over several
// repeats from seed to seed.
constexpr size_t kInputs = 16;
// Least time between two timed set-ups (see RunPasses).
constexpr auto kSetupPeriod = std::chrono::milliseconds(500);
// Trace runs time each bare index over its stream, then apply
// kProbeUpdates updates to it and time kProbeQueries damaged queries.
constexpr size_t kProbeUpdates = 96;
constexpr size_t kProbeQueries = 4096;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Nanos(Clock::duration d) {
  return std::chrono::duration<double, std::nano>(d).count();
}
double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------
// Command line and result

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  // Operations whose outcome was checked, and how many of them were wrong.
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Print() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed_ == 0 && attempted_ > 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------
// Measurement

// Per-pass statistics of the client thread. A pass's p50 and p99 are band
// means: the mean of the latencies ranked within 5 (p50) or 0.5 (p99)
// percentiles of p. Latencies are whole nanoseconds and crowd around the
// median, so the band keeps a fractional reading.
class PassStats {
 public:
  void RecordLatency(double ns) { samples_.push_back(static_cast<float>(ns)); }
  void RecordLatency(Clock::duration d) { RecordLatency(Nanos(d)); }
  void AddOps(uint64_t n) {
    ops_ += n;
    total_ops_ += n;
  }
  // Time inside the pass spent checking answers, not serving the client.
  void Exclude(Clock::duration d) { excluded_ += d; }
  void EndPass(Clock::duration length) {
    length -= excluded_;
    excluded_ = Clock::duration::zero();
    p50s_.push_back(BandMean(0.50, 0.05));
    p99s_.push_back(BandMean(0.99, 0.005));
    rates_.push_back(static_cast<double>(ops_) / Seconds(length));
    samples_.clear();
    ops_ = 0;
  }
  // The best pass of each reading (there is at least one pass).
  double P50() const { return *std::min_element(p50s_.begin(), p50s_.end()); }
  double P99() const { return *std::min_element(p99s_.begin(), p99s_.end()); }
  double OpsPerSecond() const {
    return *std::max_element(rates_.begin(), rates_.end());
  }
  uint64_t total_ops() const { return total_ops_; }

 private:
  double BandMean(double p, double half_width) {
    if (samples_.empty()) return 0.0;
    const auto rank = [&](double q) {
      return static_cast<size_t>(std::clamp(q, 0.0, 1.0) *
                                 static_cast<double>(samples_.size() - 1));
    };
    const size_t lo = rank(p - half_width);
    const size_t hi = rank(p + half_width);
    const auto at = [&](size_t i) {
      return samples_.begin() + static_cast<ptrdiff_t>(i);
    };
    std::nth_element(at(0), at(lo), samples_.end());
    std::nth_element(at(lo), at(hi), samples_.end());
    double sum = 0.0;
    for (size_t i = lo; i <= hi; ++i) sum += samples_[i];
    return sum / static_cast<double>(hi - lo + 1);
  }

  std::vector<float> samples_;
  Clock::duration excluded_{};
  uint64_t ops_ = 0;
  uint64_t total_ops_ = 0;
  std::vector<double> p50s_;
  std::vector<double> p99s_;
  std::vector<double> rates_;
};

// The end-to-end readings of one run: the client's pass statistics on
// each generated input, and every timed set-up. An input whose passes
// cycle through `phases` different pieces of work keeps apart statistics
// for each phase.
class Measurement {
 public:
  Measurement(size_t inputs, size_t phases)
      : inputs_(inputs), passes_(inputs * phases) {}

  size_t inputs() const { return inputs_; }
  // The statistics of the run's n-th pass (see RunPasses).
  PassStats& pass(size_t n) { return passes_[n % passes_.size()]; }
  // True when the run's n-th pass completes a cycle over every input and
  // phase.
  bool EndsCycle(size_t n) const { return (n + 1) % passes_.size() == 0; }
  void AddSetup(Clock::duration d) { setup_s_.push_back(Seconds(d)); }

  uint64_t total_ops() const {
    uint64_t ops = 0;
    for (const PassStats& p : passes_) ops += p.total_ops();
    return ops;
  }
  // Latencies and throughput are each input's (and phase's) reading,
  // averaged; set-up time is the median set-up.
  double P50() const { return Mean(&PassStats::P50); }
  void AddTo(Report* report) {
    report->Add("query_p50_ns", P50(), "ns");
    report->Add("query_p99_ns", Mean(&PassStats::P99), "ns");
    report->Add("ops_per_s", Mean(&PassStats::OpsPerSecond), "1/s");
    const auto mid = setup_s_.begin() + setup_s_.size() / 2;
    std::nth_element(setup_s_.begin(), mid, setup_s_.end());
    report->Add("setup_s", *mid, "s");
  }

 private:
  double Mean(double (PassStats::*reading)() const) const {
    double sum = 0.0;
    for (const PassStats& p : passes_) sum += (p.*reading)();
    return sum / static_cast<double>(passes_.size());
  }

  size_t inputs_;
  std::vector<PassStats> passes_;
  std::vector<double> setup_s_;
};

// Runs the client until `args.seconds` have gone by, in rounds of one
// pass over each input, and ends on a whole cycle of phases: `pass(k,
// stats)` makes one pass over input k and records it into `stats`.
// `between_passes()` runs after each pass, outside its time. In untraced
// runs `setup(k)` repeats input k's timed set-up after a pass at most once
// every kSetupPeriod, so that set-up is sampled across the run and not
// only in the moment before it.
template <typename Pass, typename Setup, typename BetweenPasses>
void RunPasses(const Args& args, Measurement* m, Pass pass, Setup setup,
               BetweenPasses between_passes) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  Clock::time_point next_setup = start + kSetupPeriod;
  for (size_t n = 0;; ++n) {
    const size_t k = n % m->inputs();
    PassStats& stats = m->pass(n);
    const Clock::time_point begin = Clock::now();
    pass(k, stats);
    stats.EndPass(Clock::now() - begin);
    between_passes();
    if (m->EndsCycle(n) && Clock::now() >= end) break;
    if (!args.trace && Clock::now() >= next_setup) {
      setup(k);
      next_setup = Clock::now() + kSetupPeriod;
    }
  }
}

// ---------------------------------------------------------------------
// Inputs and reference answers

// A query stream with the answer each pair has on the initial graph. The
// reference answers come from a plain BFS per source over the graph's
// adjacency; no index code is involved. Sources are drawn from a fixed
// pool so that one BFS per pool source answers every pair.
struct Stream {
  std::vector<QueryPair> pairs;
  std::vector<uint8_t> expected;
};

// Pair mixes: kUniform draws every target uniformly; kNeg90 draws a
// reachable target for one pair in ten and an unreachable one for the
// others (by rejection, so a source with no target of the wanted kind
// keeps its last draw).
enum class Mix { kUniform, kNeg90 };

Stream MakeStream(const Digraph& graph, size_t length, Mix mix, Rng& rng) {
  const size_t n = graph.NumVertices();
  const size_t words = (n + 63) / 64;
  std::vector<VertexId> sources(kSourcePool);
  std::vector<uint64_t> reach(kSourcePool * words, 0);
  std::vector<VertexId> queue;
  for (size_t i = 0; i < kSourcePool; ++i) {
    sources[i] = static_cast<VertexId>(rng.NextBounded(n));
    uint64_t* bits = &reach[i * words];
    queue.assign(1, sources[i]);
    bits[sources[i] / 64] |= uint64_t{1} << (sources[i] % 64);
    for (size_t head = 0; head < queue.size(); ++head) {
      for (const VertexId w : graph.OutNeighbors(queue[head])) {
        const uint64_t mask = uint64_t{1} << (w % 64);
        if ((bits[w / 64] & mask) == 0) {
          bits[w / 64] |= mask;
          queue.push_back(w);
        }
      }
    }
  }
  const auto reaches = [&](size_t src, VertexId t) {
    return (reach[src * words + t / 64] >> (t % 64)) & 1;
  };
  Stream stream;
  stream.pairs.reserve(length);
  stream.expected.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    const bool want_reachable = rng.NextBounded(10) == 0;
    const size_t src = rng.NextBounded(kSourcePool);
    auto t = static_cast<VertexId>(rng.NextBounded(n));
    for (int tries = 0; mix == Mix::kNeg90 &&
                        reaches(src, t) != want_reachable && tries < 64;
         ++tries) {
      t = static_cast<VertexId>(rng.NextBounded(n));
    }
    stream.pairs.push_back({sources[src], t});
    stream.expected.push_back(static_cast<uint8_t>(reaches(src, t)));
  }
  return stream;
}

// A graph under churn: the generated graph minus a held-out set of
// kChurnSwaps random edges, and a fixed cycle of updates that swaps another
// kChurnSwaps random edges (the live set) with the held-out ones and back.
// An even-numbered group of 2 * kChurnSwaps updates deletes the live set's
// edges and inserts the held-out ones, alternating; the next group swaps
// them back. Every other group thus repeats the same updates on the same
// graph, and the shape does not drift over a run. A plain BFS over the
// live edges is the reference that sampled answers are checked against.
class ChurnGraph {
 public:
  ChurnGraph(const Digraph& generated, Rng& rng)
      : out_(generated.NumVertices()), mark_(generated.NumVertices(), 0) {
    std::vector<Edge> edges = generated.Edges();
    for (size_t i = 0; i < kChurnSwaps; ++i) {
      live_set_.push_back(TakeRandom(edges, rng));
      held_set_.push_back(TakeRandom(edges, rng));
    }
    edges.insert(edges.end(), live_set_.begin(), live_set_.end());
    for (const Edge& e : edges) out_[e.source].push_back(e.target);
    start_ = Digraph::FromEdges(static_cast<VertexId>(generated.NumVertices()),
                                std::move(edges));
  }

  // The graph before the first update.
  const Digraph& start() const { return start_; }

  // The next update of the cycle, applied to the reference graph.
  EdgeUpdate Next() {
    const size_t step = next_++ % (4 * kChurnSwaps);
    const bool swap_back = step >= 2 * kChurnSwaps;
    const size_t j = (step % (2 * kChurnSwaps)) / 2;
    if (step % 2 == 0) {
      const Edge e = swap_back ? held_set_[j] : live_set_[j];
      std::vector<VertexId>& out = out_[e.source];
      *std::find(out.begin(), out.end(), e.target) = out.back();
      out.pop_back();
      return EdgeUpdate::Delete(e.source, e.target);
    }
    const Edge e = swap_back ? live_set_[j] : held_set_[j];
    out_[e.source].push_back(e.target);
    return EdgeUpdate::Insert(e.source, e.target);
  }

  bool Reaches(VertexId s, VertexId t) {
    if (s == t) return true;
    ++stamp_;
    queue_.assign(1, s);
    mark_[s] = stamp_;
    for (size_t head = 0; head < queue_.size(); ++head) {
      for (const VertexId w : out_[queue_[head]]) {
        if (w == t) return true;
        if (mark_[w] != stamp_) {
          mark_[w] = stamp_;
          queue_.push_back(w);
        }
      }
    }
    return false;
  }

 private:
  static Edge TakeRandom(std::vector<Edge>& edges, Rng& rng) {
    const size_t i = rng.NextBounded(edges.size());
    const Edge e = edges[i];
    edges[i] = edges.back();
    edges.pop_back();
    return e;
  }

  Digraph start_;
  std::vector<std::vector<VertexId>> out_;
  std::vector<Edge> live_set_;
  std::vector<Edge> held_set_;
  size_t next_ = 0;
  std::vector<uint32_t> mark_;
  uint32_t stamp_ = 0;
  std::vector<VertexId> queue_;
};

// ---------------------------------------------------------------------
// Per-layer instruments (trace runs)

// Every per-layer metric, in BENCHMARK.json order. A workload leaves the
// layers it does not run at zero.
struct Layers {
  double traced_query_p50_ns = 0;
  // ReachService (serve/): the library's own spans, the per-stage times of
  // its query pipeline, and its answer-source counters.
  double serve_query_self_ns = 0;
  double serve_snapshot_pin_ns = 0;
  double serve_stage_ns[reach::kNumServeStages] = {};
  double serve_index_probes_per_query = 0;
  double serve_pending_per_query = 0;
  double serve_index_answer_frac = 0;
  double serve_delta_answer_frac = 0;
  double serve_fallback_answer_frac = 0;
  double serve_negcache_hit_frac = 0;
  double serve_delete_verify_frac = 0;
  // The service's write path: updates, the client's Flush waits, and the
  // background drains behind them.
  double update_apply_us = 0;
  double flush_ms = 0;
  double drain_ms = 0;
  // The bare index and the fast-path wrapper, built on the initial graph.
  double index_query_ns = 0;
  double index_labels_per_query = 0;
  double build_order_ms = 0;
  double build_label_ms = 0;
  double build_seal_ms = 0;
  double fastpath_query_ns = 0;
  double fastpath_decided_frac = 0;
  // The bare index's own write path: ApplyUpdate, RebuildFromUpdates, and
  // queries answered on the damage path deletes leave behind.
  double index_update_us = 0;
  double index_rebuild_ms = 0;
  double index_damaged_query_ns = 0;

  void AddTo(Report* report) const {
    report->Add("traced_query_p50_ns", traced_query_p50_ns, "ns");
    report->Add("serve_query_self_ns", serve_query_self_ns, "ns");
    report->Add("serve_snapshot_pin_ns", serve_snapshot_pin_ns, "ns");
    static const char* const kStageNames[reach::kNumServeStages] = {
        "serve_stage_negcache_ns", "serve_stage_slot_ns",
        "serve_stage_index_probe_ns", "serve_stage_delta_closure_ns",
        "serve_stage_fallback_bfs_ns"};
    for (size_t s = 0; s < reach::kNumServeStages; ++s) {
      report->Add(kStageNames[s], serve_stage_ns[s], "ns");
    }
    report->Add("serve_index_probes_per_query", serve_index_probes_per_query,
                "count");
    report->Add("serve_pending_per_query", serve_pending_per_query, "count");
    report->Add("serve_index_answer_frac", serve_index_answer_frac, "ratio");
    report->Add("serve_delta_answer_frac", serve_delta_answer_frac, "ratio");
    report->Add("serve_fallback_answer_frac", serve_fallback_answer_frac,
                "ratio");
    report->Add("serve_negcache_hit_frac", serve_negcache_hit_frac, "ratio");
    report->Add("serve_delete_verify_frac", serve_delete_verify_frac, "ratio");
    report->Add("update_apply_us", update_apply_us, "us");
    report->Add("flush_ms", flush_ms, "ms");
    report->Add("drain_ms", drain_ms, "ms");
    report->Add("index_query_ns", index_query_ns, "ns");
    report->Add("index_labels_per_query", index_labels_per_query, "count");
    report->Add("build_order_ms", build_order_ms, "ms");
    report->Add("build_label_ms", build_label_ms, "ms");
    report->Add("build_seal_ms", build_seal_ms, "ms");
    report->Add("fastpath_query_ns", fastpath_query_ns, "ns");
    report->Add("fastpath_decided_frac", fastpath_decided_frac, "ratio");
    report->Add("index_update_us", index_update_us, "us");
    report->Add("index_rebuild_ms", index_rebuild_ms, "ms");
    report->Add("index_damaged_query_ns", index_damaged_query_ns, "ns");
  }
};

// Totals of the library's own trace spans (obs/trace.h) by name. A span's
// self time is its duration minus that of its direct children, which the
// recorder stores one level deeper and before their parent.
class SpanTotals {
 public:
  // Folds the recorder's rings into the totals and empties them. A ring
  // that wrapped since the last scrape contributes its newest events.
  void Scrape() {
    reach::TraceRecorder& recorder = reach::TraceRecorder::Global();
    const std::vector<std::string> names = recorder.Names();
    for (const auto& thread : recorder.Snapshot()) {
      std::vector<uint64_t> child_ns;
      for (const reach::TraceEvent& e : thread.events) {
        if (e.kind != reach::TraceEventKind::kSpan) continue;
        if (child_ns.size() < e.depth + 2) child_ns.resize(e.depth + 2, 0);
        const uint64_t dur = e.end_ns - e.start_ns;
        const uint64_t children = std::min(dur, child_ns[e.depth + 1]);
        child_ns[e.depth + 1] = 0;
        child_ns[e.depth] += dur;
        Total& total =
            totals_[e.name_id < names.size() ? names[e.name_id] : ""];
        ++total.count;
        total.ns += static_cast<double>(dur);
        total.self_ns += static_cast<double>(dur - children);
      }
    }
    recorder.Reset();
  }
  double MeanNs(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : Ratio(it->second.ns, it->second.count);
  }
  double MeanSelfNs(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0
                               : Ratio(it->second.self_ns, it->second.count);
  }

 private:
  struct Total {
    double count = 0;
    double ns = 0;
    double self_ns = 0;
  };
  std::map<std::string, Total> totals_;
};

// A serve workload's trace run: each service keeps every query of a pass
// in its slow-query log with a per-stage breakdown, the library records
// its spans, and both are collected between passes.
class ServeTracer {
 public:
  static ServiceOptions Options(ServiceOptions options, bool trace,
                                size_t queries_per_pass) {
    if (trace) {
      options.slow_query_threshold = std::chrono::nanoseconds(1);
      options.slow_log_capacity = queries_per_pass;
    }
    return options;
  }

  explicit ServeTracer(std::vector<ReachService*> services)
      : services_(std::move(services)), before_(Counts::Read(services_)) {
    reach::TraceRecorder::Global().set_enabled(true);
  }

  void BetweenPasses() {
    for (ReachService* service : services_) {
      for (const reach::SlowQueryRecord& rec : service->SlowQueries()) {
        ++records_;
        for (size_t s = 0; s < reach::kNumServeStages; ++s) {
          stage_ns_[s] += static_cast<double>(rec.stage_ns[s]);
        }
        probes_ += static_cast<double>(rec.index_probes);
        pending_ += static_cast<double>(rec.pending_edges);
      }
      service->ClearSlowQueries();
    }
    spans_.Scrape();
  }

  void Finish(Layers* layers) {
    reach::TraceRecorder::Global().set_enabled(false);
    const Counts after = Counts::Read(services_);
    layers->serve_query_self_ns = spans_.MeanSelfNs("serve.query");
    layers->serve_snapshot_pin_ns = spans_.MeanNs("serve.snapshot_pin");
    for (size_t s = 0; s < reach::kNumServeStages; ++s) {
      layers->serve_stage_ns[s] = Ratio(stage_ns_[s], records_);
    }
    layers->serve_index_probes_per_query = Ratio(probes_, records_);
    layers->serve_pending_per_query = Ratio(pending_, records_);
    const double queries = after.queries - before_.queries;
    layers->serve_index_answer_frac =
        Ratio(after.index - before_.index, queries);
    layers->serve_delta_answer_frac =
        Ratio(after.delta - before_.delta, queries);
    layers->serve_fallback_answer_frac =
        Ratio(after.fallback - before_.fallback, queries);
    layers->serve_negcache_hit_frac =
        Ratio(after.negcache_hits - before_.negcache_hits, queries);
    layers->serve_delete_verify_frac =
        Ratio(after.delete_verifies - before_.delete_verifies, queries);
    layers->drain_ms = spans_.MeanNs("serve.rebuild") / 1e6;
  }

 private:
  struct Counts {
    double queries = 0, index = 0, delta = 0, fallback = 0,
           negcache_hits = 0, delete_verifies = 0;
    // Totals over `services`.
    static Counts Read(const std::vector<ReachService*>& services) {
      Counts c;
      for (const ReachService* service : services) {
        const reach::ServeStats& s = service->stats();
        c.queries += static_cast<double>(s.queries.load());
        c.index += static_cast<double>(s.index_answers.load());
        c.delta += static_cast<double>(s.delta_answers.load());
        c.fallback += static_cast<double>(s.fallback_answers.load());
        c.negcache_hits += static_cast<double>(s.negcache_hits.load());
        c.delete_verifies += static_cast<double>(s.delete_verifies.load());
      }
      return c;
    }
  };

  const std::vector<ReachService*> services_;
  const Counts before_;
  SpanTotals spans_;
  double records_ = 0;
  double stage_ns_[reach::kNumServeStages] = {};
  double probes_ = 0;
  double pending_ = 0;
};

// The layers under the service, timed on their own: the bare "pll" index
// and the fast-path wrapper around it, each built on `graph` and run over
// the stream with no per-query clock reads. Answers are checked against
// the stream's reference answers, which hold on `graph`. Then a bare index
// built on a ChurnGraph made from `graph` takes kProbeUpdates of its
// updates through ApplyUpdate (folding them in when it recommends a
// rebuild), answers kProbeQueries queries on the damage the updates left,
// which are checked by BFS, and finally folds the updates in with one
// timed RebuildFromUpdates.
void MeasureIndexLayers(const Digraph& graph, const Stream& stream, Rng& rng,
                        Layers* layers, Report* report) {
  const size_t count = stream.pairs.size();
  const auto time_queries = [&](const reach::ReachabilityIndex& index) {
    uint64_t wrong = 0;
    const Clock::time_point begin = Clock::now();
    for (size_t i = 0; i < count; ++i) {
      const QueryPair& q = stream.pairs[i];
      wrong += index.Query(q.source, q.target) != (stream.expected[i] != 0);
    }
    const double ns = Nanos(Clock::now() - begin) / static_cast<double>(count);
    report->Count(count, wrong);
    return ns;
  };

  reach::MadeIndex bare = reach::MakeIndex("pll");
  bare.plain->Build(graph);
  bare.plain->ResetProbe();
  layers->index_query_ns = time_queries(*bare.plain);
  const reach::QueryProbe probe = bare.plain->Probe();
  layers->index_labels_per_query =
      Ratio(static_cast<double>(probe.labels_scanned),
            static_cast<double>(probe.queries));
  for (const reach::PhaseTiming& phase : bare.plain->Stats().phases) {
    const double ms = Millis(phase.elapsed);
    if (phase.name == "order") layers->build_order_ms += ms;
    if (phase.name == "label") layers->build_label_ms += ms;
    if (phase.name == "seal") layers->build_seal_ms += ms;
  }

  reach::MadeIndex wrapped = reach::MakeIndex("pll:fastpath=1");
  wrapped.plain->Build(graph);
  layers->fastpath_query_ns = time_queries(*wrapped.plain);
  const auto* fastpath =
      dynamic_cast<const reach::DynamicFastPathIndex*>(wrapped.plain.get());
  if (fastpath != nullptr) {
    const reach::FastPathVerdictStats verdicts = fastpath->VerdictStats();
    layers->fastpath_decided_frac =
        Ratio(static_cast<double>(verdicts.Decided()),
              static_cast<double>(verdicts.Total()));
  }

  ChurnGraph churn(graph, rng);
  reach::MadeIndex updated = reach::MakeIndex("pll");
  updated.plain->Build(churn.start());
  auto* dynamic =
      dynamic_cast<reach::DynamicReachabilityIndex*>(updated.plain.get());
  if (dynamic == nullptr) return;
  double apply_ns = 0;
  for (size_t u = 0; u < kProbeUpdates; ++u) {
    const UpdateBatch batch = {churn.Next()};
    const Clock::time_point begin = Clock::now();
    const reach::UpdateResult result = dynamic->ApplyUpdate(batch);
    apply_ns += Nanos(Clock::now() - begin);
    report->Count(1, result.ok() ? 0 : 1);
    if (result.rebuild_recommended) dynamic->RebuildFromUpdates();
  }
  layers->index_update_us = apply_ns / kProbeUpdates / 1e3;

  const size_t probes = std::min(kProbeQueries, stream.pairs.size());
  std::vector<uint8_t> answers(probes);
  const Clock::time_point begin = Clock::now();
  for (size_t i = 0; i < probes; ++i) {
    answers[i] = dynamic->Query(stream.pairs[i].source, stream.pairs[i].target);
  }
  layers->index_damaged_query_ns =
      Nanos(Clock::now() - begin) / static_cast<double>(probes);
  uint64_t wrong = 0;
  for (size_t i = 0; i < probes; ++i) {
    wrong += (answers[i] != 0) !=
             churn.Reaches(stream.pairs[i].source, stream.pairs[i].target);
  }
  report->Count(probes, wrong);

  const Clock::time_point rebuild_begin = Clock::now();
  dynamic->RebuildFromUpdates();
  layers->index_rebuild_ms = Millis(Clock::now() - rebuild_begin);
}

// ---------------------------------------------------------------------
// Workloads

// Starts a service on `graph` (construct, Start, wait for the first
// indexed snapshot), adding the time that took to `m`.
std::unique_ptr<ReachService> StartService(const Digraph& graph,
                                           const ServiceOptions& options,
                                           Measurement* m) {
  const Clock::time_point begin = Clock::now();
  auto service = std::make_unique<ReachService>(graph, options);
  service->Start();
  service->Flush();
  m->AddSetup(Clock::now() - begin);
  return service;
}

std::vector<ReachService*> Services(
    const std::vector<std::unique_ptr<ReachService>>& owned) {
  std::vector<ReachService*> services;
  for (const auto& service : owned) services.push_back(service.get());
  return services;
}

void RunServeRead(const Args& args, Report* report) {
  Rng rng(args.seed);
  ServiceOptions options;
  options.spec = "pll";
  options.slots = 1;
  options = ServeTracer::Options(options, args.trace, kReadStream);

  Measurement m(kInputs, 1);
  std::vector<Digraph> graphs;
  std::vector<Stream> streams;
  std::vector<std::unique_ptr<ReachService>> services;
  for (size_t k = 0; k < kInputs; ++k) {
    graphs.push_back(reach::ScaleFreeDag(kScaleFreeVertices,
                                         kScaleFreeOutDegree, rng.Next()));
    streams.push_back(MakeStream(graphs[k], kReadStream, Mix::kUniform, rng));
    services.push_back(StartService(graphs[k], options, &m));
  }
  std::unique_ptr<ServeTracer> tracer;
  if (args.trace) tracer = std::make_unique<ServeTracer>(Services(services));

  uint64_t wrong = 0;
  RunPasses(
      args, &m,
      [&](size_t k, PassStats& stats) {
        const Stream& stream = streams[k];
        ReachService& service = *services[k];
        for (size_t i = 0; i < stream.pairs.size(); ++i) {
          const QueryPair q = stream.pairs[i];
          const Clock::time_point begin = Clock::now();
          const ServeAnswer ans = service.Query(q.source, q.target);
          stats.RecordLatency(Clock::now() - begin);
          wrong += !ans.exact || ans.reachable != (stream.expected[i] != 0);
        }
        stats.AddOps(stream.pairs.size());
      },
      [&](size_t k) { StartService(graphs[k], options, &m); },
      [&] {
        if (tracer) tracer->BetweenPasses();
      });
  report->Count(m.total_ops(), wrong);

  if (!args.trace) {
    m.AddTo(report);
    return;
  }
  Layers layers;
  layers.traced_query_p50_ns = m.P50();
  tracer->Finish(&layers);
  for (const auto& service : services) service->Stop();
  MeasureIndexLayers(graphs[0], streams[0], rng, &layers, report);
  layers.AddTo(report);
}

void RunServeChurn(const Args& args, Report* report) {
  Rng rng(args.seed);
  ServiceOptions options;
  options.spec = "pll";
  options.slots = 1;
  options.drain_threshold = kChurnDrainThreshold;
  options = ServeTracer::Options(options, args.trace, kChurnStream);

  // A pass makes one group of updates, so an input's passes alternate
  // between its two groups.
  Measurement m(kInputs, 2);
  std::vector<ChurnGraph> churns;
  std::vector<Stream> streams;
  std::vector<std::unique_ptr<ReachService>> services;
  for (size_t k = 0; k < kInputs; ++k) {
    churns.emplace_back(reach::ScaleFreeDag(kScaleFreeVertices,
                                            kScaleFreeOutDegree, rng.Next()),
                        rng);
    streams.push_back(
        MakeStream(churns[k].start(), kChurnStream, Mix::kNeg90, rng));
    services.push_back(StartService(churns[k].start(), options, &m));
  }
  std::unique_ptr<ServeTracer> tracer;
  if (args.trace) tracer = std::make_unique<ServeTracer>(Services(services));

  uint64_t updates = 0, rejected = 0, checked = 0, wrong = 0, flushes = 0;
  double apply_ns = 0, flush_ns = 0;
  RunPasses(
      args, &m,
      [&](size_t k, PassStats& stats) {
        const Stream& stream = streams[k];
        ChurnGraph& churn = churns[k];
        ReachService& service = *services[k];
        for (size_t i = 0; i < stream.pairs.size(); ++i) {
          if (i % kChurnQueriesPerUpdate == 0) {
            const UpdateBatch batch = {churn.Next()};
            const Clock::time_point begin = Clock::now();
            rejected += service.ApplyUpdate(batch).ok() ? 0 : 1;
            apply_ns += Nanos(Clock::now() - begin);
            ++updates;
          }
          const QueryPair q = stream.pairs[i];
          const Clock::time_point begin = Clock::now();
          const ServeAnswer ans = service.Query(q.source, q.target);
          const Clock::time_point end = Clock::now();
          stats.RecordLatency(end - begin);
          if (i % kChurnCheckEvery == 0) {
            ++checked;
            wrong += !ans.exact ||
                     ans.reachable != churn.Reaches(q.source, q.target);
            stats.Exclude(Clock::now() - end);
          }
        }
        const Clock::time_point begin = Clock::now();
        service.Flush();
        flush_ns += Nanos(Clock::now() - begin);
        ++flushes;
        stats.AddOps(stream.pairs.size() +
                     stream.pairs.size() / kChurnQueriesPerUpdate);
      },
      [&](size_t k) { StartService(churns[k].start(), options, &m); },
      [&] {
        if (tracer) tracer->BetweenPasses();
      });
  report->Count(checked + updates, wrong + rejected);

  if (!args.trace) {
    m.AddTo(report);
    return;
  }
  Layers layers;
  layers.traced_query_p50_ns = m.P50();
  tracer->Finish(&layers);
  for (const auto& service : services) service->Stop();
  layers.update_apply_us = Ratio(apply_ns, static_cast<double>(updates)) / 1e3;
  layers.flush_ms = Ratio(flush_ns, static_cast<double>(flushes)) / 1e6;
  MeasureIndexLayers(churns[0].start(), streams[0], rng, &layers, report);
  layers.AddTo(report);
}

// Builds the bare index on `graph`, adding the time that took to `m`.
reach::MadeIndex BuildIndex(const Digraph& graph, Measurement* m) {
  const Clock::time_point begin = Clock::now();
  reach::MadeIndex made = reach::MakeIndex("pll");
  made.plain->Build(graph);
  m->AddSetup(Clock::now() - begin);
  return made;
}

void RunIndexCyclic(const Args& args, Report* report) {
  Rng rng(args.seed);
  Measurement m(kInputs, 1);
  std::vector<Digraph> graphs;
  std::vector<Stream> streams;
  std::vector<reach::MadeIndex> indexes;
  for (size_t k = 0; k < kInputs; ++k) {
    graphs.push_back(reach::RandomDigraph(
        kCyclicVertices, kCyclicAvgDegree * kCyclicVertices, rng.Next()));
    streams.push_back(
        MakeStream(graphs[k], kCyclicStream, Mix::kUniform, rng));
    indexes.push_back(BuildIndex(graphs[k], &m));
  }

  static_assert(kCyclicStream % kCyclicGroup == 0);
  uint64_t wrong = 0;
  RunPasses(
      args, &m,
      [&](size_t k, PassStats& stats) {
        const Stream& stream = streams[k];
        const reach::ReachabilityIndex& index = *indexes[k].plain;
        for (size_t i = 0; i < stream.pairs.size(); i += kCyclicGroup) {
          bool answers[kCyclicGroup];
          const Clock::time_point begin = Clock::now();
          for (size_t j = 0; j < kCyclicGroup; ++j) {
            answers[j] = index.Query(stream.pairs[i + j].source,
                                     stream.pairs[i + j].target);
          }
          stats.RecordLatency(Nanos(Clock::now() - begin) / kCyclicGroup);
          for (size_t j = 0; j < kCyclicGroup; ++j) {
            wrong += answers[j] != (stream.expected[i + j] != 0);
          }
        }
        stats.AddOps(stream.pairs.size());
      },
      [&](size_t k) { BuildIndex(graphs[k], &m); }, [] {});
  report->Count(m.total_ops(), wrong);

  if (!args.trace) {
    m.AddTo(report);
    return;
  }
  Layers layers;
  layers.traced_query_p50_ns = m.P50();
  MeasureIndexLayers(graphs[0], streams[0], rng, &layers, report);
  layers.AddTo(report);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: reach_perfbench --workload "
                 "<serve-read|serve-churn|index-cyclic> --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  // Builds and drains run on one pool worker: the benchmark measures the
  // code, not the machine's core count.
  reach::SetDefaultThreads(1);

  Report report;
  if (args.workload == "serve-read") {
    RunServeRead(args, &report);
  } else if (args.workload == "serve-churn") {
    RunServeChurn(args, &report);
  } else if (args.workload == "index-cyclic") {
    RunIndexCyclic(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  report.Print();
  return 0;
}
