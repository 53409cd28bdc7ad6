// Regenerates the §5 "parallel computation of indexes" direction as a
// speedup series: every parallelized builder (transitive closure's
// dependency-level bitset sweep, FERRARI's level-parallel interval merge,
// BFL's parallel bloom sweeps, GRAIL's k independent traversals) built
// with 1, 2, 4, and 8 threads on a larger DAG. Rows at threads>1 carry a
// `speedup_vs_1t` counter against the serial row of the same family (rows
// run in registration order, so the threads=1 baseline is always measured
// first). The threads=1 row first runs one untimed build, so the cold heap
// is not charged to the baseline the speedups divide by. PLL's build is
// serial (docs/PARALLELISM.md) and has no row.
//
// A second series drives the same workload through the parallel
// `BatchQuery` API on the PLL index.
//
// Row naming: parallel/<family>/threads=<t> and
//             parallel/pll-batch-query/threads=<t>.

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "bench_common.h"
#include "plain/bfl.h"
#include "plain/ferrari.h"
#include "plain/grail.h"
#include "plain/pruned_two_hop.h"
#include "traversal/transitive_closure.h"

namespace reach::bench {
namespace {

constexpr size_t kThreadSweep[] = {1, 2, 4, 8};

// threads=1 build milliseconds per family, filled by the serial rows.
std::map<std::string, double>& BaselineMs() {
  static std::map<std::string, double> baselines;
  return baselines;
}

using IndexFactory =
    std::function<std::unique_ptr<ReachabilityIndex>(size_t threads)>;

void RegisterBuildSweep(const Digraph* graph, const std::string& family,
                        IndexFactory make) {
  for (const size_t threads : kThreadSweep) {
    ::benchmark::RegisterBenchmark(
        ("parallel/" + family + "/threads=" + std::to_string(threads))
            .c_str(),
        [graph, family, make, threads](::benchmark::State& state) {
          if (threads == 1) make(threads)->Build(*graph);  // warm-up
          IndexStats stats;
          for (auto _ : state) {
            auto index = make(threads);
            index->Build(*graph);
            ::benchmark::DoNotOptimize(index->IndexSizeBytes());
            stats = index->Stats();
          }
          ReportBuildCounters(state, stats);
          ReportThreads(state, threads);
          const double build_ms =
              static_cast<double>(stats.build_time.count()) / 1e6;
          if (threads == 1) {
            BaselineMs()[family] = build_ms;
          } else if (const auto it = BaselineMs().find(family);
                     it != BaselineMs().end() && build_ms > 0.0) {
            state.counters["speedup_vs_1t"] = it->second / build_ms;
          }
        })
        ->Iterations(2)
        ->Unit(::benchmark::kMillisecond)
        ->MeasureProcessCPUTime()
        ->UseRealTime();
  }
}

void RegisterBatchQuerySweep(const Digraph* graph) {
  // One PLL index shared by all rows; built on first use so that
  // --benchmark_filter runs skipping this series pay nothing.
  static std::unique_ptr<PrunedTwoHop> index;
  static std::vector<QueryPair> queries;
  for (const size_t threads : kThreadSweep) {
    ::benchmark::RegisterBenchmark(
        ("parallel/pll-batch-query/threads=" + std::to_string(threads))
            .c_str(),
        [graph, threads](::benchmark::State& state) {
          if (index == nullptr) {
            index = std::make_unique<PrunedTwoHop>(VertexOrder::kDegree);
            index->Build(*graph);
            queries = RandomPairs(*graph, 1 << 16, kSeed + 141);
          }
          RunBatchQueryLoop(state, *index, queries, threads);
        })
        ->Iterations(4)
        ->Unit(::benchmark::kMillisecond)
        ->MeasureProcessCPUTime()
        ->UseRealTime();
  }
}

void RegisterAll() {
  const VertexId n = 65536;
  auto* graph = new Digraph(
      RandomDag(n, 4 * static_cast<size_t>(n), kSeed + 140));

  RegisterBuildSweep(graph, "tc", [](size_t threads) {
    return std::make_unique<TransitiveClosure>(threads);
  });
  RegisterBuildSweep(graph, "ferrari-k4", [](size_t threads) {
    return std::make_unique<Ferrari>(/*k=*/4, threads);
  });
  RegisterBuildSweep(graph, "bfl-256", [](size_t threads) {
    return std::make_unique<Bfl>(/*filter_bits=*/256,
                                 /*seed=*/0x62'66'6cULL, threads);
  });
  RegisterBuildSweep(graph, "grail-k8", [](size_t threads) {
    return std::make_unique<Grail>(/*k=*/8, /*seed=*/7, threads);
  });
  RegisterBatchQuerySweep(graph);
}

}  // namespace
}  // namespace reach::bench

int main(int argc, char** argv) {
  return reach::bench::BenchMain(argc, argv, "bench_parallel_build",
                                 &reach::bench::RegisterAll);
}
