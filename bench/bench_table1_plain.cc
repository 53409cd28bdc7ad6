// Regenerates Table 1 of the survey as an *empirical* comparison matrix:
// for every implemented plain reachability index (plus the §2.3 online
// baselines), on every benchmark graph family: build time, index size, and
// per-query latency on positive / negative / random workloads. Cyclic
// inputs additionally exercise the Input column (the §3.1 SCC reduction).
//
// Row naming: table1/<graph>/<index>/<phase>.

#include <cstdlib>
#include <memory>

#include "bench_common.h"
#include "core/fastpath_index.h"
#include "core/index_factory.h"
#include "obs/metrics_registry.h"

namespace reach::bench {
namespace {

struct BuiltIndex {
  std::unique_ptr<ReachabilityIndex> index;
  const Digraph* graph;
};

// Verdict stats for either fast-path wrapper instantiation; zeros for
// unwrapped indexes.
FastPathVerdictStats FastPathStatsOf(const ReachabilityIndex& index) {
  if (const auto* f = dynamic_cast<const FastPathIndex*>(&index)) {
    return f->VerdictStats();
  }
  if (const auto* f = dynamic_cast<const DynamicFastPathIndex*>(&index)) {
    return f->VerdictStats();
  }
  return {};
}

VertexId BenchN() {
  if (const char* env = std::getenv("REACH_BENCH_N")) {
    return static_cast<VertexId>(std::strtoul(env, nullptr, 10));
  }
  return 2048;
}

// The 90/10 answer-class-biased workloads of one graph.
struct BiasedWorkload {
  std::vector<QueryPair> neg90;
  std::vector<QueryPair> pos90;
};

void RegisterAll() {
  const VertexId n = BenchN();
  auto* graphs = new std::vector<GraphCase>(PlainBenchGraphs(n));
  auto* workloads = new std::vector<PlainWorkload>();
  auto* biased = new std::vector<BiasedWorkload>();
  for (const GraphCase& gc : *graphs) {
    workloads->push_back(MakePlainWorkload(gc.graph, 1000));
    biased->push_back(
        {BiasedPairs(gc.graph, /*unreachable_biased=*/true, 1000, kSeed + 30),
         BiasedPairs(gc.graph, /*unreachable_biased=*/false, 1000,
                     kSeed + 40)});
  }

  // The full roster plus fast-path-wrapped entries, so every table carries
  // a same-binary wrapped-vs-bare comparison for a 2-hop labeling and an
  // interval index.
  std::vector<std::string> specs = DefaultIndexSpecs(IndexFamily::kPlain);
  specs.push_back("pll:fastpath=1");
  specs.push_back("grail:fastpath=1");
  // Block-compressed label storage (docs/SNAPSHOTS.md): same labeling as
  // the bare "pll" row, so the table carries the size-vs-latency tradeoff
  // per graph family.
  specs.push_back("pll:compress=1");

  for (size_t gi = 0; gi < graphs->size(); ++gi) {
    const GraphCase& gc = (*graphs)[gi];
    const PlainWorkload& wl = (*workloads)[gi];
    const BiasedWorkload& bw = (*biased)[gi];
    for (const std::string& spec : specs) {
      // Dual labeling is designed for graphs with very few non-tree edges
      // (§3.1); on dense random inputs its O(t^2) link closure is the
      // documented anti-pattern, so benchmark it only where it is meant
      // to run.
      if (spec == "dual" && gc.name != "layered-deep") continue;

      const std::string base = "table1/" + gc.name + "/" + spec;
      // Build phase: fresh index per iteration. The reported time is the
      // *index-measured* IndexStats::build_time (manual time), so the
      // bench table and the metrics report come from one stopwatch.
      ::benchmark::RegisterBenchmark(
          (base + "/build").c_str(),
          [&gc, spec](::benchmark::State& state) {
            size_t bytes = 0;
            bool complete = false;
            IndexStats stats;
            for (auto _ : state) {
              auto index = MakeIndex(spec).plain;
              index->Build(gc.graph);
              bytes = index->IndexSizeBytes();
              complete = index->IsComplete();
              stats = index->Stats();
              state.SetIterationTime(
                  static_cast<double>(stats.build_time.count()) / 1e9);
            }
            ReportBuildCounters(state, stats);
            state.counters["index_KB"] =
                static_cast<double>(bytes) / 1024.0;
            state.counters["complete"] = complete ? 1 : 0;
            state.counters["vertices"] = static_cast<double>(
                gc.graph.NumVertices());
            state.counters["edges"] =
                static_cast<double>(gc.graph.NumEdges());
            const double bytes_per_vertex =
                static_cast<double>(bytes) /
                static_cast<double>(gc.graph.NumVertices());
            state.counters["bytes_per_vertex"] = bytes_per_vertex;
            MetricsRegistry& registry = MetricsRegistry::Global();
            const std::string row =
                "bench.table1." + gc.name + "." + spec;
            registry.GetGauge(row + ".bytes_per_vertex")
                .Set(bytes_per_vertex);
            if (IndexSpec(spec).Param("compress", 0) != 0) {
              // PublishStorageGauges ran during this Build, so the global
              // gauge is this index's flat-equivalent / compressed ratio.
              const double ratio =
                  registry.GetGauge("index.compression_ratio").Value();
              state.counters["compression_ratio"] = ratio;
              registry.GetGauge(row + ".compression_ratio").Set(ratio);
            }
          })
          ->Iterations(1)
          ->UseManualTime()
          ->Unit(::benchmark::kMillisecond);

      // Query phases share one pre-built index.
      auto built = std::make_shared<BuiltIndex>();
      auto ensure_built = [built, &gc, spec]() {
        if (built->index == nullptr) {
          built->index = MakeIndex(spec).plain;
          built->index->Build(gc.graph);
          built->graph = &gc.graph;
        }
      };
      const struct {
        const char* name;
        const std::vector<QueryPair>* queries;
        bool collect_report;  // last phase folds the index into the JSON
      } phases[] = {{"query_pos", &wl.positive, false},
                    {"query_neg", &wl.negative, false},
                    {"query_neg90", &bw.neg90, false},
                    {"query_pos90", &bw.pos90, false},
                    {"query_rand", &wl.random, true}};
      for (const auto& phase : phases) {
        ::benchmark::RegisterBenchmark(
            (base + "/" + phase.name).c_str(),
            [ensure_built, built, &gc, queries = phase.queries,
             collect = phase.collect_report](::benchmark::State& state) {
              ensure_built();
              const QueryProbe before = built->index->Probe();
              const FastPathVerdictStats fp_before =
                  FastPathStatsOf(*built->index);
              RunQueryLoop(state, *queries, [&](const QueryPair& q) {
                return built->index->Query(q.source, q.target);
              });
              ReportProbeDelta(state, before, built->index->Probe());
              const FastPathVerdictStats fp_after =
                  FastPathStatsOf(*built->index);
              const double fp_total = static_cast<double>(
                  fp_after.Total() - fp_before.Total());
              if (fp_total > 0) {
                state.counters["fastpath_hit_rate"] =
                    static_cast<double>(fp_after.Decided() -
                                        fp_before.Decided()) /
                    fp_total;
              }
              if (collect) CollectIndexReport(gc.name, *built->index);
            })
            ->Iterations(2)
            ->Unit(::benchmark::kMicrosecond);
      }
    }
  }
}

}  // namespace
}  // namespace reach::bench

int main(int argc, char** argv) {
  return reach::bench::BenchMain(argc, argv, "bench_table1_plain",
                                 &reach::bench::RegisterAll);
}
