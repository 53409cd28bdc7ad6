// Regenerates the Dynamic column of Table 2 (the DLCR row): incremental
// labeled-edge updates (inserts and a mixed insert/delete churn) on the
// pruned labeled 2-hop index versus full rebuilds, plus post-update
// query latency.
//
// Row naming: table2dyn/<graph>/<strategy>/<phase>.

#include <memory>

#include "bench_common.h"
#include "graph/rng.h"
#include "lcr/pruned_labeled_two_hop.h"

namespace reach::bench {
namespace {

void RegisterAll() {
  const VertexId n = 512;
  const Label num_labels = 4;
  auto* base = new LabeledDigraph(RandomLabeledDigraph(
      n, 3 * static_cast<size_t>(n), num_labels, kSeed + 70));
  auto* stream = new std::vector<LabeledEdge>();
  {
    Xoshiro256ss rng(kSeed + 71);
    while (stream->size() < 64) {
      const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
      const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
      if (u != v) {
        stream->push_back(
            {u, v, static_cast<Label>(rng.NextBounded(num_labels))});
      }
    }
  }
  auto* queries = new std::vector<LcrQuery>(
      RandomLcrQueries(*base, 500, 2, kSeed + 72));

  ::benchmark::RegisterBenchmark(
      "table2dyn/er-L4/dlcr-insert/apply_stream",
      [=](::benchmark::State& state) {
        for (auto _ : state) {
          PrunedLabeledTwoHop index;
          index.Build(*base);
          for (const LabeledEdge& e : *stream) {
            index.ApplyUpdate(
                {LabeledEdgeUpdate::Insert(e.source, e.target, e.label)});
          }
          state.counters["entries"] =
              static_cast<double>(index.TotalEntries());
        }
        state.SetItemsProcessed(state.iterations() *
                                static_cast<int64_t>(stream->size()));
      })
      ->Iterations(2)
      ->Unit(::benchmark::kMillisecond);

  ::benchmark::RegisterBenchmark(
      "table2dyn/er-L4/rebuild-per-16/apply_stream",
      [=](::benchmark::State& state) {
        for (auto _ : state) {
          std::vector<LabeledEdge> edges = base->Edges();
          PrunedLabeledTwoHop index;
          index.Build(*base);
          LabeledDigraph current;
          for (size_t i = 0; i < stream->size(); i += 16) {
            for (size_t j = i; j < i + 16 && j < stream->size(); ++j) {
              edges.push_back((*stream)[j]);
            }
            current = LabeledDigraph::FromEdges(n, num_labels, edges);
            index.Build(current);
          }
          state.counters["entries"] =
              static_cast<double>(index.TotalEntries());
        }
        state.SetItemsProcessed(state.iterations() *
                                static_cast<int64_t>(stream->size()));
      })
      ->Iterations(1)
      ->Unit(::benchmark::kMillisecond);

  // Mixed labeled churn (70/30 insert/delete) through the batched API,
  // rebuilding only on the index's recommendation.
  ::benchmark::RegisterBenchmark(
      "table2dyn/er-L4/dlcr-churn/apply_stream",
      [=](::benchmark::State& state) {
        size_t rebuilds = 0;
        for (auto _ : state) {
          Xoshiro256ss rng(kSeed + 73);
          std::vector<LabeledEdge> live = base->Edges();
          PrunedLabeledTwoHop index;
          index.Build(*base);
          for (size_t step = 0; step < 64; ++step) {
            LabeledUpdateBatch batch;
            if (!live.empty() && rng.NextBounded(10) < 3) {
              const LabeledEdge e = live[rng.NextBounded(live.size())];
              batch.push_back(
                  LabeledEdgeUpdate::Delete(e.source, e.target, e.label));
              std::erase(live, e);
            } else {
              const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
              const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
              if (u == v) continue;
              const auto l = static_cast<Label>(rng.NextBounded(num_labels));
              batch.push_back(LabeledEdgeUpdate::Insert(u, v, l));
              live.push_back({u, v, l});
            }
            if (index.ApplyUpdate(batch).rebuild_recommended) {
              index.RebuildFromUpdates();
              ++rebuilds;
            }
          }
        }
        state.counters["rebuilds"] = static_cast<double>(rebuilds);
        state.SetItemsProcessed(state.iterations() * 64);
      })
      ->Iterations(2)
      ->Unit(::benchmark::kMillisecond);

  auto* after = new PrunedLabeledTwoHop();
  after->Build(*base);
  for (const LabeledEdge& e : *stream) {
    after->ApplyUpdate(
        {LabeledEdgeUpdate::Insert(e.source, e.target, e.label)});
  }
  ::benchmark::RegisterBenchmark(
      "table2dyn/er-L4/dlcr-insert/query_rand_after",
      [=](::benchmark::State& state) {
        RunQueryLoop(state, *queries, [&](const LcrQuery& q) {
          return after->Query(q.source, q.target, q.allowed);
        });
      })
      ->Iterations(3)
      ->Unit(::benchmark::kMicrosecond);
}

}  // namespace
}  // namespace reach::bench

int main(int argc, char** argv) {
  return reach::bench::BenchMain(argc, argv, "bench_table2_dynamic",
                                 &reach::bench::RegisterAll);
}
