// Regenerates the Dynamic column of Table 1: edge-update maintenance
// through the batched write API. Compares TOL-style incremental insertion
// (PrunedTwoHop::ApplyUpdate) and DBL's monotone label propagation
// against the static-index alternative (full rebuild per batch), mixed
// insert/delete churn on the deletion-capable indexes, plus post-update
// query latency.
//
// Row naming: table1dyn/<graph>/<strategy>/<phase>.

#include <cstdlib>
#include <memory>

#include "bench_common.h"
#include "graph/rng.h"
#include "plain/dagger.h"
#include "plain/dbl.h"
#include "plain/pruned_two_hop.h"

namespace reach::bench {
namespace {

std::vector<Edge> InsertStream(VertexId n, size_t count, uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<Edge> stream;
  while (stream.size() < count) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    if (u != v) stream.push_back({u, v});
  }
  return stream;
}

void RegisterAll() {
  const VertexId n = 1024;
  auto* base = new Digraph(RandomDigraph(n, 3 * static_cast<size_t>(n),
                                         kSeed + 40));
  auto* stream = new std::vector<Edge>(InsertStream(n, 128, kSeed + 41));
  auto* queries =
      new std::vector<QueryPair>(RandomPairs(*base, 1000, kSeed + 42));

  // Incremental TOL (pruned 2-hop) insertions.
  ::benchmark::RegisterBenchmark(
      "table1dyn/er-avg3/tol-insert/apply_stream",
      [=](::benchmark::State& state) {
        for (auto _ : state) {
          PrunedTwoHop index(VertexOrder::kDegree);
          index.Build(*base);
          for (const Edge& e : *stream) {
            index.ApplyUpdate({EdgeUpdate::Insert(e.source, e.target)});
          }
          state.counters["label_entries"] =
              static_cast<double>(index.TotalLabelEntries());
        }
        state.SetItemsProcessed(state.iterations() *
                                static_cast<int64_t>(stream->size()));
      })
      ->Iterations(2)
      ->Unit(::benchmark::kMillisecond);

  // Static alternative: rebuild after every insertion batch of 16.
  ::benchmark::RegisterBenchmark(
      "table1dyn/er-avg3/rebuild-per-16/apply_stream",
      [=](::benchmark::State& state) {
        for (auto _ : state) {
          std::vector<Edge> edges = base->Edges();
          PrunedTwoHop index(VertexOrder::kDegree);
          index.Build(*base);
          Digraph current;
          for (size_t i = 0; i < stream->size(); i += 16) {
            for (size_t j = i; j < i + 16 && j < stream->size(); ++j) {
              edges.push_back((*stream)[j]);
            }
            current = Digraph::FromEdges(n, edges);
            index.Build(current);
          }
          state.counters["label_entries"] =
              static_cast<double>(index.TotalLabelEntries());
        }
        state.SetItemsProcessed(state.iterations() *
                                static_cast<int64_t>(stream->size()));
      })
      ->Iterations(1)
      ->Unit(::benchmark::kMillisecond);

  // DBL insertions (the insert-only design of §3.2).
  ::benchmark::RegisterBenchmark(
      "table1dyn/er-avg3/dbl-insert/apply_stream",
      [=](::benchmark::State& state) {
        for (auto _ : state) {
          Dbl index;
          index.Build(*base);
          for (const Edge& e : *stream) {
            index.ApplyUpdate({EdgeUpdate::Insert(e.source, e.target)});
          }
        }
        state.SetItemsProcessed(state.iterations() *
                                static_cast<int64_t>(stream->size()));
      })
      ->Iterations(2)
      ->Unit(::benchmark::kMillisecond);

  // DAGGER-style dynamic GRAIL insertions (monotone bound widening).
  ::benchmark::RegisterBenchmark(
      "table1dyn/er-avg3/dagger-insert/apply_stream",
      [=](::benchmark::State& state) {
        for (auto _ : state) {
          Dagger index;
          index.Build(*base);
          for (const Edge& e : *stream) {
            index.ApplyUpdate({EdgeUpdate::Insert(e.source, e.target)});
          }
        }
        state.SetItemsProcessed(state.iterations() *
                                static_cast<int64_t>(stream->size()));
      })
      ->Iterations(2)
      ->Unit(::benchmark::kMillisecond);

  // Mixed insert/delete churn through the batched write API on the
  // deletion-capable indexes (the tentpole decremental path): 70/30
  // insert/delete mix, rebuilding only when the index recommends it.
  auto* churn = new std::vector<EdgeUpdate>([&] {
    Xoshiro256ss rng(kSeed + 43);
    std::vector<Edge> live = base->Edges();
    std::vector<EdgeUpdate> updates;
    while (updates.size() < 128) {
      if (!live.empty() && rng.NextBounded(10) < 3) {
        const Edge e = live[rng.NextBounded(live.size())];
        updates.push_back(EdgeUpdate::Delete(e.source, e.target));
        std::erase(live, e);
      } else {
        const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
        const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
        if (u == v) continue;
        updates.push_back(EdgeUpdate::Insert(u, v));
        live.push_back({u, v});
      }
    }
    return updates;
  }());
  const auto register_churn = [&](const char* row, auto make_index) {
    ::benchmark::RegisterBenchmark(
        row,
        [=](::benchmark::State& state) {
          size_t rebuilds = 0;
          for (auto _ : state) {
            auto index = make_index();
            index.Build(*base);
            for (const EdgeUpdate& u : *churn) {
              if (index.ApplyUpdate({u}).rebuild_recommended) {
                index.RebuildFromUpdates();
                ++rebuilds;
              }
            }
          }
          state.counters["rebuilds"] = static_cast<double>(rebuilds);
          state.SetItemsProcessed(state.iterations() *
                                  static_cast<int64_t>(churn->size()));
        })
        ->Iterations(2)
        ->Unit(::benchmark::kMillisecond);
  };
  register_churn("table1dyn/er-avg3/tol-churn/apply_stream",
                 [] { return PrunedTwoHop(VertexOrder::kDegree); });
  register_churn("table1dyn/er-avg3/dagger-churn/apply_stream",
                 [] { return Dagger(); });

  // Post-update query latency for both dynamic indexes.
  auto* tol_after = new PrunedTwoHop(VertexOrder::kDegree);
  auto* dbl_after = new Dbl();
  tol_after->Build(*base);
  dbl_after->Build(*base);
  for (const Edge& e : *stream) {
    const UpdateBatch batch = {EdgeUpdate::Insert(e.source, e.target)};
    tol_after->ApplyUpdate(batch);
    dbl_after->ApplyUpdate(batch);
  }
  ::benchmark::RegisterBenchmark(
      "table1dyn/er-avg3/tol-insert/query_rand_after",
      [=](::benchmark::State& state) {
        RunQueryLoop(state, *queries, [&](const QueryPair& q) {
          return tol_after->Query(q.source, q.target);
        });
      })
      ->Iterations(3)
      ->Unit(::benchmark::kMicrosecond);
  ::benchmark::RegisterBenchmark(
      "table1dyn/er-avg3/dbl-insert/query_rand_after",
      [=](::benchmark::State& state) {
        RunQueryLoop(state, *queries, [&](const QueryPair& q) {
          return dbl_after->Query(q.source, q.target);
        });
      })
      ->Iterations(3)
      ->Unit(::benchmark::kMicrosecond);
}

}  // namespace
}  // namespace reach::bench

int main(int argc, char** argv) {
  return reach::bench::BenchMain(argc, argv, "bench_table1_dynamic",
                                 &reach::bench::RegisterAll);
}
