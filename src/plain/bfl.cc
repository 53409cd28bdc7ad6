#include "plain/bfl.h"

#include "graph/rng.h"
#include "graph/topological.h"
#include "par/dependency_levels.h"
#include "par/parallel_for.h"
#include "par/thread_pool.h"
#include "plain/interval_labeling.h"
#include "traversal/guided_search.h"

namespace reach {

void Bfl::Build(const Digraph& graph) {
  BuildStatsScope build(&build_stats_);
  ResetProbe();
  graph_ = &graph;
  const size_t n = graph.NumVertices();
  bloom_out_.assign(n * words_, 0);
  bloom_in_.assign(n * words_, 0);

  BuildPhaseTimer forest_timer(&build_stats_.phases, "interval_forest");
  const IntervalForest forest = BuildIntervalForest(graph, std::nullopt);
  post_ = forest.post;
  subtree_low_ = forest.subtree_low;
  forest_timer.Stop();

  const size_t threads = ResolveThreads(num_threads_);
  BuildPhaseTimer bloom_timer(&build_stats_.phases, "bloom_sweeps");
  // Seed each vertex's own bit, then one sweep per direction. Rows are
  // disjoint per vertex, so seeding parallelizes freely.
  const size_t bits = words_ * 64;
  auto set_own = [&](std::vector<uint64_t>& bloom, VertexId v) {
    const uint64_t h = Mix64(v ^ seed_) % bits;
    bloom[v * words_ + (h >> 6)] |= uint64_t{1} << (h & 63);
  };
  ParallelForChunked(
      0, n,
      [&](size_t chunk_begin, size_t chunk_end) {
        for (size_t v = chunk_begin; v < chunk_end; ++v) {
          set_own(bloom_out_, v);
          set_own(bloom_in_, v);
        }
      },
      threads);

  auto order = TopologicalOrder(graph);
  auto or_row = [this](std::vector<uint64_t>& bloom, VertexId v, VertexId w) {
    for (size_t word = 0; word < words_; ++word) {
      bloom[v * words_ + word] |= bloom[w * words_ + word];
    }
  };
  if (threads <= 1) {
    // Out: reverse topological (successors first).
    for (auto it = order->rbegin(); it != order->rend(); ++it) {
      const VertexId v = *it;
      for (VertexId w : graph.OutNeighbors(v)) or_row(bloom_out_, v, w);
    }
    // In: topological (predecessors first).
    for (VertexId v : *order) {
      for (VertexId w : graph.InNeighbors(v)) or_row(bloom_in_, v, w);
    }
  } else {
    // Level-parallel sweeps: each vertex's row only reads rows of strictly
    // lower levels, and ORs commute, so the filters come out bit-identical
    // to the serial sweeps.
    auto run_sweep = [&](const DependencyLevels& levels, bool out) {
      for (const std::vector<VertexId>& bucket : levels.buckets) {
        ParallelForChunked(
            0, bucket.size(),
            [&](size_t chunk_begin, size_t chunk_end) {
              for (size_t i = chunk_begin; i < chunk_end; ++i) {
                const VertexId v = bucket[i];
                if (out) {
                  for (VertexId w : graph.OutNeighbors(v)) {
                    or_row(bloom_out_, v, w);
                  }
                } else {
                  for (VertexId w : graph.InNeighbors(v)) {
                    or_row(bloom_in_, v, w);
                  }
                }
              }
            },
            threads);
      }
    };
    const std::vector<VertexId> reverse_order(order->rbegin(), order->rend());
    run_sweep(ComputeDependencyLevels(n, reverse_order,
                                      [&graph](VertexId v, auto&& fn) {
                                        for (VertexId w : graph.OutNeighbors(v))
                                          fn(w);
                                      }),
              /*out=*/true);
    run_sweep(ComputeDependencyLevels(n, *order,
                                      [&graph](VertexId v, auto&& fn) {
                                        for (VertexId w : graph.InNeighbors(v))
                                          fn(w);
                                      }),
              /*out=*/false);
  }
  bloom_timer.Stop();
  build_stats_.size_bytes = IndexSizeBytes();
  build_stats_.num_entries = bloom_out_.size() + bloom_in_.size();
}

bool Bfl::BloomConsistent(VertexId s, VertexId t) const {
  // s -> t requires BloomOut(t) ⊆ BloomOut(s) and BloomIn(s) ⊆ BloomIn(t).
  for (size_t word = 0; word < words_; ++word) {
    if ((bloom_out_[t * words_ + word] & ~bloom_out_[s * words_ + word]) !=
        0) {
      return false;
    }
  }
  for (size_t word = 0; word < words_; ++word) {
    if ((bloom_in_[s * words_ + word] & ~bloom_in_[t * words_ + word]) != 0) {
      return false;
    }
  }
  return true;
}

int Bfl::FilterVerdictCounted(VertexId s, VertexId t,
                              [[maybe_unused]] QueryProbe& probe) const {
  REACH_PROBE_INC(probe, labels_scanned);
  if (s == t) return 1;
  if (subtree_low_[s] <= post_[t] && post_[t] <= post_[s]) return 1;
  if (!BloomConsistent(s, t)) return -1;
  return 0;
}

bool Bfl::QueryInSlot(VertexId s, VertexId t, size_t slot) const {
  SearchWorkspace& ws = Workspace(slot);
  const auto verdict = [&](VertexId v) {
    return FilterVerdictCounted(v, t, ws.probe());
  };
  return GuidedQuery(s, t, ws, graph_->NumVertices(), verdict, [&] {
    return GuidedDfs(s, t, ws, OutArcs(*graph_), verdict);
  });
}

size_t Bfl::IndexSizeBytes() const {
  return (bloom_out_.size() + bloom_in_.size()) * sizeof(uint64_t) +
         (post_.size() + subtree_low_.size()) * sizeof(uint32_t);
}

}  // namespace reach
