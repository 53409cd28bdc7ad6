#include "plain/grail.h"

#include <algorithm>
#include <vector>

#include "graph/rng.h"
#include "par/parallel_for.h"
#include "par/thread_pool.h"
#include "plain/interval_labeling.h"
#include "traversal/guided_search.h"

namespace reach {

void Grail::Build(const Digraph& graph) {
  BuildStatsScope build(&build_stats_);
  ResetProbe();
  graph_ = &graph;
  const size_t n = graph.NumVertices();
  post_.assign(n * k_, 0);
  low_.assign(n * k_, 0);
  BuildPhaseTimer columns_timer(&build_stats_.phases, "label_columns");
  SplitMix64 seed_stream(seed_);
  std::vector<uint64_t> seeds(k_);
  for (uint64_t& s : seeds) s = seed_stream.Next();

  // Each traversal writes its own column of the label matrix, so the k
  // traversals parallelize without synchronization and the result is
  // identical to the serial build.
  auto build_column = [&](size_t i) {
    const IntervalForest forest = BuildIntervalForest(graph, seeds[i]);
    const std::vector<uint32_t> low = ComputeReachableLow(graph, forest);
    for (VertexId v = 0; v < n; ++v) {
      post_[v * k_ + i] = forest.post[v];
      low_[v * k_ + i] = low[v];
    }
  };
  ParallelFor(0, k_, build_column,
              std::min(ResolveThreads(num_threads_), k_), /*grain=*/1);
  columns_timer.Stop();
  build_stats_.size_bytes = IndexSizeBytes();
  build_stats_.num_entries = post_.size() + low_.size();
}

bool Grail::MaybeReachableCounted(VertexId s, VertexId t,
                                  [[maybe_unused]] QueryProbe& probe) const {
  for (size_t i = 0; i < k_; ++i) {
    REACH_PROBE_INC(probe, labels_scanned);
    if (low_[s * k_ + i] > low_[t * k_ + i] ||
        post_[t * k_ + i] > post_[s * k_ + i]) {
      return false;  // containment violated: certainly unreachable
    }
  }
  return true;
}

bool Grail::QueryInSlot(VertexId s, VertexId t, size_t slot) const {
  SearchWorkspace& ws = Workspace(slot);
  const auto verdict = [&](VertexId v) {
    return MaybeReachableCounted(v, t, ws.probe()) ? 0 : -1;
  };
  return GuidedQuery(s, t, ws, graph_->NumVertices(), verdict, [&] {
    return GuidedDfs(s, t, ws, OutArcs(*graph_), verdict);
  });
}

size_t Grail::IndexSizeBytes() const {
  return (post_.size() + low_.size()) * sizeof(uint32_t);
}

}  // namespace reach
