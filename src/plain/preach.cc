#include "plain/preach.h"

#include "graph/topological.h"
#include "plain/interval_labeling.h"
#include "traversal/guided_search.h"

namespace reach {

void Preach::Build(const Digraph& graph) {
  ResetProbe();
  graph_ = &graph;
  const IntervalForest fwd = BuildIntervalForest(graph, std::nullopt);
  post_ = fwd.post;
  subtree_low_ = fwd.subtree_low;
  reach_low_ = ComputeReachableLow(graph, fwd);

  const Digraph reversed = graph.Reverse();
  const IntervalForest bwd = BuildIntervalForest(reversed, std::nullopt);
  rpost_ = bwd.post;
  rsubtree_low_ = bwd.subtree_low;
  rreach_low_ = ComputeReachableLow(reversed, bwd);

  fwd_level_ = ForwardLevels(graph);
  bwd_level_ = BackwardLevels(graph);
}

int Preach::FilterVerdict(VertexId s, VertexId t) const {
  if (s == t) return 1;
  // Positive: spanning-tree subtree containment, either direction.
  if (subtree_low_[s] <= post_[t] && post_[t] <= post_[s]) return 1;
  if (rsubtree_low_[t] <= rpost_[s] && rpost_[s] <= rpost_[t]) return 1;
  // Negative: topological levels.
  if (fwd_level_[s] >= fwd_level_[t]) return -1;
  if (bwd_level_[s] <= bwd_level_[t]) return -1;
  // Negative: reachable-set post-order ranges. s -> t needs
  // post[t] in [reach_low(s), post(s)] and rpost[s] in
  // [rreach_low(t), rpost(t)].
  if (post_[t] < reach_low_[s] || post_[t] > post_[s]) return -1;
  if (rpost_[s] < rreach_low_[t] || rpost_[s] > rpost_[t]) return -1;
  return 0;
}

bool Preach::QueryInSlot(VertexId s, VertexId t, size_t slot) const {
  SearchWorkspace& ws = Workspace(slot);
  const auto to_t = [&](VertexId v) { return FilterVerdict(v, t); };
  return GuidedQuery(s, t, ws, graph_->NumVertices(), to_t, [&] {
    return GuidedBiBfs(s, t, ws, OutArcs(*graph_), InArcs(*graph_), to_t,
                       [&](VertexId v) { return FilterVerdict(s, v); });
  });
}

size_t Preach::IndexSizeBytes() const {
  return (post_.size() + subtree_low_.size() + reach_low_.size() +
          rpost_.size() + rsubtree_low_.size() + rreach_low_.size() +
          fwd_level_.size() + bwd_level_.size()) *
         sizeof(uint32_t);
}

}  // namespace reach
