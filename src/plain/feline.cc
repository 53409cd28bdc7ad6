#include "plain/feline.h"

#include "graph/topological.h"
#include "traversal/guided_search.h"

namespace reach {

void Feline::Build(const Digraph& graph) {
  ResetProbe();
  graph_ = &graph;
  x_ = RankOf(*TopologicalOrder(graph));
  y_ = RankOf(*TopologicalOrderReverseTies(graph));
  level_ = ForwardLevels(graph);
}

bool Feline::QueryInSlot(VertexId s, VertexId t, size_t slot) const {
  SearchWorkspace& ws = Workspace(slot);
  const auto verdict = [&](VertexId v) {
    return MaybeReachable(v, t) ? 0 : -1;
  };
  return GuidedQuery(s, t, ws, graph_->NumVertices(), verdict, [&] {
    return GuidedDfs(s, t, ws, OutArcs(*graph_), verdict);
  });
}

size_t Feline::IndexSizeBytes() const {
  return (x_.size() + y_.size() + level_.size()) * sizeof(uint32_t);
}

}  // namespace reach
