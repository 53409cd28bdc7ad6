#include "plain/oreach.h"

#include "traversal/guided_search.h"

namespace reach {

void OReach::Build(const Digraph& graph) {
  ResetProbe();
  graph_ = &graph;
  stack_.Build(graph);
}

bool OReach::QueryInSlot(VertexId s, VertexId t, size_t slot) const {
  SearchWorkspace& ws = Workspace(slot);
  const auto to_t = [&](VertexId v) { return stack_.Verdict(v, t); };
  return GuidedQuery(s, t, ws, graph_->NumVertices(), to_t, [&] {
    return GuidedBiBfs(s, t, ws, OutArcs(*graph_), InArcs(*graph_), to_t,
                       [&](VertexId v) { return stack_.Verdict(s, v); });
  });
}

}  // namespace reach
