#include "traversal/online_search.h"

#include "traversal/guided_search.h"

namespace reach {

bool BfsReachability(const Digraph& graph, VertexId s, VertexId t,
                     SearchWorkspace& ws, size_t* visited) {
  size_t count = 1;
  bool found = (s == t);
  if (!found) {
    ws.Prepare(graph.NumVertices());
    ws.MarkForward(s);
    auto& queue = ws.queue();
    queue.push_back(s);
    for (size_t head = 0; head < queue.size() && !found; ++head) {
      for (VertexId w : graph.OutNeighbors(queue[head])) {
        REACH_PROBE_INC(ws.probe(), edges_scanned);
        if (w == t) {
          found = true;
          break;
        }
        if (ws.MarkForward(w)) {
          queue.push_back(w);
          ++count;
        }
      }
    }
  }
  REACH_PROBE_ADD(ws.probe(), vertices_visited, count);
  if (visited != nullptr) *visited = count;
  return found;
}

bool DfsReachability(const Digraph& graph, VertexId s, VertexId t,
                     SearchWorkspace& ws, size_t* visited) {
  size_t discovered = 1;
  ws.Prepare(graph.NumVertices());
  const bool found = GuidedDfs(s, t, ws, OutArcs(graph), [&](VertexId) {
                       ++discovered;
                       return 0;
                     }) > 0;
  if (visited != nullptr) *visited = discovered;
  return found;
}

bool BiBfsReachability(const Digraph& graph, VertexId s, VertexId t,
                       SearchWorkspace& ws, size_t* visited) {
  if (s == t) {
    if (visited != nullptr) *visited = 1;
    return true;
  }
  ws.Prepare(graph.NumVertices());
  auto& fwd = ws.queue();
  auto& bwd = ws.backward_queue();
  ws.MarkForward(s);
  ws.MarkBackward(t);
  fwd.push_back(s);
  bwd.push_back(t);
  size_t fwd_head = 0, bwd_head = 0;
  size_t count = 2;
  size_t fwd_work = graph.OutDegree(s);  // pending arcs in each frontier
  size_t bwd_work = graph.InDegree(t);
  bool found = false;

  // Expand the cheaper unexplored frontier (by pending arc count) one full
  // level at a time.
  while (!found && fwd_head < fwd.size() && bwd_head < bwd.size()) {
    const bool expand_forward = fwd_work <= bwd_work;
    if (expand_forward) {
      const size_t level_end = fwd.size();
      fwd_work = 0;
      for (; fwd_head < level_end && !found; ++fwd_head) {
        for (VertexId w : graph.OutNeighbors(fwd[fwd_head])) {
          REACH_PROBE_INC(ws.probe(), edges_scanned);
          if (ws.IsBackwardMarked(w)) {
            found = true;
            break;
          }
          if (ws.MarkForward(w)) {
            fwd.push_back(w);
            fwd_work += graph.OutDegree(w);
            ++count;
          }
        }
      }
    } else {
      const size_t level_end = bwd.size();
      bwd_work = 0;
      for (; bwd_head < level_end && !found; ++bwd_head) {
        for (VertexId w : graph.InNeighbors(bwd[bwd_head])) {
          REACH_PROBE_INC(ws.probe(), edges_scanned);
          if (ws.IsForwardMarked(w)) {
            found = true;
            break;
          }
          if (ws.MarkBackward(w)) {
            bwd.push_back(w);
            bwd_work += graph.InDegree(w);
            ++count;
          }
        }
      }
    }
  }
  REACH_PROBE_ADD(ws.probe(), vertices_visited, count);
  if (visited != nullptr) *visited = count;
  return found;
}

void OnlineSearch::Build(const Digraph& graph) {
  BuildStatsScope build(&build_stats_);
  graph_ = &graph;
  ResetProbe();
}

bool OnlineSearch::QueryInSlot(VertexId s, VertexId t, size_t slot) const {
  SearchWorkspace& ws = Workspace(slot);
  REACH_PROBE_INC(ws.probe(), queries);
  REACH_PROBE_INC(ws.probe(), fallbacks);  // index-free: always traversal
  bool result = false;
  switch (kind_) {
    case TraversalKind::kBfs:
      result = BfsReachability(*graph_, s, t, ws);
      break;
    case TraversalKind::kDfs:
      result = DfsReachability(*graph_, s, t, ws);
      break;
    case TraversalKind::kBiBfs:
      result = BiBfsReachability(*graph_, s, t, ws);
      break;
  }
  if (result) REACH_PROBE_INC(ws.probe(), positives);
  return result;
}

std::string OnlineSearch::Name() const {
  switch (kind_) {
    case TraversalKind::kBfs:
      return "bfs";
    case TraversalKind::kDfs:
      return "dfs";
    case TraversalKind::kBiBfs:
      return "bibfs";
  }
  return "online";
}

}  // namespace reach
