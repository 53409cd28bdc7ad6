#ifndef REACH_TRAVERSAL_ONLINE_SEARCH_H_
#define REACH_TRAVERSAL_ONLINE_SEARCH_H_

#include <cstddef>
#include <string>

#include "core/reachability_index.h"
#include "core/search_workspace.h"
#include "core/workspace_pool.h"
#include "graph/digraph.h"

namespace reach {

/// The index-free baselines of paper §2.3: plain reachability by online
/// traversal. Each function optionally reports the number of vertices
/// visited (the "visits a large portion of the graph" cost the survey
/// motivates indexes with).

/// Breadth-first search from `s`; true iff `t` is reached.
bool BfsReachability(const Digraph& graph, VertexId s, VertexId t,
                     SearchWorkspace& ws, size_t* visited = nullptr);

/// Iterative depth-first search from `s`; true iff `t` is reached.
/// `GuidedDfs` (traversal/guided_search.h) with a verdict that always
/// answers maybe.
bool DfsReachability(const Digraph& graph, VertexId s, VertexId t,
                     SearchWorkspace& ws, size_t* visited = nullptr);

/// Bidirectional BFS: alternately expands the smaller of the forward
/// frontier from `s` and the backward frontier from `t` until they meet.
bool BiBfsReachability(const Digraph& graph, VertexId s, VertexId t,
                       SearchWorkspace& ws, size_t* visited = nullptr);

/// Which traversal an `OnlineSearch` baseline uses.
enum class TraversalKind { kBfs, kDfs, kBiBfs };

/// Adapter exposing the online-traversal baselines through the
/// `ReachabilityIndex` interface so benches and tests can treat them
/// uniformly (index size 0; "partial" by definition — it is all traversal).
class OnlineSearch : public PooledSearchIndex<OnlineSearch, ReachabilityIndex> {
 public:
  explicit OnlineSearch(TraversalKind kind) : kind_(kind) {}

  void Build(const Digraph& graph) override;
  bool QueryInSlot(VertexId s, VertexId t, size_t slot) const override;
  size_t IndexSizeBytes() const override { return 0; }
  bool IsComplete() const override { return false; }
  std::string Name() const override;

 private:
  TraversalKind kind_;
  const Digraph* graph_ = nullptr;
};

}  // namespace reach

#endif  // REACH_TRAVERSAL_ONLINE_SEARCH_H_
