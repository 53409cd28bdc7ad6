#ifndef REACH_PLAIN_PREACH_H_
#define REACH_PLAIN_PREACH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/reachability_index.h"
#include "core/workspace_pool.h"
#include "graph/digraph.h"

namespace reach {

/// PReaCH-inspired index (Merz & Sanders [31], paper §3.4): "pruning and
/// contraction hierarchies". This implementation keeps PReaCH's pruning
/// machinery — DFS numbering with positive and negative certificates — and
/// substitutes a pruned bidirectional BFS for the contraction hierarchy
/// (documented in DESIGN.md):
///
///  * positive certificate: t inside s's DFS subtree interval (forward),
///    or s inside t's subtree interval on the reversed graph (backward);
///  * negative certificates: post[t] must lie in [min_post(s), post(s)],
///    the post-order range of s's *full reachable set* (and dually on the
///    reversed graph); forward/backward topological levels must increase.
///
/// Undecided queries run `GuidedBiBfs` (traversal/guided_search.h),
/// applying all certificates to every frontier vertex. Input must be a
/// DAG.
class Preach : public PooledSearchIndex<Preach, ReachabilityIndex> {
 public:
  Preach() = default;

  void Build(const Digraph& graph) override;
  bool QueryInSlot(VertexId s, VertexId t, size_t slot) const override;
  size_t IndexSizeBytes() const override;
  bool IsComplete() const override { return false; }
  std::string Name() const override { return "preach"; }

  /// Pure-certificate verdict: +1 reachable, -1 unreachable, 0 undecided.
  int FilterVerdict(VertexId s, VertexId t) const;

 private:
  const Digraph* graph_ = nullptr;
  // Forward DFS labels.
  std::vector<uint32_t> post_, subtree_low_, reach_low_;
  // Same labels on the reversed graph.
  std::vector<uint32_t> rpost_, rsubtree_low_, rreach_low_;
  std::vector<uint32_t> fwd_level_, bwd_level_;
};

}  // namespace reach

#endif  // REACH_PLAIN_PREACH_H_
