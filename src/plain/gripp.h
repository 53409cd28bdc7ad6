#ifndef REACH_PLAIN_GRIPP_H_
#define REACH_PLAIN_GRIPP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/reachability_index.h"
#include "core/workspace_pool.h"
#include "graph/digraph.h"

namespace reach {

/// GRIPP (Trißl & Leser [43], paper §3.1): a partial tree-cover index that
/// works directly on *general* graphs (the only tree-cover row of Table 1
/// with Input = General).
///
/// The graph is unrolled into an *instance tree* by a DFS in which every
/// edge creates an instance of its target: the first visit of a vertex
/// creates its expanded *tree instance* (whose subtree is explored); every
/// later encounter creates a leaf *non-tree instance* (a "hop node").
/// Instances carry pre/post intervals. A vertex u reaches v iff some
/// instance of v lies in u's tree-instance interval, or transitively in
/// the tree interval of a vertex whose non-tree instance lies there — the
/// query processes intervals through hop nodes, which is why the survey
/// classifies GRIPP as partial: "it requires graph traversal if the
/// partial index returns false". Positive hits inside the first interval
/// are instant; there are no false positives at any stage. The hop
/// processing is `GuidedBfs` (traversal/guided_search.h) over the
/// instance tree: a vertex's neighbours are the hop vertices inside its
/// tree interval, and its verdict is positive when an instance of t lies
/// there.
///
/// Index size is O(V + E) instances regardless of graph shape.
class Gripp : public PooledSearchIndex<Gripp, ReachabilityIndex> {
 public:
  Gripp() = default;

  void Build(const Digraph& graph) override;
  bool QueryInSlot(VertexId s, VertexId t, size_t slot) const override;
  size_t IndexSizeBytes() const override;
  bool IsComplete() const override { return false; }
  std::string Name() const override { return "gripp"; }

  /// Number of instance-tree nodes (|V| tree + |non-tree| hop instances).
  size_t NumInstances() const {
    return num_vertices_ + hop_order_.size();
  }

 private:
  struct TreeInstance {
    uint32_t pre = 0;
    uint32_t post = 0;
  };
  struct HopInstance {
    uint32_t pre = 0;   // position in the instance tree
    VertexId vertex = 0;
  };

  size_t num_vertices_ = 0;
  // Tree instance (unique) per vertex; vertices never reached from a DFS
  // root still get one (every vertex starts a DFS if unvisited).
  std::vector<TreeInstance> tree_;
  // Hop (non-tree) instances sorted by pre order, for range scans.
  std::vector<HopInstance> hop_order_;
  // For "is any instance of t inside [a, b]": per-vertex sorted list of
  // all instance pre positions (tree + hop), CSR layout.
  std::vector<size_t> instance_offsets_;
  std::vector<uint32_t> instance_pres_;
};

}  // namespace reach

#endif  // REACH_PLAIN_GRIPP_H_
