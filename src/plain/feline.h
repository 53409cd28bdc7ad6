#ifndef REACH_PLAIN_FELINE_H_
#define REACH_PLAIN_FELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/reachability_index.h"
#include "core/workspace_pool.h"
#include "graph/digraph.h"

namespace reach {

/// Feline [45] (paper §3.4): reachability via two-dimensional dominance
/// coordinates — a "fast refined online search" partial index.
///
/// Each vertex gets coordinates (x, y) from two different topological
/// orders (ours differ by opposite tie-breaking, approximating Feline's
/// heuristic of maximally disagreeing orders). s reaches t only if s
/// dominates t in both coordinates (x(s) < x(t) and y(s) < y(t)); a
/// violation proves unreachability with just two integer comparisons.
/// Dominance-consistent queries fall back to `GuidedDfs`
/// (traversal/guided_search.h) pruned by the same dominance test (plus
/// forward topological levels).
///
/// Index size is only 3 x 4 bytes per vertex. Input must be a DAG.
class Feline : public PooledSearchIndex<Feline, ReachabilityIndex> {
 public:
  Feline() = default;

  void Build(const Digraph& graph) override;
  bool QueryInSlot(VertexId s, VertexId t, size_t slot) const override;
  size_t IndexSizeBytes() const override;
  bool IsComplete() const override { return false; }
  std::string Name() const override { return "feline"; }

  /// Pure dominance filter: true = maybe reachable, false = certainly not.
  bool MaybeReachable(VertexId s, VertexId t) const {
    if (s == t) return true;
    return x_[s] < x_[t] && y_[s] < y_[t] && level_[s] < level_[t];
  }

 private:
  const Digraph* graph_ = nullptr;
  std::vector<uint32_t> x_;
  std::vector<uint32_t> y_;
  std::vector<uint32_t> level_;
};

}  // namespace reach

#endif  // REACH_PLAIN_FELINE_H_
