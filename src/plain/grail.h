#ifndef REACH_PLAIN_GRAIL_H_
#define REACH_PLAIN_GRAIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/reachability_index.h"
#include "core/workspace_pool.h"
#include "graph/digraph.h"

namespace reach {

/// GRAIL [50] (paper §3.1): a *partial* tree-cover index recording exactly
/// k intervals per vertex, one from each of k random DFS traversals.
///
/// Traversal i assigns post-order ranks post_i and the reachable-set floor
/// low_i[v] = min rank over every vertex reachable from v. For a DAG,
/// s reaches t implies [low_i(t), post_i(t)] ⊆ [low_i(s), post_i(s)] in
/// every traversal. The contrapositive gives a *no-false-negative* filter:
/// any containment violation proves unreachability. Containment in all k
/// traversals is only "maybe": the query falls back to `GuidedDfs`
/// (traversal/guided_search.h), whose verdict prunes every vertex whose
/// intervals do not contain t's.
///
/// Build time and size are O(k (V + E)) — the linear scalability the survey
/// credits for making indexes feasible on graphs with millions of vertices.
/// Input must be a DAG (wrap in `SccCondensingIndex`).
class Grail : public PooledSearchIndex<Grail, ReachabilityIndex> {
 public:
  /// `k` random traversals; `seed` drives their shuffles. `num_threads`
  /// parallelizes the traversals on the shared pool (the §5 "parallel
  /// computation of indexes" direction): each of the k label columns is
  /// independent, so the build is embarrassingly parallel and
  /// bit-identical to the serial one for the same seed. 0 =
  /// `DefaultThreads()`, 1 = serial.
  explicit Grail(size_t k = 3, uint64_t seed = 0x67'72'61'69ULL,
                 size_t num_threads = 0)
      : k_(k), seed_(seed), num_threads_(num_threads) {}

  void Build(const Digraph& graph) override;
  bool QueryInSlot(VertexId s, VertexId t, size_t slot) const override;
  size_t IndexSizeBytes() const override;
  bool IsComplete() const override { return false; }
  std::string Name() const override {
    return "grail(k=" + std::to_string(k_) + ")";
  }

  /// The pure label test: true = maybe reachable, false = certainly not.
  /// Exposed so tests/benches can measure the filter's false-positive rate
  /// (it must never have false negatives). Counts nothing.
  bool MaybeReachable(VertexId s, VertexId t) const {
    QueryProbe uncounted;
    return MaybeReachableCounted(s, t, uncounted);
  }

 private:
  bool MaybeReachableCounted(VertexId s, VertexId t, QueryProbe& probe) const;

  size_t k_;
  uint64_t seed_;
  size_t num_threads_;
  const Digraph* graph_ = nullptr;
  // Labels for traversal i of vertex v at [v * k_ + i].
  std::vector<uint32_t> post_;
  std::vector<uint32_t> low_;
};

}  // namespace reach

#endif  // REACH_PLAIN_GRAIL_H_
