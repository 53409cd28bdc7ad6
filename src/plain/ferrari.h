#ifndef REACH_PLAIN_FERRARI_H_
#define REACH_PLAIN_FERRARI_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/reachability_index.h"
#include "core/workspace_pool.h"
#include "graph/digraph.h"

namespace reach {

/// FERRARI [40] (paper §3.1): a *partial* tree-cover index recording *at
/// most* k intervals per vertex.
///
/// The construction starts from the exact interval-inheritance of the
/// tree-cover index. Whenever a vertex would exceed its budget of k
/// intervals, the two neighbors with the smallest gap are merged even
/// though they are not adjacent, producing an *approximate* interval that
/// also covers the (unreachable) gap. Hence three query outcomes against
/// s's interval list:
///  * post[t] in no interval        -> certainly unreachable (no false
///                                     negatives — coverage only grows),
///  * post[t] in an exact interval  -> certainly reachable,
///  * post[t] in an approximate one -> maybe; fall back to `GuidedDfs`
///    (traversal/guided_search.h) with the same three-way verdict, which
///    prunes vertices whose intervals exclude t and accepts early on any
///    exact hit.
///
/// Input must be a DAG (wrap in `SccCondensingIndex`).
class Ferrari : public PooledSearchIndex<Ferrari, ReachabilityIndex> {
 public:
  /// At most `k` intervals per vertex (k >= 1). `num_threads`
  /// parallelizes interval inheritance over dependency levels of the DAG
  /// (each vertex's list depends only on its successors' finished lists,
  /// so the result is bit-identical to a serial build). 0 =
  /// `DefaultThreads()`, 1 = serial.
  explicit Ferrari(size_t k = 4, size_t num_threads = 0)
      : k_(k < 1 ? 1 : k), num_threads_(num_threads) {}

  void Build(const Digraph& graph) override;
  bool QueryInSlot(VertexId s, VertexId t, size_t slot) const override;
  size_t IndexSizeBytes() const override;
  bool IsComplete() const override { return false; }
  std::string Name() const override {
    return "ferrari(k=" + std::to_string(k_) + ")";
  }

  /// Pure label test: true = covered by some interval (maybe reachable),
  /// false = certainly unreachable. Never a false negative. Counts
  /// nothing.
  bool MaybeReachable(VertexId s, VertexId t) const {
    QueryProbe uncounted;
    return s == t || Verdict(s, post_[t], uncounted) >= 0;
  }

  /// Total stored intervals (<= k * V by construction).
  size_t TotalIntervals() const { return intervals_.size(); }

  /// Fraction of stored intervals that are exact (1.0 = degenerated to the
  /// full tree-cover index; lower = more approximation pressure).
  double ExactFraction() const;

 private:
  struct Interval {
    uint32_t begin;
    uint32_t end;
    bool exact;
  };

  // post[t] against v's interval list: -1 = not covered (unreachable),
  // 0 = covered approximately (maybe), +1 = covered exactly (reachable).
  int Verdict(VertexId v, uint32_t target_post, QueryProbe& probe) const;

  size_t k_;
  size_t num_threads_;
  const Digraph* graph_ = nullptr;
  std::vector<uint32_t> post_;
  std::vector<size_t> offsets_;
  std::vector<Interval> intervals_;
};

}  // namespace reach

#endif  // REACH_PLAIN_FERRARI_H_
