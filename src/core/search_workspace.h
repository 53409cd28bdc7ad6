#ifndef REACH_CORE_SEARCH_WORKSPACE_H_
#define REACH_CORE_SEARCH_WORKSPACE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "obs/query_probe.h"

namespace reach {

/// Reusable visited-marks + queue storage for repeated graph traversals.
///
/// Clearing a visited array per query is O(V); with millions of queries on
/// large graphs that dominates. The workspace instead stamps each mark
/// with an epoch counter and bumps the epoch per traversal, making "clear"
/// O(1). Two independent mark sets are provided so bidirectional searches
/// can stamp the forward and backward frontiers separately.
class SearchWorkspace {
 public:
  SearchWorkspace() = default;

  /// Ensures capacity for graphs with `num_vertices` vertices and resets
  /// both mark sets.
  void Prepare(size_t num_vertices) { Reset(num_vertices, num_vertices); }

  /// `Prepare` for a search that marks only forward: the backward set is
  /// not grown, so a workspace kept for such searches holds 4 bytes per
  /// vertex. `MarkBackward` is out of bounds until the next `Prepare`.
  void PrepareForward(size_t num_vertices) { Reset(num_vertices, 0); }

  /// Marks `v` in the forward set; returns false if already marked.
  bool MarkForward(VertexId v) {
    if (forward_marks_[v] == epoch_) return false;
    forward_marks_[v] = epoch_;
    return true;
  }

  /// True iff `v` is marked in the forward set this epoch.
  bool IsForwardMarked(VertexId v) const { return forward_marks_[v] == epoch_; }

  /// Marks `v` in the backward set; returns false if already marked.
  bool MarkBackward(VertexId v) {
    if (backward_marks_[v] == epoch_) return false;
    backward_marks_[v] = epoch_;
    return true;
  }

  /// True iff `v` is marked in the backward set this epoch.
  bool IsBackwardMarked(VertexId v) const {
    return backward_marks_[v] == epoch_;
  }

  /// Scratch FIFO/stack for the forward frontier.
  std::vector<VertexId>& queue() { return queue_; }

  /// Scratch FIFO/stack for the backward frontier.
  std::vector<VertexId>& backward_queue() { return backward_queue_; }

  /// Query instrumentation carried alongside the traversal scratch state:
  /// the traversal helpers and every index that guides a search through
  /// this workspace record into the same probe (plain increments via the
  /// REACH_PROBE_* macros). Not reset by `Prepare` — it accumulates across
  /// queries until the owner resets it.
  QueryProbe& probe() { return probe_; }
  const QueryProbe& probe() const { return probe_; }

 private:
  // Grows the mark sets to at least `forward` and `backward` entries and
  // starts a new epoch. Growing either restamps both, so no stale stamp
  // can equal a later epoch.
  void Reset(size_t forward, size_t backward) {
    if (forward_marks_.size() < forward || backward_marks_.size() < backward) {
      forward_marks_.assign(std::max(forward, forward_marks_.size()), 0);
      backward_marks_.assign(std::max(backward, backward_marks_.size()), 0);
      epoch_ = 0;
    }
    ++epoch_;
    if (epoch_ == 0) {  // wrapped: do the O(V) clear once per 2^32 queries
      forward_marks_.assign(forward_marks_.size(), 0);
      backward_marks_.assign(backward_marks_.size(), 0);
      epoch_ = 1;
    }
    queue_.clear();
    backward_queue_.clear();
  }

  std::vector<uint32_t> forward_marks_;
  std::vector<uint32_t> backward_marks_;
  uint32_t epoch_ = 0;
  std::vector<VertexId> queue_;
  std::vector<VertexId> backward_queue_;
  QueryProbe probe_;
};

}  // namespace reach

#endif  // REACH_CORE_SEARCH_WORKSPACE_H_
