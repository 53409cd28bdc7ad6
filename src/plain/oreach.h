#ifndef REACH_PLAIN_OREACH_H_
#define REACH_PLAIN_OREACH_H_

#include <string>

#include "core/observation_stack.h"
#include "core/reachability_index.h"
#include "core/workspace_pool.h"
#include "graph/digraph.h"

namespace reach {

/// O'Reach [18] (paper §3.2): a *partial* 2-hop-style index built from k
/// selected "supportive" vertices plus topological-order observations.
///
/// The constant-time filters — supportive-vertex signatures, two
/// topological ranks, forward/backward levels, and DFS-interval
/// containment — are the shared `ObservationStack`
/// (core/observation_stack.h), configured with k supportive vertices and
/// no anti vertices to match the historical O'Reach support selection.
/// Undecided queries fall back to `GuidedBiBfs`
/// (traversal/guided_search.h): every traversal candidate is re-screened
/// through the stack's verdict, so the search front stays inside the
/// undecided band.
///
/// Input must be a DAG (wrap in `SccCondensingIndex`; the stack itself
/// condenses internally, but the guided BFS walks the input graph).
class OReach : public PooledSearchIndex<OReach, ReachabilityIndex> {
 public:
  explicit OReach(size_t num_supports = 32)
      : num_supports_(num_supports > 64 ? 64 : num_supports),
        stack_(ObservationStack::Options{
            /*.num_supports =*/num_supports > 64 ? 64 : num_supports,
            /*.num_anti =*/0}) {}

  void Build(const Digraph& graph) override;
  bool QueryInSlot(VertexId s, VertexId t, size_t slot) const override;
  size_t IndexSizeBytes() const override { return stack_.SizeBytes(); }
  bool IsComplete() const override { return false; }
  std::string Name() const override {
    return "oreach(k=" + std::to_string(num_supports_) + ")";
  }

  /// Pure-filter verdict: +1 reachable, -1 unreachable, 0 undecided.
  int FilterVerdict(VertexId s, VertexId t) const {
    return stack_.Verdict(s, t);
  }

 private:
  size_t num_supports_;
  const Digraph* graph_ = nullptr;
  ObservationStack stack_;
};

}  // namespace reach

#endif  // REACH_PLAIN_OREACH_H_
