#ifndef REACH_PLAIN_IP_LABEL_H_
#define REACH_PLAIN_IP_LABEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/reachability_index.h"
#include "core/workspace_pool.h"
#include "graph/digraph.h"

namespace reach {

/// IP [46, 47] (paper §3.3): the independent-permutation approximate
/// transitive closure.
///
/// AP(Out(v)) keeps the k smallest values of a random permutation π applied
/// to v's reachable set; AP(In(v)) dually. If s reaches t then
/// Out(t) ⊆ Out(s), so every element of AP(Out(t)) small enough to belong
/// among AP(Out(s))'s k minima must appear there — the contra-positive
/// rejects with certainty and never produces false negatives. Undecided
/// queries (plus a topological-level precheck) fall back to `GuidedDfs`
/// (traversal/guided_search.h), which prunes every vertex the filter rules
/// out against t.
///
/// Input must be a DAG (wrap in `SccCondensingIndex`).
class IpLabel : public PooledSearchIndex<IpLabel, ReachabilityIndex> {
 public:
  explicit IpLabel(size_t k = 4, uint64_t seed = 0x69'70ULL)
      : k_(k < 1 ? 1 : k), seed_(seed) {}

  void Build(const Digraph& graph) override;
  bool QueryInSlot(VertexId s, VertexId t, size_t slot) const override;
  size_t IndexSizeBytes() const override;
  bool IsComplete() const override { return false; }
  std::string Name() const override {
    return "ip(k=" + std::to_string(k_) + ")";
  }

  /// Pure label test: true = maybe reachable, false = certainly not.
  bool MaybeReachable(VertexId s, VertexId t) const;

 private:
  std::span<const uint32_t> OutMin(VertexId v) const {
    return {out_min_.data() + out_offsets_[v],
            out_min_.data() + out_offsets_[v + 1]};
  }
  std::span<const uint32_t> InMin(VertexId v) const {
    return {in_min_.data() + in_offsets_[v],
            in_min_.data() + in_offsets_[v + 1]};
  }

  size_t k_;
  uint64_t seed_;
  const Digraph* graph_ = nullptr;
  // k-min sets in CSR layout (sorted ascending per vertex).
  std::vector<size_t> out_offsets_, in_offsets_;
  std::vector<uint32_t> out_min_, in_min_;
  std::vector<uint32_t> fwd_level_, bwd_level_;
};

}  // namespace reach

#endif  // REACH_PLAIN_IP_LABEL_H_
