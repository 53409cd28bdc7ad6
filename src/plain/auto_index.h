#ifndef REACH_PLAIN_AUTO_INDEX_H_
#define REACH_PLAIN_AUTO_INDEX_H_

#include <memory>
#include <string>

#include "core/reachability_index.h"
#include "graph/graph_stats.h"

namespace reach {

/// The survey's Table 1, codified as an advisor: inspects the graph's
/// statistics and picks a reachability index, the way §5 envisions a
/// GDBMS optimizer would.
///
/// Heuristics (each mirrors a finding the benchmarks reproduce):
///  * tree-like input (edges ≈ vertices after condensation) -> the
///    tree-cover family is exact and tiny -> "treecover";
///  * small graphs -> the complete 2-hop is affordable and gives the
///    fastest lookups -> "pll";
///  * large and shallow/dense -> linear-build partial indexes with
///    no-false-negative filters dominate -> "bfl";
///  * large and deep (big condensation depth) -> interval filters excel
///    at rejecting, guided search stays cheap -> "grail".
struct IndexChoice {
  std::string spec;       // MakeIndex spec, e.g. "bfl"
  std::string rationale;  // one-line explanation
};

/// Picks a spec for `stats` (see class comment for the rules).
IndexChoice ChoosePlainIndexSpec(const GraphStats& stats);

/// Convenience facade: computes stats, picks, builds. The chosen index and
/// rationale are inspectable.
class AutoIndex : public ReachabilityIndex {
 public:
  AutoIndex() = default;

  void Build(const Digraph& graph) override;
  bool Query(VertexId s, VertexId t) const override {
    return chosen_->Query(s, t);
  }
  size_t IndexSizeBytes() const override {
    return chosen_->IndexSizeBytes();
  }
  bool IsComplete() const override {
    return chosen_ != nullptr && chosen_->IsComplete();
  }
  std::string Name() const override {
    return "auto[" + (chosen_ ? chosen_->Name() : std::string("?")) + "]";
  }
  QueryProbe Probe() const override {
    return chosen_ ? chosen_->Probe() : QueryProbe{};
  }
  void ResetProbe() const override {
    if (chosen_) chosen_->ResetProbe();
  }

  /// The decision made by the last Build.
  const IndexChoice& choice() const { return choice_; }
  const GraphStats& stats() const { return stats_; }

 private:
  GraphStats stats_;
  IndexChoice choice_;
  std::unique_ptr<ReachabilityIndex> chosen_;
};

}  // namespace reach

#endif  // REACH_PLAIN_AUTO_INDEX_H_
