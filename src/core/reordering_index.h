#ifndef REACH_CORE_REORDERING_INDEX_H_
#define REACH_CORE_REORDERING_INDEX_H_

#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "core/reachability_index.h"
#include "graph/reorder.h"

namespace reach {

/// Builds the wrapped index on a locality-renumbered copy of the graph
/// (docs/QUERY_ENGINE.md) and translates vertex ids at the query boundary,
/// so callers keep speaking the original numbering. The renumbering is
/// purely an in-memory layout optimization: answers are identical for any
/// strategy because reachability is invariant under vertex relabeling.
///
/// The write surface passes through the same translation: `ApplyUpdate`
/// renames each update's endpoints and forwards the batch, so a dynamic
/// inner index stays dynamic behind the wrapper (`DynamicReorderingIndex`,
/// with capability flags following the inner index).
///
/// Opt-in via `reach_cli --reorder=deg|bfs|none`.
template <typename Base>
class BasicReorderingIndex : public Base {
 public:
  /// Takes ownership of the index to wrap. For the dynamic instantiation
  /// the inner index must be a `DynamicReachabilityIndex`.
  BasicReorderingIndex(std::unique_ptr<ReachabilityIndex> inner,
                       ReorderStrategy strategy)
      : inner_(std::move(inner)), strategy_(strategy) {
    inner_dynamic_ = dynamic_cast<DynamicReachabilityIndex*>(inner_.get());
  }

  void Build(const Digraph& graph) override {
    BuildStatsScope build(&this->build_stats_);
    {
      BuildPhaseTimer timer(&this->build_stats_.phases, "reorder");
      auto perm = std::make_shared<const VertexPermutation>(
          ComputeReordering(graph, strategy_));
      relabeled_ =
          std::make_shared<const Digraph>(RelabelDigraph(graph, *perm));
      perm_ = std::move(perm);
    }
    inner_->Build(*relabeled_);
    // Absorb the wrapped build's breakdown so `Stats()` shows the whole
    // pipeline (reorder -> inner phases).
    const IndexStats& inner_stats = inner_->Stats();
    this->build_stats_.phases.insert(this->build_stats_.phases.end(),
                                     inner_stats.phases.begin(),
                                     inner_stats.phases.end());
    this->build_stats_.size_bytes = IndexSizeBytes();
    this->build_stats_.num_entries = inner_stats.num_entries;
  }

  /// Renames each update's endpoints into the relabeled numbering and
  /// forwards the batch. Overrides `DynamicReachabilityIndex::ApplyUpdate`
  /// in the dynamic instantiation; must not be called on a non-dynamic
  /// inner index.
  UpdateResult ApplyUpdate(const UpdateBatch& batch) {
    if (inner_dynamic_ == nullptr) {
      return UpdateResult::Rejected("inner index is not dynamic");
    }
    // Out-of-range endpoints are rejected here (validate-first) because
    // ToNew cannot translate them.
    const VertexId n = static_cast<VertexId>(perm_->old_to_new.size());
    UpdateBatch renamed;
    renamed.reserve(batch.size());
    for (const EdgeUpdate& update : batch) {
      if (update.source >= n || update.target >= n) {
        return UpdateResult::Rejected("endpoint out of range");
      }
      renamed.push_back(EdgeUpdate{update.kind, perm_->ToNew(update.source),
                                   perm_->ToNew(update.target)});
    }
    return inner_dynamic_->ApplyUpdate(renamed);
  }

  /// Follows the wrapped index (dynamic instantiation only).
  bool SupportsDeletions() const {
    return inner_dynamic_ != nullptr && inner_dynamic_->SupportsDeletions();
  }

  bool RebuildFromUpdates() {
    return inner_dynamic_ != nullptr && inner_dynamic_->RebuildFromUpdates();
  }
  RebuildRent Rent() const {
    return inner_dynamic_ == nullptr ? RebuildRent{} : inner_dynamic_->Rent();
  }

  /// A copy over a copy of the wrapped index that shares the permutation
  /// and the relabeled graph (the wrapped copy points into it). Null when
  /// the wrapped index has no copy. Overrides
  /// `DynamicReachabilityIndex::Clone` in the dynamic instantiation.
  std::unique_ptr<DynamicReachabilityIndex> Clone() const {
    if constexpr (std::is_same_v<Base, DynamicReachabilityIndex>) {
      std::unique_ptr<DynamicReachabilityIndex> inner = inner_dynamic_->Clone();
      if (inner == nullptr) return nullptr;
      auto copy = std::make_unique<BasicReorderingIndex>(std::move(inner),
                                                         strategy_);
      copy->perm_ = perm_;
      copy->relabeled_ = relabeled_;
      copy->build_stats_ = this->build_stats_;
      return copy;
    } else {
      return nullptr;
    }
  }

  /// The wrapped index's live graph in the original numbering (dynamic
  /// instantiation only).
  std::unique_ptr<Digraph> LiveGraph() const {
    std::unique_ptr<Digraph> live =
        inner_dynamic_ == nullptr ? nullptr : inner_dynamic_->LiveGraph();
    if (live == nullptr) return nullptr;
    const VertexPermutation back{perm_->new_to_old, perm_->old_to_new};
    return std::make_unique<Digraph>(RelabelDigraph(*live, back));
  }

  bool Query(VertexId s, VertexId t) const override {
    return inner_->Query(perm_->ToNew(s), perm_->ToNew(t));
  }

  size_t PrepareConcurrentQueries(size_t slots) const override {
    return inner_->PrepareConcurrentQueries(slots);
  }

  bool QueryInSlot(VertexId s, VertexId t, size_t slot) const override {
    return inner_->QueryInSlot(perm_->ToNew(s), perm_->ToNew(t), slot);
  }

  /// Inner index plus the two permutation arrays; the relabeled graph copy
  /// is a build artifact, not index state, and is excluded (matching how
  /// indexes never count their input graph).
  size_t IndexSizeBytes() const override {
    return inner_->IndexSizeBytes() +
           (perm_->old_to_new.size() + perm_->new_to_old.size()) *
               sizeof(VertexId);
  }

  bool IsComplete() const override { return inner_->IsComplete(); }

  std::string Name() const override {
    return "reorder(" + ReorderStrategyName(strategy_) + ")+" +
           inner_->Name();
  }

  QueryProbe Probe() const override { return inner_->Probe(); }
  void ResetProbe() const override { inner_->ResetProbe(); }

  /// The wrapped index (e.g., to inspect its stats).
  const ReachabilityIndex& inner() const { return *inner_; }

  /// The permutation computed by the last `Build()`.
  const VertexPermutation& permutation() const { return *perm_; }

 private:
  std::unique_ptr<ReachabilityIndex> inner_;
  DynamicReachabilityIndex* inner_dynamic_ = nullptr;  // null if static
  ReorderStrategy strategy_;
  // Immutable once built; shared with copies.
  std::shared_ptr<const VertexPermutation> perm_ =
      std::make_shared<const VertexPermutation>();
  std::shared_ptr<const Digraph> relabeled_;
};

using ReorderingIndex = BasicReorderingIndex<ReachabilityIndex>;
using DynamicReorderingIndex = BasicReorderingIndex<DynamicReachabilityIndex>;

}  // namespace reach

#endif  // REACH_CORE_REORDERING_INDEX_H_
