#ifndef REACH_PLAIN_DAGGER_H_
#define REACH_PLAIN_DAGGER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "core/reachability_index.h"
#include "core/search_workspace.h"
#include "core/workspace_pool.h"
#include "graph/arc_overlay.h"
#include "graph/digraph.h"

namespace reach {

/// DAGGER-style dynamic GRAIL (Yildirim, Chaoji & Zaki [51], paper §3.1 /
/// Table 1's dynamic tree-cover row): interval labels that survive edge
/// insertions.
///
/// Reading of the labels that makes dynamics tractable: for traversal i,
/// low_i(v) / high_i(v) are the minimum / maximum DFS post-order rank over
/// v's *entire reachable set*. On the initial (condensed) graph these are
/// exactly GRAIL's containment intervals (high_i(v) is v's own rank).
/// Because they are bounds over reachable sets, an edge insertion (u, v)
/// is repaired by *monotone propagation*: everything that reaches u takes
/// the min/max of v's bounds — a backward worklist, exactly like DBL's
/// label maintenance, and sound even when the insertion creates cycles.
/// s -> t always implies low_i(s) <= low_i(t) and high_i(t) <= high_i(s),
/// so the filter keeps its no-false-negative guarantee; precision decays
/// gradually (DAGGER's full relabeling machinery is what restores it —
/// `Build` re-tightens from scratch, documented simplification).
///
/// Deletions (`ApplyUpdate` with `kDelete`) are the mirror image and need
/// no bound surgery at all: removing an edge only *shrinks* reachable
/// sets, so the existing intervals stay valid over-approximations and the
/// filter keeps its no-false-negative guarantee — this covers SCC splits
/// too (DAGGER's hardest case: the condensation vertex merely becomes a
/// looser bound shared by the now-separate components). The deleted edge
/// goes into a tombstone set the guided DFS skips, so positives are exact
/// by construction. A bounded local search classifies each delete:
/// *locally redundant* (endpoint still reaches the other — e.g. an
/// intra-SCC chord whose SCC did not split) costs nothing; otherwise a
/// damage counter feeds the rebuild-threshold policy, because bounds only
/// ever loosen relative to the live graph until `RebuildFromUpdates` /
/// `Build` re-tightens them.
///
/// Queries: filter + `GuidedDfs` (traversal/guided_search.h) over base
/// and inserted edges minus tombstones; the delete classifier runs the
/// same kernel with a visit budget. Input may be any digraph (condensation is internal);
/// insertions may create cycles, deletions may split SCCs.
class Dagger : public PooledSearchIndex<Dagger, DynamicReachabilityIndex> {
 public:
  explicit Dagger(size_t k = 3, uint64_t seed = 0x64'61'67ULL,
                  size_t staleness_budget = kDefaultStalenessBudget)
      : k_(k < 1 ? 1 : k), seed_(seed), staleness_budget_(staleness_budget) {}

  /// Non-redundant deletes tolerated before `ApplyUpdate` starts
  /// returning `kDeferredRebuild`. 0 = unbounded.
  static constexpr size_t kDefaultStalenessBudget = 64;

  void Build(const Digraph& graph) override;
  bool QueryInSlot(VertexId s, VertexId t, size_t slot) const override;
  size_t IndexSizeBytes() const override;
  bool IsComplete() const override { return false; }
  std::string Name() const override {
    return "dagger(k=" + std::to_string(k_) + ")";
  }

  UpdateResult ApplyUpdate(const UpdateBatch& batch) override;
  bool SupportsDeletions() const override { return true; }
  bool RebuildFromUpdates() override;

  /// Shares the bounds and the overlay's chunks until the copy's own
  /// updates touch them, so a copy costs a few reference counts. The
  /// delete-classifier scratch is shared too, so the copy's first delete
  /// allocates nothing: write a copy and its source from one thread at a
  /// time. The query scratch is fresh in the copy. The copy's overlay
  /// points into the graph of the last `Build`.
  std::unique_ptr<DynamicReachabilityIndex> Clone() const override {
    return std::make_unique<Dagger>(*this);
  }
  std::unique_ptr<Digraph> LiveGraph() const override {
    if (overlay_.base() == nullptr) return nullptr;
    return std::make_unique<Digraph>(overlay_.LiveGraph());
  }

  /// Non-redundant deletes since the last (re)build — the filter's
  /// precision decay, not a correctness measure.
  size_t Damage() const { return damage_; }
  size_t StalenessBudget() const { return staleness_budget_; }

  /// Pure filter: true = maybe reachable, false = certainly not.
  bool MaybeReachable(VertexId s, VertexId t) const;

 private:
  bool ApplyInsert(VertexId s, VertexId t);
  bool ApplyDelete(VertexId s, VertexId t);
  // True iff u still reaches v within the visit budget post-delete.
  bool LocallyRedundant(VertexId u, VertexId v);
  // The filter verdict of a guided search toward `t` (0 maybe, -1 no),
  // with t's bounds found once.
  auto VerdictToward(VertexId t) const;

  static constexpr size_t kLocalSearchBudget = 4096;

  // The bounds of one traversal over a vertex's reachable set.
  struct Interval {
    uint32_t low = 0;
    uint32_t high = 0;
  };
  // Whether `from` contains `to` in every traversal; false proves that
  // the vertex of `from` does not reach the vertex of `to`.
  static bool Contains(std::span<const Interval> from,
                       std::span<const Interval> to);

  size_t k_;
  uint64_t seed_;
  size_t staleness_budget_;
  // The k bounds of each vertex, one per traversal, in one list, so a
  // filter test finds each side's bounds once; shared with copies until
  // written.
  CowLists<Interval> bounds_;
  // The built graph plus inserted arcs minus tombstoned ones. The guided
  // DFS walks the live arcs; bound widening sweeps the superset in-arcs.
  ArcOverlay<Digraph> overlay_;
  size_t damage_ = 0;
  // Workspace of the delete classifier: update work, kept out of the query
  // slots and their probes, and shared with copies (see `Clone`).
  std::shared_ptr<SearchWorkspace> delete_ws_ =
      std::make_shared<SearchWorkspace>();
};

}  // namespace reach

#endif  // REACH_PLAIN_DAGGER_H_
