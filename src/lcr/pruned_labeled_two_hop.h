#ifndef REACH_LCR_PRUNED_LABELED_TWO_HOP_H_
#define REACH_LCR_PRUNED_LABELED_TWO_HOP_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/label_pool.h"
#include "core/two_hop_core.h"
#include "lcr/label_set.h"
#include "lcr/lcr_index.h"

namespace reach {

class PrunedLabeledTwoHop;

/// `TwoHopCore` vocabulary of label-constrained reachability: an entry is
/// a (hop rank, SPLS) pair, an arc carries its label, and a query's
/// constraint is the allowed-label mask. Entries of one rank form a *rank
/// group* (one minimal label set each); the query kernels sweep groups.
struct LabeledTwoHopTraits {
  struct Entry {
    uint32_t rank;
    LabelSet mask;
  };
  using Arc = LabeledDigraph::Arc;
  using Graph = LabeledDigraph;
  using Edge = LabeledEdge;
  using Constraint = LabelSet;
  using CompressedPool = CompressedEntryPool<Entry>;
  using Index = PrunedLabeledTwoHop;
  class Sweeper;  // the label-BFS of one rank (pruned_labeled_two_hop.cc)

  static uint32_t Rank(const Entry& e) { return e.rank; }
  static VertexId Head(const Arc& arc) { return arc.vertex; }
  static Arc Reverse(VertexId from, const Arc& arc) {
    return {from, arc.label};
  }
  static bool ArcAllowed(const Arc& arc, LabelSet allowed) {
    return IsSubsetOf(LabelBit(arc.label), allowed);
  }
  static std::span<const Arc> OutArcs(const LabeledDigraph& g, VertexId v) {
    return g.OutArcs(v);
  }
  static std::span<const Arc> InArcs(const LabeledDigraph& g, VertexId v) {
    return g.InArcs(v);
  }
  static Edge MakeEdge(VertexId from, const Arc& arc) {
    return {from, arc.vertex, arc.label};
  }
  static LabeledDigraph MakeGraph(const LabeledDigraph& like,
                                  std::vector<Edge> edges) {
    return LabeledDigraph::FromEdges(
        static_cast<VertexId>(like.NumVertices()), like.NumLabels(),
        std::move(edges));
  }
  static Arc UpdateArc(const LabeledEdgeUpdate& update) {
    return {update.target, update.label};
  }
  static bool ArcInRange(const LabeledDigraph& g, const Arc& arc) {
    return arc.label < g.NumLabels();
  }
  /// Only an all-`label` detour keeps every answer: any query path through
  /// the deleted arc has its label in the allowed mask, so splicing in
  /// the detour stays within the mask.
  static LabelSet DetourConstraint(const Arc& cut) {
    return LabelBit(cut.label);
  }

  // Binary search to the rank group, then a subset test per mask; the
  // rank-group two-pointer / galloping sweep over two sorted entry ranges
  // (docs/QUERY_ENGINE.md); and their compressed-pool analogues: a rank
  // group is never split across blocks, so the covered test decodes
  // exactly one block and the intersection is a skip-table block-merge
  // running `Intersect` on decoded block pairs (docs/SNAPSHOTS.md).
  static bool Covered(std::span<const Entry> entries, uint32_t rank,
                      LabelSet allowed);
  static bool Intersect(std::span<const Entry> out,
                        std::span<const Entry> in, LabelSet allowed);
  static bool CoveredInPool(const CompressedPool& pool, VertexId v,
                            uint32_t rank, LabelSet allowed);
  static bool IntersectPools(const CompressedPool& out_pool, VertexId s,
                             const CompressedPool& in_pool, VertexId t,
                             LabelSet allowed);
  static bool IntersectPoolWithSpan(const CompressedPool& pool, VertexId v,
                                    std::span<const Entry> other,
                                    LabelSet allowed);

  /// Resumes a label-BFS through the new arc for every hop of
  /// Lin(s) ∪ {s}.
  static void PropagateInsert(TwoHopCore<LabeledTwoHopTraits>& core,
                              VertexId s, const Arc& arc);
};

/// P2H+-style pruned labeled 2-hop index (Peng et al. [33], paper §4.1.3),
/// with DLCR-style [10] incremental edge insertion — the 2-hop rows of
/// Table 2.
///
/// Every vertex carries Lin/Lout entries (hop, SPLS): (h, S) ∈ Lin(v)
/// means h reaches v via a path whose minimal label set is S.
/// Qr(s, t, alpha) is true iff there is a common hop h with
/// S_out(s, h) ∪ S_in(h, t) ⊆ alpha's mask (the endpoints act as their own
/// virtual hops with empty SPLS).
///
/// Build runs forward/backward *label-BFSs* from vertices in decreasing-
/// degree order; states (vertex, label set) expand in nondecreasing
/// |label set| (so recorded SPLSs are minimal) and a state is pruned when
/// the index built so far already answers the corresponding query — the
/// non-redundancy guarantee of P2H+. Works on general graphs.
///
/// Dynamics (the DLCR row), all behind `ApplyUpdate`:
///
///  * Inserts resume label-BFSs through the new arc for every hop that
///    reaches its source, keeping the index correct (possibly with
///    redundant entries — DLCR's redundancy elimination bookkeeping is
///    out of scope; see DESIGN.md).
///  * Deletes reuse the plain `PrunedTwoHop` decremental design,
///    generalized to labeled arcs. Labels always describe the *superset*
///    graph G+ (base ∪ everything ever inserted, tombstones ignored), so
///    "no covered witness" stays an exact negative for the shrunken live
///    graph. A deleted arc is tombstoned (live iterators skip it; the
///    superset iterators keep it). A delete is *locally redundant* — zero
///    damage — when a live all-`label` detour s ->* t survives within a
///    bounded search (any query path through the arc reroutes without
///    growing its mask). Otherwise a label-ignoring sweep over G+ marks
///    ancestor ranks of s as forward-damaged and descendant ranks of t as
///    backward-damaged (a sound over-approximation of the constrained
///    ancestor/descendant sets); damaged witnesses are re-checked by a
///    constrained traversal pruned with superset label tests, so answers
///    stay exact at any damage level. `RebuildFromUpdates` re-minimizes
///    and clears the damage once it crosses the staleness budget.
///
/// Plain reachability is this index with a single label, and both run on
/// `TwoHopCore` (core/two_hop_core.h); this class supplies the degree
/// order, the label-BFS sweep, the rank-group kernels and the "p2h"
/// payload.
class PrunedLabeledTwoHop : public LcrIndex {
 public:
  /// Default `staleness_budget` (see constructor).
  static constexpr size_t kDefaultStalenessBudget = 32;

  /// `num_threads` parallelizes the build with the same rank-batched
  /// speculate/commit/redo scheme as `PrunedTwoHop` (speculative sweeps
  /// consult a worker-local shadow of their own rank's entries, since the
  /// serial pruning oracle sees in-sweep insertions). The labeling is
  /// bit-identical to a serial build for any thread count
  /// (docs/PARALLELISM.md). 0 = `DefaultThreads()`, 1 = serial.
  ///
  /// `staleness_budget` is the damage level past which `ApplyUpdate`
  /// reports `kDeferredRebuild` (answers stay exact; the caller decides
  /// when to pay for `RebuildFromUpdates`). 0 = never recommend.
  explicit PrunedLabeledTwoHop(size_t num_threads = 0,
                               TwoHopStorageOptions storage = {},
                               size_t staleness_budget =
                                   kDefaultStalenessBudget)
      : num_threads_(num_threads), core_(storage, staleness_budget) {}

  void Build(const LabeledDigraph& graph) override;
  bool Query(VertexId s, VertexId t, LabelSet allowed) const override;
  size_t IndexSizeBytes() const override { return core_.IndexSizeBytes(); }
  /// Complete while undamaged; damaged witnesses fall back to constrained
  /// traversal until `RebuildFromUpdates`.
  bool IsComplete() const override { return core_.Damage() == 0; }
  std::string Name() const override { return "p2h"; }
  QueryProbe Probe() const override { return core_.Probe(); }
  void ResetProbe() const override { core_.ResetProbe(); }

  /// Serializes the labeling (envelope + ranks + (hop, SPLS) entries) to
  /// a binary stream; the state already reflects any incremental
  /// insertions. Refuses (returns false) while `Damage() > 0`: a damaged
  /// labeling is only exact together with the live tombstone state, which
  /// the stream does not carry — `RebuildFromUpdates()` first. Envelope
  /// format name: "p2h".
  bool SupportsSerialization() const override { return true; }
  bool Save(std::ostream& out) const override;

  /// Restores a labeling saved by `Save`. A loaded index answers queries
  /// without the original graph; call `Build` (or keep the graph around)
  /// before using `ApplyUpdate` again. Returns a typed error on malformed
  /// input, leaving the index unspecified.
  LoadResult Load(std::istream& in) override;

  /// Applies a batch of labeled inserts and deletes (class comment).
  /// Validate-first: an endpoint or label out of range rejects the whole
  /// batch with no state change. Returns `kDeferredRebuild` once damage
  /// exceeds the staleness budget.
  UpdateResult ApplyUpdate(const LabeledUpdateBatch& batch);

  /// Deletions are absorbed incrementally (class comment).
  bool SupportsDeletions() const { return true; }

  /// Rebuilds from the live edge set (base ∪ extras, minus tombstones),
  /// re-minimizing the labeling and resetting damage to zero. Returns
  /// false when no live graph is attached (after `Load`).
  bool RebuildFromUpdates();

  /// Number of damaging deletes absorbed since the last (re)build.
  size_t Damage() const { return core_.Damage(); }

  /// The rebuild-recommendation threshold (0 = never recommend).
  size_t StalenessBudget() const { return core_.StalenessBudget(); }

  /// Total number of (hop, SPLS) entries across all vertices.
  size_t TotalEntries() const { return core_.TotalEntries(); }

  /// True when the sealed entries live in block-compressed pools.
  bool CompressedStorage() const { return core_.Compressed(); }
  /// True when a `budget_mb` bound was requested but even the coarsest
  /// storage tier exceeds it (or a rank group forced the flat fallback).
  bool BudgetExceeded() const { return core_.BudgetExceeded(); }
  const TwoHopStorageOptions& Storage() const { return core_.Storage(); }

 private:
  size_t num_threads_ = 0;
  TwoHopCore<LabeledTwoHopTraits> core_;
};

}  // namespace reach

#endif  // REACH_LCR_PRUNED_LABELED_TWO_HOP_H_
