#ifndef REACH_LCR_PRUNED_LABELED_TWO_HOP_H_
#define REACH_LCR_PRUNED_LABELED_TWO_HOP_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/mapped_file.h"
#include "core/two_hop_core.h"
#include "lcr/label_set.h"
#include "lcr/lcr_index.h"

namespace reach {

/// `TwoHopCore` vocabulary of label-constrained reachability: an entry is
/// a (hop rank, SPLS) pair, and a query's constraint is the allowed-label
/// mask (the arc, a (head, label) pair, is `GraphArcs<LabeledDigraph>`'s).
/// Entries of one rank form a *rank group* (one minimal label set each);
/// the query kernels sweep groups.
struct LabeledTwoHopTraits {
  struct Entry {
    uint32_t rank;
    LabelSet mask;
  };
  using Graph = LabeledDigraph;
  using Constraint = LabelSet;
  class Sweeper;  // the label-BFS (pruned_labeled_two_hop.cc)

  static uint32_t Rank(const Entry& e) { return e.rank; }
  static Entry HopEntry(uint32_t rank) { return {rank, 0}; }
  static LabelSet PathSet(const Entry& e) { return e.mask; }
  static Entry Extend(const Entry& e, const LabeledDigraph::Arc& arc) {
    return {e.rank, e.mask | LabelBit(arc.label)};
  }
  static bool ArcAllowed(const LabeledDigraph::Arc& arc, LabelSet allowed) {
    return IsSubsetOf(LabelBit(arc.label), allowed);
  }
  /// Only an all-`label` G- detour keeps every answer: any query path
  /// through the deleted arc has its label in the allowed mask, so
  /// splicing in the detour stays within the mask.
  static LabelSet DetourConstraint(const LabeledDigraph::Arc& cut) {
    return LabelBit(cut.label);
  }
  /// Format "p2h", payload magic "reachp2h" (distinct from the plain
  /// "reach-2h"; the envelope already tells formats apart, this is
  /// defense in depth). A list holds one entry per minimal label set of a
  /// hop, up to 2^|labels| in principle; the cap of 64 per vertex rejects
  /// nonsense sizes without rejecting legal dense labelings.
  static constexpr std::string_view kFormatName = "p2h";
  static constexpr uint64_t kPayloadMagic = 0x7265616368703268ULL;
  static constexpr uint64_t kListCapPerVertex = 64;

  // Binary search to the rank group, then a subset test per mask; and
  // the rank-group two-pointer / galloping sweep over two sorted entry
  // ranges (docs/QUERY_ENGINE.md). The core runs both on decoded blocks
  // of compressed pools too.
  static bool Covered(std::span<const Entry> entries, uint32_t rank,
                      LabelSet allowed);
  static bool Intersect(std::span<const Entry> out,
                        std::span<const Entry> in, LabelSet allowed);
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
///  * Inserts resume the build's label-BFS through the new arc (DLCR's
///    insertion): for every entry (h, S) of Lin(s) ∪ {(s, ∅)}, a
///    label-BFS from t starts with S plus the arc's label, adds (h, A) to
///    the Lin of each state (y, A) it reaches, and stops where the index
///    already answers Qr(h, y, A). It keeps the entries the new arc makes
///    redundant (DLCR's redundancy elimination is out of scope; see
///    DESIGN.md); `RebuildFromUpdates` re-minimizes.
///  * Deletes reuse the plain `PrunedTwoHop` decremental design,
///    generalized to labeled arcs. Labels always describe the *superset*
///    graph G+ (base ∪ everything ever inserted, tombstones ignored), so
///    "no covered witness" stays an exact negative for the shrunken live
///    graph. A deleted arc is tombstoned (live iterators skip it; the
///    superset iterators keep it). An arc's first cut is harmless — zero
///    damage — when a bounded search finds an all-`label` detour s ->* t
///    in G- (G+ minus every arc cut since the build), since any query
///    path through the arc reroutes without growing its mask. Otherwise
///    the cut records the lost set Anc+(s) x Desc+(t) over G+, less the
///    sources that still reach t and the targets s still reaches along
///    all-`label` G- paths: a sound over-approximation of every
///    constrained pair the cut can have lost. A damaged positive inside a
///    lost set is
///    re-checked by a constrained traversal pruned with superset label
///    tests, so answers stay exact at any damage level. `ApplyUpdate`
///    recommends `RebuildFromUpdates`, which re-minimizes and clears the
///    damage, by the same ski-rental rule as the plain index
///    (`TwoHopCore`).
///
/// Plain reachability is this index with a single label, and both run on
/// `TwoHopCore` (core/two_hop_core.h), persistence included; this class
/// supplies the degree order, the label-BFS sweep and the rank-group
/// kernels.
class PrunedLabeledTwoHop : public LcrIndex {
 public:
  /// Default `staleness_budget` (see constructor): no cap.
  static constexpr size_t kDefaultStalenessBudget = 0;

  /// The build runs on the calling thread, one rank at a time, like
  /// `PrunedTwoHop`'s: each label-BFS reads the entries of every earlier
  /// rank and the ones its own sweep added so far.
  ///
  /// `ApplyUpdate` reports `kDeferredRebuild` (answers stay exact; the
  /// caller decides when to pay for `RebuildFromUpdates`) once damaged
  /// queries have paid the last build's price in rent, or once damage
  /// passes `staleness_budget`, a hard cap. 0 = no cap.
  explicit PrunedLabeledTwoHop(TwoHopStorageOptions storage = {},
                               size_t staleness_budget =
                                   kDefaultStalenessBudget)
      : core_(storage, staleness_budget) {}

  void Build(const LabeledDigraph& graph) override;
  bool Query(VertexId s, VertexId t, LabelSet allowed) const override;
  size_t IndexSizeBytes() const override { return core_.IndexSizeBytes(); }
  /// Complete while undamaged; damaged positives a cut may have lost fall
  /// back to constrained traversal until `RebuildFromUpdates`.
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
  bool Save(std::ostream& out) const override { return core_.Save(out); }

  /// Restores a labeling saved by `Save`. A loaded index answers queries
  /// without the original graph; call `Build` (or keep the graph around)
  /// before using `ApplyUpdate` again. Returns a typed error on malformed
  /// input or an inconsistent labeling, leaving the index unspecified.
  LoadResult Load(std::istream& in) override { return core_.Load(in); }

  /// RCHX v2 snapshot files in format "p2h", with the same contract as
  /// `PrunedTwoHop::SaveSnapshot`/`LoadSnapshot` (docs/SNAPSHOTS.md):
  /// page-aligned sealed pools, flat or compressed, any delta folded in;
  /// the load maps the file and serves straight off it.
  bool SaveSnapshot(std::ostream& out) const {
    return core_.SaveSnapshot(out);
  }
  bool SaveSnapshot(const std::string& path,
                    std::string* error = nullptr) const {
    return core_.SaveSnapshot(path, error);
  }
  LoadResult LoadSnapshot(const std::string& path) {
    return core_.LoadSnapshot(path);
  }
  LoadResult LoadSnapshot(std::shared_ptr<MappedFile> file) {
    return core_.LoadSnapshot(std::move(file));
  }

  /// Applies a batch of labeled inserts and deletes (class comment).
  /// Validate-first: an endpoint or label out of range rejects the whole
  /// batch with no state change. Returns `kDeferredRebuild` by the
  /// rebuild rule of the constructor comment.
  UpdateResult ApplyUpdate(const LabeledUpdateBatch& batch);

  /// Deletions are absorbed incrementally (class comment).
  bool SupportsDeletions() const { return true; }

  /// Rebuilds from the live edge set (base ∪ extras, minus tombstones),
  /// re-minimizing the labeling and resetting damage to zero. Returns
  /// false when no live graph is attached (after `Load`).
  bool RebuildFromUpdates();

  /// Number of damaging deletes absorbed since the last (re)build.
  size_t Damage() const { return core_.Damage(); }

  /// The damage cap on rebuild recommendations (0 = no cap).
  size_t StalenessBudget() const { return core_.StalenessBudget(); }

  /// Rent damaged queries paid since the last build, and its price.
  RebuildRent Rent() const { return {core_.RentPaid(), core_.BuildPrice()}; }

  /// Total number of (hop, SPLS) entries across all vertices.
  size_t TotalEntries() const { return core_.TotalEntries(); }

  /// True when the sealed entries live in block-compressed pools.
  bool CompressedStorage() const { return core_.Compressed(); }
  /// True when a `budget_mb` bound was requested but even the coarsest
  /// storage tier exceeds it (or a rank group forced the flat fallback).
  bool BudgetExceeded() const { return core_.BudgetExceeded(); }
  const TwoHopStorageOptions& Storage() const { return core_.Storage(); }

 private:
  TwoHopCore<LabeledTwoHopTraits> core_;
};

}  // namespace reach

#endif  // REACH_LCR_PRUNED_LABELED_TWO_HOP_H_
