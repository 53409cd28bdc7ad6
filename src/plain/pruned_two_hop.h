#ifndef REACH_PLAIN_PRUNED_TWO_HOP_H_
#define REACH_PLAIN_PRUNED_TWO_HOP_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/label_kernels.h"
#include "core/label_pool.h"
#include "core/mapped_file.h"
#include "core/reachability_index.h"
#include "core/two_hop_core.h"
#include "graph/digraph.h"

namespace reach {

/// Total orders that instantiate the TOL framework (paper §3.2): "TOL is a
/// general approach for computing the 2-hop index with a total order of
/// vertices as input, and TFL, DL, and PLL are instantiations of TOL."
enum class VertexOrder {
  /// Decreasing total degree — the DL / PLL instantiation (the paper notes
  /// DL and PLL are equivalent).
  kDegree,
  /// Topological order of the SCC condensation — the TFL instantiation.
  kTopological,
  /// Increasing total degree — a deliberately bad order for ablation.
  kReverseDegree,
  /// Uniformly random order — the ablation baseline.
  kRandom,
};

/// `TwoHopCore` vocabulary of plain reachability: a label entry is a hop
/// rank, and queries carry no constraint (the arc, a neighbor id, is
/// `GraphArcs<Digraph>`'s). The superset query kernels are the
/// sorted-rank intersection engine of core/label_kernels.h.
struct PlainTwoHopTraits {
  using Entry = uint32_t;
  using Graph = Digraph;
  struct Constraint {};
  class Sweeper;  // the pruned BFS (pruned_two_hop.cc)

  static uint32_t Rank(Entry e) { return e; }
  /// A plain path uses no labels, so an entry is its hop's rank and an arc
  /// adds nothing to it.
  static Entry HopEntry(uint32_t rank) { return rank; }
  static Constraint PathSet(Entry) { return {}; }
  static Entry Extend(Entry e, VertexId) { return e; }
  static bool ArcAllowed(VertexId, Constraint) { return true; }
  /// Any G- detour u ->* v reroutes every path through a deleted (u, v).
  static Constraint DetourConstraint(VertexId) { return {}; }
  /// One format name for the whole TOL family: the payload stores the
  /// total order itself, so any `VertexOrder` instance loads any other's
  /// labeling. The magic spells "reach-2h"; a list holds at most n ranks.
  static constexpr std::string_view kFormatName = "pll";
  static constexpr uint64_t kPayloadMagic = 0x72656163682d3268ULL;
  static constexpr uint64_t kListCapPerVertex = 1;

  // The membership test of the query hot path, forced inline and written
  // out (std::lower_bound's loop) so it never becomes a call, however
  // many callers the core gives it.
  [[gnu::always_inline]] static bool Covered(std::span<const Entry> entries,
                                             uint32_t rank, Constraint) {
    const Entry* first = entries.data();
    const Entry* const last = first + entries.size();
    ptrdiff_t len = last - first;
    while (len > 0) {
      const ptrdiff_t half = len >> 1;
      const Entry* middle = first + half;
      if (*middle < rank) {
        first = middle + 1;
        len = len - half - 1;
      } else {
        len = half;
      }
    }
    return first != last && !(rank < *first);
  }
  static bool Intersect(std::span<const Entry> a, std::span<const Entry> b,
                        Constraint) {
    return IntersectSorted(a.data(), a.size(), b.data(), b.size());
  }
};

/// The 2-hop labeling framework of Cohen et al. [14] computed with pruned
/// BFSs under a total order — i.e., TOL [55], covering PLL [49] / DL [25] /
/// TFL [13] as order instantiations (paper §3.2).
///
/// Every vertex v carries two sets of hops: Lin(v) (vertices that reach v)
/// and Lout(v) (vertices v reaches). Qr(s, t) is true iff s == t,
/// s ∈ Lin(t), t ∈ Lout(s), or Lout(s) ∩ Lin(t) ≠ ∅ — the three cases of
/// the paper. Building runs a forward and a backward BFS from each vertex
/// in total-order sequence; a visit of w from hop v is pruned when the
/// labels built so far already answer Qr(v, w) (resp. Qr(w, v)), and when a
/// higher-ranked vertex is reached. This yields a *complete* index on
/// *general* digraphs (no DAG condensation needed — vertices of an SCC are
/// covered by their highest-ranked member).
///
/// Dynamics (the TOL row's "Yes" in Table 1), via `ApplyUpdate`:
///  * Inserts resume the build's pruned BFS through the new edge (u, v)
///    (TOL's insertion): for every hop h in Lin(u) ∪ {u}, a BFS from v
///    adds h to the Lin of each vertex it reaches, and stops where the
///    index already answers Qr(h, w). Unlike TOL's full algorithm it keeps
///    the entries the new edge makes redundant (redundancy elimination is
///    out of scope); `RebuildFromUpdates` re-minimizes.
///  * Deletes are absorbed without rebuilding (DESIGN.md "Deletions"):
///    the sealed labels are kept as a *superset* labeling (they describe
///    base ∪ every-edge-ever-inserted, which only over-approximates the
///    current graph), the deleted edge goes into a tombstone set consulted
///    by the guided traversals, and a bounded local search classifies the
///    edge's first cut. A *harmless* cut (u still reaches v in G-, the
///    graph less every edge cut since the build) provably changes no
///    answer and costs nothing at query time. A *damaging* cut records
///    the pairs it may have lost (bounded sweeps over the superset
///    adjacency); queries then trust every positive outside those lost
///    sets, and verify the rest by a label-pruned BFS over the live
///    adjacency — answers stay exact at every damage level. The batch
///    returns `kDeferredRebuild`, and the caller schedules
///    `RebuildFromUpdates()`, once the damaged queries since the last
///    build have cost as much as that build did (the ski-rental rule of
///    `TwoHopCore::ApplyUpdate`), or once damage crosses a nonzero
///    `staleness_budget`.
///
/// The machinery above is `TwoHopCore` (core/two_hop_core.h), shared with
/// the labeled `PrunedLabeledTwoHop`, persistence included; this class
/// supplies the total order and the pruned BFS sweep.
class PrunedTwoHop : public DynamicReachabilityIndex {
 public:
  /// The build runs on the calling thread, one rank at a time: each
  /// pruned sweep reads the labels of every earlier rank
  /// (docs/PARALLELISM.md says why it is not parallel). `seed` drives
  /// `VertexOrder::kRandom`.
  explicit PrunedTwoHop(VertexOrder order = VertexOrder::kDegree,
                        uint64_t seed = 0x70'6c'6cULL,
                        TwoHopStorageOptions storage = {},
                        size_t staleness_budget = kDefaultStalenessBudget)
      : order_(order), seed_(seed), core_(storage, staleness_budget) {}

  /// Default `staleness_budget`: a hard cap on the damaging deletes
  /// tolerated before `ApplyUpdate` returns `kDeferredRebuild` whatever
  /// the rent. 0 = no cap: the rent alone decides.
  static constexpr size_t kDefaultStalenessBudget = 0;

  void Build(const Digraph& graph) override;
  bool Query(VertexId s, VertexId t) const override;
  size_t IndexSizeBytes() const override { return core_.IndexSizeBytes(); }
  /// Complete while label-exact; damaging deletes flip this to false
  /// until `RebuildFromUpdates`/`Build` re-minimizes.
  bool IsComplete() const override { return core_.Damage() == 0; }
  std::string Name() const override;
  QueryProbe Probe() const override { return core_.Probe(); }
  void ResetProbe() const override { core_.ResetProbe(); }

  size_t PrepareConcurrentQueries(size_t slots) const override {
    return core_.PrepareSlots(slots);
  }
  bool QueryInSlot(VertexId s, VertexId t, size_t slot) const override;

  /// The unified write surface (see class comment). Inserts always apply
  /// incrementally; deletes apply incrementally with bounded local
  /// repair. Never rebuilds internally — the rebuild policy only changes
  /// the returned status to `kDeferredRebuild`.
  UpdateResult ApplyUpdate(const UpdateBatch& batch) override;
  bool SupportsDeletions() const override { return true; }

  /// Folds tombstones + inserted edges into a fresh build over the live
  /// edge set, resetting damage to zero.
  bool RebuildFromUpdates() override;

  /// Shares the sealed labeling and the chunk tables of the update state
  /// — the arc overlay and delta entries — and, until the copy's updates
  /// change them, the lost sets (`TwoHopCore`'s copy): a few reference
  /// counts, never one per vertex, sealed label entry or update.
  /// The copy's overlay points into the graph of the last `Build`.
  std::unique_ptr<DynamicReachabilityIndex> Clone() const override {
    return std::make_unique<PrunedTwoHop>(*this);
  }
  std::unique_ptr<Digraph> LiveGraph() const override {
    if (core_.overlay().base() == nullptr) return nullptr;
    return std::make_unique<Digraph>(core_.overlay().LiveGraph());
  }

  /// Deletions currently answered through the repair machinery (0 =
  /// label-exact), the configured budget, and the rent damaged queries
  /// paid against the last build's price, for tests and policy code.
  size_t Damage() const { return core_.Damage(); }
  size_t StalenessBudget() const { return core_.StalenessBudget(); }
  RebuildRent Rent() const override {
    return {core_.RentPaid(), core_.BuildPrice()};
  }

  /// Serializes the labeling (envelope + ranks + Lin/Lout) to a binary
  /// stream — the persistence piece of the §5 "integration into GDBMSs"
  /// challenge. The label state already reflects any incremental
  /// insertions. Refuses (returns false) while `Damage() > 0`: a damaged
  /// labeling is only exact together with the live tombstone/graph state,
  /// which the stream does not carry — `RebuildFromUpdates()` first.
  /// Envelope format name: "pll" for the whole TOL family.
  bool SupportsSerialization() const override { return true; }
  bool Save(std::ostream& out) const override { return core_.Save(out); }

  /// Restores a labeling saved by `Save`. A loaded index answers queries
  /// without the original graph; call `Build` (or keep the graph around)
  /// before using `ApplyUpdate` again. Returns a typed error on malformed
  /// input or an inconsistent labeling (docs/SNAPSHOTS.md, "What a load
  /// validates"), leaving the index unspecified.
  LoadResult Load(std::istream& in) override { return core_.Load(in); }

  /// Writes an RCHX v2 *snapshot file* (docs/SNAPSHOTS.md): the sealed
  /// pool arrays — flat or compressed, any post-build delta folded in —
  /// laid out page-aligned behind a section table, so `LoadSnapshot` can
  /// mmap the file and serve queries straight off the mapping, and a
  /// digest of the graph the labels describe, which `Rebase` checks (read
  /// from the graph of the last `Build`, which must still be alive).
  /// Unlike `Save`, the bytes depend on the storage mode.
  bool SaveSnapshot(std::ostream& out) const {
    return core_.SaveSnapshot(out);
  }

  /// Crash-safe snapshot write to a file: the stream form above routed
  /// through `WriteFileAtomic` (temp file + fsync + atomic rename), so a
  /// crash or failure mid-write can never tear an existing snapshot at
  /// `path` — it keeps its old bytes until the new ones are durable.
  bool SaveSnapshot(const std::string& path,
                    std::string* error = nullptr) const {
    return core_.SaveSnapshot(path, error);
  }

  /// Zero-copy restore of a snapshot written by `SaveSnapshot`: the file
  /// is mmap'd, the section table and pool structure are validated, and
  /// the sealed pools are pointed directly at the mapping — no copy, no
  /// reseal — and the labeling is validated like a stream load's. The
  /// mapping is held by the index (and released on the next
  /// `Build`/`Load`/destruction). On failure the result names the failing
  /// section (and byte offset, where there is one); the index is left
  /// unspecified.
  LoadResult LoadSnapshot(const std::string& path) {
    return core_.LoadSnapshot(path);
  }
  LoadResult LoadSnapshot(std::shared_ptr<MappedFile> file) {
    return core_.LoadSnapshot(std::move(file));
  }

  /// Gives a snapshot-loaded labeling its live graph back, so it takes
  /// `ApplyUpdate` and `Clone` like a built one (`TwoHopCore::Rebase`):
  /// `graph`, which must outlive the index, must match the graph digest
  /// the snapshot recorded. `kWrongIndex` when it does not, or when the
  /// snapshot has no digest.
  LoadResult Rebase(const Digraph& graph) { return core_.Rebase(graph); }

  /// Total number of label entries sum |Lin| + |Lout| — the index-size
  /// measure of §3.2.
  size_t TotalLabelEntries() const { return core_.TotalEntries(); }

  /// Number of vertices covered by the (built or loaded) labeling.
  size_t NumIndexedVertices() const { return core_.NumVertices(); }

  /// True when the sealed labels live in block-compressed pools.
  bool CompressedStorage() const { return core_.Compressed(); }
  /// True when a `budget_mb` bound was requested but even the coarsest
  /// storage tier exceeds it.
  bool BudgetExceeded() const { return core_.BudgetExceeded(); }
  const TwoHopStorageOptions& Storage() const { return core_.Storage(); }

  /// The hop ranks labeling `v` (ascending), for tests / ablation benches:
  /// the sealed pool slice merged with any post-build delta entries.
  std::vector<uint32_t> InLabels(VertexId v) const {
    return core_.InEntries(v);
  }
  std::vector<uint32_t> OutLabels(VertexId v) const {
    return core_.OutEntries(v);
  }

 private:
  // The vertices in `order_`'s rank order.
  std::vector<VertexId> ComputeOrder(const Digraph& graph) const;

  VertexOrder order_;
  uint64_t seed_;
  TwoHopCore<PlainTwoHopTraits> core_;
};

}  // namespace reach

#endif  // REACH_PLAIN_PRUNED_TWO_HOP_H_
