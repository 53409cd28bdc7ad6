#ifndef REACH_PLAIN_PRUNED_TWO_HOP_H_
#define REACH_PLAIN_PRUNED_TWO_HOP_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
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

class PrunedTwoHop;

/// `TwoHopCore` vocabulary of plain reachability: a label entry is a hop
/// rank, an arc is the neighbor id, and queries carry no constraint. The
/// superset query kernels are the sorted-rank intersection engine of
/// core/label_kernels.h and the compressed pool's skip-table walks.
struct PlainTwoHopTraits {
  using Entry = uint32_t;
  using Arc = VertexId;
  using Graph = Digraph;
  using Edge = ::reach::Edge;
  struct Constraint {};
  using CompressedPool = CompressedRankPool;
  using Index = PrunedTwoHop;
  class Sweeper;  // the pruned BFS of one rank (pruned_two_hop.cc)

  static uint32_t Rank(Entry e) { return e; }
  static VertexId Head(Arc arc) { return arc; }
  static Arc Reverse(VertexId from, Arc) { return from; }
  static bool ArcAllowed(Arc, Constraint) { return true; }
  static std::span<const Arc> OutArcs(const Digraph& g, VertexId v) {
    return g.OutNeighbors(v);
  }
  static std::span<const Arc> InArcs(const Digraph& g, VertexId v) {
    return g.InNeighbors(v);
  }
  static Edge MakeEdge(VertexId from, Arc arc) { return {from, arc}; }
  static Digraph MakeGraph(const Digraph& like, std::vector<Edge> edges) {
    return Digraph::FromEdges(static_cast<VertexId>(like.NumVertices()),
                              std::move(edges));
  }
  static Arc UpdateArc(const EdgeUpdate& update) { return update.target; }
  static bool ArcInRange(const Digraph&, Arc) { return true; }
  /// Any live detour u ->* v reroutes every path through a deleted (u, v).
  static Constraint DetourConstraint(Arc) { return {}; }

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
  static bool CoveredInPool(const CompressedRankPool& pool, VertexId v,
                            uint32_t rank, Constraint) {
    return pool.Contains(v, rank);
  }
  static bool IntersectPools(const CompressedRankPool& out_pool, VertexId s,
                             const CompressedRankPool& in_pool, VertexId t,
                             Constraint) {
    return CompressedRankPool::Intersect(out_pool, s, in_pool, t);
  }
  static bool IntersectPoolWithSpan(const CompressedRankPool& pool,
                                    VertexId v, std::span<const Entry> other,
                                    Constraint) {
    return pool.IntersectWithSorted(v, other.data(), other.size());
  }

  /// Adds the hops of Lin(s) ∪ {s} to the Lin of everything `t` reaches.
  static void PropagateInsert(TwoHopCore<PlainTwoHopTraits>& core,
                              VertexId s, Arc t);
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
///  * Inserts maintain correctness incrementally: for every hop h in
///    Lin(u) ∪ {u}, h is propagated through the new edge (u, v) to all
///    vertices reachable from v. Unlike TOL's full algorithm this may
///    retain redundant entries (redundancy elimination is out of scope);
///    `Build` can be re-run to re-minimize.
///  * Deletes are absorbed without rebuilding (DESIGN.md "Deletions"):
///    the sealed labels are kept as a *superset* labeling (they describe
///    base ∪ every-edge-ever-inserted, which only over-approximates the
///    current graph), the deleted edge goes into a tombstone set consulted
///    by the guided traversals, and a bounded local search classifies the
///    delete. A *locally redundant* delete (u still reaches v another way)
///    provably changes no answer and costs nothing at query time. A
///    *damaging* delete marks the hub ranks whose label entries may now be
///    stale (bounded BFS over the superset adjacency); queries then trust
///    only undamaged witnesses, and verify damaged-witness
///    positives by a label-pruned BFS over the live adjacency — answers
///    stay exact at every damage level. Accumulated damage is the
///    staleness budget of the rebuild-threshold policy: once it crosses
///    `staleness_budget` the batch returns `kDeferredRebuild` and the
///    caller schedules `RebuildFromUpdates()`.
///
/// The machinery above is `TwoHopCore` (core/two_hop_core.h), shared with
/// the labeled `PrunedLabeledTwoHop`; this class supplies the total order,
/// the pruned BFS sweep, and the "pll" payload and snapshot I/O.
class PrunedTwoHop : public DynamicReachabilityIndex {
 public:
  /// `num_threads` parallelizes the build with rank-batched speculative
  /// pruned BFSs (paraPLL-style): each batch speculates against the
  /// committed label prefix in parallel, then commits in rank order,
  /// redoing exactly the sweeps whose pruning oracle was made stale by an
  /// earlier rank of the same batch. The committed labeling — including
  /// `Save` bytes — is bit-identical to a serial build for any thread
  /// count (docs/PARALLELISM.md has the argument). 0 = `DefaultThreads()`,
  /// 1 = serial.
  explicit PrunedTwoHop(VertexOrder order = VertexOrder::kDegree,
                        uint64_t seed = 0x70'6c'6cULL, size_t num_threads = 0,
                        TwoHopStorageOptions storage = {},
                        size_t staleness_budget = kDefaultStalenessBudget)
      : order_(order),
        seed_(seed),
        num_threads_(num_threads),
        core_(storage, staleness_budget) {}

  /// Default `staleness_budget`: damaging deletes tolerated before
  /// `ApplyUpdate` starts returning `kDeferredRebuild`. 0 = unbounded.
  static constexpr size_t kDefaultStalenessBudget = 32;

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
  /// repair. Never rebuilds internally — crossing the staleness budget
  /// only changes the returned status to `kDeferredRebuild`.
  UpdateResult ApplyUpdate(const UpdateBatch& batch) override;
  bool SupportsDeletions() const override { return true; }

  /// Folds tombstones + inserted edges into a fresh build over the live
  /// edge set, resetting damage to zero.
  bool RebuildFromUpdates() override;

  /// Deletions currently answered through the repair machinery (0 =
  /// label-exact) and the configured budget, for tests and policy code.
  size_t Damage() const { return core_.Damage(); }
  size_t StalenessBudget() const { return core_.StalenessBudget(); }

  /// Serializes the labeling (envelope + ranks + Lin/Lout) to a binary
  /// stream — the persistence piece of the §5 "integration into GDBMSs"
  /// challenge. The label state already reflects any incremental
  /// insertions. Refuses (returns false) while `Damage() > 0`: a damaged
  /// labeling is only exact together with the live tombstone/graph state,
  /// which the stream does not carry — `RebuildFromUpdates()` first.
  /// Envelope format name: "pll" for the whole TOL family.
  bool SupportsSerialization() const override { return true; }
  bool Save(std::ostream& out) const override;

  /// Restores a labeling saved by `Save`. A loaded index answers queries
  /// without the original graph; call `Build` (or keep the graph around)
  /// before using `ApplyUpdate` again. Returns a typed error on malformed
  /// input, leaving the index unspecified.
  LoadResult Load(std::istream& in) override;

  /// Writes an RCHX v2 *snapshot file* (docs/SNAPSHOTS.md): the sealed
  /// pool arrays — flat or compressed, any post-build delta folded in —
  /// laid out page-aligned behind a section table, so `LoadSnapshot` can
  /// mmap the file and serve queries straight off the mapping. Unlike
  /// `Save`, the bytes depend on the storage mode.
  bool SaveSnapshot(std::ostream& out) const;

  /// Crash-safe snapshot write to a file: the stream form above routed
  /// through `WriteFileAtomic` (temp file + fsync + atomic rename), so a
  /// crash or failure mid-write can never tear an existing snapshot at
  /// `path` — it keeps its old bytes until the new ones are durable.
  bool SaveSnapshot(const std::string& path,
                    std::string* error = nullptr) const;

  /// Zero-copy restore of a snapshot written by `SaveSnapshot`: the file
  /// is mmap'd, the section table and pool structure are validated, and
  /// the sealed pools are pointed directly at the mapping — no copy, no
  /// reseal. The mapping is held by the index (and released on the next
  /// `Build`/`Load`/destruction). On failure the result names the
  /// failing section and byte offset; the index is left unspecified.
  LoadResult LoadSnapshot(const std::string& path);
  LoadResult LoadSnapshot(std::shared_ptr<MappedFile> file);

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
  size_t num_threads_;
  TwoHopCore<PlainTwoHopTraits> core_;
};

}  // namespace reach

#endif  // REACH_PLAIN_PRUNED_TWO_HOP_H_
