#ifndef REACH_CORE_TWO_HOP_CORE_H_
#define REACH_CORE_TWO_HOP_CORE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <istream>
#include <memory>
#include <numeric>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/edge_update.h"
#include "core/index_stats.h"
#include "core/label_pool.h"
#include "core/mapped_file.h"
#include "core/search_workspace.h"
#include "core/serialize.h"
#include "core/workspace_pool.h"
#include "graph/arc_overlay.h"
#include "graph/types.h"
#include "obs/build_phase_timer.h"
#include "obs/metrics_registry.h"
#include "obs/query_probe.h"

namespace reach {

/// Vertices by decreasing total degree (stable: ties keep id order) — the
/// DL / PLL total order, shared by the plain and labeled 2-hop indexes.
template <typename Graph>
std::vector<VertexId> DegreeOrder(const Graph& graph) {
  std::vector<VertexId> by_rank(graph.NumVertices());
  std::iota(by_rank.begin(), by_rank.end(), 0);
  std::stable_sort(by_rank.begin(), by_rank.end(),
                   [&](VertexId a, VertexId b) {
                     return graph.Degree(a) > graph.Degree(b);
                   });
  return by_rank;
}

/// RCHX v2 snapshot layout of a 2-hop labeling (docs/SNAPSHOTS.md): the
/// section kinds, the same for every `TwoHopCore` format (the sections of
/// one side of one storage mode are consecutive kinds), and the
/// fixed-layout meta section.
namespace two_hop_snapshot {

enum SnapshotSection : uint32_t {
  kMeta = 1,
  kRank = 2,
  kByRank = 3,
  // Flat storage: per side, u64 offsets then raw entries.
  kLinOffsets = 4,
  kLinEntries = 5,
  kLoutOffsets = 6,
  kLoutEntries = 7,
  // Compressed storage: per side, u32 vertex->block bounds, skip table,
  // then block data.
  kLinVertexBlocks = 8,
  kLinSkip = 9,
  kLinData = 10,
  kLoutVertexBlocks = 11,
  kLoutSkip = 12,
  kLoutData = 13,
  // Optional: u64 digest of the graph the labels describe
  // (`TwoHopCore::GraphDigest`), which `Rebase` checks.
  kGraphDigest = 14,
  // Optional: u64 price of the build that made the labels
  // (`TwoHopCore::BuildPrice`), which `LoadSnapshot` and `Rebase` keep.
  kBuildPrice = 15,
};

struct Meta {
  uint64_t payload_magic;  // Traits::kPayloadMagic
  uint64_t num_vertices;
  uint64_t lin_entries;
  uint64_t lout_entries;
  uint32_t storage;  // 0 = flat pools, 1 = block-compressed pools
  uint32_t block_entries;
};
static_assert(sizeof(Meta) == 40);
static_assert(std::is_trivially_copyable_v<Meta>);

}  // namespace two_hop_snapshot

/// The pruned 2-hop engine (TOL, paper §3.2) shared by plain reachability
/// (`PrunedTwoHop`) and label-constrained reachability
/// (`PrunedLabeledTwoHop`). Plain reachability is LCR with a single label,
/// so the two differ only in what a label entry and an adjacency arc are;
/// everything else lives here once:
///
///  * the total order (the rank and by-rank tables);
///  * the build loop: one forward and one backward pruned sweep per
///    rank, in rank order (serial: each sweep prunes against every
///    earlier rank's labels, docs/PARALLELISM.md);
///  * sealing into flat or block-compressed pools under the size budget,
///    and the compressed-pool query kernels;
///  * the insert rule (TOL, DLCR): the build's sweep resumed from the new
///    arc for every hop that reaches its tail, pruned by the index, with
///    the entries it finds going into the post-seal `delta_lin_` overlay;
///  * the decremental bookkeeping over the `ArcOverlay` of inserted and
///    tombstoned arcs (graph/arc_overlay.h): the cuts since the build, the
///    detour check of a first cut, and the per-vertex lost-set masks of
///    the cuts that had no detour, re-closed on insert;
///  * the rebuild decision (ski rental, `ApplyUpdate`): a build's price is
///    the pruning-oracle evaluations its sweeps made, damaged queries pay
///    rent in the same units, and a full build is recommended once the
///    rent paid since the last build reaches that price;
///  * query answering: the three-case superset test and, under damage,
///    the lost-set test with its label-pruned live verification;
///  * persistence: the v1 stream and the RCHX v2 snapshot file, and the
///    validation every load runs (docs/SNAPSHOTS.md).
///
/// `Traits` supplies the entry vocabulary and the pieces that really
/// differ between the two indexes; the arc vocabulary is the graph's own
/// (`GraphArcs<Graph>`, next to each graph type):
///
///   Entry, Graph              label entry and graph type
///   Constraint                a query's path constraint
///   kFormatName, kPayloadMagic
///                             the envelope's format name and the payload
///                             magic of both persistence formats
///   kListCapPerVertex         a loaded list holds at most n times this
///                             many entries
///   Sweeper                   one pruned sweep's scratch, for the build
///                             and for inserts: `Run(start, entry,
///                             adjacency, prune, emit)` walks the
///                             `adjacency` from `start`, carrying `entry`
///                             along every arc (`Extend`), and calls
///                             `emit(x, entry)` for each state it reaches
///                             that `prune(x, entry)` does not stop
///   Rank(entry)
///   HopEntry(rank)            the entry a hop gives itself (an empty path)
///   PathSet(entry)            the labels an entry's path uses, as the
///                             constraint it satisfies
///   Extend(entry, arc)        `entry` with the arc's label added
///   Covered(entries, rank, q) whether rank-sorted `entries` hold a `rank`
///                             entry usable under `q`
///   ArcAllowed(arc, q)        whether a path may take `arc` under `q`
///   DetourConstraint(cut)     the constraint under which a G- detour
///                             around the deleted arc `cut` makes the cut
///                             answer-preserving
///   Intersect(out, in, q)     whether rank-sorted `out` and `in` share a
///                             hop usable under `q` on both sides
///
/// The compressed tier is `CompressedPool<Entry>` (core/label_pool.h),
/// whose codec `Entry` selects; the core's pool kernels run `Covered` and
/// `Intersect` on decoded blocks.
template <typename Traits>
class TwoHopCore {
 public:
  using Entry = typename Traits::Entry;
  using Graph = typename Traits::Graph;
  using Arcs = GraphArcs<Graph>;
  using Arc = typename Arcs::Arc;
  using Constraint = typename Traits::Constraint;
  using Pool = CompressedPool<Entry>;
  static_assert(std::has_unique_object_representations_v<Entry>,
                "entries are persisted as raw bytes");

  // Visit cap for the per-cut local searches (the detour check and the
  // lost-set sweeps); an overrun degrades to verifying every damaged
  // positive live, never to a wrong answer.
  static constexpr size_t kLocalSearchBudget = 4096;

  TwoHopCore(TwoHopStorageOptions storage, size_t staleness_budget)
      : storage_(storage), staleness_budget_(staleness_budget) {}

  /// A copy that answers every query as this core does and then takes
  /// updates of its own, leaving this core untouched. The sealed labeling
  /// is immutable, so the copy shares it. The arc and delta overlays are
  /// `CowLists`, so the copy shares their chunk tables (one reference
  /// count each) until its own updates touch them; the lost sets are a
  /// `CowBox`, shared until the copy's updates change them. The copy's
  /// overlay points into the same base graph, which must
  /// outlive both. The write scratch (the search workspace and the
  /// sweeper) and the per-slot verification scratch are shared too, for
  /// the copy's whole life, so its first update and first damaged query
  /// allocate nothing: write a copy and its source from one thread at a
  /// time, and never query one slot of both at once (the serve layer
  /// leases slots from one pool per build). The rent meter is shared until
  /// either side builds or loads, so damaged queries on any copy pay
  /// toward the one build price.
  /// Probes start fresh (`FreshOnCopy`). Safe while this core serves
  /// queries.
  TwoHopCore(const TwoHopCore&) = default;
  TwoHopCore& operator=(const TwoHopCore&) = delete;

  /// Builds over `graph` (which must outlive the labeling's live use),
  /// timing the "order", "label" and "seal" phases into `stats`.
  /// `order(graph)` returns the vertices in rank order.
  template <typename OrderFn>
  void Build(const Graph& graph, IndexStats* stats, OrderFn&& order) {
    BuildStatsScope build(stats);
    probes_.Reset();
    ResetDynamicState(&graph);
    // Drops the old labeling (freed unless a copy shares it) before the
    // new one is built.
    const std::shared_ptr<Sealed> sealed = std::make_shared<Sealed>();
    sealed_ = sealed;
    {
      BuildPhaseTimer timer(&stats->phases, "order");
      sealed->by_rank = order(graph);
      sealed->rank.resize(sealed->by_rank.size());
      for (uint32_t r = 0; r < sealed->by_rank.size(); ++r) {
        sealed->rank[sealed->by_rank[r]] = r;
      }
    }
    {
      BuildPhaseTimer timer(&stats->phases, "label");
      build_price_ = BuildLabels();
      sealed->build_price = build_price_;
    }
    {
      BuildPhaseTimer timer(&stats->phases, "seal");
      SealLabels(*sealed);
    }
    stats->size_bytes = IndexSizeBytes();
    stats->num_entries = TotalEntries();
  }

  /// Qr(s, t) under constraint `q` — the single query path every entry
  /// point routes through — counted into probe `slot`.
  bool Answer(VertexId s, VertexId t, Constraint q, size_t slot) const {
    [[maybe_unused]] QueryProbe& probe = probes_.Slot(slot);
    REACH_PROBE_INC(probe, queries);
    // Worst-case entries consulted: the Lout(s) ∩ Lin(t) intersection
    // scans both lists end to end. (The build-time oracle is left
    // unprobed — the pruning tests would otherwise swamp the counts.)
    REACH_PROBE_ADD(probe, labels_scanned,
                    (sealed_->compressed
                         ? sealed_->lout_cpool.ListEntries(s) +
                               sealed_->lin_cpool.ListEntries(t)
                         : sealed_->lout_pool.Slice(s).size() +
                               sealed_->lin_pool.Slice(t).size()) +
                        (delta_lin_.empty() ? 0 : delta_lin_[t].size()));
    // Zero damage is the common case and pays nothing for decremental
    // support: the superset test is exact (every delete so far was
    // locally redundant, or there were none).
    const bool reachable =
        s == t || (damage_ == 0 ? SupersetAnswer(s, t, q)
                                : DamagedAnswer(s, t, q, slot));
    if (reachable) {
      REACH_PROBE_INC(probe, positives);
    } else {
      REACH_PROBE_INC(probe, label_rejections);  // labels ruled it out
    }
    return reachable;
  }

  /// Gives every query slot its own probe and verification scratch now —
  /// growing them mid-fanout would race.
  size_t PrepareSlots(size_t slots) const {
    if (slots == 0) slots = 1;
    probes_.EnsureSlots(slots);
    verify_ws_->EnsureSlots(slots);
    rent_->EnsureSlots(slots);
    return slots;
  }
  QueryProbe Probe() const { return probes_.Aggregate(); }
  void ResetProbe() const { probes_.Reset(); }

  /// Validate-first batch application (`ApplyUpdateBatch`; a loaded
  /// labeling has no live graph and rejects every batch). Inserts apply
  /// incrementally; deletes tombstone the arc and either prove themselves
  /// answer-preserving or record the pairs they may have lost. Never
  /// rebuilds; the status is
  /// `kDeferredRebuild` once the labels are damaged and either the damage
  /// passes a nonzero staleness budget (a hard cap) or the rent damaged
  /// queries paid since the last build reaches that build's price. That
  /// is the ski-rental rule: renting (answering through live searches)
  /// until the rent equals the price of buying (a build) costs at most
  /// twice what the best choice made knowing the future would. Only
  /// queries pay rent, so a service that stops writing keeps a damaged
  /// copy until its next write asks.
  template <typename Batch>
  UpdateResult ApplyUpdate(const Batch& batch) {
    const Graph* graph = overlay_.base();
    UpdateResult result = ApplyUpdateBatch(
        batch, graph,
        [graph](const auto& update) -> const char* {
          return Arcs::InRange(*graph, UpdateArc(update))
                     ? nullptr
                     : "label out of range";
        },
        [this](const auto& update) {
          const Arc arc = UpdateArc(update);
          return update.IsInsert() ? ApplyInsert(update.source, arc)
                                   : ApplyDelete(update.source, arc);
        },
        damage_, staleness_budget_);
    if (result.status == UpdateStatus::kApplied && damage_ > 0 &&
        RentPaid() >= build_price_) {
      result.RecommendRebuild();
    }
    return result;
  }

  /// The live graph as a graph the core owns — what `RebuildFromUpdates`
  /// builds over. nullptr without a live graph (after a load).
  const Graph* MaterializeLiveGraph() {
    return overlay_.base() == nullptr ? nullptr : &overlay_.Materialize();
  }

  /// Gives a loaded labeling its live graph back: `graph` must be the
  /// graph the labels describe, as the snapshot's graph digest records.
  /// The core then takes updates and copies like a built one, at the
  /// build price the snapshot recorded. Without a recorded price the price
  /// is 0, so its first damaging delete asks for a full build.
  /// `kWrongIndex`, leaving the core as loaded, when the labeling carries
  /// no digest or `graph` does not match it.
  LoadResult Rebase(const Graph& graph) {
    const std::optional<uint64_t> digest = sealed_->graph_digest;
    if (!digest) {
      return {LoadStatus::kWrongIndex, "snapshot has no graph digest"};
    }
    if (graph.NumVertices() != NumVertices()) {
      return {LoadStatus::kWrongIndex, "graph has a different vertex count"};
    }
    ResetDynamicState(&graph);
    if (GraphDigest() != *digest) {
      ResetDynamicState(nullptr);
      build_price_ = sealed_->build_price;
      return {LoadStatus::kWrongIndex,
              "snapshot was built over a different graph"};
    }
    build_price_ = sealed_->build_price;
    return {};
  }

  /// FNV-1a (64-bit) of the vertex count and the arc set the labels
  /// describe: the built graph plus inserted arcs, tombstoned ones
  /// included, each vertex's arcs sorted. Requires a live graph.
  uint64_t GraphDigest() const {
    static_assert(std::has_unique_object_representations_v<Arc>);
    uint64_t hash = 0xcbf29ce484222325ULL;
    const auto mix = [&hash](const void* data, size_t bytes) {
      for (size_t i = 0; i < bytes; ++i) {
        hash = (hash ^ static_cast<const uint8_t*>(data)[i]) *
               0x100000001b3ULL;
      }
    };
    const uint64_t n = overlay_.NumVertices();
    mix(&n, sizeof(n));
    std::vector<Arc> arcs;
    for (VertexId v = 0; v < n; ++v) {
      arcs.clear();
      overlay_.SupersetOut()(v, [&arcs](const Arc& arc) {
        arcs.push_back(arc);
        return false;
      });
      std::sort(arcs.begin(), arcs.end());
      for (const Arc& arc : arcs) {
        mix(&v, sizeof(v));
        mix(&arc, sizeof(arc));
      }
    }
    return hash;
  }

  size_t Damage() const { return damage_; }
  size_t StalenessBudget() const { return staleness_budget_; }
  /// Pruning-oracle evaluations the last `Build` made: the price of a full
  /// build in the units damaged queries pay rent in. A snapshot load keeps
  /// the price the snapshot recorded; a stream load, or a snapshot without
  /// a price, has 0.
  uint64_t BuildPrice() const { return build_price_; }
  /// Rent damaged queries paid since the last build or load, on this core
  /// and on every copy sharing its meter: 1 per damaged superset-positive,
  /// plus 1 per vertex its live verification evaluated. Safe while
  /// queries run.
  uint64_t RentPaid() const { return rent_->Paid(); }
  bool Compressed() const { return sealed_->compressed; }
  bool BudgetExceeded() const { return sealed_->budget_exceeded; }
  const TwoHopStorageOptions& Storage() const { return storage_; }
  size_t NumVertices() const { return sealed_->rank.size(); }

  /// Total label entries, sum |Lin| + |Lout| including the delta overlay.
  size_t TotalEntries() const {
    const Sealed& sealed = *sealed_;
    size_t entries = sealed.compressed ? sealed.lin_cpool.NumEntries() +
                                             sealed.lout_cpool.NumEntries()
                                       : sealed.lin_pool.NumEntries() +
                                             sealed.lout_pool.NumEntries();
    return entries + delta_lin_.NumItems();
  }

  /// Sealed pools (or the mapping they view), the rank translation
  /// tables, and the update state: the delta entries and the arcs
  /// inserted and tombstoned since the build, not the chunk headers that
  /// hold them (a size bound over those would trip on a small graph's
  /// first insert). O(1), so a caller may ask after every update.
  size_t IndexSizeBytes() const {
    return sealed_->PoolBytes() +
           (sealed_->rank.size() + sealed_->by_rank.size()) *
               sizeof(uint32_t) +
           delta_lin_.NumItems() * sizeof(Entry) + overlay_.ArcBytes();
  }

  /// Lin(v) as one rank-sorted vector: the sealed slice merged with the
  /// delta overlay. Lout has no overlay.
  std::vector<Entry> InEntries(VertexId v) const {
    std::vector<Entry> merged = sealed_->Entries(/*in=*/true, v);
    if (const std::span<const Entry> delta = delta_lin_[v]; !delta.empty()) {
      std::vector<Entry> out(merged.size() + delta.size());
      std::merge(merged.begin(), merged.end(), delta.begin(), delta.end(),
                 out.begin(), [](const Entry& a, const Entry& b) {
                   return Traits::Rank(a) < Traits::Rank(b);
                 });
      merged = std::move(out);
    }
    return merged;
  }
  std::vector<Entry> OutEntries(VertexId v) const {
    return sealed_->Entries(/*in=*/false, v);
  }

  const ArcOverlay<Graph>& overlay() const { return overlay_; }

  // --- Compressed-pool kernels of the superset test: the skip tables
  // prefilter and skip blocks, and `Traits::Covered` / `Traits::Intersect`
  // run on the blocks that are decoded. Public for the pool tests. ---

  /// Whether list `v` of `pool` holds a `rank` entry usable under `q`: one
  /// skip-table binary search, then `Covered` on the rank group decoded
  /// from one block (a rank group never straddles blocks).
  static bool PoolCovered(const Pool& pool, VertexId v, uint32_t rank,
                          Constraint q) {
    const size_t end = pool.BlockEnd(v);
    const size_t b = pool.LowerBoundBlock(pool.BlockBegin(v), end, rank);
    if (b == end || pool.Skip(b).first > rank) return false;
    Entry buf[Pool::kMaxBlockEntries];
    return Traits::Covered(pool.DecodeGroup(b, rank, buf), rank, q);
  }

  /// Whether Lout(s) of `out_pool` and Lin(t) of `in_pool` share a hop
  /// usable under `q`: a block merge over the two skip tables that jumps
  /// non-overlapping runs by binary search and decodes only block pairs
  /// whose rank ranges overlap.
  static bool PoolsIntersect(const Pool& out_pool, VertexId s,
                             const Pool& in_pool, VertexId t, Constraint q) {
    size_t i = out_pool.BlockBegin(s), j = in_pool.BlockBegin(t);
    const size_t i_end = out_pool.BlockEnd(s), j_end = in_pool.BlockEnd(t);
    if (i == i_end || j == j_end) return false;
    // Whole-list prefilter straight off the skip entries.
    if (out_pool.Skip(i_end - 1).last < in_pool.Skip(j).first ||
        in_pool.Skip(j_end - 1).last < out_pool.Skip(i).first) {
      return false;
    }
    Entry buf_out[Pool::kMaxBlockEntries], buf_in[Pool::kMaxBlockEntries];
    size_t decoded_out = SIZE_MAX, decoded_in = SIZE_MAX;
    size_t count_out = 0, count_in = 0;
    while (i != i_end && j != j_end) {
      const auto& so = out_pool.Skip(i);
      const auto& si = in_pool.Skip(j);
      if (so.last < si.first) {
        i = out_pool.LowerBoundBlock(i + 1, i_end, si.first);
        continue;
      }
      if (si.last < so.first) {
        j = in_pool.LowerBoundBlock(j + 1, j_end, so.first);
        continue;
      }
      if (decoded_out != i) {
        count_out = out_pool.DecodeBlock(i, buf_out);
        decoded_out = i;
      }
      if (decoded_in != j) {
        count_in = in_pool.DecodeBlock(j, buf_in);
        decoded_in = j;
      }
      if (Traits::Intersect({buf_out, count_out}, {buf_in, count_in}, q)) {
        return true;
      }
      // Equal-last advance-both is sound: blocks end at whole rank groups,
      // so the shared last group was fully checked by this pair.
      const bool advance_out = so.last <= si.last;
      const bool advance_in = si.last <= so.last;
      if (advance_out) ++i;
      if (advance_in) ++j;
    }
    return false;
  }

  /// Whether list `v` of `pool` and the rank-sorted `other` (a delta
  /// overlay list) share a hop usable under `q`.
  static bool PoolIntersectsSpan(const Pool& pool, VertexId v,
                                 std::span<const Entry> other, Constraint q) {
    if (other.empty()) return false;
    const size_t end = pool.BlockEnd(v);
    Entry buf[Pool::kMaxBlockEntries];
    for (size_t b = pool.LowerBoundBlock(pool.BlockBegin(v), end,
                                         Traits::Rank(other.front()));
         b != end && pool.Skip(b).first <= Traits::Rank(other.back()); ++b) {
      const size_t count = pool.DecodeBlock(b, buf);
      if (Traits::Intersect({buf, count}, other, q)) return true;
    }
    return false;
  }

  // --- Persistence (docs/SNAPSHOTS.md). Both writers refuse while
  // damaged: a damaged labeling is only exact together with the live
  // tombstone and graph state, which neither format carries. Both loaders
  // leave the core without a live graph (queries only, until the next
  // `Build`, or `Rebase` after a snapshot load) and run `ValidateLabeling`
  // before the labeling goes live. ---

  /// The v1 stream: envelope `Traits::kFormatName`, u64 payload magic,
  /// u64 n, the rank and by-rank tables, then every Lin and every Lout
  /// list (delta overlay merged in), each as a u64 count plus raw entries.
  bool Save(std::ostream& out) const {
    using serialize_detail::WritePod;
    if (damage_ > 0 || !WriteEnvelope(out, Traits::kFormatName)) {
      return false;
    }
    const size_t n = sealed_->rank.size();
    WritePod(out, Traits::kPayloadMagic);
    WritePod(out, static_cast<uint64_t>(n));
    serialize_detail::WriteU32Vec(out, sealed_->rank);
    serialize_detail::WriteU32Vec(out, sealed_->by_rank);
    const auto write_list = [&out](const std::vector<Entry>& list) {
      WritePod(out, static_cast<uint64_t>(list.size()));
      serialize_detail::WriteBytes(out, list.data(),
                                   list.size() * sizeof(Entry));
    };
    for (VertexId v = 0; v < n; ++v) write_list(InEntries(v));
    for (VertexId v = 0; v < n; ++v) write_list(OutEntries(v));
    return static_cast<bool>(out);
  }

  /// Restores a labeling written by `Save` and seals it under this core's
  /// storage options. Corrupt payloads name the failing section and, for
  /// parse failures, its starting byte offset.
  LoadResult Load(std::istream& in) {
    using serialize_detail::ReadPod;
    LoadResult envelope = ReadEnvelope(in, Traits::kFormatName);
    if (!envelope) return envelope;
    const auto offset = [&in]() -> uint64_t {
      const std::streampos pos = in.tellg();
      return pos < 0 ? 0 : static_cast<uint64_t>(pos);
    };
    uint64_t at = offset();
    uint64_t magic = 0, n = 0;
    if (!ReadPod(in, &magic) || magic != Traits::kPayloadMagic) {
      return CorruptAt("payload magic", at);
    }
    at = offset();
    if (!ReadPod(in, &n)) return CorruptAt("vertex count", at);
    at = offset();
    std::vector<uint32_t> rank, by_rank;
    if (!serialize_detail::ReadU32Vec(in, &rank, n) || rank.size() != n) {
      return CorruptAt("rank table", at);
    }
    at = offset();
    if (!serialize_detail::ReadU32Vec(in, &by_rank, n) ||
        by_rank.size() != n) {
      return CorruptAt("by-rank table", at);
    }
    const uint64_t cap = n * Traits::kListCapPerVertex;
    const auto read_lists = [&](const char* side, EntryLists* lists) {
      lists->resize(n);
      for (size_t v = 0; v < n; ++v) {
        at = offset();
        std::vector<Entry>& list = (*lists)[v];
        uint64_t count = 0;
        bool ok = ReadPod(in, &count) && count <= cap;
        if (ok) {
          list.resize(count);
          ok = serialize_detail::ReadBytes(in, list.data(),
                                           count * sizeof(Entry));
        }
        if (!ok) return CorruptAt(ListName(side, v), at);
      }
      return LoadResult{};
    };
    EntryLists lin, lout;
    if (LoadResult r = read_lists("Lin", &lin); !r) return r;
    if (LoadResult r = read_lists("Lout", &lout); !r) return r;
    ResetDynamicState(nullptr);
    const std::shared_ptr<Sealed> sealed = std::make_shared<Sealed>();
    sealed_ = sealed;
    sealed->rank = std::move(rank);
    sealed->by_rank = std::move(by_rank);
    lin_ = std::move(lin);
    lout_ = std::move(lout);
    SealLabels(*sealed);
    return ValidateLabeling();
  }

  /// Writes an RCHX v2 snapshot file: meta, rank and by-rank sections,
  /// then the sealed pool arrays of whichever representation is live, each
  /// page-aligned (the `SnapshotSection` kinds), the graph digest when
  /// the core knows its graph, and the build price. A delta overlay is
  /// folded into temporary pools first, so the file holds one delta-free
  /// labeling.
  bool SaveSnapshot(std::ostream& out) const {
    namespace snap = two_hop_snapshot;
    if (damage_ > 0) return false;
    const Sealed& sealed = *sealed_;
    const size_t n = sealed.rank.size();
    // The temporaries must outlive WriteTo (sections point into them).
    FlatLabelPool<Entry> merged_flat;
    Pool merged_packed;
    const FlatLabelPool<Entry>* lin_flat = &sealed.lin_pool;
    const Pool* lin_packed = &sealed.lin_cpool;
    if (!delta_lin_.empty()) {
      EntryLists merged(n);
      for (VertexId v = 0; v < n; ++v) merged[v] = InEntries(v);
      if (sealed.compressed) {
        if (!merged_packed.Seal(merged, sealed.lin_cpool.BlockEntries())) {
          return false;
        }
        lin_packed = &merged_packed;
      } else {
        merged_flat.Seal(std::move(merged));
        lin_flat = &merged_flat;
      }
    }

    SnapshotWriter writer{std::string(Traits::kFormatName)};
    snap::Meta meta{};
    meta.payload_magic = Traits::kPayloadMagic;
    meta.num_vertices = n;
    meta.storage = sealed.compressed ? 1 : 0;
    if (sealed.compressed) {
      meta.lin_entries = lin_packed->NumEntries();
      meta.lout_entries = sealed.lout_cpool.NumEntries();
      meta.block_entries = static_cast<uint32_t>(lin_packed->BlockEntries());
    } else {
      meta.lin_entries = lin_flat->NumEntries();
      meta.lout_entries = sealed.lout_pool.NumEntries();
    }
    const auto add = [&writer](uint32_t kind, auto span) {
      writer.AddSection(kind, span.data(), span.size_bytes());
    };
    add(snap::kMeta, std::span<const snap::Meta>(&meta, 1));
    add(snap::kRank, std::span<const uint32_t>(sealed.rank));
    add(snap::kByRank, std::span<const VertexId>(sealed.by_rank));
    if (sealed.compressed) {
      for (const auto& [kind, pool] :
           {std::pair{snap::kLinVertexBlocks, lin_packed},
            std::pair{snap::kLoutVertexBlocks, &sealed.lout_cpool}}) {
        add(kind, pool->VertexBlocksRaw());
        add(kind + 1, pool->SkipRaw());
        add(kind + 2, pool->DataRaw());
      }
    } else {
      for (const auto& [kind, pool] :
           {std::pair{snap::kLinOffsets, lin_flat},
            std::pair{snap::kLoutOffsets, &sealed.lout_pool}}) {
        add(kind, pool->OffsetsRaw());
        add(kind + 1, pool->EntriesRaw());
      }
    }
    // A loaded core without a live graph has taken no update since, so
    // the digest it loaded still holds.
    const std::optional<uint64_t> digest =
        overlay_.base() != nullptr ? std::optional(GraphDigest())
                                   : sealed.graph_digest;
    if (digest) {
      add(snap::kGraphDigest, std::span<const uint64_t>(&*digest, 1));
    }
    add(snap::kBuildPrice, std::span<const uint64_t>(&build_price_, 1));
    return writer.WriteTo(out);
  }

  /// Crash-safe snapshot write to a file (`WriteFileAtomic`).
  bool SaveSnapshot(const std::string& path, std::string* error) const {
    return WriteFileAtomic(
        path, [this](std::ostream& out) { return SaveSnapshot(out); },
        error);
  }

  LoadResult LoadSnapshot(const std::string& path) {
    std::string error;
    std::shared_ptr<MappedFile> file = MappedFile::Open(path, &error);
    if (file == nullptr) return {LoadStatus::kCorrupt, error};
    return LoadSnapshot(std::move(file));
  }

  /// Zero-copy restore: validates the section table and meta, points the
  /// pools at the mapping (`SealFromView` checks their structure), holds
  /// the mapping, keeps the graph digest and the build price when the file
  /// has them, and validates the labeling.
  LoadResult LoadSnapshot(std::shared_ptr<MappedFile> file) {
    namespace snap = two_hop_snapshot;
    SnapshotView view;
    LoadResult parsed =
        view.Parse(file->data(), file->size(), Traits::kFormatName);
    if (!parsed) return parsed;
    const std::span<const uint8_t> meta_bytes = view.Section(snap::kMeta);
    if (meta_bytes.size() != sizeof(snap::Meta)) {
      return {LoadStatus::kCorrupt, "meta section: wrong size"};
    }
    snap::Meta meta;
    std::memcpy(&meta, meta_bytes.data(), sizeof(meta));
    if (meta.payload_magic != Traits::kPayloadMagic) {
      return {LoadStatus::kCorrupt, "meta section: bad payload magic"};
    }
    if (meta.storage > 1) {
      return {LoadStatus::kCorrupt, "meta section: unknown storage mode"};
    }
    const uint64_t n = meta.num_vertices;
    if (n > UINT32_MAX) {
      return {LoadStatus::kCorrupt, "meta section: vertex count overflow"};
    }
    const std::span<const uint32_t> rank =
        view.TypedSection<uint32_t>(snap::kRank);
    const std::span<const VertexId> by_rank =
        view.TypedSection<VertexId>(snap::kByRank);
    if (rank.size() != n) {
      return {LoadStatus::kCorrupt, "rank section: size mismatch"};
    }
    if (by_rank.size() != n) {
      return {LoadStatus::kCorrupt, "by-rank section: size mismatch"};
    }

    // Header-level checks passed: reset storage, then point the pools at
    // the mapping.
    ResetDynamicState(nullptr);
    const std::shared_ptr<Sealed> sealed = std::make_shared<Sealed>();
    sealed_ = sealed;
    sealed->compressed = meta.storage == 1;
    const auto seal_view = [&](const char* side, uint32_t kind,
                               uint64_t entries, FlatLabelPool<Entry>* flat,
                               Pool* packed) -> LoadResult {
      if (sealed->compressed) {
        if (!packed->SealFromView(
                view.TypedSection<uint32_t>(kind),
                view.TypedSection<typename Pool::SkipEntry>(kind + 1),
                view.Section(kind + 2), entries, meta.block_entries) ||
            packed->NumVertices() != n) {
          return {LoadStatus::kCorrupt,
                  std::string(side) + " block sections: malformed"};
        }
        return {};
      }
      const std::span<const Entry> list = view.TypedSection<Entry>(kind + 1);
      if (list.size() != entries) {
        return {LoadStatus::kCorrupt,
                std::string(side) + " entry section: size mismatch"};
      }
      if (!flat->SealFromView(view.TypedSection<uint64_t>(kind), list) ||
          flat->NumVertices() != n) {
        return {LoadStatus::kCorrupt,
                std::string(side) + " offsets: malformed CSR"};
      }
      return {};
    };
    if (LoadResult r = seal_view("Lin",
                                 sealed->compressed ? snap::kLinVertexBlocks
                                                    : snap::kLinOffsets,
                                 meta.lin_entries, &sealed->lin_pool,
                                 &sealed->lin_cpool);
        !r) {
      return r;
    }
    if (LoadResult r = seal_view("Lout",
                                 sealed->compressed ? snap::kLoutVertexBlocks
                                                    : snap::kLoutOffsets,
                                 meta.lout_entries, &sealed->lout_pool,
                                 &sealed->lout_cpool);
        !r) {
      return r;
    }
    if (view.Has(snap::kGraphDigest)) {
      const std::span<const uint8_t> digest = view.Section(snap::kGraphDigest);
      if (digest.size() != sizeof(uint64_t)) {
        return {LoadStatus::kCorrupt, "graph digest section: wrong size"};
      }
      sealed->graph_digest.emplace();
      std::memcpy(&*sealed->graph_digest, digest.data(), sizeof(uint64_t));
    }
    if (view.Has(snap::kBuildPrice)) {
      const std::span<const uint8_t> price = view.Section(snap::kBuildPrice);
      if (price.size() != sizeof(uint64_t)) {
        return {LoadStatus::kCorrupt, "build price section: wrong size"};
      }
      std::memcpy(&sealed->build_price, price.data(), sizeof(uint64_t));
    }
    sealed->rank.assign(rank.begin(), rank.end());
    sealed->by_rank.assign(by_rank.begin(), by_rank.end());
    // Pool views point into this mapping.
    sealed->mapping = std::move(file);
    LoadResult valid = ValidateLabeling();
    if (valid) {
      build_price_ = sealed->build_price;
      PublishStorageGauges(2 * (n + 1) * sizeof(uint64_t) +
                           (meta.lin_entries + meta.lout_entries) *
                               sizeof(Entry));
    }
    return valid;
  }

 private:
  using Sweeper = typename Traits::Sweeper;
  using EntryLists = std::vector<std::vector<Entry>>;
  struct Sealed;

  // The lost-set state (see `CutLostSets`).
  static constexpr uint32_t kLostBits = 128;
  using LostBits = std::array<uint64_t, kLostBits / 64>;
  struct LostMasks {
    LostBits src{};
    LostBits tgt{};
  };
  struct LostSets {
    // The arcs cut since the build, per tail, sorted.
    CowLists<Arc> cut;
    // Each vertex's source and target masks; no chunk until a cut loses
    // a pair.
    CowArray<LostMasks> masks;
    // The cuts that lost pairs.
    uint32_t cuts = 0;
    // A G+ sweep overran: every damaged positive is verified live.
    bool all = false;
  };

  // The rent damaged queries paid since a build: one counter per query
  // slot, each on its own cache line, so concurrent readers charge
  // without sharing a line while the writer sums them. Relaxed atomics:
  // the sum only steers when a build is recommended. Slots grow with
  // `PrepareSlots`, never during queries.
  class RentMeter {
   public:
    explicit RentMeter(size_t slots = 1) { EnsureSlots(slots); }
    void EnsureSlots(size_t n) {
      while (cells_.size() < n) cells_.emplace_back();
    }
    void Charge(size_t slot, uint64_t units) {
      cells_[slot].paid.fetch_add(units, std::memory_order_relaxed);
    }
    uint64_t Paid() const {
      uint64_t paid = 0;
      for (const Cell& cell : cells_) {
        paid += cell.paid.load(std::memory_order_relaxed);
      }
      return paid;
    }

   private:
    struct alignas(64) Cell {
      std::atomic<uint64_t> paid{0};
    };
    std::deque<Cell> cells_;
  };

  uint32_t Rank(VertexId v) const { return sealed_->rank[v]; }
  VertexId ByRank(uint32_t r) const { return sealed_->by_rank[r]; }

  // The pruned sweeps in rank order over the built graph: rank r's forward
  // sweep adds (r, path set) entries to `lin_`, its backward sweep to
  // `lout_`. A sweep skips vertices of rank <= r and prunes a state the
  // labels of earlier ranks already answer. The sweeper is kept as the
  // insert's (`ApplyInsert`).
  //
  // The oracle is the common-hop case of the three-case test alone: at
  // every evaluation both covered cases are false. Take the forward sweep
  // of rank r and an evaluated state (w, A), so rank(w) > r.
  //  * Covered(Lin(w), r, A): a rank-r entry enters Lin(w) only through
  //    this sweep's emit of a state (w, A') it evaluated, and the sweeper
  //    never evaluates a later state of w whose path set contains A' (the
  //    plain sweeper evaluates w once).
  //  * Covered(Lout(hop), rank(w), A): a backward sweep of rank r' labels
  //    only vertices of rank > r', so Lout(hop) holds ranks < r; and
  //    rank(w) > r.
  // The backward sweep is the mirror image: Lin(hop) holds ranks < r, and
  // r enters Lout(w) only through this sweep.
  //
  // Returns the build's price: the oracle evaluations the sweeps made.
  uint64_t BuildLabels() {
    const Graph& graph = *overlay_.base();
    const std::vector<uint32_t>& rank = sealed_->rank;
    const size_t n = rank.size();
    lin_.assign(n, {});
    lout_.assign(n, {});
    sweeper_ = std::make_shared<Sweeper>(n);
    uint64_t evaluations = 0;
    const auto out = [&graph](VertexId x, auto&& visit) {
      for (const Arc& arc : Arcs::Out(graph, x)) visit(arc);
    };
    const auto in = [&graph](VertexId x, auto&& visit) {
      for (const Arc& arc : Arcs::In(graph, x)) visit(arc);
    };
    for (uint32_t r = 0; r < n; ++r) {
      const VertexId hop = ByRank(r);
      sweeper_->Run(
          hop, Traits::HopEntry(r), out,
          [&](VertexId w, const Entry& e) {
            if (rank[w] <= r) return true;
            ++evaluations;
            return LabelIntersect(hop, w, Traits::PathSet(e));
          },
          [&](VertexId w, const Entry& e) { lin_[w].push_back(e); });
      sweeper_->Run(
          hop, Traits::HopEntry(r), in,
          [&](VertexId w, const Entry& e) {
            if (rank[w] <= r) return true;
            ++evaluations;
            return LabelIntersect(w, hop, Traits::PathSet(e));
          },
          [&](VertexId w, const Entry& e) { lout_[w].push_back(e); });
    }
    return evaluations;
  }

  // The build's pruning oracle over the unsealed per-vertex vectors.
  bool LabelIntersect(VertexId s, VertexId t, Constraint q) const {
    return Traits::Intersect(lout_[s], lin_[t], q);
  }

  // Moves the build-side vectors into the pools of `sealed`, a fresh
  // labeling: flat, or — when `storage_` asks for compression or the flat
  // layout exceeds the byte budget — block-compressed, doubling the block
  // size FERRARI-style until the budget fits or the coarsest tier is
  // reached. A pool that refuses compression (an oversized rank group)
  // keeps flat storage.
  void SealLabels(Sealed& sealed) {
    const size_t n = lin_.size();
    size_t entries = 0;
    for (const auto& l : lin_) entries += l.size();
    for (const auto& l : lout_) entries += l.size();
    // Flat-equivalent footprint, for the budget decision and the
    // compression-ratio gauge.
    const size_t flat_bytes =
        2 * (n + 1) * sizeof(uint64_t) + entries * sizeof(Entry);
    const size_t budget = storage_.budget_mb * (size_t{1} << 20);
    if (storage_.compress || (budget != 0 && flat_bytes > budget)) {
      size_t block =
          Pool::ClampBlockEntries(storage_.block_entries);
      for (;;) {
        if (!sealed.lin_cpool.Seal(lin_, block) ||
            !sealed.lout_cpool.Seal(lout_, block)) {
          sealed.lin_cpool.Clear();
          sealed.lout_cpool.Clear();
          break;
        }
        const size_t bytes =
            sealed.lin_cpool.MemoryBytes() + sealed.lout_cpool.MemoryBytes();
        if (budget != 0 && bytes > budget &&
            block < Pool::kMaxBlockEntries) {
          block *= 2;
          continue;
        }
        sealed.compressed = true;
        sealed.budget_exceeded = budget != 0 && bytes > budget;
        break;
      }
    }
    if (sealed.compressed) {
      EntryLists().swap(lin_);
      EntryLists().swap(lout_);
    } else {
      sealed.budget_exceeded = budget != 0 && flat_bytes > budget;
      sealed.lin_pool.Seal(std::move(lin_));
      sealed.lout_pool.Seal(std::move(lout_));
    }
    PublishStorageGauges(flat_bytes);
  }

  // Publishes the index.bytes / compression gauges after a (re)seal.
  void PublishStorageGauges(size_t flat_equivalent_bytes) const {
    MetricsRegistry& reg = MetricsRegistry::Global();
    const Sealed& sealed = *sealed_;
    const size_t n = sealed.rank.size();
    const size_t bytes = sealed.PoolBytes();
    reg.GetGauge("index.bytes").Set(static_cast<double>(bytes));
    reg.GetGauge("index.bytes_per_vertex")
        .Set(n == 0 ? 0.0
                    : static_cast<double>(bytes) / static_cast<double>(n));
    if (sealed.compressed) {
      reg.GetGauge("index.compression_ratio")
          .Set(bytes == 0 ? 1.0
                          : static_cast<double>(flat_equivalent_bytes) /
                                static_cast<double>(bytes));
    }
    if (storage_.budget_mb != 0) {
      reg.GetGauge("index.budget_exceeded")
          .Set(sealed.budget_exceeded ? 1 : 0);
    }
  }

  // The three-case 2-hop test on the sealed pools + delta overlay: exact
  // for the superset graph, hence exact negatives (and, with zero damage,
  // exact positives) for the live one. Delta entries live outside the
  // pool, so every (pool, delta) pairing that could supply the common
  // hop is checked separately.
  bool SupersetAnswer(VertexId s, VertexId t, Constraint q) const {
    if (s == t) return true;
    const Sealed& sealed = *sealed_;
    const uint32_t rank_s = sealed.rank[s];
    if (sealed.compressed) {
      // Same test on the skip tables: membership decodes at most one
      // block, the intersection only blocks that can overlap.
      if (PoolCovered(sealed.lin_cpool, t, rank_s, q)) return true;
      if (PoolCovered(sealed.lout_cpool, s, sealed.rank[t], q)) return true;
      if (PoolsIntersect(sealed.lout_cpool, s, sealed.lin_cpool, t, q)) {
        return true;
      }
      if (delta_lin_.empty()) return false;
      const std::span<const Entry> delta = delta_lin_[t];
      if (Traits::Covered(delta, rank_s, q)) return true;
      return PoolIntersectsSpan(sealed.lout_cpool, s, delta, q);
    }
    const std::span<const Entry> out = sealed.lout_pool.Slice(s);
    const std::span<const Entry> in = sealed.lin_pool.Slice(t);
    if (Traits::Covered(in, rank_s, q)) return true;
    if (Traits::Covered(out, sealed.rank[t], q)) return true;
    if (Traits::Intersect(out, in, q)) return true;
    if (delta_lin_.empty()) return false;
    const std::span<const Entry> delta = delta_lin_[t];
    if (Traits::Covered(delta, rank_s, q)) return true;
    return Traits::Intersect(out, delta, q);
  }

  // The lost-set test while damage_ > 0: the labels over-approximate the
  // live graph, so a superset negative is exact, and a superset positive
  // that no cut since the build can have lost is exact too (G- connects
  // the pair). Any other positive is verified live. Kept out of line so
  // the zero-damage path of `Answer` stays small. A verified positive
  // pays the rent meter 1, plus 1 per vertex its live search evaluates.
  [[gnu::noinline]] bool DamagedAnswer(VertexId s, VertexId t, Constraint q,
                                       size_t slot) const {
    if (!SupersetAnswer(s, t, q)) return false;  // exact: no path in G+
    if (NoCutLost(s, t)) return true;  // exact: G- connects s -> t
    REACH_PROBE_INC(probes_.Slot(slot), fallbacks);
    size_t evaluated = 0;
    const bool reachable =
        ConstrainedLiveSearch(s, t, q, verify_ws_->Slot(slot), &evaluated);
    rent_->Charge(slot, 1 + evaluated);
    return reachable;
  }

  // BFS over live arcs allowed under `q`, pruned at vertices the superset
  // labels already rule out (w cannot reach `to` in G+ ⇒ not in the live
  // graph either). True iff `to` is found. This is the exactness backstop
  // of damaged answers, and the label pruning keeps its frontier near the
  // damaged region. Adds the vertices whose superset test it ran to
  // `*evaluated`.
  bool ConstrainedLiveSearch(VertexId from, VertexId to, Constraint q,
                             SearchWorkspace& ws, size_t* evaluated) const {
    ws.Prepare(overlay_.NumVertices());
    std::vector<VertexId>& queue = ws.queue();
    queue.push_back(from);
    ws.MarkForward(from);
    for (size_t head = 0; head < queue.size(); ++head) {
      const bool found = overlay_.LiveOut()(queue[head], [&](const Arc& arc) {
        if (!Traits::ArcAllowed(arc, q)) return false;
        const VertexId w = Arcs::Head(arc);
        if (w == to) return true;
        if (!ws.MarkForward(w)) return false;
        ++*evaluated;
        if (SupersetAnswer(w, to, q)) queue.push_back(w);
        return false;
      });
      if (found) return true;
    }
    return false;
  }

  // Both return true when graph state changed.
  bool ApplyInsert(VertexId s, const Arc& arc) {
    const VertexId t = Arcs::Head(arc);
    if (s == t) return false;  // reachability is reflexive anyway
    switch (overlay_.Insert(s, arc)) {
      case ArcInsert::kNoOp:
        return false;
      case ArcInsert::kResurrected:
        // The labels already cover a resurrected arc (it is part of the
        // superset), and it stays out of G-, so dropping the tombstone is
        // the whole update.
        return true;
      case ArcInsert::kAdded:
        break;
    }

    if (!lost_->masks.empty() && !lost_->all) CloseLostSets(s, t);
    // The superset already connects s -> t under the arc's own constraint,
    // so no superset closure grows and the labels stay exact: the dual of
    // the delete's local-redundancy rule.
    if (SupersetAnswer(s, t, Traits::DetourConstraint(arc))) return true;

    // TOL / DLCR insertion (docs/ALGORITHMS.md): for each hop entry (h, M)
    // of Lin(s) ∪ {(s, ∅)}, resume h's build sweep from t over G+ with the
    // path set M ∪ label(arc). A state (y, A) the index already answers
    // for h is pruned, and (y, (h, A)) is recorded otherwise. The prune
    // tests read the pre-insert index, which is what makes them sound: a
    // pruned y has h ~> y in the old G+, so whatever lies past y was
    // already reached through h. So the recorded entries go in only after
    // every hop is swept, into the delta overlay (the sealed pool is
    // immutable). Like the pool they describe G+, not the live graph: a
    // later resurrection of a tombstoned arc adds no labels, so the pairs
    // it routes must have theirs already.
    if (sweeper_ == nullptr) {
      sweeper_ = std::make_shared<Sweeper>(overlay_.NumVertices());
    }
    std::vector<Entry> hops = InEntries(s);
    hops.push_back(Traits::HopEntry(Rank(s)));
    std::vector<std::pair<VertexId, Entry>> found;
    for (const Entry& hop_entry : hops) {
      const VertexId hop = ByRank(Traits::Rank(hop_entry));
      const auto answered = [&](VertexId y, const Entry& e) {
        return SupersetAnswer(hop, y, Traits::PathSet(e));
      };
      const Entry start = Traits::Extend(hop_entry, arc);
      if (answered(t, start)) continue;
      found.emplace_back(t, start);
      sweeper_->Run(t, start, overlay_.SupersetOut(), answered,
                    [&found](VertexId y, const Entry& e) {
                      found.emplace_back(y, e);
                    });
    }
    // Hops of one rank may find the same entry, or one that an entry found
    // before already covers.
    for (const auto& [y, e] : found) {
      if (!Traits::Covered(delta_lin_[y], Traits::Rank(e),
                           Traits::PathSet(e))) {
        AddDeltaIn(y, e);
      }
    }
    return true;
  }

  // Adds `e` to the delta overlay of Lin(x), keeping it rank-sorted.
  void AddDeltaIn(VertexId x, const Entry& e) {
    const std::span<const Entry> list = delta_lin_[x];
    delta_lin_.Insert(
        x,
        std::upper_bound(list.begin(), list.end(), Traits::Rank(e),
                         [](uint32_t r, const Entry& d) {
                           return r < Traits::Rank(d);
                         }) -
            list.begin(),
        e);
  }

  bool ApplyDelete(VertexId s, const Arc& arc) {
    // The overlay tombstones rather than erases, inserted arcs too: G+
    // (and the sealed + delta labels that describe it) keeps every arc
    // that ever existed, so the lost-set sweeps still see the routes a
    // later cut may break.
    if (!overlay_.Delete(s, arc)) return false;  // absent or already dead
    if (s == Arcs::Head(arc)) return true;  // a self-loop never matters
    // A re-delete of a resurrected arc finds it out of G- already: G-, the
    // lost sets and so every answer stay as they are, and `damage_` keeps
    // counting distinct arcs.
    if (!RecordCut(s, arc)) return true;
    // A G- detour reroutes every old path through the arc: zero damage,
    // zero query-time cost.
    if (CutLostSets(s, arc)) return true;
    ++damage_;
    return true;
  }

  // BFS over G+ from `start` into ws_->queue(); false once the queue
  // outgrows `kLocalSearchBudget`.
  bool SweepSuperset(VertexId start, bool backward) {
    SearchWorkspace& ws = *ws_;
    ws.Prepare(overlay_.NumVertices());
    std::vector<VertexId>& queue = ws.queue();
    queue.push_back(start);
    ws.MarkForward(start);
    const auto visit = [&](const Arc& arc) {
      if (ws.MarkForward(Arcs::Head(arc))) queue.push_back(Arcs::Head(arc));
      return false;
    };
    for (size_t head = 0; head < queue.size(); ++head) {
      if (queue.size() > kLocalSearchBudget) return false;
      if (backward) {
        overlay_.SupersetIn()(queue[head], visit);
      } else {
        overlay_.SupersetOut()(queue[head], visit);
      }
    }
    return true;
  }

  // --- Lost sets (docs/ALGORITHMS.md). G- is the built graph plus the
  // inserted arcs, minus every arc cut (deleted at least once) since the
  // build, resurrected ones included, so G- is a subgraph of the live
  // graph. Invariant: every pair G+ connects under some constraint and G-
  // does not connect under it lies in LS_k x LT_k for some mask bit k,
  // where bit k of x's source (target) mask says x is in LS_k (LT_k). A
  // superset positive outside every product is then a G- positive, hence
  // a live one. The bit of the k-th cut that lost pairs is k mod
  // kLostBits; folding two cuts into one bit takes their union, still
  // sound. ---

  // A first cut of (u, v) loses nothing when G- keeps a detour u ->* v
  // under `DetourConstraint(cut)`: it reroutes every G- path through the
  // arc within the path's own constraint. Otherwise a lost s -> t had
  // every G- path through the arc, so s is in Anc+(u) and t in Desc+(v).
  // A query that may take the arc allows every arc `DetourConstraint(cut)`
  // allows, so s -> t would survive if s reached v, or u reached t, in G-
  // under that constraint: LS = Anc+(u) \ Anc-(v) and LT = Desc+(v) \
  // Desc-(u), the G- sets taken after the cut under it. The G+ sweeps
  // overrun into `LostSets::all`; the G- sweeps may stop at the budget,
  // since a subset of a subtrahend only widens LS and LT. True iff G-
  // keeps a detour.
  bool CutLostSets(VertexId u, const Arc& cut) {
    const VertexId v = Arcs::Head(cut);
    const Constraint q = Traits::DetourConstraint(cut);
    SearchWorkspace& ws = *ws_;
    const size_t n = overlay_.NumVertices();
    ws.Prepare(n);
    if (ReducedSweep(u, v, /*backward=*/false, q, ws)) return true;
    if (lost_->all) return false;
    LostSets& lost = lost_.Mutable();
    const uint32_t k = lost.cuts++ % kLostBits;
    LostBits bit{};
    bit[k / 64] = uint64_t{1} << (k % 64);
    // The subtrahend is in the forward marks; a sweep marks backward.
    if (!LostSweep(v, /*backward=*/false, ws, [&](VertexId x) {
          if (!ws.IsForwardMarked(x)) AddLost(lost, x, /*source=*/false, bit);
        })) {
      lost.all = true;
      return false;
    }
    ws.Prepare(n);
    ReducedSweep(v, kInvalidVertex, /*backward=*/true, q, ws);
    if (!LostSweep(u, /*backward=*/true, ws, [&](VertexId x) {
          if (!ws.IsForwardMarked(x)) AddLost(lost, x, /*source=*/true, bit);
        })) {
      lost.all = true;
    }
    return false;
  }

  // An insert (a, b) grows G+ and G- alike. A pair it connects in G+ and
  // not in G- has a path s ->* a -> b ->* t whose first or last leg G-
  // lacks: then a is in some LT_k with s in LS_k, or b is in some LS_k
  // with t in LT_k. So b's descendants join a's target bits and a's
  // ancestors join b's source bits.
  void CloseLostSets(VertexId a, VertexId b) {
    const LostMasks from_a = lost_->masks[a];
    const LostMasks from_b = lost_->masks[b];
    const auto spread = [this](VertexId start, bool backward,
                               const LostBits& bits) {
      if (bits == LostBits{}) return;
      LostSets& lost = lost_.Mutable();
      if (!SweepSuperset(start, backward)) {
        lost.all = true;
        return;
      }
      for (VertexId x : ws_->queue()) AddLost(lost, x, backward, bits);
    };
    spread(b, /*backward=*/false, from_a.tgt);
    if (!lost_->all) spread(a, /*backward=*/true, from_b.src);
  }

  // ORs `bits` into x's source (`source`) or target mask, writing (and so
  // cloning a shared chunk) only when that adds a bit.
  static void AddLost(LostSets& lost, VertexId x, bool source,
                      const LostBits& bits) {
    const LostMasks& m = lost.masks[x];
    const LostBits& have = source ? m.src : m.tgt;
    if ((bits[0] & ~have[0]) == 0 && (bits[1] & ~have[1]) == 0) return;
    LostMasks& w = lost.masks.Mutable(x);
    LostBits& words = source ? w.src : w.tgt;
    words[0] |= bits[0];
    words[1] |= bits[1];
  }

  // Records `s -> arc` as cut; false when it already was.
  bool RecordCut(VertexId s, const Arc& arc) {
    const std::span<const Arc> cut = lost_->cut[s];
    const auto at = std::lower_bound(cut.begin(), cut.end(), arc);
    if (at != cut.end() && *at == arc) return false;
    const size_t index = at - cut.begin();
    lost_.Mutable().cut.Insert(s, index, arc);
    return true;
  }
  bool IsCut(VertexId s, const Arc& arc) const {
    const std::span<const Arc> cut = lost_->cut[s];
    return !cut.empty() && std::binary_search(cut.begin(), cut.end(), arc);
  }

  // BFS over the G- arcs allowed under `q` from `start` (against the arcs
  // when `backward`) into the forward marks, until it reaches `stop` (then
  // true; `kInvalidVertex` never stops it) or outgrows the budget.
  bool ReducedSweep(VertexId start, VertexId stop, bool backward,
                    Constraint q, SearchWorkspace& ws) const {
    std::vector<VertexId>& queue = ws.queue();
    queue.push_back(start);
    ws.MarkForward(start);
    for (size_t head = 0; head < queue.size(); ++head) {
      if (queue.size() > kLocalSearchBudget) return false;
      const VertexId x = queue[head];
      const auto visit = [&](VertexId w) {
        if (w == stop) return true;
        if (ws.MarkForward(w)) queue.push_back(w);
        return false;
      };
      bool found;
      if (backward) {
        found = overlay_.SupersetIn()(x, [&](const Arc& in) {
          return Traits::ArcAllowed(in, q) &&
                 !IsCut(Arcs::Head(in), Arcs::Reverse(x, in)) &&
                 visit(Arcs::Head(in));
        });
      } else {
        // x's cut arcs, found once for all of its out-arcs.
        const std::span<const Arc> cut = lost_->cut[x];
        found = overlay_.SupersetOut()(x, [&](const Arc& out) {
          return Traits::ArcAllowed(out, q) &&
                 !std::binary_search(cut.begin(), cut.end(), out) &&
                 visit(Arcs::Head(out));
        });
      }
      if (found) return true;
    }
    return false;
  }

  // BFS over G+ from `start` with the backward marks, calling `fn(x)` on
  // each vertex it reaches, itself first; false once it outgrows the
  // budget.
  template <typename Fn>
  bool LostSweep(VertexId start, bool backward, SearchWorkspace& ws,
                 Fn&& fn) {
    std::vector<VertexId>& queue = ws.backward_queue();
    queue.push_back(start);
    ws.MarkBackward(start);
    const auto visit = [&](const Arc& arc) {
      if (ws.MarkBackward(Arcs::Head(arc))) queue.push_back(Arcs::Head(arc));
      return false;
    };
    for (size_t head = 0; head < queue.size(); ++head) {
      if (queue.size() > kLocalSearchBudget) return false;
      fn(queue[head]);
      if (backward) {
        overlay_.SupersetIn()(queue[head], visit);
      } else {
        overlay_.SupersetOut()(queue[head], visit);
      }
    }
    return true;
  }

  // No cut since the build can have lost s -> t.
  bool NoCutLost(VertexId s, VertexId t) const {
    const LostSets& lost = *lost_;
    if (lost.all) return false;
    const LostMasks& from = lost.masks[s];
    const LostMasks& to = lost.masks[t];
    return ((from.src[0] & to.tgt[0]) | (from.src[1] & to.tgt[1])) == 0;
  }

  // Rebases the overlay onto `base` (nullptr after a load) and clears the
  // post-build label state: delta, damage, the build price (`Build` sets
  // it again), the rent, in a meter of this core's own, and the sweeper,
  // sized for the old graph.
  void ResetDynamicState(const Graph* base) {
    overlay_.Reset(base);
    delta_lin_.Clear();
    build_price_ = 0;
    rent_ = std::make_shared<RentMeter>(verify_ws_->NumSlots());
    damage_ = 0;
    lost_.Reset();
    sweeper_.reset();
  }

  static std::string ListName(const char* side, size_t v) {
    return std::string(side) + "[" + std::to_string(v) + "]";
  }

  // What the query kernels and a later insert assume of a loaded
  // labeling, checked once per load over every entry: the rank and
  // by-rank tables are inverse permutations of [0, n), and every sealed
  // list is rank-sorted over ranks < n — strictly when rank groups are
  // single entries — with compressed blocks agreeing with their skip
  // entries and ordered within the list. On failure the labeling is
  // dropped.
  LoadResult ValidateLabeling() {
    const Sealed& sealed = *sealed_;
    const size_t n = sealed.rank.size();
    std::string defect;
    if (sealed.by_rank.size() != n) {
      defect = "by-rank table: size mismatch";
    }
    for (VertexId v = 0; defect.empty() && v < n; ++v) {
      if (sealed.rank[v] >= n) {
        defect = "rank table: rank out of range";
      } else if (sealed.by_rank[sealed.rank[v]] != v) {
        defect = "rank table: not the inverse of the by-rank table";
      }
    }
    for (VertexId v = 0; defect.empty() && v < n; ++v) {
      if (!sealed.ListValid(/*in=*/true, v)) {
        defect = ListName("Lin", v) + ": entries unsorted or out of range";
      } else if (!sealed.ListValid(/*in=*/false, v)) {
        defect = ListName("Lout", v) + ": entries unsorted or out of range";
      }
    }
    if (defect.empty()) return {};
    sealed_ = std::make_shared<const Sealed>();
    return {LoadStatus::kCorrupt, std::move(defect)};
  }

  // The sealed labeling: the total order, the pools (exactly one of the
  // flat or block-compressed representations is live, `compressed`;
  // docs/QUERY_ENGINE.md) and the snapshot mapping they may view
  // (docs/SNAPSHOTS.md lifetime rules). Immutable once sealed, so copies
  // of the core share it; `Build` and the loads seal a fresh one.
  struct Sealed {
    std::vector<uint32_t> rank;     // rank[v] = order position (0 = first)
    std::vector<VertexId> by_rank;  // inverse of rank
    FlatLabelPool<Entry> lin_pool;
    FlatLabelPool<Entry> lout_pool;
    Pool lin_cpool;
    Pool lout_cpool;
    bool compressed = false;
    bool budget_exceeded = false;
    std::shared_ptr<MappedFile> mapping;
    // The snapshot's graph digest, when it was loaded from one that has
    // it (`Rebase`).
    std::optional<uint64_t> graph_digest;
    // The price of the build that made these labels: `Build`'s, or the
    // one a snapshot recorded (0 when unknown).
    uint64_t build_price = 0;

    size_t PoolBytes() const {
      return compressed ? lin_cpool.MemoryBytes() + lout_cpool.MemoryBytes()
                        : lin_pool.MemoryBytes() + lout_pool.MemoryBytes();
    }

    // Lin(v) (`in`) or Lout(v) as a vector, decoded when compressed.
    std::vector<Entry> Entries(bool in, VertexId v) const {
      std::vector<Entry> entries;
      if (compressed) {
        (in ? lin_cpool : lout_cpool).Decode(v, &entries);
      } else {
        const std::span<const Entry> slice =
            (in ? lin_pool : lout_pool).Slice(v);
        entries.assign(slice.begin(), slice.end());
      }
      return entries;
    }

    // Whether Lin(v) (`in`) or Lout(v) is rank-sorted over ranks < n, as
    // `ValidateLabeling` requires.
    bool ListValid(bool in, VertexId v) const {
      const int64_t n = static_cast<int64_t>(rank.size());
      int64_t prev = -1;  // rank of the previous entry of the list
      const auto in_order = [&](std::span<const Entry> entries) {
        for (const Entry& e : entries) {
          const int64_t r = Traits::Rank(e);
          if (r >= n || r < prev + (Pool::kDistinctRanks ? 1 : 0)) {
            return false;
          }
          prev = r;
        }
        return true;
      };
      if (!compressed) return in_order((in ? lin_pool : lout_pool).Slice(v));
      const Pool& packed = in ? lin_cpool : lout_cpool;
      Entry buf[Pool::kMaxBlockEntries];
      for (size_t b = packed.BlockBegin(v); b < packed.BlockEnd(v); ++b) {
        // Blocks hold whole rank groups, so even grouped ranks increase
        // strictly from one block to the next.
        if (static_cast<int64_t>(packed.Skip(b).first) <= prev) return false;
        const size_t count = packed.DecodeBlock(b, buf);
        if (!in_order({buf, count}) || prev != packed.Skip(b).last) {
          return false;
        }
      }
      return true;
    }
  };

  TwoHopStorageOptions storage_;
  size_t staleness_budget_;
  // The built graph plus inserted and tombstoned arcs; no base after a
  // load.
  ArcOverlay<Graph> overlay_;
  // Build-side label accumulators (rank-sorted); SealLabels() moves them
  // into the pools and leaves them empty.
  EntryLists lin_;
  EntryLists lout_;
  // Never null; shared with copies of this core.
  std::shared_ptr<const Sealed> sealed_ = std::make_shared<const Sealed>();
  // Unsealed delta overlay: Lin entries added by inserts after sealing
  // (rank-sorted, disjoint from the pool slice). Empty until the first
  // insert.
  CowLists<Entry> delta_lin_;
  // First cuts since the last (re)build that had no G- detour.
  size_t damage_ = 0;
  // Lost sets (see `CutLostSets`), shared with copies until written, so a
  // copy that never cuts or adds an arc copies one pointer of them.
  CowBox<LostSets> lost_;
  // Write-side scratch, shared with copies (see the copy constructor): the
  // workspace of the detour checks and lost-set sweeps, and the sweeper of
  // the last build, which inserts resume (null after a load or `Rebase`
  // until the first insert).
  std::shared_ptr<SearchWorkspace> ws_ = std::make_shared<SearchWorkspace>();
  std::shared_ptr<Sweeper> sweeper_;
  // Per-slot scratch for damaged-positive verification, shared with copies,
  // and per-slot probes, fresh in each copy (slot-parallel queries must
  // not share a slot).
  std::shared_ptr<WorkspacePool> verify_ws_ =
      std::make_shared<WorkspacePool>();
  mutable FreshOnCopy<ProbePool> probes_;
  // The last build's price and the rent paid against it (`ApplyUpdate`).
  // The meter is shared with copies and replaced by each build or load.
  uint64_t build_price_ = 0;
  std::shared_ptr<RentMeter> rent_ = std::make_shared<RentMeter>();
};

}  // namespace reach

#endif  // REACH_CORE_TWO_HOP_CORE_H_
