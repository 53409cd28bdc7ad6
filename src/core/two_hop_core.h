#ifndef REACH_CORE_TWO_HOP_CORE_H_
#define REACH_CORE_TWO_HOP_CORE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "core/edge_update.h"
#include "core/index_stats.h"
#include "core/label_pool.h"
#include "core/mapped_file.h"
#include "core/search_workspace.h"
#include "core/workspace_pool.h"
#include "graph/types.h"
#include "obs/build_phase_timer.h"
#include "obs/metrics_registry.h"
#include "obs/query_probe.h"
#include "par/parallel_for.h"

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

/// The pruned 2-hop engine (TOL, paper §3.2) shared by plain reachability
/// (`PrunedTwoHop`) and label-constrained reachability
/// (`PrunedLabeledTwoHop`). Plain reachability is LCR with a single label,
/// so the two differ only in what a label entry and an adjacency arc are;
/// everything else lives here once:
///
///  * the total order (`rank_` / `by_rank_`);
///  * the rank-batched speculate/commit/redo build loop
///    (docs/PARALLELISM.md), which with one thread is the serial sweep;
///  * sealing into flat or block-compressed pools under the size budget,
///    and the post-seal `delta_lin_` insert overlay;
///  * the live and superset adjacency (base graph + inserted extras,
///    minus sorted tombstones for the live view) and the decremental
///    bookkeeping around it: damage marks, resurrection, re-closing damage
///    on insert, `ApplyUpdate` and the live-graph rebuild;
///  * query answering: the three-case superset test and, under damage,
///    the witness-trust protocol with its label-pruned live verification.
///
/// `Traits` supplies the entry/arc vocabulary and the pieces that really
/// differ between the two indexes:
///
///   Entry, Arc, Graph, Edge   label entry, adjacency arc (totally ordered,
///                             as graph adjacency is sorted), graph type
///                             and its edge type
///   Constraint                a query's path constraint
///   CompressedPool            block-compressed pool of `Entry`
///   Index                     the adapter (a friend, for its payload and
///                             snapshot I/O)
///   Sweeper                   per-worker scratch running one pruned
///                             sweep (see `BuildLabels`)
///   Rank(entry)
///   Covered(entries, rank, q) whether rank-sorted `entries` hold a `rank`
///                             entry usable under `q`
///   Head(arc), Reverse(from, arc), ArcAllowed(arc, q)
///   OutArcs(graph, v), InArcs(graph, v), MakeEdge(from, arc),
///   MakeGraph(like, edges), UpdateArc(update), ArcInRange(graph, arc)
///   DetourConstraint(cut)     the constraint under which a surviving
///                             detour around the deleted arc `cut` makes
///                             the delete answer-preserving
///   Intersect, CoveredInPool, IntersectPools, IntersectPoolWithSpan
///                             the rest of the superset query kernels
///   PropagateInsert(core, s, arc)
///                             adds the delta entries a new arc needs
template <typename Traits>
class TwoHopCore {
 public:
  using Entry = typename Traits::Entry;
  using Arc = typename Traits::Arc;
  using Graph = typename Traits::Graph;
  using Constraint = typename Traits::Constraint;
  using CompressedPool = typename Traits::CompressedPool;

  // Visit cap for the per-delete local searches (redundancy check and
  // damage marking); overrun degrades to all-ranks-damaged, never to a
  // wrong answer.
  static constexpr size_t kLocalSearchBudget = 4096;

  TwoHopCore(TwoHopStorageOptions storage, size_t staleness_budget)
      : storage_(storage), staleness_budget_(staleness_budget) {}

  /// Builds over `graph` (which must outlive the labeling's live use),
  /// timing the "order", "label" and "seal" phases into `stats`.
  /// `order(graph)` returns the vertices in rank order.
  template <typename OrderFn>
  void Build(const Graph& graph, size_t threads, IndexStats* stats,
             OrderFn&& order) {
    BuildStatsScope build(stats);
    probes_.Reset();
    graph_ = &graph;
    ResetDynamicState();
    ClearPools();  // free the old labeling before building the new one
    {
      BuildPhaseTimer timer(&stats->phases, "order");
      by_rank_ = order(graph);
      rank_.resize(by_rank_.size());
      for (uint32_t r = 0; r < by_rank_.size(); ++r) rank_[by_rank_[r]] = r;
    }
    {
      BuildPhaseTimer timer(&stats->phases, "label");
      BuildLabels(threads);
    }
    {
      BuildPhaseTimer timer(&stats->phases, "seal");
      SealLabels();
    }
    stats->size_bytes = IndexSizeBytes();
    stats->num_entries = TotalEntries();
  }

  /// Installs a loaded labeling (range-checked by the caller) and seals
  /// it. Without a live graph the core answers queries but rejects
  /// updates until the next `Build`.
  void Restore(std::vector<uint32_t> rank, std::vector<VertexId> by_rank,
               std::vector<std::vector<Entry>> lin,
               std::vector<std::vector<Entry>> lout) {
    graph_ = nullptr;
    ResetDynamicState();
    rank_ = std::move(rank);
    by_rank_ = std::move(by_rank);
    lin_ = std::move(lin);
    lout_ = std::move(lout);
    SealLabels();
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
                    (compressed_ ? lout_cpool_.ListEntries(s) +
                                       lin_cpool_.ListEntries(t)
                                 : lout_pool_.Slice(s).size() +
                                       lin_pool_.Slice(t).size()) +
                        (has_delta_ ? delta_lin_[t].size() : 0));
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
    verify_ws_.EnsureSlots(slots);
    return slots;
  }
  QueryProbe Probe() const { return probes_.Aggregate(); }
  void ResetProbe() const { probes_.Reset(); }

  /// Validate-first batch application: a rejected batch leaves no partial
  /// state behind. Inserts apply incrementally; deletes tombstone the arc
  /// and either prove themselves answer-preserving or mark damage. Never
  /// rebuilds — crossing the staleness budget only changes the status.
  template <typename Batch>
  UpdateResult ApplyUpdate(const Batch& batch) {
    if (graph_ == nullptr) {
      return UpdateResult::Rejected(
          "no live graph: Build() before ApplyUpdate (Load'ed labelings are "
          "read-only)");
    }
    const VertexId n = static_cast<VertexId>(graph_->NumVertices());
    for (const auto& update : batch) {
      if (update.source >= n || update.target >= n) {
        return UpdateResult::Rejected("endpoint out of range");
      }
      if (!Traits::ArcInRange(*graph_, Traits::UpdateArc(update))) {
        return UpdateResult::Rejected("label out of range");
      }
    }
    size_t applied = 0;
    size_t ignored = 0;
    for (const auto& update : batch) {
      const Arc arc = Traits::UpdateArc(update);
      const bool changed = update.IsInsert() ? ApplyInsert(update.source, arc)
                                             : ApplyDelete(update.source, arc);
      if (changed) {
        ++applied;
      } else {
        ++ignored;
      }
    }
    return UpdateResult::Applied(applied, ignored, damage_,
                                 staleness_budget_);
  }

  /// The live edge set (base ∪ extras, minus tombstones) as a graph the
  /// core owns — what `RebuildFromUpdates` builds over. nullptr without a
  /// live graph (after a load).
  const Graph* MaterializeLiveGraph() {
    if (graph_ == nullptr) return nullptr;
    std::vector<typename Traits::Edge> edges;
    for (VertexId v = 0; v < graph_->NumVertices(); ++v) {
      ForEachOut(v, [&](const Arc& arc) {
        edges.push_back(Traits::MakeEdge(v, arc));
      });
    }
    owned_graph_ = Traits::MakeGraph(*graph_, std::move(edges));
    return &owned_graph_;
  }

  size_t Damage() const { return damage_; }
  size_t StalenessBudget() const { return staleness_budget_; }
  bool Compressed() const { return compressed_; }
  bool BudgetExceeded() const { return budget_exceeded_; }
  const TwoHopStorageOptions& Storage() const { return storage_; }
  size_t NumVertices() const { return rank_.size(); }

  /// Total label entries, sum |Lin| + |Lout| including the delta overlay.
  size_t TotalEntries() const {
    size_t entries =
        compressed_ ? lin_cpool_.NumEntries() + lout_cpool_.NumEntries()
                    : lin_pool_.NumEntries() + lout_pool_.NumEntries();
    for (const auto& d : delta_lin_) entries += d.size();
    return entries;
  }

  /// Sealed pools (or the mapping they view), the rank translation
  /// tables, and any delta overlay.
  size_t IndexSizeBytes() const {
    size_t delta_bytes = 0;
    if (has_delta_) {
      delta_bytes = delta_lin_.size() * sizeof(std::vector<Entry>);
      for (const auto& d : delta_lin_) {
        delta_bytes += d.capacity() * sizeof(Entry);
      }
    }
    return PoolBytes() +
           (rank_.size() + by_rank_.size()) * sizeof(uint32_t) + delta_bytes;
  }

  /// Lin(v) as one rank-sorted vector: the sealed slice merged with the
  /// delta overlay. Lout has no overlay.
  std::vector<Entry> InEntries(VertexId v) const {
    std::vector<Entry> merged = SealedEntries(lin_pool_, lin_cpool_, v);
    if (has_delta_ && !delta_lin_[v].empty()) {
      const std::vector<Entry>& delta = delta_lin_[v];
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
    return SealedEntries(lout_pool_, lout_cpool_, v);
  }

  // --- Read and written by the adapters' sweep and insert bodies. ---

  uint32_t Rank(VertexId v) const { return rank_[v]; }
  VertexId ByRank(uint32_t r) const { return by_rank_[r]; }
  const Graph& graph() const { return *graph_; }

  /// Build-time pruning oracle over the unsealed per-vertex vectors.
  bool LabelQuery(VertexId s, VertexId t, Constraint q) const {
    if (s == t) return true;
    const std::vector<Entry>& lin_t = lin_[t];
    const std::vector<Entry>& lout_s = lout_[s];
    if (Traits::Covered(lin_t, rank_[s], q)) return true;
    if (Traits::Covered(lout_s, rank_[t], q)) return true;
    return Traits::Intersect(lout_s, lin_t, q);
  }

  /// Superset adjacency G+: base ∪ every arc ever inserted, tombstones
  /// ignored — the graph the sealed + delta labels are exact for.
  template <typename Fn>
  void ForEachOutSuperset(VertexId v, Fn&& fn) const {
    VisitArcs(Traits::OutArcs(*graph_, v), extra_out_, nullptr, v, fn);
  }

  /// Every vertex `from` reaches in G+ (itself first), in BFS order. The
  /// reference is valid until the next write-side traversal.
  const std::vector<VertexId>& ReachableInSuperset(VertexId from) {
    SweepSuperset(from, /*backward=*/false, SIZE_MAX);
    return ws_.queue();
  }

  /// True iff Lin(x) — sealed slice or delta — holds a `rank` entry
  /// covered under `q`.
  bool InCovered(VertexId x, uint32_t rank, Constraint q) const {
    const bool sealed =
        compressed_ ? Traits::CoveredInPool(lin_cpool_, x, rank, q)
                    : Traits::Covered(lin_pool_.Slice(x), rank, q);
    return sealed || (has_delta_ && Traits::Covered(delta_lin_[x], rank, q));
  }

  /// Adds `e` to the delta overlay of Lin(x), keeping it rank-sorted.
  void AddDeltaIn(VertexId x, const Entry& e) {
    std::vector<Entry>& list = delta_lin_[x];
    list.insert(std::upper_bound(list.begin(), list.end(), Traits::Rank(e),
                                 [](uint32_t r, const Entry& d) {
                                   return r < Traits::Rank(d);
                                 }),
                e);
  }

 private:
  friend typename Traits::Index;
  using Sweeper = typename Traits::Sweeper;
  using EntryLists = std::vector<std::vector<Entry>>;
  using ArcLists = std::vector<std::vector<Arc>>;

  // paraPLL-style speculate/validate/redo over rank batches. Phase 1 runs
  // every sweep of the batch in parallel against the *committed* label
  // prefix only. Phase 2 commits in rank order: a sweep whose pruning
  // oracle never touched a label the batch committed in the meantime is
  // appended verbatim; otherwise the sweep is redone serially against the
  // live labeling. Pruning against fewer labels visits a superset of the
  // serial sweep's vertices, so checking the speculative visited set is a
  // sound (conservative) staleness test — the committed labeling is
  // bit-identical to the serial build for any thread count or batching.
  //
  // `Sweeper::Run<kSpeculative>(core, r, forward, touched, emit)` runs the
  // pruned sweep of rank `r` and calls `emit(x, entry)` for every label it
  // adds, in push order. `Run<false>` is the exact serial sweep (`touched`
  // unused). `Run<true>` is speculative: it appends every vertex its
  // oracle was evaluated at to `*touched`, and returns false (result
  // discarded, redo serially) once it floods far past what a serial sweep
  // would visit. The flag is a template argument so the serial sweep —
  // the warmup's heavy floods — carries no speculation bookkeeping.
  void BuildLabels(size_t threads) {
    const size_t n = graph_->NumVertices();
    lin_.assign(n, {});
    lout_.assign(n, {});
    if (n == 0) return;
    threads = std::max<size_t>(threads, 1);

    std::vector<Sweeper> sweepers;
    sweepers.reserve(threads);
    for (size_t i = 0; i < threads; ++i) sweepers.emplace_back(n);

    // lin_stamp[x] == batch_epoch iff the current batch committed a Lin(x)
    // entry already (dually lout_stamp) — exactly the reads that can make
    // a speculative oracle stale. Serial sweeps before the first batch
    // stamp epoch 0, the stamps' initial value: a no-op.
    std::vector<uint32_t> lin_stamp(n, 0), lout_stamp(n, 0);
    uint32_t batch_epoch = 0;

    const auto serial_sweep = [&](uint32_t r, bool forward) {
      EntryLists& labels = forward ? lin_ : lout_;
      std::vector<uint32_t>& stamp = forward ? lin_stamp : lout_stamp;
      sweepers[0].template Run<false>(*this, r, forward, nullptr,
                                      [&](VertexId x, const Entry& e) {
                                        labels[x].push_back(e);
                                        stamp[x] = batch_epoch;
                                      });
    };

    // Outcome of one speculative sweep (one rank, one direction).
    struct Sweep {
      std::vector<std::pair<VertexId, Entry>> labeled;  // push order
      std::vector<VertexId> touched;  // vertices the oracle evaluated
      bool redo = false;              // flooded: rerun serially
    };

    // A forward oracle call reads Lout(hop) and Lin(x) for evaluated x
    // (its other reads cannot change during the batch); backward is
    // symmetric. The sweep is stale iff the batch committed to one of
    // those label sets after phase 1 snapshotted the labeling.
    const auto commit_rank = [&](uint32_t r, bool forward, const Sweep& sweep) {
      std::vector<uint32_t>& stamp = forward ? lin_stamp : lout_stamp;
      bool conflict =
          sweep.redo ||
          (forward ? lout_stamp : lin_stamp)[by_rank_[r]] == batch_epoch;
      for (size_t i = 0; !conflict && i < sweep.touched.size(); ++i) {
        conflict = stamp[sweep.touched[i]] == batch_epoch;
      }
      if (conflict) {
        serial_sweep(r, forward);
        return;
      }
      EntryLists& labels = forward ? lin_ : lout_;
      for (const auto& [x, e] : sweep.labeled) {
        labels[x].push_back(e);
        stamp[x] = batch_epoch;
      }
    };

    // Warmup: early sweeps run against a nearly empty labeling and would
    // speculatively flood the graph; run them serially. A one-thread
    // build is all warmup.
    const uint32_t num_ranks = static_cast<uint32_t>(n);
    const uint32_t warmup =
        threads == 1 ? num_ranks
                     : static_cast<uint32_t>(std::min<size_t>(n, 32));
    uint32_t r = 0;
    for (; r < warmup; ++r) {
      serial_sweep(r, /*forward=*/true);
      serial_sweep(r, /*forward=*/false);
    }

    // Batches grow geometrically: small while the prefix is thin (frequent
    // conflicts), large once pruning has kicked in and sweeps are cheap
    // and almost always conflict-free.
    size_t batch_size = 2 * threads;
    const size_t max_batch = std::max<size_t>(64 * threads, 256);
    std::vector<Sweep> fwd, bwd;
    while (r < num_ranks) {
      const uint32_t batch_end =
          static_cast<uint32_t>(std::min<size_t>(num_ranks, r + batch_size));
      const size_t count = batch_end - r;
      fwd.assign(count, Sweep{});
      bwd.assign(count, Sweep{});
      ++batch_epoch;

      std::atomic<size_t> next{0};
      ParallelForWorkers(threads, [&](size_t worker) {
        for (;;) {
          const size_t unit = next.fetch_add(1, std::memory_order_relaxed);
          if (unit >= 2 * count) return;
          const uint32_t rank = r + static_cast<uint32_t>(unit / 2);
          const bool forward = (unit % 2) == 0;
          Sweep& out = forward ? fwd[unit / 2] : bwd[unit / 2];
          out.redo = !sweepers[worker].template Run<true>(
              *this, rank, forward, &out.touched,
              [&](VertexId x, const Entry& e) {
                out.labeled.emplace_back(x, e);
              });
        }
      });

      for (uint32_t offset = 0; offset < count; ++offset) {
        commit_rank(r + offset, /*forward=*/true, fwd[offset]);
        commit_rank(r + offset, /*forward=*/false, bwd[offset]);
      }
      r = batch_end;
      batch_size = std::min(batch_size * 2, max_batch);
    }
  }

  // Moves the build-side vectors into the sealed pools: flat, or — when
  // `storage_` asks for compression or the flat layout exceeds the byte
  // budget — block-compressed, doubling the block size FERRARI-style
  // until the budget fits or the coarsest tier is reached. A pool that
  // refuses compression (an oversized rank group) keeps flat storage.
  void SealLabels() {
    ClearPools();
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
          std::clamp(storage_.block_entries, CompressedPool::kMinBlockEntries,
                     CompressedPool::kMaxBlockEntries);
      for (;;) {
        if (!lin_cpool_.Seal(lin_, block) || !lout_cpool_.Seal(lout_, block)) {
          lin_cpool_.Clear();
          lout_cpool_.Clear();
          break;
        }
        const size_t bytes =
            lin_cpool_.MemoryBytes() + lout_cpool_.MemoryBytes();
        if (budget != 0 && bytes > budget &&
            block < CompressedPool::kMaxBlockEntries) {
          block *= 2;
          continue;
        }
        compressed_ = true;
        budget_exceeded_ = budget != 0 && bytes > budget;
        break;
      }
    }
    if (compressed_) {
      EntryLists().swap(lin_);
      EntryLists().swap(lout_);
    } else {
      budget_exceeded_ = budget != 0 && flat_bytes > budget;
      lin_pool_.Seal(std::move(lin_));
      lout_pool_.Seal(std::move(lout_));
    }
    PublishStorageGauges(flat_bytes);
  }

  // Empties both storage representations, the delta overlay, and any
  // snapshot mapping the pools viewed.
  void ClearPools() {
    lin_pool_.Clear();
    lout_pool_.Clear();
    lin_cpool_.Clear();
    lout_cpool_.Clear();
    compressed_ = false;
    budget_exceeded_ = false;
    mapping_.reset();
    delta_lin_.clear();
    has_delta_ = false;
  }

  size_t PoolBytes() const {
    return compressed_ ? lin_cpool_.MemoryBytes() + lout_cpool_.MemoryBytes()
                       : lin_pool_.MemoryBytes() + lout_pool_.MemoryBytes();
  }

  // Publishes the index.bytes / compression gauges after a (re)seal.
  void PublishStorageGauges(size_t flat_equivalent_bytes) const {
    MetricsRegistry& reg = MetricsRegistry::Global();
    const size_t n = rank_.size();
    const size_t bytes = PoolBytes();
    reg.GetGauge("index.bytes").Set(static_cast<double>(bytes));
    reg.GetGauge("index.bytes_per_vertex")
        .Set(n == 0 ? 0.0
                    : static_cast<double>(bytes) / static_cast<double>(n));
    if (compressed_) {
      reg.GetGauge("index.compression_ratio")
          .Set(bytes == 0 ? 1.0
                          : static_cast<double>(flat_equivalent_bytes) /
                                static_cast<double>(bytes));
    }
    if (storage_.budget_mb != 0) {
      reg.GetGauge("index.budget_exceeded").Set(budget_exceeded_ ? 1 : 0);
    }
  }

  // The three-case 2-hop test on the sealed pools + delta overlay: exact
  // for the superset graph, hence exact negatives (and, with zero damage,
  // exact positives) for the live one. Delta entries live outside the
  // pool, so every (pool, delta) pairing that could supply the common
  // hop is checked separately.
  bool SupersetAnswer(VertexId s, VertexId t, Constraint q) const {
    if (s == t) return true;
    if (compressed_) {
      // Same test on the skip tables: membership decodes at most one
      // block, the intersection only blocks that can overlap.
      if (Traits::CoveredInPool(lin_cpool_, t, rank_[s], q)) return true;
      if (Traits::CoveredInPool(lout_cpool_, s, rank_[t], q)) return true;
      if (Traits::IntersectPools(lout_cpool_, s, lin_cpool_, t, q)) {
        return true;
      }
      if (!has_delta_) return false;
      const std::span<const Entry> delta = delta_lin_[t];
      if (Traits::Covered(delta, rank_[s], q)) return true;
      return Traits::IntersectPoolWithSpan(lout_cpool_, s, delta, q);
    }
    const std::span<const Entry> out = lout_pool_.Slice(s);
    const std::span<const Entry> in = lin_pool_.Slice(t);
    if (Traits::Covered(in, rank_[s], q)) return true;
    if (Traits::Covered(out, rank_[t], q)) return true;
    if (Traits::Intersect(out, in, q)) return true;
    if (!has_delta_) return false;
    const std::span<const Entry> delta = delta_lin_[t];
    if (Traits::Covered(delta, rank_[s], q)) return true;
    return Traits::Intersect(out, delta, q);
  }

  // Witness-trust protocol while damage_ > 0: the labels over-approximate
  // the live graph, so "no covered witness" is an exact negative; a
  // covered witness whose hub ranks are unmarked is an exact positive
  // (its claims provably survived every damaging delete); only damaged
  // witnesses need live verification. Materializing the merged lists
  // allocates, but damage mode is the explicitly slow lane between budget
  // overrun and rebuild — kept out of line so the zero-damage path of
  // `Answer` stays small.
  [[gnu::noinline]] bool DamagedAnswer(VertexId s, VertexId t, Constraint q,
                                       size_t slot) const {
    const std::vector<Entry> out = OutEntries(s);
    const std::vector<Entry> in = InEntries(t);
    bool damaged_witness = false;
    // Case 1 — hub s claims s -> t through its Lin(t) entry (a forward
    // claim, stale only if s is a superset ancestor of a cut source).
    if (Traits::Covered(in, rank_[s], q)) {
      if (!RankDamagedFwd(rank_[s])) return true;
      damaged_witness = true;
    }
    // Case 2 — hub t claims s -> t through its Lout(s) entry (backward).
    if (Traits::Covered(out, rank_[t], q)) {
      if (!RankDamagedBwd(rank_[t])) return true;
      damaged_witness = true;
    }
    // Case 3 — a real hub h covered on both sides claims s -> h (stale if
    // h is backward-damaged) and h -> t (stale if forward-damaged);
    // trusted iff neither mark is set. Plain rank-group two-pointer.
    size_t i = 0, j = 0;
    while (i < out.size() && j < in.size()) {
      const uint32_t rank = Traits::Rank(out[i]);
      if (rank < Traits::Rank(in[j])) {
        ++i;
        continue;
      }
      if (Traits::Rank(in[j]) < rank) {
        ++j;
        continue;
      }
      size_t i_end = i, j_end = j;
      while (i_end < out.size() && Traits::Rank(out[i_end]) == rank) ++i_end;
      while (j_end < in.size() && Traits::Rank(in[j_end]) == rank) ++j_end;
      if (Traits::Covered({out.data() + i, i_end - i}, rank, q) &&
          Traits::Covered({in.data() + j, j_end - j}, rank, q)) {
        if (!RankDamagedBwd(rank) && !RankDamagedFwd(rank)) return true;
        damaged_witness = true;
      }
      i = i_end;
      j = j_end;
    }
    if (!damaged_witness) return false;  // exact: superset has no path
    REACH_PROBE_INC(probes_.Slot(slot), fallbacks);
    return ConstrainedLiveSearch(s, t, q, SIZE_MAX, verify_ws_.Slot(slot));
  }

  // BFS over live arcs allowed under `q`, pruned at vertices the superset
  // labels already rule out (w cannot reach `to` in G+ ⇒ not in the live
  // graph either). True iff `to` is found; false when it is unreachable or
  // the queue outgrows `budget`. Unbounded, this is the exactness
  // backstop of damaged answers, and the label pruning keeps its frontier
  // near the damaged region.
  bool ConstrainedLiveSearch(VertexId from, VertexId to, Constraint q,
                             size_t budget, SearchWorkspace& ws) const {
    ws.Prepare(graph_->NumVertices());
    std::vector<VertexId>& queue = ws.queue();
    queue.push_back(from);
    ws.MarkForward(from);
    for (size_t head = 0; head < queue.size(); ++head) {
      bool found = false;
      ForEachOut(queue[head], [&](const Arc& arc) {
        if (found || !Traits::ArcAllowed(arc, q)) return;
        const VertexId w = Traits::Head(arc);
        if (w == to) {
          found = true;
          return;
        }
        if (!ws.MarkForward(w) || !SupersetAnswer(w, to, q)) return;
        queue.push_back(w);
      });
      if (found) return true;
      if (queue.size() > budget) return false;
    }
    return false;
  }

  // Both return true when graph state changed.
  bool ApplyInsert(VertexId s, const Arc& arc) {
    const VertexId t = Traits::Head(arc);
    if (s == t) return false;  // reachability is reflexive anyway
    if (IsTombstoned(s, arc)) {
      // Resurrecting a deleted arc: the labels already cover it (it is
      // part of the superset), so dropping the tombstone is the whole
      // update. Damage marks stay — conservative, cleared at rebuild.
      SortedErase(tomb_out_[s], arc);
      SortedErase(tomb_in_[t], Traits::Reverse(s, arc));
      return true;
    }
    if (HasArc(s, arc)) return false;
    if (extra_out_.empty()) {
      extra_out_.resize(graph_->NumVertices());
      extra_in_.resize(graph_->NumVertices());
    }
    extra_out_[s].push_back(arc);
    extra_in_[t].push_back(Traits::Reverse(s, arc));

    // The damage marks are transitive closures over the superset as of
    // each damaging delete; this insert grows the superset, so re-close
    // them. If t already reaches a damaged tombstone source, everything
    // reaching s now does too (a simple path from t to that source cannot
    // revisit t, so the pre-insert closure decides the check) —
    // symmetrically for the backward marks. Without this, a vertex wired
    // into a damaged region *after* the delete keeps unmarked claims
    // routed through the dead arc, and the witness-trust protocol returns
    // a stale positive.
    if (!damaged_fwd_.empty()) {
      if (!fwd_all_damaged_ && damaged_fwd_[rank_[t]] != 0 &&
          damaged_fwd_[rank_[s]] == 0) {
        if (!DamageSweep(s, /*backward=*/true)) fwd_all_damaged_ = true;
      }
      if (!bwd_all_damaged_ && damaged_bwd_[rank_[s]] != 0 &&
          damaged_bwd_[rank_[t]] == 0) {
        if (!DamageSweep(t, /*backward=*/false)) bwd_all_damaged_ = true;
      }
    }

    // The sealed pool is immutable, so the entries the new arc needs go
    // into the unsealed delta overlay, which the query path consults next
    // to the pool. They must describe the SUPERSET, not the live graph: a
    // later tombstone resurrection adds no labels, and would otherwise
    // leave pairs routed through the tombstoned arc without a witness —
    // turning "no witness" into a wrong exact negative.
    if (delta_lin_.empty()) delta_lin_.resize(graph_->NumVertices());
    has_delta_ = true;
    Traits::PropagateInsert(*this, s, arc);
    return true;
  }

  bool ApplyDelete(VertexId s, const Arc& arc) {
    if (!HasArc(s, arc)) return false;       // never existed: no-op
    if (IsTombstoned(s, arc)) return false;  // already deleted: no-op
    if (tomb_out_.empty()) {
      tomb_out_.resize(graph_->NumVertices());
      tomb_in_.resize(graph_->NumVertices());
    }
    // Tombstone rather than erase, even for extras: the superset
    // adjacency (and the sealed + delta labels that describe it) must keep
    // every arc that ever existed for damage marking to stay conservative
    // — a later delete can break the detour that justified an earlier
    // "locally redundant" one, and the marking sweep is only conservative
    // if it still sees the old route.
    const VertexId t = Traits::Head(arc);
    SortedInsert(tomb_out_[s], arc);
    SortedInsert(tomb_in_[t], Traits::Reverse(s, arc));
    if (s == t) return true;  // a self-loop never changes reachability
    // A live detour s ->* t under the cut arc's constraint reroutes every
    // old path through the arc: the reachability relation is untouched
    // and the labels stay exact — zero damage, zero query-time cost.
    // Budget overrun counts as "not redundant" (conservative).
    if (ConstrainedLiveSearch(s, t, Traits::DetourConstraint(arc),
                              kLocalSearchBudget, ws_)) {
      return true;
    }
    MarkDamage(s, t);
    ++damage_;
    return true;
  }

  // Marks the hub ranks whose entries the delete (u, v) may have staled.
  // Every hub that reaches u in the *superset* may have forward claims
  // routed through (u, v); every hub the superset reaches from v may have
  // backward claims through it. The sweeps ignore labels and follow the
  // superset adjacency: a sound over-approximation of every constrained
  // ancestor/descendant set, and claims rerouted through since-deleted
  // arcs are still traced back to their hubs.
  void MarkDamage(VertexId u, VertexId v) {
    if (damaged_fwd_.empty()) {
      damaged_fwd_.assign(graph_->NumVertices(), 0);
      damaged_bwd_.assign(graph_->NumVertices(), 0);
    }
    if (!DamageSweep(u, /*backward=*/true)) fwd_all_damaged_ = true;
    if (!DamageSweep(v, /*backward=*/false)) bwd_all_damaged_ = true;
  }

  // Transitive mark sweep over the superset adjacency; false = budget
  // overrun (the caller escalates to the matching *_all_damaged_ flag).
  bool DamageSweep(VertexId start, bool backward) {
    if (!SweepSuperset(start, backward, kLocalSearchBudget)) return false;
    std::vector<uint8_t>& marks = backward ? damaged_fwd_ : damaged_bwd_;
    for (VertexId x : ws_.queue()) marks[rank_[x]] = 1;
    return true;
  }

  // BFS over G+ from `start` into ws_.queue(); false once the queue
  // outgrows `budget`.
  bool SweepSuperset(VertexId start, bool backward, size_t budget) {
    ws_.Prepare(graph_->NumVertices());
    std::vector<VertexId>& queue = ws_.queue();
    queue.push_back(start);
    ws_.MarkForward(start);
    const auto visit = [&](const Arc& arc) {
      if (ws_.MarkForward(Traits::Head(arc))) {
        queue.push_back(Traits::Head(arc));
      }
    };
    for (size_t head = 0; head < queue.size(); ++head) {
      if (queue.size() > budget) return false;
      if (backward) {
        VisitArcs(Traits::InArcs(*graph_, queue[head]), extra_in_, nullptr,
                  queue[head], visit);
      } else {
        ForEachOutSuperset(queue[head], visit);
      }
    }
    return true;
  }

  bool RankDamagedFwd(uint32_t r) const {
    return fwd_all_damaged_ || damaged_fwd_[r] != 0;
  }
  bool RankDamagedBwd(uint32_t r) const {
    return bwd_all_damaged_ || damaged_bwd_[r] != 0;
  }

  // Live adjacency: base ∪ extras, minus tombstoned arcs.
  template <typename Fn>
  void ForEachOut(VertexId v, Fn&& fn) const {
    VisitArcs(Traits::OutArcs(*graph_, v), extra_out_, &tomb_out_, v, fn);
  }

  // Calls `fn` on the base arcs and then the inserted extras of `v`,
  // skipping arcs in `tomb` (nullptr = the superset view).
  template <typename Fn>
  static void VisitArcs(std::span<const Arc> base, const ArcLists& extra,
                        const ArcLists* tomb, VertexId v, Fn& fn) {
    const std::vector<Arc>* dead =
        tomb == nullptr || tomb->empty() || (*tomb)[v].empty() ? nullptr
                                                               : &(*tomb)[v];
    const auto visit = [&](const Arc& arc) {
      if (dead == nullptr ||
          !std::binary_search(dead->begin(), dead->end(), arc)) {
        fn(arc);
      }
    };
    for (const Arc& arc : base) visit(arc);
    if (!extra.empty()) {
      for (const Arc& arc : extra[v]) visit(arc);
    }
  }

  // True iff arc s -> arc exists in the base graph or the extras,
  // tombstoned or not.
  bool HasArc(VertexId s, const Arc& arc) const {
    const std::span<const Arc> base = Traits::OutArcs(*graph_, s);
    if (std::binary_search(base.begin(), base.end(), arc)) return true;
    return !extra_out_.empty() &&
           std::find(extra_out_[s].begin(), extra_out_[s].end(), arc) !=
               extra_out_[s].end();
  }

  bool IsTombstoned(VertexId s, const Arc& arc) const {
    return !tomb_out_.empty() &&
           std::binary_search(tomb_out_[s].begin(), tomb_out_[s].end(), arc);
  }

  static void SortedInsert(std::vector<Arc>& arcs, const Arc& arc) {
    arcs.insert(std::lower_bound(arcs.begin(), arcs.end(), arc), arc);
  }
  static void SortedErase(std::vector<Arc>& arcs, const Arc& arc) {
    const auto it = std::lower_bound(arcs.begin(), arcs.end(), arc);
    if (it != arcs.end() && *it == arc) arcs.erase(it);
  }

  // Clears every post-build overlay: extras, tombstones, delta, damage.
  void ResetDynamicState() {
    extra_out_.clear();
    extra_in_.clear();
    tomb_out_.clear();
    tomb_in_.clear();
    delta_lin_.clear();
    has_delta_ = false;
    damage_ = 0;
    damaged_fwd_.clear();
    damaged_bwd_.clear();
    fwd_all_damaged_ = false;
    bwd_all_damaged_ = false;
  }

  std::vector<Entry> SealedEntries(const FlatLabelPool<Entry>& flat,
                                   const CompressedPool& packed,
                                   VertexId v) const {
    std::vector<Entry> entries;
    if (compressed_) {
      packed.Decode(v, &entries);
    } else {
      const std::span<const Entry> slice = flat.Slice(v);
      entries.assign(slice.begin(), slice.end());
    }
    return entries;
  }

  TwoHopStorageOptions storage_;
  size_t staleness_budget_;
  const Graph* graph_ = nullptr;
  Graph owned_graph_;  // the live graph after MaterializeLiveGraph
  std::vector<uint32_t> rank_;     // rank_[v] = order position (0 = first)
  std::vector<VertexId> by_rank_;  // inverse of rank_
  // Build-side label accumulators (rank-sorted); SealLabels() moves them
  // into the pools and leaves them empty.
  EntryLists lin_;
  EntryLists lout_;
  // Sealed query-path layout (docs/QUERY_ENGINE.md): exactly one of the
  // flat or block-compressed representations is live (`compressed_`).
  FlatLabelPool<Entry> lin_pool_;
  FlatLabelPool<Entry> lout_pool_;
  CompressedPool lin_cpool_;
  CompressedPool lout_cpool_;
  bool compressed_ = false;
  bool budget_exceeded_ = false;
  // Keeps a zero-copy snapshot mapping alive while pool views point into
  // it (docs/SNAPSHOTS.md lifetime rules).
  std::shared_ptr<MappedFile> mapping_;
  // Unsealed delta overlay: Lin entries added by inserts after sealing
  // (rank-sorted, disjoint from the pool slice). Empty until the first
  // insert.
  EntryLists delta_lin_;
  bool has_delta_ = false;
  // Arcs inserted after Build, on top of *graph_. Deleted extras stay
  // here (tombstoned like base arcs): the superset adjacency keeps every
  // arc that ever existed.
  ArcLists extra_out_;
  ArcLists extra_in_;
  // Deleted arcs (sorted per vertex), base and extra alike; only the live
  // iterators skip them. Empty until the first delete.
  ArcLists tomb_out_;
  ArcLists tomb_in_;
  // Damaging deletes absorbed since the last (re)build, and the per-rank
  // stale-witness marks they left: damaged_fwd_[r] = hub by_rank_[r]'s
  // forward claims (its Lin entries at other vertices) may be stale;
  // damaged_bwd_[r] dually for its Lout entries. The all_damaged flags
  // are the budget-overrun fallbacks of the bounded marking sweep.
  size_t damage_ = 0;
  std::vector<uint8_t> damaged_fwd_;
  std::vector<uint8_t> damaged_bwd_;
  bool fwd_all_damaged_ = false;
  bool bwd_all_damaged_ = false;
  // Write-side traversal scratch (redundancy checks, damage sweeps,
  // insert propagation).
  mutable SearchWorkspace ws_;
  // Per-slot scratch for damaged-witness verification and probes
  // (slot-parallel queries must not share them).
  mutable WorkspacePool verify_ws_;
  mutable ProbePool probes_;
};

}  // namespace reach

#endif  // REACH_CORE_TWO_HOP_CORE_H_
