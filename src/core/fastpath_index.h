#ifndef REACH_CORE_FASTPATH_INDEX_H_
#define REACH_CORE_FASTPATH_INDEX_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>

#include "core/observation_stack.h"
#include "core/reachability_index.h"

namespace reach {

/// Aggregated three-way verdict counts of a `FastPathIndex`: how many
/// queries the observation stack settled positively / negatively, and how
/// many fell through to the wrapped index. The `fastpath.hit.pos` /
/// `fastpath.hit.neg` / `fastpath.undecided` registry counters read the
/// same cells at scrape time, so their deltas equal these counts exactly
/// (docs/OBSERVABILITY.md).
struct FastPathVerdictStats {
  uint64_t hit_pos = 0;
  uint64_t hit_neg = 0;
  uint64_t undecided = 0;

  uint64_t Decided() const { return hit_pos + hit_neg; }
  uint64_t Total() const { return Decided() + undecided; }
};

/// Layers the O'Reach observation stack (core/observation_stack.h) in
/// front of *any* reachability index — the composable sibling of
/// `SccCondensingIndex`, and ROADMAP item 3 made concrete: a three-way
/// constant-time `Verdict` settles the bulk of both reachable- and
/// unreachable-biased workloads before the wrapped index is consulted;
/// only undecided queries delegate.
///
/// Constructed by the factory for any plain spec carrying `:fastpath=1`
/// (e.g. "pll:fastpath=1", "grail:k=5:fastpath=1"); capability
/// propagation: `complete` and `dynamic` follow the wrapped index,
/// `serializable` is dropped (the observation stack is rebuilt from the
/// graph, never persisted).
///
/// Concurrency mirrors the wrapped index: `PrepareConcurrentQueries`
/// grants what the inner index grants and sizes one verdict-counter cell
/// per slot, so concurrent `QueryInSlot` streams never share counters
/// (each cell is written by one query at a time and read by scrapes).
/// The observation stack itself is immutable after `Build`.
///
/// Dynamic wrapping (`DynamicFastPathIndex`): reachability only grows
/// under insertion, so positive verdicts (same-SCC, DFS containment,
/// common observation vertex) stay valid after an insert; negative
/// verdicts rely on orders that an inserted edge can falsify, so they
/// are suppressed — demoted to undecided — from the first insertion
/// until the next `Build`. Deletion is the mirror image, and the
/// dangerous direction: a delete can only *shrink* reachability, so
/// negative verdicts stay sound but a stale *positive* would be a wrong
/// answer — positives are suppressed from the first delete until the
/// next `Build`. Both flags re-arm (clear) on `Build`, never before.
template <typename Base>
class BasicFastPathIndex : public Base {
 public:
  /// Takes ownership of the index to wrap. For the dynamic instantiation
  /// the inner index must be a `DynamicReachabilityIndex`.
  explicit BasicFastPathIndex(std::unique_ptr<ReachabilityIndex> inner,
                              ObservationStack::Options options = {});
  ~BasicFastPathIndex() override;

  void Build(const Digraph& graph) override;
  bool Query(VertexId s, VertexId t) const override {
    return QueryInSlot(s, t, 0);
  }
  size_t PrepareConcurrentQueries(size_t slots) const override;
  bool QueryInSlot(VertexId s, VertexId t, size_t slot) const override;
  size_t IndexSizeBytes() const override;
  bool IsComplete() const override { return inner_->IsComplete(); }
  std::string Name() const override { return "fastpath+" + inner_->Name(); }
  QueryProbe Probe() const override;
  void ResetProbe() const override;

  /// Forwards the batch to the wrapped index and degrades the
  /// observation stack to match: any insert in an accepted batch
  /// suppresses negative verdicts, any delete suppresses positive ones
  /// (class comment). Overrides `DynamicReachabilityIndex::ApplyUpdate`
  /// in the dynamic instantiation; must not be called on a non-dynamic
  /// inner index. A rejected batch leaves the verdict modes untouched.
  UpdateResult ApplyUpdate(const UpdateBatch& batch);

  /// Follows the wrapped index (dynamic instantiation only).
  bool SupportsDeletions() const;

  /// Forwards to the wrapped index. The observation stack is NOT rebuilt
  /// (it has no graph to rebuild from), so verdict suppression persists
  /// until the next `Build` even after the inner index re-minimizes.
  bool RebuildFromUpdates();

  /// A copy over a copy of the wrapped index that shares the immutable
  /// observation stack and carries the verdict suppression; its verdict
  /// counts start at zero. Null when the wrapped index has no copy
  /// (overrides `DynamicReachabilityIndex::Clone` in the dynamic
  /// instantiation).
  std::unique_ptr<DynamicReachabilityIndex> Clone() const;
  /// Forwards to the wrapped index (dynamic instantiation only).
  std::unique_ptr<Digraph> LiveGraph() const;
  /// Forwards to the wrapped index (dynamic instantiation only).
  RebuildRent Rent() const;

  /// Verdict counts accumulated since `Build` / `ResetProbe`, summed
  /// across slots. Exact in every build mode, including REACH_METRICS=0.
  FastPathVerdictStats VerdictStats() const;

  /// The precomputed observation stack (e.g. to size or probe it).
  const ObservationStack& observations() const { return *stack_; }

  /// The wrapped index.
  const ReachabilityIndex& inner() const { return *inner_; }

 private:
  // Per-slot verdict counts. The query holding the slot writes them with
  // a relaxed load plus store; they never reset, and each is attached to
  // its "fastpath.*" registry counter for the cell's whole life.
  // `baseline` is the counts at the last Build/ResetProbe.
  struct Cell {
    std::atomic<uint64_t> hit_pos{0};
    std::atomic<uint64_t> hit_neg{0};
    std::atomic<uint64_t> undecided{0};
    FastPathVerdictStats baseline;
    QueryProbe probe;

    FastPathVerdictStats Counts() const {
      return {hit_pos.load(std::memory_order_relaxed),
              hit_neg.load(std::memory_order_relaxed),
              undecided.load(std::memory_order_relaxed)};
    }
    /// Calls `fn(registry_name, count)` for each verdict count.
    template <typename Fn>
    void ForEachCount(Fn&& fn) const {
      fn("fastpath.hit.pos", hit_pos);
      fn("fastpath.hit.neg", hit_neg);
      fn("fastpath.undecided", undecided);
    }
  };

  // Appends a slot's cell and attaches its counts to the registry.
  void AddCell() const;
  // Restarts every cell's probe and verdict stats (rebases `baseline`).
  void ResetCells() const;

  std::unique_ptr<ReachabilityIndex> inner_;
  DynamicReachabilityIndex* inner_dynamic_ = nullptr;  // null if static
  // Immutable once built; shared with copies.
  std::shared_ptr<const ObservationStack> stack_;
  // Set by ApplyUpdate, cleared by Build (the re-arm point). Plain
  // bools: like every dynamic index in the library, writes are not
  // thread-safe with queries.
  bool inserted_ = false;  // suppress negative verdicts
  bool deleted_ = false;   // suppress positive verdicts
  mutable std::deque<Cell> cells_;  // slot-indexed; deque: stable refs
};

using FastPathIndex = BasicFastPathIndex<ReachabilityIndex>;
using DynamicFastPathIndex = BasicFastPathIndex<DynamicReachabilityIndex>;

}  // namespace reach

#endif  // REACH_CORE_FASTPATH_INDEX_H_
