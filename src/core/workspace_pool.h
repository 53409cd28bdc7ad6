#ifndef REACH_CORE_WORKSPACE_POOL_H_
#define REACH_CORE_WORKSPACE_POOL_H_

#include <cstddef>
#include <deque>

#include "core/search_workspace.h"
#include "graph/types.h"
#include "obs/query_probe.h"

namespace reach {

/// A bank of `SearchWorkspace` slots for indexes whose queries traverse:
/// slot 0 serves plain `Query()` calls, and `BatchQuery` hands each
/// concurrent worker its own slot so visited marks, scratch queues, and
/// probe counters never race. `Probe()` aggregation sums every slot, so
/// metrics stay correct under concurrency (docs/OBSERVABILITY.md).
///
/// `EnsureSlots` is NOT safe against concurrent queries — callers grow
/// the bank before fanning out (the `BatchQuery` implementations do).
/// Slot references stay valid across growth (deque storage).
class WorkspacePool {
 public:
  WorkspacePool() { slots_.emplace_back(); }

  /// Grows the bank to at least `n` slots. Call before a parallel phase.
  void EnsureSlots(size_t n) const {
    while (slots_.size() < n) slots_.emplace_back();
  }

  size_t NumSlots() const { return slots_.size(); }

  /// The workspace of `slot` (< NumSlots()). Slot 0 is the serial-path
  /// workspace.
  SearchWorkspace& Slot(size_t slot) const { return slots_[slot]; }

  /// Sum of all slots' probes — what `ReachabilityIndex::Probe()` should
  /// report after any mix of serial and batched queries.
  QueryProbe AggregateProbe() const {
    QueryProbe merged;
    for (const SearchWorkspace& ws : slots_) merged.MergeFrom(ws.probe());
    return merged;
  }

  void ResetProbes() const {
    for (SearchWorkspace& ws : slots_) ws.probe().Reset();
  }

 private:
  // mutable: probes and traversal scratch mutate under const Query().
  mutable std::deque<SearchWorkspace> slots_;
};

/// Scratch state of an object whose copies must not share or copy it: a
/// copy of a `FreshOnCopy<T>` is a default-constructed `T`, and assigning
/// one leaves the target as it was. So the owner can keep a defaulted
/// copy constructor — every other member is copied — and a copy taken
/// while other threads write the source's scratch reads none of it.
template <typename T>
struct FreshOnCopy : T {
  FreshOnCopy() = default;
  FreshOnCopy(const FreshOnCopy&) : T() {}
  FreshOnCopy& operator=(const FreshOnCopy&) { return *this; }
};

/// The slot plumbing of every plain index whose queries traverse: one
/// `WorkspacePool`, fresh in a copy of the index (`FreshOnCopy`), `Query`
/// is `QueryInSlot(s, t, 0)`, every slot asked for is granted, and
/// `Probe()` sums the slots. `Derived` is the index
/// (its `QueryInSlot` over `Workspace(slot)` is called without a second
/// virtual dispatch); `Base` is `ReachabilityIndex` or
/// `DynamicReachabilityIndex`.
template <typename Derived, typename Base>
class PooledSearchIndex : public Base {
 public:
  bool Query(VertexId s, VertexId t) const override {
    return static_cast<const Derived&>(*this).Derived::QueryInSlot(s, t, 0);
  }
  size_t PrepareConcurrentQueries(size_t slots) const override {
    if (slots == 0) slots = 1;
    pool_.EnsureSlots(slots);
    return slots;
  }
  QueryProbe Probe() const override { return pool_.AggregateProbe(); }
  void ResetProbe() const override { pool_.ResetProbes(); }

 protected:
  SearchWorkspace& Workspace(size_t slot) const { return pool_.Slot(slot); }

 private:
  FreshOnCopy<WorkspacePool> pool_;
};

/// The no-traversal sibling: a bank of plain `QueryProbe`s for complete
/// indexes (transitive closure, 2-hop) whose queries read immutable label
/// state but still count into a probe.
class ProbePool {
 public:
  ProbePool() { slots_.emplace_back(); }

  void EnsureSlots(size_t n) const {
    while (slots_.size() < n) slots_.emplace_back();
  }

  size_t NumSlots() const { return slots_.size(); }

  QueryProbe& Slot(size_t slot) const { return slots_[slot]; }

  QueryProbe Aggregate() const {
    QueryProbe merged;
    for (const QueryProbe& probe : slots_) merged.MergeFrom(probe);
    return merged;
  }

  void Reset() const {
    for (QueryProbe& probe : slots_) probe.Reset();
  }

 private:
  mutable std::deque<QueryProbe> slots_;
};

}  // namespace reach

#endif  // REACH_CORE_WORKSPACE_POOL_H_
