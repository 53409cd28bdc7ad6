#ifndef REACH_CORE_EDGE_UPDATE_H_
#define REACH_CORE_EDGE_UPDATE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/types.h"

namespace reach {

/// One element of the unified batched write API (docs/API.md, "The write
/// surface"): an edge insertion or an edge deletion. Deletions are what
/// make the library *truly* dynamic — the survey's Table 1 separates
/// insert-only techniques (DBL) from fully dynamic ones (DAGGER), and
/// `EdgeUpdate` is the common currency both speak.
struct EdgeUpdate {
  enum class Kind : uint8_t { kInsert, kDelete };

  Kind kind = Kind::kInsert;
  VertexId source = 0;
  VertexId target = 0;

  static EdgeUpdate Insert(VertexId s, VertexId t) {
    return EdgeUpdate{Kind::kInsert, s, t};
  }
  static EdgeUpdate Delete(VertexId s, VertexId t) {
    return EdgeUpdate{Kind::kDelete, s, t};
  }

  bool IsInsert() const { return kind == Kind::kInsert; }
  bool IsDelete() const { return kind == Kind::kDelete; }

  friend bool operator==(const EdgeUpdate& a, const EdgeUpdate& b) {
    return a.kind == b.kind && a.source == b.source && a.target == b.target;
  }
};

/// The adjacency arc a plain update names: its target, as
/// `GraphArcs<Digraph>` has it.
inline VertexId UpdateArc(const EdgeUpdate& update) { return update.target; }

/// An ordered sequence of updates applied atomically from the caller's
/// point of view: `ApplyUpdate` either applies the whole batch or rejects
/// the whole batch without side effects. Order matters — an insert of
/// (u, v) followed by a delete of (u, v) leaves the edge absent.
using UpdateBatch = std::vector<EdgeUpdate>;

/// How `ApplyUpdate` disposed of a batch.
enum class UpdateStatus : uint8_t {
  /// Every update was absorbed incrementally; answers are exact and the
  /// index's rebuild policy does not ask for a full build.
  kApplied,
  /// The batch WAS applied and answers remain exact, but the index's
  /// rebuild policy now asks for a full build — accumulated damage past a
  /// count threshold (the `ReachGraph`-style REBUILD_THRESHOLD policy), or
  /// for the 2-hop indexes also damaged queries that have cost as much as
  /// a build: the caller should schedule `RebuildFromUpdates()` — the
  /// index never blocks a write on a full rebuild by itself.
  kDeferredRebuild,
  /// Validation failed (out-of-range endpoint, deletes on an insert-only
  /// index, ...). No state changed; `reason` says why.
  kRejected,
};

/// Typed outcome of `DynamicReachabilityIndex::ApplyUpdate`.
struct UpdateResult {
  UpdateStatus status = UpdateStatus::kApplied;
  /// Updates that changed graph state (inserts of absent edges, deletes
  /// of present edges).
  size_t applied = 0;
  /// No-op updates (inserting a present edge, deleting an absent one).
  size_t ignored = 0;
  /// Accumulated staleness after this batch: the number of deletions the
  /// index is currently answering through its repair machinery rather
  /// than its sealed labels. 0 means label-exact.
  size_t damage = 0;
  /// True iff `status == kDeferredRebuild`: answers stay exact but the
  /// caller should fold the backlog via `RebuildFromUpdates()` soon.
  bool rebuild_recommended = false;
  /// Human-readable cause when `status == kRejected`, empty otherwise.
  std::string reason;

  /// True when the batch took effect (applied or deferred-to-rebuild).
  bool ok() const { return status != UpdateStatus::kRejected; }

  static UpdateResult Applied(size_t applied_count, size_t ignored_count,
                              size_t damage_now, size_t budget) {
    UpdateResult r;
    r.applied = applied_count;
    r.ignored = ignored_count;
    r.damage = damage_now;
    if (budget != 0 && damage_now > budget) r.RecommendRebuild();
    return r;
  }

  /// Turns an applied result into `kDeferredRebuild`.
  void RecommendRebuild() {
    status = UpdateStatus::kDeferredRebuild;
    rebuild_recommended = true;
  }

  static UpdateResult Rejected(std::string why) {
    UpdateResult r;
    r.status = UpdateStatus::kRejected;
    r.reason = std::move(why);
    return r;
  }
};

/// The ledger behind a cost-based rebuild recommendation: the rent
/// damaged queries paid since the last full build, and that build's
/// price, in one work unit (one label test). Zero for an index that keeps
/// none.
struct RebuildRent {
  uint64_t paid = 0;
  uint64_t price = 0;
};

/// The validate-first batch loop behind every index's `ApplyUpdate`,
/// for plain and labeled batches alike. The whole batch is rejected, with
/// no update applied, when there is no live `graph` (nullptr: unbuilt, or
/// loaded read-only), when an update names an endpoint outside it, or when
/// `check(update)` returns a reason (a `const char*`; nullptr passes).
/// Otherwise `apply(update)` runs on each update in order and returns
/// whether it changed graph state; the result counts applied and ignored
/// updates and reports `damage`, read after the last update, against
/// `budget`.
template <typename Batch, typename Graph, typename Check, typename Apply>
UpdateResult ApplyUpdateBatch(const Batch& batch, const Graph* graph,
                              Check&& check, Apply&& apply,
                              const size_t& damage, size_t budget) {
  if (graph == nullptr) {
    return UpdateResult::Rejected("no live graph: Build() first");
  }
  const size_t n = graph->NumVertices();
  for (const auto& update : batch) {
    if (update.source >= n || update.target >= n) {
      return UpdateResult::Rejected("endpoint out of range");
    }
    if (const char* reason = check(update)) {
      return UpdateResult::Rejected(reason);
    }
  }
  size_t applied = 0;
  for (const auto& update : batch) applied += apply(update) ? 1 : 0;
  return UpdateResult::Applied(applied, batch.size() - applied, damage,
                               budget);
}

/// The `check` of an `ApplyUpdateBatch` caller that accepts every update
/// within range.
inline constexpr auto kAcceptInRange = [](const auto&) -> const char* {
  return nullptr;
};

/// Printable name for logs / CLI output.
inline const char* UpdateStatusName(UpdateStatus status) {
  switch (status) {
    case UpdateStatus::kApplied:
      return "applied";
    case UpdateStatus::kDeferredRebuild:
      return "deferred-rebuild";
    case UpdateStatus::kRejected:
      return "rejected";
  }
  return "unknown";
}

}  // namespace reach

#endif  // REACH_CORE_EDGE_UPDATE_H_
