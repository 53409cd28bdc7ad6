#ifndef REACH_CORE_REACHABILITY_INDEX_H_
#define REACH_CORE_REACHABILITY_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/edge_update.h"
#include "core/index_stats.h"
#include "core/query_workload.h"
#include "core/serialize.h"
#include "graph/digraph.h"
#include "graph/types.h"
#include "obs/query_probe.h"

namespace reach {

/// Abstract interface of a plain reachability index (paper §3).
///
/// Semantics (fixed library-wide, enforced by tests):
///  * `Query(s, t)` answers the plain reachability query Qr(s, t) of §2.1:
///    does a directed s-t path (of length >= 0) exist? Reachability is
///    reflexive: `Query(v, v) == true`.
///  * Answers are always exact. *Partial* indexes (Table 1, Index Type
///    column) fall back to index-guided online traversal internally; the
///    partial/complete distinction is visible through `IsComplete()` and
///    through performance, never through wrong answers.
///
/// Implementations keep a reference to the graph passed to `Build()` only
/// for the duration of the call unless documented otherwise (partial
/// indexes retain a pointer for guided traversal; the caller must keep the
/// graph alive as long as the index).
class ReachabilityIndex {
 public:
  virtual ~ReachabilityIndex() = default;

  /// Builds the index for `graph`, replacing any previous state.
  virtual void Build(const Digraph& graph) = 0;

  /// Answers Qr(s, t). Must be called after `Build()`.
  virtual bool Query(VertexId s, VertexId t) const = 0;

  /// Answers `queries[i]` into element i of the returned vector (1 =
  /// reachable). The default partitions the batch across the shared
  /// thread pool (src/par/, docs/PARALLELISM.md) when the index opts into
  /// concurrent queries via `PrepareConcurrentQueries`, and degrades to a
  /// serial `Query` loop otherwise — so it is always safe to call.
  /// `num_threads`: 0 = `DefaultThreads()`, 1 = serial.
  virtual std::vector<uint8_t> BatchQuery(std::span<const QueryPair> queries,
                                          size_t num_threads = 0) const;

  /// Readies the index for concurrent `QueryInSlot` streams (growing
  /// per-slot workspaces/probes) and returns the number of slots actually
  /// prepared — the concurrency contract of the library:
  ///  * A return of `slots` means full concurrency: slots `0..slots-1`
  ///    may each run one `QueryInSlot` stream in parallel.
  ///  * A return of 1 (the default) means only slot 0 exists — the plain
  ///    serial `Query` path. The index does NOT support concurrent
  ///    queries, and callers must serialize access themselves. This is an
  ///    explicit signal; earlier revisions silently degraded instead,
  ///    which concurrent callers had no way to detect.
  ///  * Wrappers may prepare fewer slots than requested when their inner
  ///    index does; callers must respect the returned count, never the
  ///    requested one.
  /// Not itself thread-safe: call before fanning out, as `BatchQuery`
  /// does. `slots == 0` is treated as 1.
  virtual size_t PrepareConcurrentQueries(size_t slots) const {
    (void)slots;
    return 1;
  }

  /// `Query(s, t)` recording into the scratch state / probe of `slot`
  /// (< the count *returned* by `PrepareConcurrentQueries`). Distinct
  /// slots may run concurrently; slot 0 is the plain `Query` path.
  virtual bool QueryInSlot(VertexId s, VertexId t, size_t slot) const {
    (void)slot;
    return Query(s, t);
  }

  /// Serialization capability (optional). `Save` writes the versioned
  /// envelope of core/serialize.h followed by an index-specific payload;
  /// `Load` validates the envelope (typed error on magic / version /
  /// format-name mismatch) and restores the index. The defaults signal
  /// "unsupported" explicitly — no silent garbage. Check
  /// `SupportsSerialization()` (also surfaced as the factory's
  /// `IndexCaps::serializable`) before relying on persistence.
  virtual bool SupportsSerialization() const { return false; }

  /// Serializes the index. Returns false on I/O failure or when the
  /// index does not support serialization.
  virtual bool Save(std::ostream& out) const {
    (void)out;
    return false;
  }

  /// Restores an index saved by `Save` of the same index type. On
  /// failure the index state is unspecified; re-`Build` before use.
  virtual LoadResult Load(std::istream& in) {
    (void)in;
    return LoadResult{LoadStatus::kUnsupported, Name()};
  }

  /// Index footprint in bytes (labels only, excluding the graph itself).
  /// This is the "index size" column of the survey's comparisons.
  virtual size_t IndexSizeBytes() const = 0;

  /// True if queries are answered from index lookups alone; false if the
  /// index may fall back to (guided) graph traversal (§3, Index Type).
  virtual bool IsComplete() const = 0;

  /// Short identifier used in benchmark tables, e.g. "grail(k=3)".
  virtual std::string Name() const = 0;

  /// Build statistics of the last `Build()` (time, phase breakdown, peak
  /// memory; size fields are technique-specific). The single source of
  /// truth for the survey's "indexing time" column.
  const IndexStats& Stats() const { return build_stats_; }

  /// Per-query instrumentation accumulated since `Build()` /
  /// `ResetProbe()`. Uninstrumented indexes report an empty probe; with
  /// REACH_METRICS=0 every probe is empty.
  virtual QueryProbe Probe() const { return QueryProbe{}; }

  /// Zeroes the probe counters (e.g. between benchmark phases).
  virtual void ResetProbe() const {}

 protected:
  /// Populated by each `Build()` via `BuildStatsScope`.
  IndexStats build_stats_;
};

/// Interface of a plain reachability index that supports incremental
/// writes (the Dynamic column of Table 1).
///
/// The write surface is one call: `ApplyUpdate(batch)`. A batch is an
/// ordered mix of inserts and deletes; the index either absorbs the whole
/// batch (possibly flagging that a background rebuild is now advisable) or
/// rejects it without side effects. Queries issued after a successful
/// `ApplyUpdate` are exact for the updated edge set — *partial* staleness
/// is never visible through answers, only through `UpdateResult::damage`
/// and `IsComplete()`.
///
/// Deletions are optional: insert-only techniques (DBL) report
/// `SupportsDeletions() == false` and reject any batch containing a
/// delete. Callers branch on the capability (surfaced as the factory's
/// `IndexCaps::decremental`), never on index names.
class DynamicReachabilityIndex : public ReachabilityIndex {
 public:
  /// Applies `batch` in order. See `UpdateResult` for the outcome
  /// contract; on `kRejected` no state changed. Like every write in the
  /// library, not thread-safe against concurrent queries — the serving
  /// layer (serve/reach_service.h) provides the concurrent facade.
  virtual UpdateResult ApplyUpdate(const UpdateBatch& batch) = 0;

  /// True if `ApplyUpdate` accepts `EdgeUpdate::Kind::kDelete`.
  virtual bool SupportsDeletions() const { return false; }

  /// Folds every update applied since the last `Build()` into a fresh
  /// build (resetting staleness/damage to zero). This is the second half
  /// of the rebuild policy: `ApplyUpdate` returns `kDeferredRebuild` when
  /// the index asks for a build, and the *caller* decides when to pay for
  /// this. Returns false when the index has nothing to fold or does not
  /// support it.
  virtual bool RebuildFromUpdates() { return false; }

  /// The rent damaged queries paid since the last build against that
  /// build's price, for an index whose recommendation weighs them (the
  /// 2-hop family); zero otherwise, the default.
  virtual RebuildRent Rent() const { return {}; }

  /// A copy that answers every query as this index does and then takes
  /// `ApplyUpdate` batches of its own, while this index keeps serving
  /// queries unchanged — how the serve writer updates the published index
  /// without a full build (docs/API.md). Null when the index has no cheap
  /// copy, the default; the caller then builds afresh. A copy may point
  /// into the graph this index was built over, which must outlive it, and
  /// may share scratch with this index: write the two from one thread at
  /// a time.
  virtual std::unique_ptr<DynamicReachabilityIndex> Clone() const {
    return nullptr;
  }

  /// The graph this index answers for — the graph of the last `Build`
  /// with every update since applied — as a new graph: what a caller
  /// builds a fresh index over. Null when the index keeps no live graph
  /// (one loaded from a file) or does not expose it, the default.
  virtual std::unique_ptr<Digraph> LiveGraph() const { return nullptr; }
};

}  // namespace reach

#endif  // REACH_CORE_REACHABILITY_INDEX_H_
