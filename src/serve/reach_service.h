#ifndef REACH_SERVE_REACH_SERVICE_H_
#define REACH_SERVE_REACH_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/edge_update.h"
#include "core/search_workspace.h"
#include "core/serialize.h"
#include "graph/digraph.h"
#include "graph/rng.h"
#include "graph/types.h"
#include "serve/serve_snapshot.h"

namespace reach {

class Gauge;
class Histogram;

/// What `ApplyUpdate` does when the replay log (the batches accepted
/// while a full build runs) is at `ServiceOptions::max_pending_edges`
/// (docs/ROBUSTNESS.md).
enum class BackpressurePolicy : uint8_t {
  /// Block the writer until the build ends and its replay empties the log
  /// (`Stop` unblocks with a rejected batch).
  kBlock,
  /// Reject the batch immediately (`ApplyUpdate` returns `kRejected`);
  /// the caller owns retry policy.
  kReject,
  /// Accept the batch past the cap — the log transiently exceeds the cap
  /// and empties when the running build ends.
  kForceRebuild,
};

/// Stable policy name ("block", "reject", "force_rebuild").
const char* BackpressurePolicyName(BackpressurePolicy policy);

/// Vertex-visit cap of the search of the base graph that answers while no
/// index is published. Exhausting it yields an inexact negative answer
/// (`ServeAnswer::exact == false`).
inline constexpr size_t kFallbackVisitBudget = 1 << 16;
/// The same cap on the tier-2 (bfs-only) admission tier — deliberately far
/// below `kFallbackVisitBudget`.
inline constexpr size_t kDegradedVisitBudget = 2048;
/// How far the writer lets an index copy grow before it asks for a full
/// build: a copy whose `IndexSizeBytes` passes this many times the size
/// of the last full build is still published, and a full build over its
/// live graph starts in the background. Inserts widen 2-hop labels
/// without bound, so this keeps the index and the label lists a query
/// scans within a constant factor of a fresh build.
inline constexpr size_t kIndexGrowthLimit = 2;

/// Configuration of a `ReachService`.
struct ServiceOptions {
  /// `MakeIndex` spec of the plain index each snapshot is built with.
  /// `Start()` rejects a spec `MakeIndex` rejects, and an "lcr:" spec. A
  /// spec whose index has no copy (`DynamicReachabilityIndex::Clone`) is
  /// served read-only.
  std::string spec = "pll";
  /// Concurrent-query slots requested per snapshot; the index may grant
  /// fewer (see `PrepareConcurrentQueries`). 0 = `DefaultThreads()`.
  size_t slots = 0;
  /// Unused; kept until ROADMAP item 5.
  size_t drain_threshold = 64;
  /// End-to-end latency above which a query's stage breakdown is retained
  /// in the slow-query log. 0 = no capture.
  std::chrono::nanoseconds slow_query_threshold{0};
  /// Bound of the slow-query log; once full, the oldest record is evicted
  /// (and counted in `ServeStats::slow_dropped`). 0 disables capture and
  /// the per-stage stopwatches entirely.
  size_t slow_log_capacity = 64;
  /// Unused; kept until ROADMAP item 5.
  size_t negcache_capacity = 1 << 14;

  /// --- Overload / fault hardening (docs/ROBUSTNESS.md) ---------------

  /// Admission control: maximum concurrently admitted queries. As the
  /// in-flight count approaches the cap, queries land on tiers — ≤50%
  /// full, ≤75% index-only, ≤100% bfs-only — which differ only before the
  /// first index is published, when a bfs-only query searches the base
  /// graph under the smaller `kDegradedVisitBudget`. Above the cap the
  /// query is shed (`AnswerSource::kShedded`, `exact == false`, O(1)).
  /// 0 = no gate.
  size_t max_inflight_queries = 0;

  /// Write backpressure: cap on the replay log, the updates accepted
  /// while a full build runs, which its replay applies; `backpressure`
  /// picks what `ApplyUpdate` does at the cap. 0 = unbounded (no gate).
  size_t max_pending_edges = 0;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;

  /// Rebuild resilience: a failed or watchdog-abandoned full build
  /// retries with exponential backoff (initial doubled per consecutive
  /// failure, capped at max, ±50% deterministic jitter) up to
  /// `rebuild_max_retries` re-attempts; after that the build is abandoned
  /// (health reports kFailed) until a write asks for one again (or, before
  /// the first index, a write or `Flush` waits for one). The last good
  /// snapshot keeps serving throughout — failures never unpublish
  /// anything.
  size_t rebuild_max_retries = 5;
  std::chrono::nanoseconds rebuild_backoff_initial{
      std::chrono::milliseconds(10)};
  std::chrono::nanoseconds rebuild_backoff_max{std::chrono::seconds(2)};
  /// Cooperative watchdog deadline per build attempt, checked at the phase
  /// boundary after the live graph is materialized and before the full
  /// build: an attempt already past the deadline is abandoned — not
  /// published — counted in `watchdog_fired`, and re-queued with backoff,
  /// picking up any updates that arrived meanwhile. 0 = no deadline.
  std::chrono::nanoseconds rebuild_watchdog{0};
};

/// How a query was answered.
enum class AnswerSource : uint8_t {
  kIndex,        // an index as its last full build left it
  kDelta,        // a copy carrying updates since its last full build
  kFallbackBfs,  // bounded search of the base graph: no index yet
  kShedded,      // admission gate full: not answered (always inexact)
};

/// The result of one `ReachService::Query`.
struct ServeAnswer {
  bool reachable = false;
  /// False only for a negative answer the service could not verify within
  /// its budgets (the search before the first index hit its visit cap),
  /// and for a shed query. Positive answers are always exact.
  bool exact = true;
  AnswerSource source = AnswerSource::kIndex;
  /// Generation of the snapshot that served the query.
  uint64_t snapshot_version = 0;
};

/// The stages of one served query, in pipeline order; indexes into
/// `SlowQueryRecord::stage_ns`. The fallback search runs only while no
/// index is published.
enum class ServeStage : uint8_t {
  kNegCacheProbe = 0,  // unused; kept until ROADMAP item 5
  kSlotAcquire = 1,    // admission: leasing a concurrent-query slot
  kIndexProbe = 2,     // the pinned snapshot's index lookup
  kDeltaClosure = 3,   // unused; kept until ROADMAP item 5
  kFallbackBfs = 4,    // bounded search of the base graph
};
inline constexpr size_t kNumServeStages = 5;

/// Stage name for table/log output ("slot_acquire", ...).
const char* ServeStageName(size_t stage);

/// One retained slow query: identity, outcome, per-stage latency
/// breakdown, and probe-style counters — everything needed to explain
/// where the time went without replaying the query.
struct SlowQueryRecord {
  VertexId s = 0;
  VertexId t = 0;
  bool reachable = false;
  bool exact = true;
  bool slot_waited = false;
  AnswerSource source = AnswerSource::kIndex;
  uint64_t snapshot_version = 0;
  uint64_t total_ns = 0;
  /// Nanoseconds spent per `ServeStage` (0 = stage not reached).
  uint64_t stage_ns[kNumServeStages] = {};
  /// `QueryInSlot` calls issued: 1 for every query that reached the
  /// index.
  uint64_t index_probes = 0;
  /// Unused; kept until ROADMAP item 5.
  uint64_t pending_edges = 0;
  /// Vertices expanded by the search before the first index (0 when it
  /// did not run).
  uint64_t bfs_visits = 0;
};

/// Always-on service counters, one relaxed atomic per event (independent
/// of REACH_METRICS). They are the only store: the service attaches every
/// field but `negcache_hits` to its `MetricsRegistry::Global()` counter
/// (the name `ForEachCounter` gives it), so a registry scrape reads these
/// atomics and a destroyed service's counts stay in the registry's totals.
/// Every query lands in exactly one of `index_answers`, `delta_answers`,
/// `fallback_answers` and `shed`.
struct ServeStats {
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> index_answers{0};
  std::atomic<uint64_t> delta_answers{0};
  std::atomic<uint64_t> fallback_answers{0};
  std::atomic<uint64_t> slot_waits{0};
  std::atomic<uint64_t> inexact_answers{0};
  std::atomic<uint64_t> inserts{0};
  /// Deletes accepted.
  std::atomic<uint64_t> deletes{0};
  /// `ApplyUpdate` batches accepted / rejected (validation, a read-only
  /// or stopped service, or backpressure-reject).
  std::atomic<uint64_t> update_batches{0};
  std::atomic<uint64_t> update_rejected{0};
  /// Unused; kept until ROADMAP item 5.
  std::atomic<uint64_t> delete_verifies{0};
  /// Generations published after the startup one, and those of them a
  /// full build made (the rest are copies the writer updated).
  std::atomic<uint64_t> rebuilds{0};
  std::atomic<uint64_t> full_builds{0};
  /// Unused (always 0); kept until ROADMAP item 5.
  std::atomic<uint64_t> negcache_hits{0};
  /// Queries captured into the slow-query log (including records evicted
  /// later) and records evicted because the log was full.
  std::atomic<uint64_t> slow_captured{0};
  std::atomic<uint64_t> slow_dropped{0};
  /// Admission-control outcomes: queries shed outright and queries
  /// answered on a degraded tier (docs/ROBUSTNESS.md);
  /// `admission_cache_only` counts the index-only tier.
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> admission_cache_only{0};
  std::atomic<uint64_t> admission_bfs_only{0};
  /// Backpressure outcomes of `ApplyUpdate` at the replay-log cap.
  std::atomic<uint64_t> backpressure_blocked{0};
  std::atomic<uint64_t> backpressure_rejected{0};
  std::atomic<uint64_t> backpressure_forced{0};
  /// Rebuild-resilience outcomes: failed build attempts (exceptions and
  /// watchdog abandons), scheduled re-attempts, and watchdog fires.
  std::atomic<uint64_t> rebuild_failures{0};
  std::atomic<uint64_t> rebuild_retries{0};
  std::atomic<uint64_t> watchdog_fired{0};

  /// Calls `fn(registry_name, field)` for every field but `negcache_hits`,
  /// in declaration order — the single map from fields to their "serve.*"
  /// registry keys.
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
    fn("serve.queries", queries);
    fn("serve.index_answers", index_answers);
    fn("serve.delta_answers", delta_answers);
    fn("serve.fallback_bfs", fallback_answers);
    fn("serve.slot_waits", slot_waits);
    fn("serve.inexact_answers", inexact_answers);
    fn("serve.inserts", inserts);
    fn("serve.update.deletes", deletes);
    fn("serve.update.batches", update_batches);
    fn("serve.update.rejected", update_rejected);
    fn("serve.update.delete_verifies", delete_verifies);
    fn("serve.rebuilds", rebuilds);
    fn("serve.rebuild.full_builds", full_builds);
    fn("serve.slow.captured", slow_captured);
    fn("serve.slow.dropped", slow_dropped);
    fn("serve.shed", shed);
    fn("serve.admission.cache_only", admission_cache_only);
    fn("serve.admission.bfs_only", admission_bfs_only);
    fn("serve.backpressure.blocked", backpressure_blocked);
    fn("serve.backpressure.rejected", backpressure_rejected);
    fn("serve.backpressure.forced", backpressure_forced);
    fn("serve.rebuild.failures", rebuild_failures);
    fn("serve.rebuild.retries", rebuild_retries);
    fn("serve.rebuild.watchdog_fired", watchdog_fired);
  }
};

/// Coarse state of the background full builds, for health reporting.
enum class RebuildState : uint8_t {
  kIdle = 0,     // no build in flight
  kRunning = 1,  // a build attempt is running
  kBackoff = 2,  // last attempt failed; waiting to retry
  kFailed = 3,   // retries exhausted; awaiting a write that asks again
};

/// Stable state name ("idle", "running", "backoff", "failed").
const char* RebuildStateName(RebuildState state);

/// Point-in-time readiness/health snapshot of a `ReachService`, also
/// mirrored into `reach.metrics.v1` as the `serve.health.*` gauges every
/// time `Health()` runs (docs/ROBUSTNESS.md).
struct ServiceHealth {
  /// An indexed snapshot is published (startup build or snapshot load
  /// done) — the readiness bit a load balancer would gate on.
  bool ready = false;
  /// Whether `ApplyUpdate` takes batches: started with a writable spec
  /// and not stopped. False before `Start`, for a read-only spec, and
  /// once `Stop()` ran; queries work in every case.
  bool accepting_writes = false;
  uint64_t snapshot_version = 0;
  /// `IndexSizeBytes` of the published index (0 before the first build).
  size_t index_bytes = 0;
  /// The published index's rebuild ledger (`DynamicReachabilityIndex::
  /// Rent`): the rent its damaged queries paid since its last full build,
  /// and that build's price. A write asks for a full build once the rent
  /// reaches the price, so these say why one ran or did not. Both 0 for
  /// an index that keeps no ledger.
  uint64_t rebuild_rent_paid = 0;
  uint64_t rebuild_price = 0;
  /// The replay log's length (`ReachService::PendingEdgeCount`).
  size_t pending_edges = 0;
  size_t max_pending_edges = 0;  // 0 = unbounded
  /// Buffer occupancy in [0,1]; 0 when unbounded.
  double pending_fill = 0.0;
  size_t inflight_queries = 0;
  size_t max_inflight_queries = 0;  // 0 = no admission gate
  /// Admission occupancy in [0,1]; 0 when ungated.
  double inflight_fill = 0.0;
  RebuildState rebuild = RebuildState::kIdle;
  /// Consecutive failed build attempts (0 after any success).
  uint64_t rebuild_consecutive_failures = 0;
  uint64_t rebuild_retries = 0;
  uint64_t rebuild_failures = 0;
  uint64_t watchdog_fired = 0;
  uint64_t shed = 0;
  /// What the most recent failed build attempt reported ("" = none yet).
  std::string last_rebuild_error;
};

/// An embeddable concurrent reachability-serving engine — the §5
/// "integration into GDBMSs" challenge made concrete. One service owns an
/// evolving edge set and serves exact point queries while absorbing a
/// batched `ApplyUpdate` stream of edge inserts AND deletes:
///
///  * Reads pin one immutable `ServeView` — a snapshot (an index, the
///    graph of its last full build, query slots) — behind an atomic
///    `shared_ptr`, lease a slot, and answer via `QueryInSlot`: many
///    readers in parallel, zero locks on the hot path. Each querying
///    thread has a reader record (`ReaderRecords`) that caches the view it
///    last pinned and holds its in-flight flag, so an idle query re-pins
///    only after a publish and makes no shared read-modify-write to pin or
///    to be counted.
///  * Writes take one path: the writer applies the batch to a copy of the
///    published index (`DynamicReachabilityIndex::Clone`, e.g. `pll`,
///    `pll:fastpath=1`, `dagger`, or a `StartWithSnapshot` index) and
///    publishes the copy, so a query is one `QueryInSlot` on the pinned
///    index, always exact. When the copy asks for a full build —
///    `kDeferredRebuild`, or growth past `kIndexGrowthLimit` times the
///    last build — it is still published, and a background task on the
///    shared thread pool (src/par/) builds a fresh index over the copy's
///    live graph, replays the batches accepted meanwhile, and publishes
///    it.
///  * A spec whose index has no copy (`grail` and the other partial
///    indexes, insert-only `dbl`) is read-only when served: `ApplyUpdate`
///    rejects every batch and names the spec.
///  * Before the first index is published, a query searches the base
///    graph within `kFallbackVisitBudget` visits (`ServeAnswer::exact`
///    says whether it sufficed), and a write waits for that index.
///
/// At most one background build is in flight; generations are strictly
/// ordered. No write ever builds inline.
///
/// Thread-safety: `Query` may be called from any number of threads
/// concurrently with `ApplyUpdate`, `Flush`, and the background rebuild.
/// `Start`/`Stop` are not thread-safe with each other.
class ReachService {
 public:
  /// The vertex set is fixed at construction; `ApplyUpdate` streams edge
  /// writes over it. The service answers queries from `Start()` on.
  explicit ReachService(Digraph base, ServiceOptions options = {});
  ~ReachService();

  ReachService(const ReachService&) = delete;
  ReachService& operator=(const ReachService&) = delete;

  /// Schedules the first index build in the background; until it
  /// publishes, queries search the base graph and writes wait. Records
  /// whether the spec is read-only (its index has no copy). A spec
  /// `MakeIndex` rejects, or an "lcr:" one, returns `kUnsupported` with
  /// the factory's message and leaves the service unstarted. A second
  /// call is a no-op.
  LoadResult Start();

  /// Near-instant startup/failover: mmap-loads an RCHX v2 snapshot file
  /// (docs/SNAPSHOTS.md) written by `PrunedTwoHop::SaveSnapshot` for the
  /// service's base graph, rebases it onto that graph
  /// (`PrunedTwoHop::Rebase`), and publishes it as the first indexed
  /// snapshot — no build: queries are index-backed and writes go into
  /// copies of it at once. The spec must be a bare 2-hop spec
  /// (`pll`/`tfl`/`tol-*`, no `fastpath` wrapper), and the snapshot's
  /// vertex count and graph digest must match the service's graph
  /// (`kWrongIndex` otherwise, also for a snapshot without a digest); on
  /// any error the service is left unstarted (a plain `Start()` still
  /// works). The loaded index keeps the build price the snapshot recorded
  /// and rents against it like a built one; without a recorded price its
  /// price is 0, so its first damaging delete asks for a full build. Not
  /// thread-safe with `Start`/`Stop`.
  LoadResult StartWithSnapshot(const std::string& path);

  /// Blocks until the in-flight rebuild (if any) finishes and stops
  /// scheduling new ones. Queries keep working against the last
  /// published snapshot; further inserts are rejected. Idempotent.
  void Stop();

  /// Answers Qr(s, t) over the base graph with every update accepted by
  /// `ApplyUpdate` so far replayed in order (exact once an index is
  /// published; see the class comment for the search before that).
  ServeAnswer Query(VertexId s, VertexId t) const;

  /// Applies a batch of edge writes to a copy of the published index and
  /// publishes the copy (see the class comment). Validate-first: a batch
  /// with an out-of-range endpoint, or one arriving before `Start()`,
  /// after `Stop()`, on a read-only spec, or bounced by `kReject`
  /// backpressure, is rejected whole with no state change. Before the
  /// first index is published the call waits for it (`Stop` ends the
  /// wait with a rejection). An accepted batch is visible to every
  /// subsequent query atomically — readers pin whole views, so they see
  /// all of it or none of it. The writer pays one index copy (for a 2-hop
  /// or DAGGER index, a few reference counts), the index's own
  /// `ApplyUpdate`, which clones the table paths it writes, and the free
  /// of the copy published two writes earlier.
  UpdateResult ApplyUpdate(const UpdateBatch& batch);

  /// Single-edge convenience wrappers over `ApplyUpdate`. Return false
  /// iff the one-update batch was rejected.
  bool InsertEdge(VertexId s, VertexId t);
  bool DeleteEdge(VertexId s, VertexId t);

  /// Blocks until an index is published and no background build is in
  /// flight (every accepted update is in the published index from the
  /// moment `ApplyUpdate` returns). Schedules the first build if none is
  /// running yet. Returns at once when stopped, or when never started (no
  /// `Start()` call, or one that failed): no build runs then.
  void Flush();

  size_t NumVertices() const { return num_vertices_; }
  /// Version of the currently published snapshot (0 = unindexed startup).
  uint64_t SnapshotVersion() const {
    return view_.Load()->snapshot->version;
  }
  /// The replay log: updates (inserts + deletes) accepted while a full
  /// build runs, which its replay will apply; 0 when no build runs. The
  /// published index carries them already.
  size_t PendingEdgeCount() const { return view_.Load()->pending.size(); }
  /// Queries currently inside `Query` (admitted or about to be triaged):
  /// the in-flight flags of the reader records, one per querying thread.
  size_t InflightQueries() const;
  const ServeStats& stats() const { return stats_; }
  const ServiceOptions& options() const { return options_; }

  /// Snapshot of readiness, backlog, admission load, and rebuild state;
  /// refreshes the `serve.health.*` gauges as a side effect so a metrics
  /// scrape after any `Health()` call carries the same picture.
  /// Thread-safe; O(1) plus one load per reader record.
  ServiceHealth Health() const;

  /// The slow-query log, oldest first: every query that exceeded
  /// `slow_query_threshold`, up to `slow_log_capacity` retained records.
  /// Thread-safe.
  std::vector<SlowQueryRecord> SlowQueries() const;
  /// Empties the slow-query log (captured/dropped totals are kept).
  void ClearSlowQueries();

 private:
  class SlotLease;
  class InflightGuard;

  /// Load tier assigned to a query at admission (docs/ROBUSTNESS.md).
  /// With an index published, every admitted tier answers from it.
  enum class AdmissionTier : uint8_t {
    kFull,       // whole pipeline
    kIndexOnly,  // as kFull
    kBfsOnly,    // before the first index: the smaller search budget
    kShed,       // not answered
  };

  void ScheduleLocked();
  void RebuildLoop();
  /// Drops the replay log once no build is left to replay it (write_mu_
  /// and rebuild_mu_ held).
  void EndDrainLocked();
  AdmissionTier AdmitTier(size_t inflight_now) const;
  void SetRebuildState(RebuildState state);
  void NoteRebuildFailure(const std::string& error, size_t consecutive);
  ServeAnswer AnswerWithIndex(const ServeSnapshot& snap, VertexId s,
                              VertexId t, bool* waited,
                              SlowQueryRecord* rec) const;
  /// The search of the base graph before the first index; `ws` is the
  /// calling thread's scratch (its reader record's).
  ServeAnswer AnswerBeforeIndex(const ServeSnapshot& snap, VertexId s,
                                VertexId t, size_t visit_budget,
                                SlowQueryRecord* rec,
                                SearchWorkspace& ws) const;
  UpdateResult Reject(const std::string& reason) const;
  void CaptureSlowQuery(SlowQueryRecord rec) const;

  const ServiceOptions options_;
  const size_t num_vertices_;

  // The published snapshot + replay log; one load per query.
  AtomicSharedPtr<const ServeView> view_;
  // One record per querying thread: its cached view and in-flight flag.
  const std::shared_ptr<ReaderRecords> readers_;

  // Serializes the writers and the drain replacing the view (readers
  // are lock-free: views are immutable).
  mutable std::mutex write_mu_;
  // The view the last `ApplyUpdate` replaced, kept until the next
  // publish so that the writer frees it. Guarded by write_mu_.
  std::shared_ptr<const ServeView> superseded_;
  // Wakes writers waiting for the first index, or under kBlock for a
  // build to end (and on Stop). Guarded by write_mu_.
  std::condition_variable backpressure_cv_;
  uint64_t next_version_ = 1;
  // Guarded by write_mu_: whether a build attempt has loaded the view it
  // builds from, so that batches are logged for its replay; and whether a
  // copy asked for a full build since the last one published.
  bool log_for_drain_ = false;
  bool build_wanted_ = false;

  // Rebuild handshake: at most one build task in flight.
  mutable std::mutex rebuild_mu_;
  mutable std::condition_variable rebuild_cv_;
  bool rebuild_inflight_ = false;
  std::atomic<bool> stopped_{false};
  // Set once by a successful start (release), after `read_only_`: whether
  // the spec's index has no copy, so the service takes no writes.
  std::atomic<bool> started_{false};
  bool read_only_ = false;

  mutable ServeStats stats_;
  // Slow-query log: bounded, oldest-evicted (see ServiceOptions).
  mutable std::mutex slow_mu_;
  mutable std::deque<SlowQueryRecord> slow_log_;

  // Health state of the background builds (RebuildState values).
  std::atomic<uint8_t> rebuild_state_{0};
  std::atomic<uint64_t> rebuild_consecutive_failures_{0};
  mutable std::mutex health_mu_;
  std::string last_rebuild_error_;
  // Backoff jitter source — only the single in-flight rebuild task ever
  // touches it, so no lock; fixed seed keeps chaos runs reproducible.
  Xoshiro256ss backoff_rng_{0xFA11};

  // Cached obs-registry instruments ("serve.*" counters read stats_).
  Gauge* version_gauge_;
  Gauge* pending_gauge_;
  Gauge* health_ready_gauge_;
  Gauge* health_state_gauge_;
  Gauge* health_pending_fill_gauge_;
  Gauge* health_inflight_fill_gauge_;
  // serve.query_ns: one query in 64 per reader thread (see Query).
  Histogram* latency_hist_;
};

}  // namespace reach

#endif  // REACH_SERVE_REACH_SERVICE_H_
