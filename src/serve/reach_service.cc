#include "serve/reach_service.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/failpoint.h"
#include "core/index_factory.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "plain/pruned_two_hop.h"
#include "traversal/guided_search.h"

namespace reach {

namespace {

using Clock = std::chrono::steady_clock;

// The plain index `spec` names, or why the service cannot serve it.
LoadResult MakePlain(const std::string& spec,
                     std::unique_ptr<ReachabilityIndex>* index) {
  MadeIndex made = MakeIndex(spec);
  if (made.plain == nullptr) {
    return {LoadStatus::kUnsupported,
            made ? "spec '" + spec + "' is label-constrained" : made.error};
  }
  *index = std::move(made.plain);
  return {};
}

/// Whether a copy's `ApplyUpdate` outcome asks for a full build: its
/// rebuild policy recommends one (for the 2-hop copies, damaged queries
/// have paid the last build's price), or it grew past `kIndexGrowthLimit`
/// times the last build.
bool WantsBuild(const UpdateResult& result, const ReachabilityIndex& index,
                size_t built_bytes) {
  return result.status == UpdateStatus::kDeferredRebuild ||
         index.IndexSizeBytes() > kIndexGrowthLimit * built_bytes;
}

// One query in this many, per reader thread, records its end-to-end
// latency into `serve.query_ns`.
constexpr uint64_t kQueryNsSamplePeriod = 64;

// The calling thread's view of `published`: the one its record caches,
// unless a publish moved the generation since the record loaded it.
const ServeView& CachedView(const AtomicSharedPtr<const ServeView>& published,
                            ReaderRecord* reader) {
  const uint64_t generation = published.Generation();
  if (generation != reader->generation) {
    reader->view = published.Load();
    reader->generation = generation;
  }
  return *reader->view;
}

uint64_t ElapsedNs(Clock::time_point begin, Clock::time_point end) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
          .count());
}

// Trace-span name id of each serve stage (interned once per process;
// `kNegCacheProbe` is never recorded).
uint32_t StageTraceId(ServeStage stage) {
  static const uint32_t ids[kNumServeStages] = {
      0,
      TraceRecorder::Global().Intern("serve.slot_acquire"),
      TraceRecorder::Global().Intern("serve.index_probe"),
      TraceRecorder::Global().Intern("serve.delta_closure"),
      TraceRecorder::Global().Intern("serve.fallback_bfs"),
  };
  return ids[static_cast<size_t>(stage)];
}

/// Times one pipeline stage into both the trace timeline (a span, no-op
/// while tracing is disabled or compiled out) and the slow-query record
/// (when one is being kept for this query).
class StageScope {
 public:
  StageScope(SlowQueryRecord* rec, ServeStage stage)
      : span_(StageTraceId(stage)), rec_(rec), stage_(stage) {
    if (rec_ != nullptr) start_ = Clock::now();
  }
  ~StageScope() {
    if (rec_ != nullptr) {
      rec_->stage_ns[static_cast<size_t>(stage_)] +=
          ElapsedNs(start_, Clock::now());
    }
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  TraceSpan span_;
  SlowQueryRecord* rec_;
  ServeStage stage_;
  Clock::time_point start_;
};

}  // namespace

const char* BackpressurePolicyName(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::kBlock:
      return "block";
    case BackpressurePolicy::kReject:
      return "reject";
    case BackpressurePolicy::kForceRebuild:
      return "force_rebuild";
  }
  return "?";
}

const char* RebuildStateName(RebuildState state) {
  switch (state) {
    case RebuildState::kIdle:
      return "idle";
    case RebuildState::kRunning:
      return "running";
    case RebuildState::kBackoff:
      return "backoff";
    case RebuildState::kFailed:
      return "failed";
  }
  return "?";
}

const char* ServeStageName(size_t stage) {
  switch (static_cast<ServeStage>(stage)) {
    case ServeStage::kNegCacheProbe:
      return "negcache_probe";
    case ServeStage::kSlotAcquire:
      return "slot_acquire";
    case ServeStage::kIndexProbe:
      return "index_probe";
    case ServeStage::kDeltaClosure:
      return "delta_closure";
    case ServeStage::kFallbackBfs:
      return "fallback_bfs";
  }
  return "?";
}

// Each thread's records, the last used first. Entries of destroyed
// services are pruned when the thread claims its next record.
struct ReaderRecords::ThreadMap {
  struct Entry {
    uint64_t id;
    ReaderRecord* record;
    std::weak_ptr<ReaderRecords> records;
  };
  std::vector<Entry> entries;

  ThreadMap() = default;
  ThreadMap(const ThreadMap&) = delete;
  ThreadMap& operator=(const ThreadMap&) = delete;
  ~ThreadMap() {
    for (Entry& e : entries) {
      if (const auto records = e.records.lock()) records->Release(*e.record);
    }
  }
};

ReaderRecords::ReaderRecords()
    : id_([] {
        static std::atomic<uint64_t> next{0};
        return next.fetch_add(1, std::memory_order_relaxed);
      }()) {}

ReaderRecords::~ReaderRecords() {
  for (ReaderRecord* r = head_.load(std::memory_order_relaxed); r != nullptr;) {
    ReaderRecord* const next = r->next;
    delete r;
    r = next;
  }
}

ReaderRecord& ReaderRecords::Local() {
  thread_local ThreadMap map;
  std::vector<ThreadMap::Entry>& entries = map.entries;
  if (!entries.empty() && entries.front().id == id_) [[likely]] {
    return *entries.front().record;
  }
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].id == id_) {
      std::swap(entries.front(), entries[i]);
      return *entries.front().record;
    }
  }
  std::erase_if(entries, [](const ThreadMap::Entry& e) {
    return e.records.expired();
  });
  ReaderRecord& record = Claim();
  entries.insert(entries.begin(), {id_, &record, weak_from_this()});
  return record;
}

size_t ReaderRecords::InFlight() const {
  size_t n = 0;
  for (const ReaderRecord* r = head_.load(std::memory_order_acquire);
       r != nullptr; r = r->next) {
    n += r->inflight.load(std::memory_order_seq_cst) ? 1 : 0;
  }
  return n;
}

size_t ReaderRecords::size() const {
  size_t n = 0;
  for (const ReaderRecord* r = head_.load(std::memory_order_acquire);
       r != nullptr; r = r->next) {
    ++n;
  }
  return n;
}

ReaderRecord& ReaderRecords::Claim() {
  std::lock_guard<std::mutex> lock(mu_);
  ReaderRecord* const head = head_.load(std::memory_order_relaxed);
  for (ReaderRecord* r = head; r != nullptr; r = r->next) {
    if (!r->owned) {
      r->owned = true;
      return *r;
    }
  }
  auto* const r = new ReaderRecord;
  r->owned = true;
  r->next = head;
  head_.store(r, std::memory_order_release);  // scanners see it whole
  return *r;
}

void ReaderRecords::Release(ReaderRecord& record) {
  std::shared_ptr<const ServeView> dropped;  // freed after the unlock
  std::lock_guard<std::mutex> lock(mu_);
  dropped = std::move(record.view);
  record.generation = 0;
  record.owned = false;
}

/// RAII lease of one concurrent-query slot from a pinned snapshot.
class ReachService::SlotLease {
 public:
  SlotLease(const ServeSnapshot& snap, bool* waited)
      : pool_(*snap.slots), slot_(pool_.Acquire(waited)) {}
  ~SlotLease() { pool_.Release(slot_); }
  SlotLease(const SlotLease&) = delete;
  SlotLease& operator=(const SlotLease&) = delete;

  size_t slot() const { return slot_; }

 private:
  SlotPool& pool_;
  const size_t slot_;
};

ReachService::ReachService(Digraph base, ServiceOptions options)
    : options_(std::move(options)),
      num_vertices_(base.NumVertices()),
      readers_(std::make_shared<ReaderRecords>()) {
  auto snap = std::make_shared<ServeSnapshot>();
  snap->version = 0;
  snap->graph = std::make_shared<const Digraph>(std::move(base));
  auto view = std::make_shared<ServeView>();
  view->snapshot = std::move(snap);
  view_.Store(std::move(view));

  MetricsRegistry& reg = MetricsRegistry::Global();
  version_gauge_ = &reg.GetGauge("serve.snapshot_version");
  pending_gauge_ = &reg.GetGauge("serve.pending_edges");
  health_ready_gauge_ = &reg.GetGauge("serve.health.ready");
  health_state_gauge_ = &reg.GetGauge("serve.health.rebuild_state");
  health_pending_fill_gauge_ = &reg.GetGauge("serve.health.pending_fill");
  health_inflight_fill_gauge_ = &reg.GetGauge("serve.health.inflight_fill");
  latency_hist_ = &reg.GetHistogram("serve.query_ns");
  // Last, so a throwing constructor leaves no attached cell behind.
  stats_.ForEachCounter([&](const char* name, const std::atomic<uint64_t>& c) {
    reg.GetCounter(name).Attach(&c);
  });
}

ReachService::~ReachService() {
  Stop();  // no drain touches stats_ after this
  MetricsRegistry& reg = MetricsRegistry::Global();
  stats_.ForEachCounter([&](const char* name, const std::atomic<uint64_t>& c) {
    reg.GetCounter(name).Detach(&c);
  });
}

LoadResult ReachService::Start() {
  std::unique_ptr<ReachabilityIndex> index;
  LoadResult result = MakePlain(options_.spec, &index);
  std::lock_guard<std::mutex> lock(rebuild_mu_);
  if (result && !started_.load(std::memory_order_relaxed)) {
    // Writes go into copies of the published index, so an index without
    // one serves read-only.
    const auto* dynamic =
        dynamic_cast<const DynamicReachabilityIndex*>(index.get());
    read_only_ = dynamic == nullptr || dynamic->Clone() == nullptr;
    started_.store(true, std::memory_order_release);
    ScheduleLocked();
  }
  return result;
}

LoadResult ReachService::StartWithSnapshot(const std::string& path) {
  // write_mu_ before rebuild_mu_, the established order: the view is
  // replaced below.
  std::lock_guard<std::mutex> wl(write_mu_);
  std::lock_guard<std::mutex> lock(rebuild_mu_);
  if (started_.load(std::memory_order_relaxed)) {
    return {LoadStatus::kUnsupported, "service already started"};
  }
  std::unique_ptr<ReachabilityIndex> index;
  if (LoadResult made = MakePlain(options_.spec, &index); !made) return made;
  auto* two_hop = dynamic_cast<PrunedTwoHop*>(index.get());
  if (two_hop == nullptr) {
    return {LoadStatus::kUnsupported,
            "spec '" + options_.spec + "' has no snapshot support"};
  }
  LoadResult result = two_hop->LoadSnapshot(path);
  if (!result) return result;
  if (two_hop->NumIndexedVertices() != num_vertices_) {
    return {LoadStatus::kWrongIndex,
            "snapshot covers " +
                std::to_string(two_hop->NumIndexedVertices()) +
                " vertices, service has " + std::to_string(num_vertices_)};
  }
  auto snap = std::make_shared<ServeSnapshot>();
  snap->graph = view_.Load()->snapshot->graph;  // the base graph
  // The labels must describe the base graph: then the index takes writes
  // into copies of it like a built one.
  if (LoadResult rebased = two_hop->Rebase(*snap->graph); !rebased) {
    return rebased;
  }
  snap->copyable = two_hop;
  snap->index = std::move(index);
  snap->built_index_bytes = snap->index->IndexSizeBytes();
  snap->slots->Reset(snap->index->PrepareConcurrentQueries(
      ResolveThreads(options_.slots)));
  snap->version = next_version_++;
  const uint64_t published_version = snap->version;
  // No write is accepted before the start, so nothing is pending.
  auto next = std::make_shared<ServeView>();
  next->snapshot = std::move(snap);
  view_.Store(std::move(next));
  version_gauge_->Set(static_cast<double>(published_version));
  // Full builds are write-driven from here on.
  started_.store(true, std::memory_order_release);
  return LoadResult{};
}

void ReachService::Stop() {
  stopped_.store(true, std::memory_order_seq_cst);
  {
    // Holding write_mu_ for the notify closes the race with a kBlock
    // writer between its predicate check and its wait.
    std::lock_guard<std::mutex> wl(write_mu_);
    backpressure_cv_.notify_all();
  }
  std::unique_lock<std::mutex> lock(rebuild_mu_);
  rebuild_cv_.notify_all();  // wake a backoff sleeper so it exits early
  rebuild_cv_.wait(lock, [&] { return !rebuild_inflight_; });
}

bool ReachService::InsertEdge(VertexId s, VertexId t) {
  return ApplyUpdate({EdgeUpdate::Insert(s, t)}).ok();
}

bool ReachService::DeleteEdge(VertexId s, VertexId t) {
  return ApplyUpdate({EdgeUpdate::Delete(s, t)}).ok();
}

UpdateResult ReachService::Reject(const std::string& reason) const {
  stats_.update_rejected.fetch_add(1, std::memory_order_relaxed);
  return UpdateResult::Rejected(reason);
}

UpdateResult ReachService::ApplyUpdate(const UpdateBatch& batch) {
  // Validate-first: a rejected batch must leave no trace.
  size_t num_inserts = 0;
  size_t num_deletes = 0;
  for (const EdgeUpdate& update : batch) {
    if (update.source >= num_vertices_ || update.target >= num_vertices_) {
      return Reject("endpoint out of range");
    }
    update.IsInsert() ? ++num_inserts : ++num_deletes;
  }
  if (stopped_.load(std::memory_order_relaxed)) {
    return Reject("service stopped");
  }
  if (!started_.load(std::memory_order_acquire)) {
    return Reject("service not started");
  }
  if (read_only_) {
    return Reject("spec '" + options_.spec +
                  "' is read-only when served: its index has no copy");
  }
  if (batch.empty()) return UpdateResult::Applied(0, 0, 0, 0);
  size_t pending_count = 0;
  bool schedule = false;
  std::shared_ptr<const ServeView> freed;  // released after the unlock
  {
    std::unique_lock<std::mutex> lock(write_mu_);
    // Waits until `ready()`, re-scheduling a build on every wakeup that
    // still finds it false: the build that woke the writer may have ended
    // before racing writers refilled the log. False once stopped.
    // (write_mu_ -> rebuild_mu_ is the established lock order; the
    // reverse never happens.)
    const auto wait_until = [&](auto ready) {
      while (!stopped_.load(std::memory_order_relaxed) && !ready()) {
        {
          std::lock_guard<std::mutex> rl(rebuild_mu_);
          ScheduleLocked();
        }
        backpressure_cv_.wait(lock);
      }
      return !stopped_.load(std::memory_order_relaxed);
    };
    // Before the first index is published there is no copy to write into.
    if (!wait_until(
            [&] { return view_.Load()->snapshot->copyable != nullptr; })) {
      return Reject("service stopped");
    }
    const size_t cap = options_.max_pending_edges;
    const auto below_cap = [&] { return view_.Load()->pending.size() < cap; };
    // The batch is one admission unit: it lands whole or not at all
    // (kForceRebuild may overshoot the cap by a whole batch).
    if (cap > 0 && !below_cap()) {
      switch (options_.backpressure) {
        case BackpressurePolicy::kReject:
          stats_.backpressure_rejected.fetch_add(1,
                                                 std::memory_order_relaxed);
          return Reject("backpressure: replay log full");
        case BackpressurePolicy::kForceRebuild:
          // Accept past the cap; the running build's end empties the log.
          stats_.backpressure_forced.fetch_add(1, std::memory_order_relaxed);
          schedule = true;
          break;
        case BackpressurePolicy::kBlock:
          stats_.backpressure_blocked.fetch_add(1,
                                                std::memory_order_relaxed);
          if (!wait_until(below_cap)) return Reject("service stopped");
          break;
      }
    }
    const auto cur = view_.Load();
    const ServeSnapshot& from = *cur->snapshot;
    auto next = std::make_shared<ServeView>();
    {
      // A copy of the published index takes the batch and is published in
      // its place.
      REACH_TRACE_SPAN("serve.update.apply");
      std::unique_ptr<DynamicReachabilityIndex> copy = from.copyable->Clone();
      const UpdateResult applied = copy->ApplyUpdate(batch);
      if (!applied.ok()) {
        stats_.update_rejected.fetch_add(1, std::memory_order_relaxed);
        return applied;
      }
      if (WantsBuild(applied, *copy, from.built_index_bytes)) {
        build_wanted_ = true;
        schedule = true;
      }
      // The copy may share its source's per-slot scratch, so it shares the
      // source's leases too; this sizes its own per-slot state. Every
      // field is named, so no default `SlotPool` is made and dropped.
      copy->PrepareConcurrentQueries(from.slots->size());
      DynamicReachabilityIndex* const copyable = copy.get();
      next->snapshot = std::make_shared<ServeSnapshot>(ServeSnapshot{
          .version = next_version_++,
          .graph = from.graph,
          .index = std::move(copy),
          .copyable = copyable,
          .carries_updates = true,
          .built_index_bytes = from.built_index_bytes,
          .slots = from.slots,
      });
    }
    // A batch is logged only while a build will replay it.
    if (log_for_drain_) {
      next->pending.reserve(cur->pending.size() + batch.size());
      next->pending = cur->pending;
      next->pending.insert(next->pending.end(), batch.begin(), batch.end());
    }
    pending_count = next->pending.size();
    view_.Store(std::move(next));
    // Readers that cached `cur` drop it when they reload; holding it
    // until the next publish makes this writer, not one of them, free it
    // (and with it the index copy it replaced).
    freed = std::exchange(superseded_, cur);
  }
  stats_.inserts.fetch_add(num_inserts, std::memory_order_relaxed);
  stats_.deletes.fetch_add(num_deletes, std::memory_order_relaxed);
  stats_.update_batches.fetch_add(1, std::memory_order_relaxed);
  stats_.rebuilds.fetch_add(1, std::memory_order_relaxed);
  pending_gauge_->Set(static_cast<double>(pending_count));
  if (schedule) {
    std::lock_guard<std::mutex> lock(rebuild_mu_);
    ScheduleLocked();
  }
  // Every accepted update is answered exactly from the moment it lands,
  // so the batch counts as applied with zero damage: the serve path never
  // owes a caller-visible rebuild.
  return UpdateResult::Applied(batch.size(), 0, 0, 0);
}

void ReachService::Flush() {
  std::unique_lock<std::mutex> lock(rebuild_mu_);
  // Unstarted, no build will ever run.
  if (stopped_.load(std::memory_order_relaxed) ||
      !started_.load(std::memory_order_relaxed)) {
    return;
  }
  rebuild_cv_.wait(lock, [&] {
    if (stopped_.load(std::memory_order_relaxed)) return true;
    if (rebuild_inflight_) return false;
    // A build is owed only while no index is published: the replay log
    // empties when its build ends.
    if (view_.Load()->snapshot->index != nullptr) return true;
    ScheduleLocked();
    return false;
  });
}

void ReachService::ScheduleLocked() {
  if (stopped_.load(std::memory_order_relaxed) ||
      !started_.load(std::memory_order_relaxed) || rebuild_inflight_) {
    return;
  }
  rebuild_inflight_ = true;
  ThreadPool::Global().Submit([this] { RebuildLoop(); });
}

void ReachService::EndDrainLocked() {
  log_for_drain_ = false;
  const auto cur = view_.Load();
  if (cur->pending.empty()) return;
  // Batches logged for a replay that no build will run: the index
  // already carries them.
  auto next = std::make_shared<ServeView>();
  next->snapshot = cur->snapshot;
  view_.Store(std::move(next));
  pending_gauge_->Set(0.0);
}

void ReachService::RebuildLoop() {
  size_t consecutive_failures = 0;
  for (;;) {
    REACH_TRACE_SPAN("serve.rebuild");
    SetRebuildState(RebuildState::kRunning);
    // The build covers everything accepted *now*; batches racing past
    // this load are logged for the replay. Between builds the log only
    // grows by append, so the drained log is a prefix of every later one.
    // A retry re-loads here, so a re-queued build picks up newly arrived
    // updates.
    std::shared_ptr<const ServeView> drained;
    {
      std::lock_guard<std::mutex> wl(write_mu_);
      log_for_drain_ = true;
      drained = view_.Load();
    }

    const Clock::time_point attempt_start = Clock::now();
    const bool watchdog_on = options_.rebuild_watchdog.count() > 0;
    auto snap = std::make_shared<ServeSnapshot>();
    bool failed = false;
    bool stalled = false;
    std::string error;
    try {
      // Chaos site: `error` simulates an organic build failure (OOM, bad
      // allocator, index bug); `delay` stalls the attempt so the
      // watchdog path is reachable deterministically.
      if (REACH_FAILPOINT("serve.rebuild").action ==
          FailpointAction::kError) {
        throw FailpointError("failpoint serve.rebuild");
      }
      {
        REACH_TRACE_SPAN("serve.rebuild.graph");
        // The live graph: the published copy's own, or the snapshot graph
        // while no index takes writes (no write lands before the first).
        const ServeSnapshot& from = *drained->snapshot;
        if (from.copyable == nullptr) {
          snap->graph = from.graph;
        } else {
          snap->graph = from.copyable->LiveGraph();
          if (snap->graph == nullptr) {
            throw std::logic_error("an index with copies has no live graph");
          }
        }
      }
      // Cooperative watchdog checkpoint, placed where abandoning still
      // saves real work (the build dominates): an attempt already past
      // its deadline is re-queued instead of going on. Once the build
      // starts it runs to completion — a finished index is published even
      // if late, since discarding it helps nobody.
      if (watchdog_on &&
          Clock::now() - attempt_start > options_.rebuild_watchdog) {
        stalled = true;
      } else {
        // The index must be built against the graph at its final address
        // — partial indexes keep a pointer into it for guided traversal.
        REACH_TRACE_SPAN("serve.rebuild.index");
        snap->index = MakeIndex(options_.spec).plain;
        snap->index->Build(*snap->graph);
        snap->built_index_bytes = snap->index->IndexSizeBytes();
        if (!read_only_) {
          snap->copyable =
              dynamic_cast<DynamicReachabilityIndex*>(snap->index.get());
        }
      }
    } catch (const std::exception& e) {
      failed = true;
      error = e.what();
    } catch (...) {
      failed = true;
      error = "unknown rebuild exception";
    }
    if (stalled) {
      failed = true;
      error = "watchdog: build attempt exceeded deadline, re-queued";
      stats_.watchdog_fired.fetch_add(1, std::memory_order_relaxed);
    }
    if (failed) {
      snap.reset();  // the last good snapshot keeps serving, untouched
      ++consecutive_failures;
      NoteRebuildFailure(error, consecutive_failures);
      if (consecutive_failures > options_.rebuild_max_retries) {
        // Retries exhausted: abandon the build. The published index
        // carries every accepted update and keeps answering exactly; the
        // next write that asks for a build (or waits for the first)
        // schedules a fresh loop.
        SetRebuildState(RebuildState::kFailed);
        // Exit handshake. A writer parked on kBlock backpressure may
        // have no-op'd its ScheduleLocked against this (then in-flight)
        // drain; wake it under write_mu_ (taken before rebuild_mu_, the
        // established order) so the notify can't land between its no-op
        // and its wait, and so that when it re-runs ScheduleLocked the
        // in-flight flag is already down. Clearing the flag is the LAST
        // touch of `this`: the instant a Stop()/join()er observes it,
        // the service may be destroyed, so nothing below may follow the
        // final unlock.
        std::unique_lock<std::mutex> wl(write_mu_);
        std::unique_lock<std::mutex> rl(rebuild_mu_);
        EndDrainLocked();
        backpressure_cv_.notify_all();
        wl.unlock();
        rebuild_inflight_ = false;
        rebuild_cv_.notify_all();
        rl.unlock();
        return;
      }
      SetRebuildState(RebuildState::kBackoff);
      // Exponential backoff, capped, with ±50% deterministic jitter so
      // co-located services don't retry in lockstep. Interruptible by
      // Stop().
      Clock::duration backoff = options_.rebuild_backoff_initial;
      for (size_t i = 1; i < consecutive_failures &&
                         backoff < options_.rebuild_backoff_max;
           ++i) {
        backoff *= 2;
      }
      backoff = std::min<Clock::duration>(backoff,
                                          options_.rebuild_backoff_max);
      backoff = std::chrono::duration_cast<Clock::duration>(
          backoff * (0.5 + backoff_rng_.NextDouble()));
      {
        std::unique_lock<std::mutex> lock(rebuild_mu_);
        rebuild_cv_.wait_for(lock, backoff, [&] {
          return stopped_.load(std::memory_order_relaxed);
        });
        if (stopped_.load(std::memory_order_relaxed)) {
          SetRebuildState(RebuildState::kIdle);
          rebuild_inflight_ = false;
          rebuild_cv_.notify_all();
          return;
        }
      }
      stats_.rebuild_retries.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    consecutive_failures = 0;
    rebuild_consecutive_failures_.store(0, std::memory_order_relaxed);
    snap->slots->Reset(snap->index->PrepareConcurrentQueries(
        ResolveThreads(options_.slots)));

    // What arrived after the drained view: replayed into the new index,
    // mostly outside write_mu_ so writers keep landing meanwhile, and the
    // rest under it, just before the publish. Only an index that takes
    // writes has any.
    size_t replayed = drained->pending.size();
    bool wants_build = false;
    const auto replay = [&](const PendingUpdates& pending) {
      if (pending.size() == replayed) return;
      const UpdateBatch batch(
          pending.begin() + static_cast<ptrdiff_t>(replayed), pending.end());
      replayed = pending.size();
      snap->carries_updates = true;
      wants_build = WantsBuild(snap->copyable->ApplyUpdate(batch),
                               *snap->index, snap->built_index_bytes);
    };
    if (snap->copyable != nullptr) {
      for (auto seen = view_.Load(); seen->pending.size() > replayed;
           seen = view_.Load()) {
        replay(seen->pending);
      }
    }
    uint64_t published_version = 0;
    std::shared_ptr<const ServeView> freed;  // released after the unlock
    {
      std::lock_guard<std::mutex> lock(write_mu_);
      // A view of the old snapshot: not kept past the swap.
      freed = std::move(superseded_);
      if (snap->copyable != nullptr) {
        replay(view_.Load()->pending);
        build_wanted_ = wants_build;
      }
      snap->version = next_version_++;
      published_version = snap->version;
      auto next = std::make_shared<ServeView>();
      next->snapshot = std::move(snap);
      view_.Store(std::move(next));
      // Room just opened, or the first index: release waiting writers.
      backpressure_cv_.notify_all();
    }
    REACH_TRACE_INSTANT("serve.snapshot_swap");
    version_gauge_->Set(static_cast<double>(published_version));
    pending_gauge_->Set(0.0);
    health_ready_gauge_->Set(1.0);
    stats_.rebuilds.fetch_add(1, std::memory_order_relaxed);
    stats_.full_builds.fetch_add(1, std::memory_order_relaxed);

    {
      // Exit handshake, same shape as the retries-exhausted one above: a
      // writer that refilled the log right after the publish saw this
      // build still in flight, skipped scheduling, and parked — wake it
      // under write_mu_ (before rebuild_mu_, the established order) so
      // its re-run ScheduleLocked finds the in-flight flag already down.
      // Clearing the flag must be the LAST touch of `this`: a
      // Stop()/join()er that observes it may destroy the service.
      std::unique_lock<std::mutex> wl(write_mu_);
      std::unique_lock<std::mutex> rl(rebuild_mu_);
      if (!stopped_.load(std::memory_order_relaxed) && build_wanted_) {
        continue;
      }
      EndDrainLocked();
      SetRebuildState(RebuildState::kIdle);
      backpressure_cv_.notify_all();
      wl.unlock();
      rebuild_inflight_ = false;
      rebuild_cv_.notify_all();
      rl.unlock();
      return;
    }
  }
}

/// RAII in-flight flag in the calling thread's reader record, which
/// `AdmitTier` and `Health` count. Under an admission gate the flag is
/// set with a seq_cst store, so the scan that follows sees every racing
/// query or is seen by it; ungated, nothing scans on the query path.
class ReachService::InflightGuard {
 public:
  InflightGuard(ReaderRecord& reader, bool gated) : reader_(reader) {
    reader_.inflight.store(true, gated ? std::memory_order_seq_cst
                                       : std::memory_order_relaxed);
  }
  ~InflightGuard() {
    reader_.inflight.store(false, std::memory_order_release);
  }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

 private:
  ReaderRecord& reader_;
};

ServeAnswer ReachService::Query(VertexId s, VertexId t) const {
  REACH_TRACE_SPAN("serve.query");
  ReaderRecord& reader = readers_->Local();
  // Keep a stage-by-stage record only when it could end up in the
  // slow-query log — otherwise the extra clock reads never happen.
  SlowQueryRecord rec;
  SlowQueryRecord* recp = options_.slow_log_capacity > 0 &&
                                  options_.slow_query_threshold.count() > 0
                              ? &rec
                              : nullptr;
  // The clock is read only for a sampled query or the slow log: two reads
  // cost more than an idle query's answer path.
  const bool sampled = reader.queries++ % kQueryNsSamplePeriod == 0;
  const bool timed = sampled || recp != nullptr;
  const Clock::time_point start = timed ? Clock::now() : Clock::time_point{};
  stats_.queries.fetch_add(1, std::memory_order_relaxed);

  const bool gated = options_.max_inflight_queries > 0;
  InflightGuard inflight(reader, gated);
  // Chaos site, inside the in-flight window on purpose: `delay(ms=N)`
  // stretches every query to simulate slow readers, which is how tests
  // push the admission gate into degradation and shedding.
  REACH_FAILPOINT("serve.query");
  const AdmissionTier tier =
      gated ? AdmitTier(readers_->InFlight()) : AdmissionTier::kFull;

  const ServeView* pinned;
  {
    REACH_TRACE_SPAN("serve.snapshot_pin");
    pinned = &CachedView(view_, &reader);
  }
  const ServeSnapshot& snap = *pinned->snapshot;

  if (tier == AdmissionTier::kShed) {
    // Over capacity: answer nothing rather than queue into collapse. The
    // shed reply is O(1) and explicitly inexact.
    stats_.shed.fetch_add(1, std::memory_order_relaxed);
    ServeAnswer ans;
    ans.reachable = false;
    ans.exact = false;
    ans.source = AnswerSource::kShedded;
    ans.snapshot_version = snap.version;
    return ans;
  }
  if (tier == AdmissionTier::kIndexOnly) {
    stats_.admission_cache_only.fetch_add(1, std::memory_order_relaxed);
  } else if (tier == AdmissionTier::kBfsOnly) {
    stats_.admission_bfs_only.fetch_add(1, std::memory_order_relaxed);
  }

  ServeAnswer ans;
  ans.snapshot_version = snap.version;
  if (s < num_vertices_ && t < num_vertices_) {
    if (snap.index == nullptr) {
      // Startup: the first index build is still in flight. Under heavy
      // load a tighter budget bounds the cost.
      ans = AnswerBeforeIndex(snap, s, t,
                              tier == AdmissionTier::kBfsOnly
                                  ? kDegradedVisitBudget
                                  : kFallbackVisitBudget,
                              recp, reader.bfs);
    } else {
      bool waited = false;
      ans = AnswerWithIndex(snap, s, t, &waited, recp);
      if (waited) {
        stats_.slot_waits.fetch_add(1, std::memory_order_relaxed);
      }
    }
    ans.snapshot_version = snap.version;
  } else {
    // An endpoint outside the vertex range reaches nothing; the
    // snapshot's vertex count decides that alone.
    stats_.index_answers.fetch_add(1, std::memory_order_relaxed);
  }
  if (!ans.exact) {
    stats_.inexact_answers.fetch_add(1, std::memory_order_relaxed);
  }
  if (!timed) return ans;
  const uint64_t total_ns = ElapsedNs(start, Clock::now());
  if (sampled) latency_hist_->Record(total_ns);
  if (recp != nullptr) {
    const bool over_threshold =
        options_.slow_query_threshold.count() > 0 &&
        total_ns >=
            static_cast<uint64_t>(options_.slow_query_threshold.count());
    if (over_threshold) {
      rec.s = s;
      rec.t = t;
      rec.reachable = ans.reachable;
      rec.exact = ans.exact;
      rec.source = ans.source;
      rec.snapshot_version = ans.snapshot_version;
      rec.total_ns = total_ns;
      CaptureSlowQuery(rec);
    }
  }
  return ans;
}

std::vector<SlowQueryRecord> ReachService::SlowQueries() const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  return std::vector<SlowQueryRecord>(slow_log_.begin(), slow_log_.end());
}

void ReachService::ClearSlowQueries() {
  std::lock_guard<std::mutex> lock(slow_mu_);
  slow_log_.clear();
}

void ReachService::CaptureSlowQuery(SlowQueryRecord rec) const {
  {
    std::lock_guard<std::mutex> lock(slow_mu_);
    slow_log_.push_back(rec);
    if (slow_log_.size() > options_.slow_log_capacity) {
      slow_log_.pop_front();
      stats_.slow_dropped.fetch_add(1, std::memory_order_relaxed);
    }
  }
  stats_.slow_captured.fetch_add(1, std::memory_order_relaxed);
}

ServeAnswer ReachService::AnswerWithIndex(const ServeSnapshot& snap,
                                          VertexId s, VertexId t,
                                          bool* waited,
                                          SlowQueryRecord* rec) const {
  ServeAnswer ans;
  {
    // The one index probe of the query; the slot is held for it alone.
    std::optional<SlotLease> lease;
    {
      StageScope stage(rec, ServeStage::kSlotAcquire);
      lease.emplace(snap, waited);
    }
    if (rec != nullptr) rec->slot_waited = *waited;
    StageScope stage(rec, ServeStage::kIndexProbe);
    if (rec != nullptr) ++rec->index_probes;
    ans.reachable = snap.index->QueryInSlot(s, t, lease->slot());
  }
  // The index carries every accepted update: exact.
  if (snap.carries_updates) {
    ans.source = AnswerSource::kDelta;
    stats_.delta_answers.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.index_answers.fetch_add(1, std::memory_order_relaxed);
  }
  return ans;
}

ServeAnswer ReachService::AnswerBeforeIndex(const ServeSnapshot& snap,
                                            VertexId s, VertexId t,
                                            size_t visit_budget,
                                            SlowQueryRecord* rec,
                                            SearchWorkspace& ws) const {
  ServeAnswer ans;
  ans.source = AnswerSource::kFallbackBfs;
  int verdict = 0;
  size_t expanded = 0;
  {
    StageScope stage(rec, ServeStage::kFallbackBfs);
    ws.Prepare(num_vertices_);
    const auto out = OutArcs(*snap.graph);
    verdict = GuidedDfs(
        s, t, ws,
        [&](VertexId v, auto&& visit) {
          ++expanded;
          return out(v, visit);
        },
        [](VertexId) { return 0; }, visit_budget);
  }
  if (rec != nullptr) rec->bfs_visits = expanded;
  ans.reachable = verdict > 0;
  // A found path is a witness; only a search cut by its budget is inexact.
  ans.exact = verdict != 0;
  stats_.fallback_answers.fetch_add(1, std::memory_order_relaxed);
  return ans;
}

ReachService::AdmissionTier ReachService::AdmitTier(
    size_t inflight_now) const {
  const size_t m = options_.max_inflight_queries;
  if (m == 0) return AdmissionTier::kFull;  // gate disabled
  const size_t c = inflight_now;
  if (c > m) return AdmissionTier::kShed;
  if (c * 4 > m * 3) return AdmissionTier::kBfsOnly;   // >75% full
  if (c * 2 > m) return AdmissionTier::kIndexOnly;     // >50% full
  return AdmissionTier::kFull;
}

void ReachService::SetRebuildState(RebuildState state) {
  rebuild_state_.store(static_cast<uint8_t>(state),
                       std::memory_order_relaxed);
  health_state_gauge_->Set(static_cast<double>(static_cast<uint8_t>(state)));
}

void ReachService::NoteRebuildFailure(const std::string& error,
                                      size_t consecutive) {
  rebuild_consecutive_failures_.store(consecutive, std::memory_order_relaxed);
  stats_.rebuild_failures.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(health_mu_);
  last_rebuild_error_ = error;
}

size_t ReachService::InflightQueries() const { return readers_->InFlight(); }

ServiceHealth ReachService::Health() const {
  ServiceHealth health;
  const auto view = view_.Load();
  health.ready = view->snapshot->index != nullptr;
  health.accepting_writes = started_.load(std::memory_order_acquire) &&
                            !read_only_ &&
                            !stopped_.load(std::memory_order_relaxed);
  health.snapshot_version = view->snapshot->version;
  health.index_bytes = health.ready ? view->snapshot->index->IndexSizeBytes()
                                    : 0;
  if (view->snapshot->copyable != nullptr) {
    const RebuildRent rent = view->snapshot->copyable->Rent();
    health.rebuild_rent_paid = rent.paid;
    health.rebuild_price = rent.price;
  }
  health.pending_edges = view->pending.size();
  health.max_pending_edges = options_.max_pending_edges;
  health.pending_fill =
      health.max_pending_edges > 0
          ? static_cast<double>(health.pending_edges) /
                static_cast<double>(health.max_pending_edges)
          : 0.0;
  health.inflight_queries = InflightQueries();
  health.max_inflight_queries = options_.max_inflight_queries;
  health.inflight_fill =
      health.max_inflight_queries > 0
          ? static_cast<double>(health.inflight_queries) /
                static_cast<double>(health.max_inflight_queries)
          : 0.0;
  health.rebuild = static_cast<RebuildState>(
      rebuild_state_.load(std::memory_order_relaxed));
  health.rebuild_consecutive_failures =
      rebuild_consecutive_failures_.load(std::memory_order_relaxed);
  health.rebuild_retries =
      stats_.rebuild_retries.load(std::memory_order_relaxed);
  health.rebuild_failures =
      stats_.rebuild_failures.load(std::memory_order_relaxed);
  health.watchdog_fired =
      stats_.watchdog_fired.load(std::memory_order_relaxed);
  health.shed = stats_.shed.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    health.last_rebuild_error = last_rebuild_error_;
  }
  // Readiness snapshot doubles as the metrics push for the health gauges
  // (state is also pushed eagerly on every transition).
  health_ready_gauge_->Set(health.ready ? 1.0 : 0.0);
  health_state_gauge_->Set(
      static_cast<double>(static_cast<uint8_t>(health.rebuild)));
  health_pending_fill_gauge_->Set(health.pending_fill);
  health_inflight_fill_gauge_->Set(health.inflight_fill);
  return health;
}

}  // namespace reach
