#include "serve/reach_service.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <exception>
#include <iterator>
#include <optional>
#include <span>
#include <utility>

#include "core/failpoint.h"
#include "core/index_factory.h"
#include "graph/arc_overlay.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "plain/pruned_two_hop.h"

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

/// Folds one update into `gate`'s effective state: the last operation on
/// each (source, target) pair wins, so the edge leaves whichever of
/// `adds`/`dels` holds it and joins the one its kind names. Both stay
/// sorted; a list bounded by the drain threshold keeps the memmoves tiny.
void FoldUpdate(const EdgeUpdate& u, PendingGate* gate) {
  const Edge e{u.source, u.target};
  std::vector<Edge>& into = u.IsInsert() ? gate->adds : gate->dels;
  std::vector<Edge>& from = u.IsInsert() ? gate->dels : gate->adds;
  auto it = std::lower_bound(from.begin(), from.end(), e);
  if (it != from.end() && *it == e) from.erase(it);
  it = std::lower_bound(into.begin(), into.end(), e);
  if (it == into.end() || *it != e) into.insert(it, e);
  gate->has_deletes = gate->has_deletes || u.IsDelete();
}

bool TestBit(const uint64_t* row, size_t i) {
  return (row[i / 64] >> (i % 64) & 1) != 0;
}

void SetBit(uint64_t* row, size_t i) {
  row[i / 64] |= uint64_t{1} << (i % 64);
}

bool Intersects(const uint64_t* a, const uint64_t* b, size_t words) {
  for (size_t w = 0; w < words; ++w) {
    if ((a[w] & b[w]) != 0) return true;
  }
  return false;
}

void OrInto(uint64_t* into, const uint64_t* row, size_t words) {
  for (size_t w = 0; w < words; ++w) into[w] |= row[w];
}

/// Marks in `bits` (n zeroed bits) every vertex `from` reaches over
/// `graph`, `from` included: along out-arcs, or along in-arcs when
/// `backward`. `queue` is scratch. Returns the vertices visited.
size_t Sweep(const Digraph& graph, VertexId from, bool backward,
             uint64_t* bits, std::vector<VertexId>* queue) {
  queue->assign(1, from);
  SetBit(bits, from);
  for (size_t head = 0; head < queue->size(); ++head) {
    const VertexId v = (*queue)[head];
    for (const VertexId n :
         backward ? graph.InNeighbors(v) : graph.OutNeighbors(v)) {
      if (TestBit(bits, n)) continue;
      SetBit(bits, n);
      queue->push_back(n);
    }
  }
  return queue->size();
}

/// Appends insert `e` to the gate graph as gate n (unless it already is a
/// gate): sweeps its reach sets over `graph`, then keeps `closure`
/// transitively closed with bit tests alone — old gate i hops straight
/// into n iff n's source is in desc(i), and n into gate j iff j's source
/// is in desc(n). Returns the vertices the two sweeps visited.
size_t AddGate(const Edge& e, const Digraph& graph,
               std::vector<VertexId>* queue, PendingGate* gate) {
  std::vector<Edge>& gates = gate->gates;
  if (std::find(gates.begin(), gates.end(), e) != gates.end()) return 0;
  const size_t vertex_words = (graph.NumVertices() + 63) / 64;
  auto sets = std::make_shared<uint64_t[]>(2 * vertex_words);
  const size_t visits =
      Sweep(graph, e.source, /*backward=*/true, sets.get(), queue) +
      Sweep(graph, e.target, /*backward=*/false, sets.get() + vertex_words,
            queue);
  const size_t n = gates.size();
  const size_t words = n / 64 + 1;
  if (words != gate->words) {  // re-stride the rows one word wider
    std::vector<uint64_t> wider(words * (n + 1), 0);
    for (size_t i = 0; i < n; ++i) {
      std::copy_n(gate->Row(i), gate->words, wider.begin() + i * words);
    }
    gate->closure = std::move(wider);
    gate->words = words;
  }
  gate->closure.resize(words * (n + 1), 0);
  gates.push_back(e);
  gate->reach.push_back(std::move(sets));
  gate->vertex_words = vertex_words;
  uint64_t* const rows = gate->closure.data();
  uint64_t* const row_n = rows + n * words;

  std::vector<uint64_t> into_n(words, 0);  // old gates hopping straight in
  for (size_t i = 0; i < n; ++i) {
    if (TestBit(gate->Desc(i), e.source)) SetBit(into_n.data(), i);
  }
  // Row n from the old rows, which do not route through n yet...
  for (size_t j = 0; j <= n; ++j) {
    if (!TestBit(gate->Desc(n), gates[j].source)) continue;
    SetBit(row_n, j);
    if (j < n) OrInto(row_n, rows + j * words, words);
  }
  // ...plus n itself when it reaches a gate that hops back into it (a
  // direct self-hop already set bit n above).
  if (Intersects(row_n, into_n.data(), words)) SetBit(row_n, n);
  // An old gate that reaches n now reaches everything n reaches.
  for (size_t i = 0; i < n; ++i) {
    uint64_t* const row_i = rows + i * words;
    if (!TestBit(into_n.data(), i) &&
        !Intersects(row_i, into_n.data(), words)) {
      continue;
    }
    OrInto(row_i, row_n, words);
    SetBit(row_i, n);
  }
  return visits;
}

/// `BoundedUnionBfs` over the effective updates already folded into
/// `gate` (its `adds` and `dels`; the gate graph itself is not read), with
/// its visited marks and queue in `ws`.
BoundedBfsOutcome UnionBfs(const Digraph& graph, const PendingGate& gate,
                           VertexId s, VertexId t, size_t max_visits,
                           SearchWorkspace& ws) {
  BoundedBfsOutcome out;
  if (s == t) {
    out.reachable = true;
    return out;
  }
  // Live union graph: base arcs not masked by an effective delete, plus
  // the effective inserts. This is the one place on the serve path that
  // decides reachability against deletions exactly.
  const std::vector<Edge>& by_source = gate.adds;  // sorted by source
  const std::vector<Edge>& dels = gate.dels;       // sorted
  ws.PrepareForward(graph.NumVertices());
  std::vector<VertexId>& queue = ws.queue();
  queue.push_back(s);
  ws.MarkForward(s);
  for (size_t head = 0; head < queue.size(); ++head) {
    if (out.visits >= max_visits) {
      out.complete = false;
      return out;
    }
    ++out.visits;
    const VertexId v = queue[head];
    const auto enqueue = [&](VertexId n) {
      if (ws.MarkForward(n)) queue.push_back(n);
      return n == t;
    };
    for (const VertexId n : graph.OutNeighbors(v)) {
      if (!dels.empty() &&
          std::binary_search(dels.begin(), dels.end(), Edge{v, n})) {
        continue;  // tombstoned base arc
      }
      if (enqueue(n)) {
        out.reachable = true;
        return out;
      }
    }
    const auto range = std::equal_range(
        by_source.begin(), by_source.end(), Edge{v, 0},
        [](const Edge& a, const Edge& b) { return a.source < b.source; });
    for (auto it = range.first; it != range.second; ++it) {
      if (enqueue(it->target)) {
        out.reachable = true;
        return out;
      }
    }
  }
  return out;
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

// Trace-span name id of each serve stage (interned once per process).
uint32_t StageTraceId(ServeStage stage) {
  static const uint32_t ids[kNumServeStages] = {
      TraceRecorder::Global().Intern("serve.negcache_probe"),
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
      : snap_(snap), slot_(snap.slots.Acquire(waited)) {}
  ~SlotLease() { snap_.slots.Release(slot_); }
  SlotLease(const SlotLease&) = delete;
  SlotLease& operator=(const SlotLease&) = delete;

  size_t slot() const { return slot_; }

 private:
  const ServeSnapshot& snap_;
  const size_t slot_;
};

ReachService::ReachService(Digraph base, ServiceOptions options)
    : options_(std::move(options)),
      num_vertices_(base.NumVertices()),
      negcache_(options_.negcache_capacity > 0
                    ? std::make_unique<NegativeResultCache>(
                          options_.negcache_shards, options_.negcache_capacity)
                    : nullptr),
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
  reg.GetGauge("serve.negcache.bytes")
      .Set(negcache_ != nullptr
               ? static_cast<double>(negcache_->MemoryBytes())
               : 0.0);
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
  if (result && !started_) {
    started_ = true;
    ScheduleLocked();
  }
  return result;
}

LoadResult ReachService::StartWithSnapshot(const std::string& path) {
  // write_mu_ before rebuild_mu_, the established order: the view is
  // replaced below, and updates accepted before the start must stay in it.
  std::lock_guard<std::mutex> wl(write_mu_);
  std::lock_guard<std::mutex> lock(rebuild_mu_);
  if (started_) {
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
  snap->graph = view_.Load()->snapshot->graph;  // the base graph from the ctor
  // The loaded index has no live graph (`index_graph` stays null), so the
  // first drain runs a full build.
  snap->index = std::move(index);
  snap->built_index_bytes = snap->index->IndexSizeBytes();
  const size_t granted = snap->index->PrepareConcurrentQueries(
      ResolveThreads(options_.slots));
  snap->slots.Reset(granted);
  snap->version = next_version_++;
  const uint64_t published_version = snap->version;
  // Updates accepted before the start stay pending over the loaded
  // snapshot, with their gate built against its index.
  auto next = std::make_shared<ServeView>();
  next->pending = view_.Load()->pending;
  ExtendGate(*snap, next->pending, &next->gate);
  next->snapshot = std::move(snap);
  view_.Store(std::move(next));
  version_gauge_->Set(static_cast<double>(published_version));
  started_ = true;  // rebuilds are insert-driven from here on
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

UpdateResult ReachService::ApplyUpdate(const UpdateBatch& batch) {
  // Validate-first: a rejected batch must leave no trace in the buffer.
  size_t num_inserts = 0;
  size_t num_deletes = 0;
  for (const EdgeUpdate& update : batch) {
    if (update.source >= num_vertices_ || update.target >= num_vertices_) {
      stats_.update_rejected.fetch_add(1, std::memory_order_relaxed);
      return UpdateResult::Rejected("endpoint out of range");
    }
    update.IsInsert() ? ++num_inserts : ++num_deletes;
  }
  if (stopped_.load(std::memory_order_relaxed)) {
    stats_.update_rejected.fetch_add(1, std::memory_order_relaxed);
    return UpdateResult::Rejected("service stopped");
  }
  if (batch.empty()) return UpdateResult::Applied(0, 0, 0, 0);
  size_t pending_count = 0;
  bool force_schedule = false;
  std::shared_ptr<const ServeView> freed;  // released after the unlock
  {
    std::unique_lock<std::mutex> lock(write_mu_);
    const size_t cap = options_.max_pending_edges;
    // The batch is one admission unit: it lands whole or not at all
    // (kForceRebuild may overshoot the cap by a whole batch, same
    // transient-overshoot contract as before).
    if (cap > 0 && view_.Load()->pending.size() >= cap) {
      switch (options_.backpressure) {
        case BackpressurePolicy::kReject:
          stats_.backpressure_rejected.fetch_add(1,
                                                 std::memory_order_relaxed);
          stats_.update_rejected.fetch_add(1, std::memory_order_relaxed);
          return UpdateResult::Rejected("backpressure: pending buffer full");
        case BackpressurePolicy::kForceRebuild:
          // Accept past the cap; the forced drain pulls it back under.
          stats_.backpressure_forced.fetch_add(1, std::memory_order_relaxed);
          force_schedule = true;
          break;
        case BackpressurePolicy::kBlock: {
          stats_.backpressure_blocked.fetch_add(1,
                                                std::memory_order_relaxed);
          // Re-schedule on every wakeup that still finds the buffer full:
          // the drain that made room may have stopped before racing
          // writers refilled it. (write_mu_ -> rebuild_mu_ is the
          // established lock order; the reverse never happens.)
          while (!stopped_.load(std::memory_order_relaxed) &&
                 view_.Load()->pending.size() >= cap) {
            {
              std::lock_guard<std::mutex> rl(rebuild_mu_);
              ScheduleLocked();
            }
            backpressure_cv_.wait(lock);
          }
          if (stopped_.load(std::memory_order_relaxed)) {
            stats_.update_rejected.fetch_add(1, std::memory_order_relaxed);
            return UpdateResult::Rejected("service stopped");
          }
          break;
        }
      }
    }
    const auto cur = view_.Load();
    auto next = std::make_shared<ServeView>();
    next->snapshot = cur->snapshot;
    next->pending.reserve(cur->pending.size() + batch.size());
    next->pending = cur->pending;
    next->pending.insert(next->pending.end(), batch.begin(), batch.end());
    next->gate = cur->gate;
    ExtendGate(*next->snapshot, batch, &next->gate);
    pending_count = next->pending.size();
    view_.Store(std::move(next));
    // Readers that cached `cur` drop it when they reload; holding it
    // until the next publish makes this writer, not one of them, free
    // it. It shares the new view's snapshot, so no index stays alive.
    freed = std::exchange(superseded_, cur);
  }
  stats_.inserts.fetch_add(num_inserts, std::memory_order_relaxed);
  stats_.deletes.fetch_add(num_deletes, std::memory_order_relaxed);
  stats_.update_batches.fetch_add(1, std::memory_order_relaxed);
  pending_gauge_->Set(static_cast<double>(pending_count));
  if (negcache_ != nullptr && num_inserts > 0) {
    // After the view publish: a query sampling the new epoch is
    // guaranteed to pin a pending list containing this batch, so every
    // negative it verifies (and caches) accounts for it. Delete-only
    // batches skip the bump — deletions only shrink reachability, so a
    // cached verified negative can never turn stale positive.
    negcache_->Invalidate();
    stats_.negcache_invalidations.fetch_add(1, std::memory_order_relaxed);
  }
  if (force_schedule || pending_count >= options_.drain_threshold) {
    std::lock_guard<std::mutex> lock(rebuild_mu_);
    ScheduleLocked();
  }
  // Every accepted update is answered exactly from the moment it lands
  // (gate closure / live-union verification), so the batch counts as
  // incrementally applied with zero damage: the serve path never owes a
  // caller-visible rebuild.
  return UpdateResult::Applied(batch.size(), 0, 0, 0);
}

void ReachService::ExtendGate(const ServeSnapshot& snap,
                              std::span<const EdgeUpdate> updates,
                              PendingGate* gate) const {
  REACH_TRACE_SPAN("serve.gate_extend");
  for (const EdgeUpdate& u : updates) FoldUpdate(u, gate);
  // Gates are only read next to an index; an unindexed startup snapshot
  // leaves them to the drain that publishes the first index.
  if (snap.index == nullptr) return;
  std::vector<VertexId> queue;
  uint64_t visits = 0;
  for (const EdgeUpdate& u : updates) {
    if (u.IsInsert()) {
      visits += AddGate(Edge{u.source, u.target}, *snap.graph, &queue, gate);
    }
  }
  stats_.gate_sweep_visits.fetch_add(visits, std::memory_order_relaxed);
}

void ReachService::Flush() {
  std::unique_lock<std::mutex> lock(rebuild_mu_);
  // Unstarted, no drain will ever run to absorb what is pending.
  if (stopped_.load(std::memory_order_relaxed) || !started_) return;
  flush_requested_ = true;
  ScheduleLocked();
  rebuild_cv_.wait(lock, [&] {
    if (stopped_.load(std::memory_order_relaxed)) return true;
    if (!rebuild_inflight_ && view_.Load()->pending.empty()) return true;
    // A drain finished but inserts raced past it: keep draining until
    // everything accepted before this Flush is absorbed.
    if (!rebuild_inflight_) {
      flush_requested_ = true;
      ScheduleLocked();
    }
    return false;
  });
}

void ReachService::ScheduleLocked() {
  if (stopped_.load(std::memory_order_relaxed) || !started_ ||
      rebuild_inflight_) {
    return;
  }
  rebuild_inflight_ = true;
  ThreadPool::Global().Submit([this] { RebuildLoop(); });
}

bool ReachService::UpdateIndexCopy(const ServeView& drained,
                                   ServeSnapshot* snap) const {
  const ServeSnapshot& from = *drained.snapshot;
  const auto* index =
      dynamic_cast<const DynamicReachabilityIndex*>(from.index.get());
  if (index == nullptr) return false;  // no index yet, or a static one
  REACH_TRACE_SPAN("serve.rebuild.apply");
  std::unique_ptr<DynamicReachabilityIndex> copy = index->Clone();
  if (copy == nullptr) return false;
  // One update at a time, so the arm gives up as soon as the copy asks
  // for a build: it rejects the update (a loaded index has no live
  // graph), crosses its staleness budget (`kDeferredRebuild`) or grows
  // past `kIndexGrowthLimit` times the last build. The rest of the batch
  // would be wasted work.
  const size_t limit = kIndexGrowthLimit * from.built_index_bytes;
  const auto apply = [&](const EdgeUpdate& update) {
    return copy->ApplyUpdate({update}).status == UpdateStatus::kApplied &&
           copy->IndexSizeBytes() <= limit;
  };
  // Inserts first: each is a detour a later delete may prove itself
  // redundant with, so fewer deletes damage the labels. The two sets are
  // disjoint, so the order does not change the live graph.
  const PendingGate& eff = drained.gate;
  for (const Edge& e : eff.adds) {
    if (!apply(EdgeUpdate::Insert(e.source, e.target))) return false;
  }
  for (const Edge& e : eff.dels) {
    if (!apply(EdgeUpdate::Delete(e.source, e.target))) return false;
  }
  snap->index = std::move(copy);
  snap->index_graph = from.index_graph;
  snap->built_index_bytes = from.built_index_bytes;
  return true;
}

void ReachService::RebuildLoop() {
  size_t consecutive_failures = 0;
  for (;;) {
    REACH_TRACE_SPAN("serve.rebuild");
    SetRebuildState(RebuildState::kRunning);
    // Everything pending *now* goes into this generation; updates racing
    // past this load stay pending (between drains the list only grows by
    // append, so the drained list is a prefix of every later list). A
    // retry re-loads here, so a re-queued drain picks up newly arrived
    // edges.
    const auto drained = view_.Load();
    {
      std::lock_guard<std::mutex> lock(rebuild_mu_);
      flush_requested_ = false;
    }

    const Clock::time_point attempt_start = Clock::now();
    const bool watchdog_on = options_.rebuild_watchdog.count() > 0;
    auto snap = std::make_shared<ServeSnapshot>();
    bool failed = false;
    bool stalled = false;
    bool full_build = false;
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
        // Materialize the drained updates from their effective state
        // (last op per edge, folded when the view was published, so no
        // edge is both added and deleted) over the drained snapshot's
        // graph.
        const PendingGate& eff = drained->gate;
        ArcOverlay<Digraph> live;
        live.Reset(drained->snapshot->graph.get());
        for (const Edge& e : eff.dels) live.Delete(e.source, e.target);
        for (const Edge& e : eff.adds) live.Insert(e.source, e.target);
        snap->graph = std::make_shared<const Digraph>(live.LiveGraph());
      }
      // Cooperative watchdog checkpoint, placed where abandoning still
      // saves real work (the index update or build dominates): an attempt
      // already past its deadline is re-queued instead of going on. Once
      // the index work starts it runs to completion — a finished index is
      // published even if late, since discarding it helps nobody.
      if (watchdog_on &&
          Clock::now() - attempt_start > options_.rebuild_watchdog) {
        stalled = true;
      } else if (!UpdateIndexCopy(*drained, snap.get())) {
        // The index must be built against the graph at its final address
        // — partial indexes keep a pointer into it for guided traversal.
        REACH_TRACE_SPAN("serve.rebuild.index");
        snap->index = MakeIndex(options_.spec).plain;
        snap->index->Build(*snap->graph);
        snap->index_graph = snap->graph;
        snap->built_index_bytes = snap->index->IndexSizeBytes();
        full_build = true;
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
      error = "watchdog: drain attempt exceeded deadline, re-queued";
      stats_.watchdog_fired.fetch_add(1, std::memory_order_relaxed);
    }
    if (failed) {
      snap.reset();  // the last good snapshot keeps serving, untouched
      ++consecutive_failures;
      NoteRebuildFailure(error, consecutive_failures);
      if (consecutive_failures > options_.rebuild_max_retries) {
        // Retries exhausted: abandon the drain. Pending updates stay put
        // — queries still answer them exactly via the gate closure and
        // live-union verification — and the next ApplyUpdate/Flush
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
    const size_t granted = snap->index->PrepareConcurrentQueries(
        ResolveThreads(options_.slots));
    snap->slots.Reset(granted);
    snap->version = next_version_++;
    const uint64_t published_version = snap->version;

    // The still-pending suffix and its gate against the new snapshot,
    // built outside write_mu_ so writers keep landing meanwhile; whatever
    // they append is folded in under the lock, just before the one store
    // that publishes snapshot, trimmed list and gate together.
    const auto seen = view_.Load();
    auto next = std::make_shared<ServeView>();
    next->pending.assign(
        seen->pending.begin() +
            static_cast<ptrdiff_t>(drained->pending.size()),
        seen->pending.end());
    ExtendGate(*snap, next->pending, &next->gate);
    size_t left = 0;
    std::shared_ptr<const ServeView> freed;  // released after the unlock
    {
      std::lock_guard<std::mutex> lock(write_mu_);
      // A view of the old snapshot: not kept past the swap.
      freed = std::move(superseded_);
      const auto cur = view_.Load();
      if (cur->pending.size() > seen->pending.size()) {
        const std::span<const EdgeUpdate> arrived =
            std::span<const EdgeUpdate>(cur->pending)
                .subspan(seen->pending.size());
        next->pending.insert(next->pending.end(), arrived.begin(),
                             arrived.end());
        ExtendGate(*snap, arrived, &next->gate);
      }
      next->snapshot = std::move(snap);
      left = next->pending.size();
      view_.Store(std::move(next));
      // Room just opened: release writers parked on kBlock backpressure.
      backpressure_cv_.notify_all();
    }
    REACH_TRACE_INSTANT("serve.snapshot_swap");
    version_gauge_->Set(static_cast<double>(published_version));
    if (negcache_ != nullptr) {
      // The swap adds no reachability (it only absorbs pending updates,
      // and drained deletes can only shrink it), so this bump is defense
      // in depth: entries verified against the previous snapshot+pending
      // union stay unreachable, but tying cache lifetime to the
      // generation keeps the invariant local.
      negcache_->Invalidate();
      stats_.negcache_invalidations.fetch_add(1, std::memory_order_relaxed);
    }
    pending_gauge_->Set(static_cast<double>(left));
    health_ready_gauge_->Set(1.0);
    stats_.rebuilds.fetch_add(1, std::memory_order_relaxed);
    if (full_build) stats_.full_builds.fetch_add(1, std::memory_order_relaxed);

    {
      // Exit handshake, same shape as the retries-exhausted one above: a
      // writer that refilled the buffer right after the trim saw this
      // drain still in flight, skipped scheduling, and parked — wake it
      // under write_mu_ (before rebuild_mu_, the established order) so
      // its re-run ScheduleLocked finds the in-flight flag already down.
      // Clearing the flag must be the LAST touch of `this`: a
      // Stop()/join()er that observes it may destroy the service.
      std::unique_lock<std::mutex> wl(write_mu_);
      std::unique_lock<std::mutex> rl(rebuild_mu_);
      const bool more = !stopped_.load(std::memory_order_relaxed) &&
                        (left >= options_.drain_threshold ||
                         (flush_requested_ && left > 0));
      if (more) continue;
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
  // slow-query log — otherwise the extra clock reads never happen. A
  // query can qualify by latency (threshold set) or by degrading on its
  // deadline; with neither configured, capture is impossible.
  SlowQueryRecord rec;
  SlowQueryRecord* recp =
      options_.slow_log_capacity > 0 &&
              (options_.slow_query_threshold.count() > 0 ||
               options_.deadline.count() > 0)
          ? &rec
          : nullptr;
  // The clock is read only for a sampled query, a deadline or the slow
  // log: two reads cost more than an idle query's answer path.
  const bool sampled = reader.queries++ % kQueryNsSamplePeriod == 0;
  const bool timed =
      sampled || recp != nullptr || options_.deadline.count() > 0;
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

  // Sample the negcache epoch BEFORE pinning: the pinned view's list
  // then contains every edge counted in the sampled epoch, so a negative
  // verified against it may be cached at that epoch. (An insert racing
  // between the sample and the pin only makes the verified edge set
  // larger — a negative on a superset is valid for the subset.) A
  // publish bumps the view generation before it bumps the epoch, so a
  // cached view is never older than the sampled epoch.
  const uint64_t negcache_epoch =
      negcache_ != nullptr ? negcache_->Epoch() : 0;
  const ServeView* pinned;
  {
    REACH_TRACE_SPAN("serve.snapshot_pin");
    pinned = &CachedView(view_, &reader);
  }
  const ServeView& view = *pinned;
  const ServeSnapshot& snap = *view.snapshot;

  if (tier == AdmissionTier::kShed) {
    // Over capacity: answer nothing rather than queue into collapse. The
    // shed reply is O(1), explicitly inexact, and never cached.
    stats_.shed.fetch_add(1, std::memory_order_relaxed);
    ServeAnswer ans;
    ans.reachable = false;
    ans.exact = false;
    ans.source = AnswerSource::kShedded;
    ans.snapshot_version = snap.version;
    return ans;
  }
  if (tier == AdmissionTier::kCacheOnly) {
    stats_.admission_cache_only.fetch_add(1, std::memory_order_relaxed);
  } else if (tier == AdmissionTier::kBfsOnly) {
    stats_.admission_bfs_only.fetch_add(1, std::memory_order_relaxed);
  }

  const bool cacheable = negcache_ != nullptr && s < num_vertices_ &&
                         t < num_vertices_ && s != t;
  if (cacheable) {
    StageScope stage(recp, ServeStage::kNegCacheProbe);
    if (negcache_->Lookup(s, t, negcache_epoch)) {
      stats_.negcache_hits.fetch_add(1, std::memory_order_relaxed);
      ServeAnswer ans;
      ans.reachable = false;
      ans.exact = true;
      ans.source = AnswerSource::kNegCache;
      ans.snapshot_version = snap.version;
      if (sampled) latency_hist_->Record(ElapsedNs(start, Clock::now()));
      return ans;
    }
  }

  ServeAnswer ans;
  ans.snapshot_version = snap.version;
  if (s < num_vertices_ && t < num_vertices_) {
    if (tier == AdmissionTier::kBfsOnly) {
      // Heavy load: skip slot acquisition and the gate closure entirely;
      // one bounded traversal with a tighter budget bounds the cost.
      ans = DegradedAnswer(view, s, t, kDegradedVisitBudget, recp,
                           reader.bfs);
    } else if (snap.index == nullptr) {
      // Startup: the first index build is still in flight.
      ans = DegradedAnswer(view, s, t, kFallbackVisitBudget, recp,
                           reader.bfs);
    } else {
      const Clock::time_point deadline =
          options_.deadline.count() > 0 ? start + options_.deadline
                                        : Clock::time_point::max();
      bool waited = false;
      ans = AnswerWithIndex(view, s, t, deadline,
                            /*allow_delta=*/tier == AdmissionTier::kFull,
                            &waited, recp, reader.bfs);
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
  if (cacheable) {
    stats_.negcache_misses.fetch_add(1, std::memory_order_relaxed);
    // Verified unreachable against the pinned view's union graph, which
    // covers everything counted in the sampled epoch. Not while inserts
    // are pending: the next insert or swap would invalidate the entry,
    // and writing it clears a whole stripe once per epoch.
    if (!ans.reachable && ans.exact && view.gate.adds.empty()) {
      StageScope stage(recp, ServeStage::kNegCacheProbe);
      const auto outcome = negcache_->Insert(s, t, negcache_epoch);
      if (outcome == NegativeResultCache::InsertOutcome::kEvicted) {
        stats_.negcache_evictions.fetch_add(1, std::memory_order_relaxed);
      }
    }
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
    if (rec.deadline_degraded || over_threshold) {
      rec.s = s;
      rec.t = t;
      rec.reachable = ans.reachable;
      rec.exact = ans.exact;
      rec.source = ans.source;
      rec.snapshot_version = ans.snapshot_version;
      rec.total_ns = total_ns;
      rec.pending_edges = view.pending.size();
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

ServeAnswer ReachService::AnswerWithIndex(const ServeView& view, VertexId s,
                                          VertexId t,
                                          Clock::time_point deadline,
                                          bool allow_delta, bool* waited,
                                          SlowQueryRecord* rec,
                                          SearchWorkspace& bfs) const {
  ServeAnswer ans;
  const ServeSnapshot& snap = *view.snapshot;

  // The decision runs over the SUPERSET graph first: snapshot ∪ every
  // pending insert, deletes ignored. The live graph is a subgraph of it,
  // so a superset negative is an exact negative. A superset positive is
  // final only while no deletes are pending (insert-only monotonicity);
  // with deletes pending it is a candidate that must be re-verified
  // against the live union graph by a bounded traversal.
  const PendingGate& gate = view.gate;
  bool superset_reachable = false;
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
    superset_reachable = snap.index->QueryInSlot(s, t, lease->slot());
  }
  if (superset_reachable && !gate.has_deletes) {
    // Reachability is monotone under insertion: an index hit on this
    // snapshot stays true no matter how many inserts are pending.
    ans.reachable = true;
    stats_.index_answers.fetch_add(1, std::memory_order_relaxed);
    return ans;
  }
  if (!superset_reachable && gate.adds.empty()) {
    // The live graph is the snapshot minus pending deletes: a snapshot
    // negative is exact.
    stats_.index_answers.fetch_add(1, std::memory_order_relaxed);
    return ans;
  }
  if (!allow_delta) {
    // Admission gate disallowed the gate closure and the verification
    // traversal: the pending updates are unaccounted for, so this
    // negative is only approximate.
    ans.exact = false;
    stats_.index_answers.fetch_add(1, std::memory_order_relaxed);
    return ans;
  }

  // Superset index miss with pending inserts: any s-t path in the
  // superset graph enters the gates at some gate j (s reaches its source
  // through the snapshot) and leaves at a gate in {j} ∪ row j of the
  // closure (whose target reaches t through the snapshot). The gates'
  // reach sets decide both ends: k bit tests s ∈ anc(j) collect the
  // usable gates, and one bit test t ∈ desc(i) per usable gate decides.
  bool expired = false;
  if (!superset_reachable) {
    ans.source = AnswerSource::kDelta;
    StageScope stage(rec, ServeStage::kDeltaClosure);
    const size_t words = gate.words;
    uint64_t inline_words[4] = {};
    std::vector<uint64_t> heap_words;
    uint64_t* usable = inline_words;
    if (words > std::size(inline_words)) {
      heap_words.assign(words, 0);
      usable = heap_words.data();
    }
    for (size_t j = 0; j < gate.gates.size(); ++j) {
      // A gate already usable adds nothing: its row is inside the row of
      // the gate that made it usable.
      if (TestBit(usable, j) || !TestBit(gate.Anc(j), s)) continue;
      SetBit(usable, j);
      OrInto(usable, gate.Row(j), words);
    }
    expired = deadline != Clock::time_point::max() && Clock::now() > deadline;
    for (size_t w = 0; w < words && !expired && !superset_reachable; ++w) {
      for (uint64_t bits = usable[w]; bits != 0; bits &= bits - 1) {
        const size_t j = w * 64 + static_cast<size_t>(std::countr_zero(bits));
        if (TestBit(gate.Desc(j), t)) {
          superset_reachable = true;
          break;
        }
      }
    }
  }
  if (expired && !superset_reachable) {
    // Budget blown mid-closure: degrade to the bounded traversal.
    stats_.deadline_degraded.fetch_add(1, std::memory_order_relaxed);
    if (rec != nullptr) rec->deadline_degraded = true;
    return DegradedAnswer(view, s, t, kFallbackVisitBudget, rec, bfs);
  }
  if (!superset_reachable || !gate.has_deletes) {
    // Exact either way: a closure-exhausted negative, or a witness
    // segment chain with no deletes pending to invalidate it.
    ans.reachable = superset_reachable;
    ans.source = AnswerSource::kDelta;
    stats_.delta_answers.fetch_add(1, std::memory_order_relaxed);
    return ans;
  }
  // Superset positive with deletes pending: the witness may route through
  // a tombstoned edge, so only a traversal of the live union graph
  // decides. It returns an exact answer unless the visit budget runs out
  // (then an inexact negative, flagged as such).
  stats_.delete_verifies.fetch_add(1, std::memory_order_relaxed);
  return DegradedAnswer(view, s, t, kFallbackVisitBudget, rec, bfs);
}

ServeAnswer ReachService::DegradedAnswer(const ServeView& view, VertexId s,
                                         VertexId t, size_t visit_budget,
                                         SlowQueryRecord* rec,
                                         SearchWorkspace& bfs) const {
  ServeAnswer ans;
  ans.source = AnswerSource::kFallbackBfs;
  BoundedBfsOutcome out;
  {
    StageScope stage(rec, ServeStage::kFallbackBfs);
    out = UnionBfs(*view.snapshot->graph, view.gate, s, t, visit_budget, bfs);
  }
  if (rec != nullptr) rec->bfs_visits = out.visits;
  ans.reachable = out.reachable;
  // A found path is a witness; only unverified negatives are inexact.
  ans.exact = out.reachable || out.complete;
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
  if (c * 2 > m) return AdmissionTier::kCacheOnly;     // >50% full
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
  health.accepting_writes = !stopped_.load(std::memory_order_relaxed);
  health.snapshot_version = view->snapshot->version;
  health.index_bytes = health.ready ? view->snapshot->index->IndexSizeBytes()
                                    : 0;
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

BoundedBfsOutcome BoundedUnionBfs(const Digraph& graph,
                                  const PendingUpdates& updates, VertexId s,
                                  VertexId t, size_t max_visits) {
  // Out-of-range input is held to the service's rules: an endpoint
  // outside the graph reaches nothing (as in `Query`), and an update that
  // names one is never pending (`ApplyUpdate` rejects it).
  const size_t n = graph.NumVertices();
  if (s >= n || t >= n) return {};
  PendingGate effective;
  for (const EdgeUpdate& u : updates) {
    if (u.source < n && u.target < n) FoldUpdate(u, &effective);
  }
  SearchWorkspace ws;
  return UnionBfs(graph, effective, s, t, max_visits, ws);
}

}  // namespace reach
