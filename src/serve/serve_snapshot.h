#ifndef REACH_SERVE_SERVE_SNAPSHOT_H_
#define REACH_SERVE_SERVE_SNAPSHOT_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/edge_update.h"
#include "core/reachability_index.h"
#include "core/search_workspace.h"
#include "graph/digraph.h"

namespace reach {

/// Lease-based distribution of the concurrent-query slots granted by
/// `PrepareConcurrentQueries` (core/reachability_index.h): each in-flight
/// request leases one slot for its whole `QueryInSlot` stream, so two
/// requests never share per-slot scratch state. A single atomic free-mask
/// caps the pool at 64 slots — far above any `DefaultThreads()` in
/// practice. When every slot is leased, `Acquire` spins with `yield`;
/// with one granted slot this degrades to mutual exclusion, which is
/// exactly the serial-only contract a grant of 1 signals.
class SlotPool {
 public:
  static constexpr size_t kMaxSlots = 64;

  SlotPool() { Reset(1); }

  /// Sizes the pool to `slots` free slots (clamped to [1, 64]). Not
  /// thread-safe: call before the owning snapshot is published.
  void Reset(size_t slots) {
    if (slots == 0) slots = 1;
    if (slots > kMaxSlots) slots = kMaxSlots;
    size_ = slots;
    free_.store(slots == kMaxSlots ? ~uint64_t{0} : (uint64_t{1} << slots) - 1,
                std::memory_order_relaxed);
  }

  size_t size() const { return size_; }

  /// Leases a free slot, spinning until one frees up. `waited` (optional)
  /// is set when the caller had to contend.
  size_t Acquire(bool* waited = nullptr) {
    for (bool first = true;; first = false) {
      uint64_t mask = free_.load(std::memory_order_relaxed);
      while (mask != 0) {
        const uint64_t bit = mask & (~mask + 1);  // lowest set bit
        if (free_.compare_exchange_weak(mask, mask & ~bit,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
          return static_cast<size_t>(std::countr_zero(bit));
        }
      }
      if (first && waited != nullptr) *waited = true;
      std::this_thread::yield();
    }
  }

  void Release(size_t slot) {
    free_.fetch_or(uint64_t{1} << slot, std::memory_order_release);
  }

 private:
  size_t size_ = 1;
  std::atomic<uint64_t> free_{1};
};

/// One immutable generation of the serving state: the live graph, the
/// index answering for it, and the slot pool sized to what the index
/// actually granted. Published inside a `ServeView` behind an atomic
/// `shared_ptr` swap (`AtomicSharedPtr`); readers pin a generation for the
/// duration of one request (a reader record keeps it cached until its
/// thread's next query) and never observe a half-rebuilt index. All
/// fields except the slot leases are frozen before publication.
struct ServeSnapshot {
  /// Monotonic generation number (0 = the unindexed startup snapshot).
  uint64_t version = 0;
  /// The live graph this generation serves, which `index` answers for:
  /// what the gate sweeps and the union BFS walk.
  std::shared_ptr<const Digraph> graph;
  /// The graph `index` was built over, which the index may keep a pointer
  /// into (partial indexes guide searches over it; a 2-hop index keeps
  /// its update overlay on it). `graph` itself after a full build; the
  /// last full build's graph after an incremental drain, which updated a
  /// copy of the previous generation's index. Null while no index was
  /// built (startup, or one loaded from a snapshot file).
  std::shared_ptr<const Digraph> index_graph;
  /// Index answering for `graph`; null only in the startup snapshot,
  /// while the first background build is still in flight — queries then
  /// degrade to the bounded online BFS.
  std::unique_ptr<ReachabilityIndex> index;
  /// `IndexSizeBytes()` of the index the last full build (or snapshot
  /// load) behind this generation made: a drain whose index copy outgrows
  /// `kIndexGrowthLimit` times this runs a full build instead. 0 while
  /// there is no index.
  size_t built_index_bytes = 0;
  /// Leases for the slots `index->PrepareConcurrentQueries` granted.
  mutable SlotPool slots;
};

/// Updates accepted by `ApplyUpdate` (inserts and deletes, in arrival
/// order) but not yet absorbed into a snapshot. Order matters — the live
/// edge set is the snapshot graph with these updates replayed in
/// sequence, so the last operation on an edge wins.
using PendingUpdates = std::vector<EdgeUpdate>;

/// A pending-update list prepared once, when its view is published, so
/// that no query re-derives it:
///  * the effective updates (last operation per edge wins): `adds`, the
///    edges the live graph gains, sorted (so by source, as the union BFS
///    walks them); `dels`, the snapshot arcs it must mask, sorted;
///  * the **gate graph** over the pending inserts (the gate vertices of
///    CSIndex): `gates` holds every distinct insert the list carries, in
///    arrival order; `reach` the two reach sets of each gate j = (a → b)
///    over the snapshot graph, from one backward sweep from a and one
///    forward sweep from b; and `closure` one bitset row per gate — bit j
///    of row i is set iff gate j's source is reachable from gate i's
///    target through snapshot paths and other gates.
/// Gates are append-only over raw inserts: an insert that a later delete
/// cancels stays a gate, which only widens the superset graph
/// (snapshot ∪ gates) that queries decide first. The gate graph is built
/// against one snapshot's graph and left empty when it has no index.
struct PendingGate {
  /// Gate j's reach sets, n bits each (n = snapshot vertices), in one
  /// block of `2 * vertex_words` words: [0, w) is anc(j), the vertices
  /// that reach gate j's source; [w, 2w) is desc(j), the vertices gate
  /// j's target reaches. Both are reflexive. Immutable once swept and
  /// shared by every view that carries the gate, so publishing a view
  /// copies one pointer per gate, never per-vertex data.
  using ReachSets = std::shared_ptr<const uint64_t[]>;

  std::vector<Edge> adds;
  std::vector<Edge> dels;
  /// Whether any delete op is in the list (the insert-only monotonicity
  /// shortcut is off while one is).
  bool has_deletes = false;
  std::vector<Edge> gates;
  /// One entry per gate, parallel to `gates`.
  std::vector<ReachSets> reach;
  /// Words of one reach set.
  size_t vertex_words = 0;
  /// Row stride of `closure`, in 64-bit words.
  size_t words = 0;
  std::vector<uint64_t> closure;

  const uint64_t* Row(size_t i) const { return closure.data() + i * words; }
  /// Gate j's two reach sets (see `ReachSets`).
  const uint64_t* Anc(size_t j) const { return reach[j].get(); }
  const uint64_t* Desc(size_t j) const {
    return reach[j].get() + vertex_words;
  }
};

/// Everything one query pins, in one load: a snapshot, the updates
/// pending on top of it, and their gate built against that snapshot's
/// graph. Immutable once published; writers and the drain replace the
/// whole view with one store, so a reader never pairs a snapshot with a
/// pending list it was not built for.
struct ServeView {
  std::shared_ptr<const ServeSnapshot> snapshot;
  PendingUpdates pending;
  PendingGate gate;
};

// TSan cannot see through libstdc++'s _Sp_atomic lock-bit protocol (the
// pointer word is guarded by a bit spliced into the refcount word and
// accessed with plain loads), so atomic<shared_ptr> use reports false
// races; take the mutex path under TSan instead.
#if defined(__SANITIZE_THREAD__)
#define REACH_SERVE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define REACH_SERVE_TSAN 1
#endif
#endif
#ifndef REACH_SERVE_TSAN
#define REACH_SERVE_TSAN 0
#endif

/// `std::atomic<std::shared_ptr<T>>` where the standard library provides
/// it (libstdc++ >= 12, the toolchain this repo targets), with a mutex
/// fallback elsewhere and under TSan. Load/Store are the only operations
/// the serving path needs.
///
/// Every `Store` bumps `Generation()` (release) after storing the
/// pointer, so a reader that sees generation g and then calls `Load` gets
/// the g-th stored pointer or a later one. A reader that cached a pointer
/// loaded after seeing g may keep using it while the generation still
/// reads g: one acquire load per use instead of a refcounted `Load`.
template <typename T>
class AtomicSharedPtr {
 public:
  uint64_t Generation() const {
    return generation_.load(std::memory_order_acquire);
  }
#if defined(__cpp_lib_atomic_shared_ptr) && !REACH_SERVE_TSAN
  std::shared_ptr<T> Load() const { return ptr_.load(std::memory_order_acquire); }
  void Store(std::shared_ptr<T> p) {
    ptr_.store(std::move(p), std::memory_order_release);
    generation_.fetch_add(1, std::memory_order_release);
  }

 private:
  std::atomic<std::shared_ptr<T>> ptr_;
#else
  std::shared_ptr<T> Load() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ptr_;
  }
  void Store(std::shared_ptr<T> p) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ptr_ = std::move(p);
    }
    generation_.fetch_add(1, std::memory_order_release);
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<T> ptr_;
#endif
  std::atomic<uint64_t> generation_{0};
};

/// One reader thread's state in one `ReachService` (see `ReaderRecords`).
/// Its own cache line, so no two readers' flags share one.
struct alignas(64) ReaderRecord {
  /// Set by the owning thread while it is inside `Query`; admission
  /// control and health sum the flags of every record.
  std::atomic<bool> inflight{false};
  /// Owner-only: the view the thread last loaded, and the publish
  /// generation it saw before loading it (0 = none cached).
  uint64_t generation = 0;
  std::shared_ptr<const ServeView> view;
  /// Owner-only: queries this record has served (latency sampling).
  uint64_t queries = 0;
  /// Owner-only: epoch-stamped forward marks (4 bytes per vertex) and
  /// queue of the union BFS, reused by every fallback search the thread
  /// runs.
  SearchWorkspace bfs;
  /// Immutable once the record is published in its list.
  ReaderRecord* next = nullptr;
  /// Whether a live thread owns the record. Guarded by the list's mutex.
  bool owned = false;
};

/// The reader records of one service: an append-only list that
/// admission control scans without a lock, and a per-thread lookup. A
/// thread finds its record through a small `thread_local` map keyed by
/// the list's id, which is never reused, so a service built at a dead
/// one's address never matches the dead one's entries.
///
/// Lifetime: a thread's first `Local()` claims a free record or appends
/// one. When the thread exits, its records drop their cached views and
/// become free for the next thread. Destroying the list destroys every
/// record and the view it caches. So a thread keeps at most one
/// superseded view per service alive, until its next query there.
/// Defined in reach_service.cc.
class ReaderRecords : public std::enable_shared_from_this<ReaderRecords> {
 public:
  ReaderRecords();
  ~ReaderRecords();
  ReaderRecords(const ReaderRecords&) = delete;
  ReaderRecords& operator=(const ReaderRecords&) = delete;

  /// The calling thread's record. Must be owned by a `shared_ptr`.
  ReaderRecord& Local();
  /// Records whose `inflight` flag is set. Lock-free; each load is
  /// seq_cst, so a query that sets its flag with a seq_cst store and
  /// then scans sees every racing query, or is seen by it.
  size_t InFlight() const;
  /// Records allocated so far, owned or free.
  size_t size() const;

 private:
  struct ThreadMap;
  ReaderRecord& Claim();
  void Release(ReaderRecord& record);

  const uint64_t id_;
  mutable std::mutex mu_;
  std::atomic<ReaderRecord*> head_{nullptr};
};

}  // namespace reach

#endif  // REACH_SERVE_SERVE_SNAPSHOT_H_
