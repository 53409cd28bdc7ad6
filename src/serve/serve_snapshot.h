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

/// One immutable generation of the serving state: an index, the graph of
/// the full build behind it, and the slot pool its queries lease from.
/// Published inside a `ServeView` (`AtomicSharedPtr`); all fields except
/// the slot leases are frozen before publication.
struct ServeSnapshot {
  /// Monotonic generation number (0 = the unindexed startup snapshot).
  uint64_t version = 0;
  /// The graph the last full build behind `index` ran over (the base graph
  /// before the first build, and under a snapshot-loaded index), which the
  /// index may point into, and which queries search before the first
  /// index.
  std::shared_ptr<const Digraph> graph;
  /// Null only before the first build (or snapshot load) — queries then
  /// search `graph` within a visit budget.
  std::unique_ptr<ReachabilityIndex> index;
  /// `index` as the index writes copy (`DynamicReachabilityIndex::Clone`).
  /// Null before the first index and for a read-only spec.
  DynamicReachabilityIndex* copyable = nullptr;
  /// Whether `index` carries updates since its last full build; its
  /// answers then count as `AnswerSource::kDelta`.
  bool carries_updates = false;
  /// `IndexSizeBytes()` of the last full build (or snapshot load) behind
  /// this generation, for `kIndexGrowthLimit`. 0 while there is no index.
  size_t built_index_bytes = 0;
  /// Leases for the slots `index->PrepareConcurrentQueries` granted, shared
  /// by every copy of one full build, as their per-slot scratch is.
  std::shared_ptr<SlotPool> slots = std::make_shared<SlotPool>();
};

/// Updates accepted by `ApplyUpdate` (inserts and deletes, in arrival
/// order), for a replay that must apply them in sequence.
using PendingUpdates = std::vector<EdgeUpdate>;

/// Everything one query pins, in one load, replaced whole by every
/// publish: a snapshot, whose index carries every accepted update, and
/// the replay log of the full build in flight — the batches accepted since
/// it loaded the view it builds from, which it applies to the fresh index
/// before publishing it.
struct ServeView {
  std::shared_ptr<const ServeSnapshot> snapshot;
  PendingUpdates pending;
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
  /// Owner-only: epoch-stamped marks (4 bytes per vertex) and stack of
  /// the search before the first index, reused by every such search the
  /// thread runs.
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
