#ifndef REACH_OBS_THREAD_CELLS_H_
#define REACH_OBS_THREAD_CELLS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace reach {

/// One `Cell` per writing thread, for an object many threads write into
/// (a metric counter or histogram, a trace recorder). Every `ThreadCells`
/// gets an id, never reused, and each thread keeps one slot vector per
/// `Cell` type indexed by it, so a destroyed owner (tests create private
/// registries) can never alias a live owner's slot.
template <typename Cell>
class ThreadCells {
 public:
  ThreadCells() : id_(NextId()) {}
  ThreadCells(const ThreadCells&) = delete;
  ThreadCells& operator=(const ThreadCells&) = delete;

  /// The calling thread's cell; lock-free once the thread has one (a
  /// bounds check and a load). The thread's first call appends
  /// `make(index)` under the lock, `index` counting the cells before it.
  template <typename Make>
  Cell& Local(Make&& make) {
    void*& slot = Slot(id_);
    if (slot == nullptr) [[unlikely]] {
      std::lock_guard<std::mutex> lock(mu_);
      cells_.push_back(make(cells_.size()));
      slot = cells_.back().get();
    }
    return *static_cast<Cell*>(slot);
  }
  Cell& Local() {
    return Local([](size_t) { return std::make_unique<Cell>(); });
  }

  /// Calls `fn(cell)` on every cell in creation order, under the lock.
  /// Cells stay writable: their owners write them concurrently anyway.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::unique_ptr<Cell>& cell : cells_) fn(*cell);
  }

 private:
  static uint64_t NextId() {
    static std::atomic<uint64_t> next{0};
    return next.fetch_add(1, std::memory_order_relaxed);
  }
  static void*& Slot(uint64_t id) {
    thread_local std::vector<void*> slots;
    if (id >= slots.size()) slots.resize(id + 1, nullptr);
    return slots[id];
  }

  const uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Cell>> cells_;
};

}  // namespace reach

#endif  // REACH_OBS_THREAD_CELLS_H_
