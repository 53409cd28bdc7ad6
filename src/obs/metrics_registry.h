#ifndef REACH_OBS_METRICS_REGISTRY_H_
#define REACH_OBS_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/thread_cells.h"

namespace reach {

/// A named monotonically increasing counter. Every thread that touches the
/// counter writes to its own cell (no read-modify-write, no cache-line
/// ping-pong during parallel builds); cells are merged when the value is
/// scraped. Counters are created by `MetricsRegistry::GetCounter` and live
/// as long as their registry.
///
/// A counter can also read cells it does not own: an object that already
/// counts an event in its own `std::atomic<uint64_t>` (`ServeStats`, the
/// fast-path verdict cells) attaches that atomic instead of mirroring each
/// increment with `Add`, so the event costs one write and a scrape sums
/// the attached cells with the counter's own.
class Counter {
 public:
  /// Adds `n` to this thread's cell. Cheap: one thread-local slot load
  /// (`ThreadCells`) plus a relaxed load and store. No-op while the
  /// owning registry is runtime-disabled.
  void Add(uint64_t n = 1);

  /// Adds `*cell` to every later `Value()`, whatever the registry's
  /// runtime switch: the owner counts unconditionally. `cell` must stay
  /// alive until `Detach(cell)`.
  void Attach(const std::atomic<uint64_t>* cell);
  /// Stops reading `cell` and folds its last value into the counter, so
  /// the value never goes backwards when the owner dies. After this
  /// returns no scrape reads `cell` again.
  void Detach(const std::atomic<uint64_t>* cell);

  /// Merged value across all threads that ever touched the counter, plus
  /// the attached cells.
  uint64_t Value() const;

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  Counter(std::string name, const bool* enabled)
      : name_(std::move(name)), enabled_(enabled) {}

  std::string name_;
  const bool* enabled_;  // owning registry's runtime flag
  // Only the owning thread writes a cell (a relaxed load plus store: an
  // unsynchronized add compiles to the same code, but a scrape reading a
  // plain field while the owner writes it would be a data race).
  ThreadCells<std::atomic<uint64_t>> cells_;
  mutable std::mutex mu_;  // guards attached_ and offset_
  std::vector<const std::atomic<uint64_t>*> attached_;
  // Added to the cells' sum, modulo 2^64: the final values of detached
  // cells, minus the attached cells' values at the last `Reset()`.
  uint64_t offset_ = 0;
};

/// A named last-written-wins value (e.g. roster sizes, configuration).
/// Gauges are set rarely, off the hot paths, so a mutex is fine.
class Gauge {
 public:
  void Set(double value);
  double Value() const;
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  Gauge(std::string name, const bool* enabled)
      : name_(std::move(name)), enabled_(enabled) {}

  std::string name_;
  const bool* enabled_;
  mutable std::mutex mu_;
  double value_ = 0;
};

/// Power-of-two bucketed histogram: Record(v) lands in bucket
/// floor(log2(v + 1)), so bucket b covers [2^b - 1, 2^(b+1) - 2]. Like
/// counters, each thread records into its own cell, merged on scrape.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 40;

  void Record(uint64_t value);
  const std::string& name() const { return name_; }

  /// Smallest value landing in bucket `b`: 2^b - 1 (0, 1, 3, 7, 15, ...).
  static constexpr uint64_t BucketLowerBound(size_t b) {
    return (uint64_t{1} << b) - 1;
  }
  /// Largest value landing in bucket `b`: 2^(b+1) - 2 — except the last
  /// bucket, which absorbs everything above it (Record clamps).
  static constexpr uint64_t BucketUpperBound(size_t b) {
    return b + 1 >= kNumBuckets ? UINT64_MAX : (uint64_t{1} << (b + 1)) - 2;
  }

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, const bool* enabled)
      : name_(std::move(name)), enabled_(enabled) {}

  // Owner-written, scrape-read relaxed atomics, as in `Counter`.
  struct Cell {
    std::atomic<uint64_t> buckets[kNumBuckets] = {};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
  };

  std::string name_;
  const bool* enabled_;
  ThreadCells<Cell> cells_;
};

/// Merged view of one histogram at scrape time.
struct HistogramSnapshot {
  std::vector<uint64_t> buckets;  // trailing zero buckets trimmed
  uint64_t count = 0;
  uint64_t sum = 0;

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Point-in-time merged view of a whole registry. Keys are sorted, so
/// exports are deterministic.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// A namespace of counters/gauges/histograms. `MetricsRegistry::Global()`
/// is the library-wide instance (interval-forest builds, parallel-build
/// progress, ...); tests and tools may create private registries.
///
/// Thread-safety: instrument creation, scraping, and recording may race
/// freely. Recording is per-thread-cell (relaxed atomics), so `Snapshot()`
/// taken while writers run sees each cell field either before or after its
/// current add.
/// `Reset()` is only exact when no writer is concurrently recording.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry used by library instrumentation.
  static MetricsRegistry& Global();

  /// Returns the instrument with `name`, creating it on first use. The
  /// reference stays valid for the registry's lifetime.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Runtime switch: while disabled, Add/Set/Record are no-ops (one
  /// predictable branch). Compiled-out builds (REACH_METRICS=0) never
  /// record regardless. Enabled by default.
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Merges every instrument's per-thread cells into one snapshot.
  MetricsSnapshot Snapshot() const;

  /// Zeroes all instruments (cells are kept, values cleared). An attached
  /// cell is left to its owner; its counter restarts from 0 by offset.
  void Reset();

 private:
  mutable std::mutex mu_;
  bool enabled_ = true;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace reach

#endif  // REACH_OBS_METRICS_REGISTRY_H_
