#include "obs/metrics_registry.h"

#include <atomic>
#include <bit>
#include <unordered_map>

namespace reach {

namespace {

// Instruments are identified by a process-unique id, not by address, so a
// destroyed registry (tests create private ones) can never alias a live
// instrument's thread-local cell cache.
std::atomic<uint64_t> g_next_instrument_id{1};

uint64_t NextInstrumentId() {
  return g_next_instrument_id.fetch_add(1, std::memory_order_relaxed);
}

// instrument id -> this thread's cell within that instrument.
thread_local std::unordered_map<uint64_t, void*> tls_cells;

// Adds `n` to a cell field only the calling thread writes: a relaxed load
// and store, never a read-modify-write.
void OwnerAdd(std::atomic<uint64_t>& field, uint64_t n) {
  field.store(field.load(std::memory_order_relaxed) + n,
              std::memory_order_relaxed);
}

uint64_t Scrape(const std::atomic<uint64_t>& field) {
  return field.load(std::memory_order_relaxed);
}

}  // namespace

Counter::Cell& Counter::LocalCell() {
  void*& slot = tls_cells[id_];
  if (slot == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    cells_.push_back(std::make_unique<Cell>());
    slot = cells_.back().get();
  }
  return *static_cast<Cell*>(slot);
}

void Counter::Add(uint64_t n) {
  if (!*enabled_) return;
  OwnerAdd(LocalCell().value, n);
}

uint64_t Counter::Value() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& cell : cells_) total += Scrape(cell->value);
  return total;
}

void Gauge::Set(double value) {
  if (!*enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  value_ = value;
}

double Gauge::Value() const {
  std::lock_guard<std::mutex> lock(mu_);
  return value_;
}

Histogram::Cell& Histogram::LocalCell() {
  void*& slot = tls_cells[id_];
  if (slot == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    cells_.push_back(std::make_unique<Cell>());
    slot = cells_.back().get();
  }
  return *static_cast<Cell*>(slot);
}

void Histogram::Record(uint64_t value) {
  if (!*enabled_) return;
  // Bucket b covers [2^b - 1, 2^(b+1) - 2]: 0 -> b0, 1..2 -> b1, 3..6 -> b2.
  size_t bucket = static_cast<size_t>(std::bit_width(value + 1)) - 1;
  if (bucket >= kNumBuckets) bucket = kNumBuckets - 1;
  Cell& cell = LocalCell();
  OwnerAdd(cell.buckets[bucket], 1);
  OwnerAdd(cell.count, 1);
  OwnerAdd(cell.sum, value);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot.reset(new Counter(name, &enabled_));
    slot->id_ = NextInstrumentId();
  }
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot.reset(new Gauge(name, &enabled_));
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot.reset(new Histogram(name, &enabled_));
    slot->id_ = NextInstrumentId();
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot merged;
    merged.buckets.assign(Histogram::kNumBuckets, 0);
    {
      std::lock_guard<std::mutex> cells_lock(histogram->mu_);
      for (const auto& cell : histogram->cells_) {
        for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
          merged.buckets[b] += Scrape(cell->buckets[b]);
        }
        merged.count += Scrape(cell->count);
        merged.sum += Scrape(cell->sum);
      }
    }
    while (!merged.buckets.empty() && merged.buckets.back() == 0) {
      merged.buckets.pop_back();
    }
    snapshot.histograms[name] = std::move(merged);
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    std::lock_guard<std::mutex> cells_lock(counter->mu_);
    for (const auto& cell : counter->cells_) {
      cell->value.store(0, std::memory_order_relaxed);
    }
  }
  for (const auto& [name, gauge] : gauges_) {
    std::lock_guard<std::mutex> value_lock(gauge->mu_);
    gauge->value_ = 0;
  }
  for (const auto& [name, histogram] : histograms_) {
    std::lock_guard<std::mutex> cells_lock(histogram->mu_);
    for (const auto& cell : histogram->cells_) {
      for (auto& bucket : cell->buckets) {
        bucket.store(0, std::memory_order_relaxed);
      }
      cell->count.store(0, std::memory_order_relaxed);
      cell->sum.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace reach
