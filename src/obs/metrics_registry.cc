#include "obs/metrics_registry.h"

#include <algorithm>
#include <atomic>
#include <bit>

namespace reach {

namespace {

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

void Counter::Add(uint64_t n) {
  if (!*enabled_) return;
  OwnerAdd(cells_.Local(), n);
}

void Counter::Attach(const std::atomic<uint64_t>* cell) {
  std::lock_guard<std::mutex> lock(mu_);
  attached_.push_back(cell);
}

void Counter::Detach(const std::atomic<uint64_t>* cell) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::find(attached_.begin(), attached_.end(), cell);
  if (it == attached_.end()) return;
  offset_ += Scrape(*cell);
  attached_.erase(it);
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  cells_.ForEach([&](const auto& cell) { total += Scrape(cell); });
  std::lock_guard<std::mutex> lock(mu_);
  total += offset_;
  for (const std::atomic<uint64_t>* cell : attached_) total += Scrape(*cell);
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

void Histogram::Record(uint64_t value) {
  if (!*enabled_) return;
  // Bucket b covers [2^b - 1, 2^(b+1) - 2]: 0 -> b0, 1..2 -> b1, 3..6 -> b2.
  size_t bucket = static_cast<size_t>(std::bit_width(value + 1)) - 1;
  if (bucket >= kNumBuckets) bucket = kNumBuckets - 1;
  Cell& cell = cells_.Local();
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
  if (slot == nullptr) slot.reset(new Counter(name, &enabled_));
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
  if (slot == nullptr) slot.reset(new Histogram(name, &enabled_));
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
    histogram->cells_.ForEach([&](const Histogram::Cell& cell) {
      for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
        merged.buckets[b] += Scrape(cell.buckets[b]);
      }
      merged.count += Scrape(cell.count);
      merged.sum += Scrape(cell.sum);
    });
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
    counter->cells_.ForEach(
        [](auto& cell) { cell.store(0, std::memory_order_relaxed); });
    // Owners keep their cells; restart the counter from 0 by offset.
    std::lock_guard<std::mutex> attached_lock(counter->mu_);
    counter->offset_ = 0;
    for (const std::atomic<uint64_t>* cell : counter->attached_) {
      counter->offset_ -= Scrape(*cell);
    }
  }
  for (const auto& [name, gauge] : gauges_) {
    std::lock_guard<std::mutex> value_lock(gauge->mu_);
    gauge->value_ = 0;
  }
  for (const auto& [name, histogram] : histograms_) {
    histogram->cells_.ForEach([](Histogram::Cell& cell) {
      for (auto& bucket : cell.buckets) {
        bucket.store(0, std::memory_order_relaxed);
      }
      cell.count.store(0, std::memory_order_relaxed);
      cell.sum.store(0, std::memory_order_relaxed);
    });
  }
}

}  // namespace reach
