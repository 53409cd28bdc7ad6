#include "core/fastpath_index.h"

#include <cassert>

#include "obs/metrics_registry.h"

namespace reach {

namespace {

// A verdict count has one writer at a time (the query holding the slot):
// a relaxed load plus store, never a read-modify-write.
void Bump(std::atomic<uint64_t>& count) {
  count.store(count.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
}

}  // namespace

template <typename Base>
BasicFastPathIndex<Base>::BasicFastPathIndex(
    std::unique_ptr<ReachabilityIndex> inner, ObservationStack::Options options)
    : inner_(std::move(inner)),
      stack_(std::make_shared<ObservationStack>(options)) {
  assert(inner_ != nullptr);
  inner_dynamic_ = dynamic_cast<DynamicReachabilityIndex*>(inner_.get());
  if constexpr (std::is_same_v<Base, DynamicReachabilityIndex>) {
    assert(inner_dynamic_ != nullptr &&
           "DynamicFastPathIndex requires a dynamic inner index");
  }
  AddCell();  // slot 0 always exists
}

template <typename Base>
BasicFastPathIndex<Base>::~BasicFastPathIndex() {
  for (const Cell& cell : cells_) {
    cell.ForEachCount([](const char* name, const std::atomic<uint64_t>& c) {
      MetricsRegistry::Global().GetCounter(name).Detach(&c);
    });
  }
}

template <typename Base>
void BasicFastPathIndex<Base>::AddCell() const {
  cells_.emplace_back().ForEachCount(
      [](const char* name, const std::atomic<uint64_t>& c) {
        MetricsRegistry::Global().GetCounter(name).Attach(&c);
      });
}

template <typename Base>
void BasicFastPathIndex<Base>::ResetCells() const {
  for (Cell& cell : cells_) {
    cell.baseline = cell.Counts();
    cell.probe.Reset();
  }
}

template <typename Base>
void BasicFastPathIndex<Base>::Build(const Digraph& graph) {
  BuildStatsScope build(&this->build_stats_);
  {
    BuildPhaseTimer timer(&this->build_stats_.phases, "observations");
    auto stack = std::make_shared<ObservationStack>(stack_->options());
    stack->Build(graph);
    stack_ = std::move(stack);
  }
  inner_->Build(graph);
  // Absorb the wrapped build's breakdown so `Stats()` shows the whole
  // pipeline (observations -> inner phases), as SccCondensingIndex does.
  const IndexStats& inner_stats = inner_->Stats();
  this->build_stats_.phases.insert(this->build_stats_.phases.end(),
                                   inner_stats.phases.begin(),
                                   inner_stats.phases.end());
  this->build_stats_.size_bytes = IndexSizeBytes();
  this->build_stats_.num_entries = inner_stats.num_entries;
  // Re-arm: a fresh stack over the new graph makes both verdict
  // directions sound again.
  inserted_ = false;
  deleted_ = false;
  ResetCells();
}

template <typename Base>
size_t BasicFastPathIndex<Base>::PrepareConcurrentQueries(size_t slots) const {
  const size_t granted = inner_->PrepareConcurrentQueries(slots);
  while (cells_.size() < granted) AddCell();
  return granted;
}

template <typename Base>
bool BasicFastPathIndex<Base>::QueryInSlot(VertexId s, VertexId t,
                                           size_t slot) const {
  Cell& cell = cells_[slot];
  [[maybe_unused]] QueryProbe& probe = cell.probe;
  REACH_PROBE_INC(probe, queries);
  REACH_PROBE_ADD(probe, labels_scanned, 1);  // the observation lookup
  int verdict = stack_->Verdict(s, t);
  // After an insert the precomputed orders may order the new edge
  // backwards, so negative verdicts are unsound; positives only ever
  // become "more true" (reachability is monotone under insertion).
  if (verdict < 0 && inserted_) verdict = 0;
  // After a delete the mirror argument applies: reachability only
  // shrinks, so negatives stay sound but a cached positive may now be a
  // stale wrong answer — the dangerous direction.
  if (verdict > 0 && deleted_) verdict = 0;
  if (verdict != 0) {
    if (verdict > 0) {
      Bump(cell.hit_pos);
      REACH_PROBE_INC(probe, positives);
    } else {
      Bump(cell.hit_neg);
      REACH_PROBE_INC(probe, label_rejections);
    }
    return verdict > 0;
  }
  Bump(cell.undecided);
  REACH_PROBE_INC(probe, fallbacks);
  const bool reachable = inner_->QueryInSlot(s, t, slot);
  if (reachable) REACH_PROBE_INC(probe, positives);
  return reachable;
}

template <typename Base>
size_t BasicFastPathIndex<Base>::IndexSizeBytes() const {
  return stack_->SizeBytes() + inner_->IndexSizeBytes();
}

template <typename Base>
QueryProbe BasicFastPathIndex<Base>::Probe() const {
  QueryProbe own;
  for (const Cell& cell : cells_) own.MergeFrom(cell.probe);
  // Same convention as SccCondensingIndex: queries/positives are counted
  // at the wrapper (decided queries never reach the inner index); scan
  // and rejection work is additive across the layers.
  QueryProbe merged = inner_->Probe();
  merged.queries = own.queries;
  merged.positives = own.positives;
  merged.labels_scanned += own.labels_scanned;
  merged.label_rejections += own.label_rejections;
  merged.fallbacks += own.fallbacks;
  return merged;
}

template <typename Base>
void BasicFastPathIndex<Base>::ResetProbe() const {
  ResetCells();
  inner_->ResetProbe();
}

template <typename Base>
UpdateResult BasicFastPathIndex<Base>::ApplyUpdate(const UpdateBatch& batch) {
  assert(inner_dynamic_ != nullptr);
  UpdateResult result = inner_dynamic_->ApplyUpdate(batch);
  if (result.ok()) {
    // Conservative: flag on batch contents, not on `applied` — a no-op
    // update suppresses nothing new worth distinguishing.
    for (const EdgeUpdate& update : batch) {
      if (update.IsInsert()) {
        inserted_ = true;
      } else {
        deleted_ = true;
      }
    }
  }
  return result;
}

template <typename Base>
bool BasicFastPathIndex<Base>::SupportsDeletions() const {
  return inner_dynamic_ != nullptr && inner_dynamic_->SupportsDeletions();
}

template <typename Base>
bool BasicFastPathIndex<Base>::RebuildFromUpdates() {
  if (inner_dynamic_ == nullptr) return false;
  return inner_dynamic_->RebuildFromUpdates();
}

template <typename Base>
std::unique_ptr<DynamicReachabilityIndex> BasicFastPathIndex<Base>::Clone()
    const {
  if constexpr (std::is_same_v<Base, DynamicReachabilityIndex>) {
    std::unique_ptr<DynamicReachabilityIndex> inner = inner_dynamic_->Clone();
    if (inner == nullptr) return nullptr;
    auto copy = std::make_unique<BasicFastPathIndex>(std::move(inner),
                                                     stack_->options());
    copy->stack_ = stack_;
    copy->inserted_ = inserted_;
    copy->deleted_ = deleted_;
    copy->build_stats_ = this->build_stats_;
    return copy;
  } else {
    return nullptr;
  }
}

template <typename Base>
std::unique_ptr<Digraph> BasicFastPathIndex<Base>::LiveGraph() const {
  return inner_dynamic_ == nullptr ? nullptr : inner_dynamic_->LiveGraph();
}

template <typename Base>
RebuildRent BasicFastPathIndex<Base>::Rent() const {
  return inner_dynamic_ == nullptr ? RebuildRent{} : inner_dynamic_->Rent();
}

template <typename Base>
FastPathVerdictStats BasicFastPathIndex<Base>::VerdictStats() const {
  FastPathVerdictStats total;
  for (const Cell& cell : cells_) {
    const FastPathVerdictStats counts = cell.Counts();
    total.hit_pos += counts.hit_pos - cell.baseline.hit_pos;
    total.hit_neg += counts.hit_neg - cell.baseline.hit_neg;
    total.undecided += counts.undecided - cell.baseline.undecided;
  }
  return total;
}

template class BasicFastPathIndex<ReachabilityIndex>;
template class BasicFastPathIndex<DynamicReachabilityIndex>;

}  // namespace reach
