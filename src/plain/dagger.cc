#include "plain/dagger.h"

#include <algorithm>
#include <span>
#include <vector>

#include "graph/condensation.h"
#include "graph/rng.h"
#include "plain/interval_labeling.h"
#include "traversal/guided_search.h"

namespace reach {

void Dagger::Build(const Digraph& graph) {
  BuildStatsScope build(&build_stats_);
  BuildPhaseTimer timer(&build_stats_.phases, "label_columns");
  ResetProbe();
  overlay_.Reset(&graph);
  damage_ = 0;
  const size_t n = graph.NumVertices();
  bounds_.Clear();

  // GRAIL-style labels on the condensation, shared by SCC members. On a
  // DAG, a vertex's own post rank IS the max over its reachable set.
  const Condensation cond = Condense(graph);
  const size_t components = cond.dag.NumVertices();
  std::vector<Interval> by_component(components * k_);
  SplitMix64 seeds(seed_);
  for (size_t i = 0; i < k_; ++i) {
    const IntervalForest forest = BuildIntervalForest(cond.dag, seeds.Next());
    const std::vector<uint32_t> low = ComputeReachableLow(cond.dag, forest);
    for (VertexId c = 0; c < components; ++c) {
      by_component[c * k_ + i] = {low[c], forest.post[c]};
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    bounds_.Append(v, std::span(by_component).subspan(
                          cond.DagVertex(v) * k_, k_));
  }
  build_stats_.size_bytes = IndexSizeBytes();
}

bool Dagger::Contains(std::span<const Interval> from,
                      std::span<const Interval> to) {
  for (size_t i = 0; i < from.size(); ++i) {
    if (from[i].low > to[i].low || to[i].high > from[i].high) return false;
  }
  return true;
}

bool Dagger::MaybeReachable(VertexId s, VertexId t) const {
  return s == t || Contains(bounds_[s], bounds_[t]);
}

auto Dagger::VerdictToward(VertexId t) const {
  return [this, to = bounds_[t]](VertexId v) {
    return Contains(bounds_[v], to) ? 0 : -1;
  };
}

bool Dagger::QueryInSlot(VertexId s, VertexId t, size_t slot) const {
  SearchWorkspace& ws = Workspace(slot);
  const auto verdict = VerdictToward(t);
  return GuidedQuery(s, t, ws, overlay_.NumVertices(), verdict, [&] {
    return GuidedDfs(s, t, ws, overlay_.LiveOut(), verdict);
  });
}

UpdateResult Dagger::ApplyUpdate(const UpdateBatch& batch) {
  return ApplyUpdateBatch(
      batch, overlay_.base(), kAcceptInRange,
      [this](const EdgeUpdate& update) {
        return update.IsInsert() ? ApplyInsert(update.source, update.target)
                                 : ApplyDelete(update.source, update.target);
      },
      damage_, staleness_budget_);
}

bool Dagger::ApplyDelete(VertexId s, VertexId t) {
  // Absent or already deleted: a no-op.
  if (!overlay_.Delete(s, t)) return false;
  // The bounds need no repair: reachable sets only shrink, so every
  // interval stays a valid over-approximation and the filter keeps its
  // no-false-negative guarantee; the guided DFS already skips the
  // tombstone, so positives stay exact. What decays is filter precision,
  // tracked by the damage counter — except for locally redundant deletes
  // (u still reaches v, e.g. an SCC that did not split), where the
  // reachability relation is provably unchanged.
  if (s != t && !LocallyRedundant(s, t)) ++damage_;
  return true;
}

bool Dagger::LocallyRedundant(VertexId u, VertexId v) {
  delete_ws_->Prepare(overlay_.NumVertices());
  // An overrun (0) counts as damage.
  return GuidedDfs(u, v, *delete_ws_, overlay_.LiveOut(), VerdictToward(v),
                   kLocalSearchBudget) > 0;
}

bool Dagger::RebuildFromUpdates() {
  if (overlay_.base() == nullptr) return false;
  Build(overlay_.Materialize());  // re-tightens every interval, resets damage
  return true;
}

bool Dagger::ApplyInsert(VertexId s, VertexId t) {
  if (s == t) return false;
  switch (overlay_.Insert(s, t)) {
    case ArcInsert::kNoOp:
      return false;
    case ArcInsert::kResurrected:
      // The widened bounds from the edge's first life are still valid
      // over-approximations, so dropping the tombstone is the whole update.
      return true;
    case ArcInsert::kAdded:
      break;
  }

  // Monotone worklist: everything reaching s widens its bounds by t's.
  // Re-enqueue on every change so cascades through new cycles converge;
  // each vertex re-enters only while its k (low, high) pairs strictly
  // widen, so termination is bounded. The sweep runs over the SUPERSET
  // in-adjacency, tombstones ignored: the bounds must stay valid for
  // every edge ever inserted, or a later tombstone resurrection (which
  // only drops the tombstone, widening nothing) would leave vertices
  // upstream of the once-dead edge too tight — a filter false negative
  // the guided DFS turns into a wrong exact "no". Widening extra
  // vertices merely loosens the filter, which is always sound.
  // A vertex's bounds are written (and their chunk cloned, when a copy
  // shares it) only when they widen. `wider` is a copy of the bounds that
  // widen them, which a write may clone away.
  std::vector<Interval> wider(bounds_[t].begin(), bounds_[t].end());
  auto widen = [&](VertexId x) {
    if (Contains(bounds_[x], wider)) return false;
    const std::span<Interval> to = bounds_.Mutable(x);
    for (size_t i = 0; i < k_; ++i) {
      to[i] = {std::min(to[i].low, wider[i].low),
               std::max(to[i].high, wider[i].high)};
    }
    return true;
  };
  std::vector<VertexId> queue;
  if (widen(s)) queue.push_back(s);
  for (size_t head = 0; head < queue.size(); ++head) {
    const VertexId v = queue[head];
    wider.assign(bounds_[v].begin(), bounds_[v].end());
    overlay_.SupersetIn()(v, [&](VertexId w) {
      if (widen(w)) queue.push_back(w);
      return false;
    });
  }
  return true;
}

size_t Dagger::IndexSizeBytes() const {
  return bounds_.NumItems() * sizeof(Interval);
}

}  // namespace reach
