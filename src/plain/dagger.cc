#include "plain/dagger.h"

#include <algorithm>

#include "graph/condensation.h"
#include "graph/rng.h"
#include "plain/interval_labeling.h"
#include "traversal/guided_search.h"

namespace reach {

auto Dagger::LiveOut() const {
  return [this](VertexId v, auto&& visit) {
    const std::vector<VertexId>* tomb =
        tomb_out_.empty() || tomb_out_[v].empty() ? nullptr : &tomb_out_[v];
    const auto visit_live = [&](VertexId w) {
      return (tomb == nullptr ||
              !std::binary_search(tomb->begin(), tomb->end(), w)) &&
             visit(w);
    };
    if (OutArcs(*graph_)(v, visit_live)) return true;
    if (extra_out_.empty()) return false;
    for (VertexId w : extra_out_[v]) {
      if (visit_live(w)) return true;
    }
    return false;
  };
}

template <typename Fn>
void Dagger::ForEachInSuperset(VertexId v, Fn&& fn) const {
  for (VertexId w : graph_->InNeighbors(v)) fn(w);
  if (!extra_in_.empty()) {
    for (VertexId w : extra_in_[v]) fn(w);
  }
}

void Dagger::Build(const Digraph& graph) {
  BuildStatsScope build(&build_stats_);
  BuildPhaseTimer timer(&build_stats_.phases, "label_columns");
  ResetProbe();
  graph_ = &graph;
  extra_out_.clear();
  extra_in_.clear();
  tomb_out_.clear();
  tomb_in_.clear();
  damage_ = 0;
  const size_t n = graph.NumVertices();
  low_.assign(n * k_, 0);
  high_.assign(n * k_, 0);

  // GRAIL-style labels on the condensation, shared by SCC members. On a
  // DAG, a vertex's own post rank IS the max over its reachable set.
  const Condensation cond = Condense(graph);
  SplitMix64 seeds(seed_);
  for (size_t i = 0; i < k_; ++i) {
    const IntervalForest forest = BuildIntervalForest(cond.dag, seeds.Next());
    const std::vector<uint32_t> low = ComputeReachableLow(cond.dag, forest);
    for (VertexId v = 0; v < n; ++v) {
      const VertexId c = cond.DagVertex(v);
      low_[v * k_ + i] = low[c];
      high_[v * k_ + i] = forest.post[c];
    }
  }
  build_stats_.size_bytes = IndexSizeBytes();
}

bool Dagger::MaybeReachable(VertexId s, VertexId t) const {
  if (s == t) return true;
  for (size_t i = 0; i < k_; ++i) {
    if (low_[s * k_ + i] > low_[t * k_ + i] ||
        high_[t * k_ + i] > high_[s * k_ + i]) {
      return false;
    }
  }
  return true;
}

bool Dagger::QueryInSlot(VertexId s, VertexId t, size_t slot) const {
  SearchWorkspace& ws = Workspace(slot);
  const auto verdict = [&](VertexId v) {
    return MaybeReachable(v, t) ? 0 : -1;
  };
  return GuidedQuery(s, t, ws, graph_->NumVertices(), verdict, [&] {
    return GuidedDfs(s, t, ws, LiveOut(), verdict);
  });
}

UpdateResult Dagger::ApplyUpdate(const UpdateBatch& batch) {
  if (graph_ == nullptr) {
    return UpdateResult::Rejected("no live graph: Build() first");
  }
  const VertexId n = static_cast<VertexId>(graph_->NumVertices());
  for (const EdgeUpdate& update : batch) {
    if (update.source >= n || update.target >= n) {
      return UpdateResult::Rejected("endpoint out of range");
    }
  }
  size_t applied = 0;
  size_t ignored = 0;
  for (const EdgeUpdate& update : batch) {
    const bool changed = update.IsInsert()
                             ? ApplyInsert(update.source, update.target)
                             : ApplyDelete(update.source, update.target);
    if (changed) {
      ++applied;
    } else {
      ++ignored;
    }
  }
  return UpdateResult::Applied(applied, ignored, damage_, staleness_budget_);
}

bool Dagger::IsTombstoned(VertexId u, VertexId v) const {
  return !tomb_out_.empty() &&
         std::binary_search(tomb_out_[u].begin(), tomb_out_[u].end(), v);
}

bool Dagger::ApplyDelete(VertexId s, VertexId t) {
  const bool in_base = graph_->HasEdge(s, t);
  const bool in_extra =
      !extra_out_.empty() &&
      std::find(extra_out_[s].begin(), extra_out_[s].end(), t) !=
          extra_out_[s].end();
  if (!in_base && !in_extra) return false;  // never existed: no-op
  if (IsTombstoned(s, t)) return false;     // already deleted: no-op
  if (tomb_out_.empty()) {
    tomb_out_.resize(graph_->NumVertices());
    tomb_in_.resize(graph_->NumVertices());
  }
  auto it = std::lower_bound(tomb_out_[s].begin(), tomb_out_[s].end(), t);
  tomb_out_[s].insert(it, t);
  it = std::lower_bound(tomb_in_[t].begin(), tomb_in_[t].end(), s);
  tomb_in_[t].insert(it, s);
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
  delete_ws_.Prepare(graph_->NumVertices());
  // An overrun (0) counts as damage.
  return GuidedDfs(
             u, v, delete_ws_, LiveOut(),
             [&](VertexId w) { return MaybeReachable(w, v) ? 0 : -1; },
             kLocalSearchBudget) > 0;
}

bool Dagger::RebuildFromUpdates() {
  if (graph_ == nullptr) return false;
  std::vector<Edge> edges = graph_->Edges();
  if (!extra_out_.empty()) {
    for (VertexId v = 0; v < extra_out_.size(); ++v) {
      for (VertexId w : extra_out_[v]) edges.push_back({v, w});
    }
  }
  if (!tomb_out_.empty()) {
    std::erase_if(edges, [&](const Edge& e) {
      return std::binary_search(tomb_out_[e.source].begin(),
                                tomb_out_[e.source].end(), e.target);
    });
  }
  owned_graph_ = Digraph::FromEdges(
      static_cast<VertexId>(graph_->NumVertices()), std::move(edges));
  Build(owned_graph_);  // re-tightens every interval and resets damage
  return true;
}

bool Dagger::ApplyInsert(VertexId s, VertexId t) {
  if (s == t) return false;
  if (IsTombstoned(s, t)) {
    // Resurrection: the widened bounds from the edge's first life are
    // still valid over-approximations, so dropping the tombstone is the
    // whole update.
    auto it = std::lower_bound(tomb_out_[s].begin(), tomb_out_[s].end(), t);
    tomb_out_[s].erase(it);
    it = std::lower_bound(tomb_in_[t].begin(), tomb_in_[t].end(), s);
    tomb_in_[t].erase(it);
    return true;
  }
  if (graph_->HasEdge(s, t)) return false;
  if (extra_out_.empty()) {
    extra_out_.resize(graph_->NumVertices());
    extra_in_.resize(graph_->NumVertices());
  }
  if (std::find(extra_out_[s].begin(), extra_out_[s].end(), t) !=
      extra_out_[s].end()) {
    return false;
  }
  extra_out_[s].push_back(t);
  extra_in_[t].push_back(s);

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
  auto widen = [&](VertexId x, VertexId source) {
    bool changed = false;
    for (size_t i = 0; i < k_; ++i) {
      if (low_[source * k_ + i] < low_[x * k_ + i]) {
        low_[x * k_ + i] = low_[source * k_ + i];
        changed = true;
      }
      if (high_[source * k_ + i] > high_[x * k_ + i]) {
        high_[x * k_ + i] = high_[source * k_ + i];
        changed = true;
      }
    }
    return changed;
  };
  std::vector<VertexId> queue;
  if (widen(s, t)) queue.push_back(s);
  for (size_t head = 0; head < queue.size(); ++head) {
    const VertexId v = queue[head];
    ForEachInSuperset(v, [&](VertexId w) {
      if (widen(w, v)) queue.push_back(w);
    });
  }
  return true;
}

size_t Dagger::IndexSizeBytes() const {
  return (low_.size() + high_.size()) * sizeof(uint32_t);
}

}  // namespace reach
