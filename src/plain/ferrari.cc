#include "plain/ferrari.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "par/dependency_levels.h"
#include "par/parallel_for.h"
#include "par/thread_pool.h"
#include "plain/interval_labeling.h"
#include "traversal/guided_search.h"

namespace reach {

void Ferrari::Build(const Digraph& graph) {
  BuildStatsScope build(&build_stats_);
  ResetProbe();
  graph_ = &graph;
  const size_t n = graph.NumVertices();
  BuildPhaseTimer forest_timer(&build_stats_.phases, "interval_forest");
  const IntervalForest forest = BuildIntervalForest(graph, std::nullopt);
  post_ = forest.post;
  forest_timer.Stop();

  BuildPhaseTimer inherit_timer(&build_stats_.phases, "inherit_budget");
  std::vector<VertexId> by_post(n);
  for (VertexId v = 0; v < n; ++v) by_post[forest.post[v]] = v;

  std::vector<std::vector<Interval>> sets(n);
  // The full per-vertex inheritance step: collect own exact interval plus
  // every successor's finished list, coalesce, and enforce the budget.
  // Depends only on the successors' *final* lists, so it runs per
  // dependency level in parallel with results identical to the serial
  // post-order sweep.
  auto inherit_vertex = [&](VertexId v, std::vector<Interval>& scratch) {
    scratch.clear();
    scratch.push_back({forest.subtree_low[v], forest.post[v], true});
    for (VertexId w : graph.OutNeighbors(v)) {
      assert(forest.post[w] < forest.post[v] && "input must be a DAG");
      scratch.insert(scratch.end(), sets[w].begin(), sets[w].end());
    }
    std::sort(scratch.begin(), scratch.end(),
              [](const Interval& a, const Interval& b) {
                return a.begin < b.begin;
              });
    // Coalesce overlapping/adjacent intervals. A fully contained interval
    // changes nothing; a genuine extension is exact only if both parts are.
    std::vector<Interval>& mine = sets[v];
    mine.clear();
    for (const Interval& interval : scratch) {
      if (!mine.empty() && interval.begin <= mine.back().end + 1) {
        if (interval.end > mine.back().end) {
          mine.back().exact = mine.back().exact && interval.exact;
          mine.back().end = interval.end;
        }
      } else {
        mine.push_back(interval);
      }
    }
    // Enforce the budget: repeatedly merge the adjacent pair with the
    // smallest gap; the merge covers the gap, so it is approximate.
    while (mine.size() > k_) {
      size_t best = 0;
      uint32_t best_gap = std::numeric_limits<uint32_t>::max();
      for (size_t i = 0; i + 1 < mine.size(); ++i) {
        const uint32_t gap = mine[i + 1].begin - mine[i].end;
        if (gap < best_gap) {
          best_gap = gap;
          best = i;
        }
      }
      mine[best].end = mine[best + 1].end;
      mine[best].exact = false;
      mine.erase(mine.begin() + best + 1);
    }
  };

  const size_t threads = ResolveThreads(num_threads_);
  if (threads <= 1) {
    std::vector<Interval> scratch;
    for (uint32_t p = 0; p < n; ++p) inherit_vertex(by_post[p], scratch);
  } else {
    // post[w] < post[v] for every edge v -> w, so ascending post order is
    // dependencies-first for deps = out-neighbors.
    const DependencyLevels levels = ComputeDependencyLevels(
        n, by_post, [&graph](VertexId v, auto&& fn) {
          for (VertexId w : graph.OutNeighbors(v)) fn(w);
        });
    for (const std::vector<VertexId>& bucket : levels.buckets) {
      ParallelForChunked(
          0, bucket.size(),
          [&bucket, &inherit_vertex](size_t chunk_begin, size_t chunk_end) {
            std::vector<Interval> scratch;
            for (size_t i = chunk_begin; i < chunk_end; ++i) {
              inherit_vertex(bucket[i], scratch);
            }
          },
          threads);
    }
  }

  offsets_.assign(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    offsets_[v + 1] = offsets_[v] + sets[v].size();
  }
  intervals_.clear();
  intervals_.reserve(offsets_[n]);
  for (VertexId v = 0; v < n; ++v) {
    intervals_.insert(intervals_.end(), sets[v].begin(), sets[v].end());
  }
  inherit_timer.Stop();
  build_stats_.size_bytes = IndexSizeBytes();
  build_stats_.num_entries = intervals_.size();
}

int Ferrari::Verdict(VertexId v, uint32_t target_post,
                     [[maybe_unused]] QueryProbe& probe) const {
  REACH_PROBE_INC(probe, labels_scanned);
  const Interval* begin = intervals_.data() + offsets_[v];
  const Interval* end = intervals_.data() + offsets_[v + 1];
  const Interval* it = std::upper_bound(
      begin, end, target_post,
      [](uint32_t value, const Interval& i) { return value < i.begin; });
  if (it == begin) return -1;
  --it;
  if (target_post > it->end) return -1;
  return it->exact ? 1 : 0;
}

bool Ferrari::QueryInSlot(VertexId s, VertexId t, size_t slot) const {
  SearchWorkspace& ws = Workspace(slot);
  const auto verdict = [&](VertexId v) {
    return Verdict(v, post_[t], ws.probe());
  };
  return GuidedQuery(s, t, ws, graph_->NumVertices(), verdict, [&] {
    return GuidedDfs(s, t, ws, OutArcs(*graph_), verdict);
  });
}

size_t Ferrari::IndexSizeBytes() const {
  return intervals_.size() * sizeof(Interval) +
         offsets_.size() * sizeof(size_t) + post_.size() * sizeof(uint32_t);
}

double Ferrari::ExactFraction() const {
  if (intervals_.empty()) return 1.0;
  size_t exact = 0;
  for (const Interval& i : intervals_) exact += i.exact ? 1 : 0;
  return static_cast<double>(exact) / static_cast<double>(intervals_.size());
}

}  // namespace reach
