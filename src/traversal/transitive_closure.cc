#include "traversal/transitive_closure.h"

#include <numeric>

#include "graph/condensation.h"
#include "par/dependency_levels.h"
#include "par/parallel_for.h"
#include "par/thread_pool.h"

namespace reach {

void TransitiveClosure::Build(const Digraph& graph) {
  BuildStatsScope build(&build_stats_);
  probes_.Reset();
  num_vertices_ = graph.NumVertices();
  Condensation cond;
  {
    BuildPhaseTimer timer(&build_stats_.phases, "condense");
    cond = Condense(graph);
  }
  component_of_ = cond.scc.component_of;
  const VertexId num_components = cond.scc.num_components;

  component_size_.assign(num_components, 0);
  for (VertexId v = 0; v < num_vertices_; ++v) {
    ++component_size_[component_of_[v]];
  }

  const size_t threads = ResolveThreads(num_threads_);
  BuildPhaseTimer timer(&build_stats_.phases, "closure_sweep");
  // Rows start empty: each is allocated and zeroed by the worker that
  // computes it, so the first touch of the closure's memory is spread over
  // the sweep's workers.
  rows_.assign(num_components, DynamicBitset());
  // Tarjan assigns component ids in reverse topological order, so
  // iterating c = 0, 1, ... visits successors before predecessors;
  // each row is its own bit plus the union of its successors' rows.
  auto compute_row = [this, &cond, num_components](VertexId c) {
    rows_[c] = DynamicBitset(num_components);
    rows_[c].Set(c);
    for (VertexId succ : cond.dag.OutNeighbors(c)) {
      rows_[c].UnionWith(rows_[succ]);
    }
  };
  if (threads <= 1) {
    for (VertexId c = 0; c < num_components; ++c) compute_row(c);
  } else {
    // All rows of a dependency level only read rows of lower levels, so
    // each level is an independent ParallelFor; bitset unions commute, so
    // the result is bit-identical to the serial sweep.
    std::vector<VertexId> order(num_components);
    std::iota(order.begin(), order.end(), VertexId{0});
    const DependencyLevels levels = ComputeDependencyLevels(
        num_components, order, [&cond](VertexId c, auto&& fn) {
          for (VertexId succ : cond.dag.OutNeighbors(c)) fn(succ);
        });
    for (const std::vector<VertexId>& bucket : levels.buckets) {
      ParallelFor(
          0, bucket.size(),
          [&bucket, &compute_row](size_t i) { compute_row(bucket[i]); },
          threads);
    }
  }
  build_stats_.size_bytes = IndexSizeBytes();
  build_stats_.num_entries = rows_.size();
}

bool TransitiveClosure::Query(VertexId s, VertexId t) const {
  return QueryInSlot(s, t, 0);
}

bool TransitiveClosure::QueryInSlot(VertexId s, VertexId t,
                                    size_t slot) const {
  [[maybe_unused]] QueryProbe& probe = probes_.Slot(slot);
  REACH_PROBE_INC(probe, queries);
  REACH_PROBE_INC(probe, labels_scanned);  // one closure-row bit test
  const bool reachable = rows_[component_of_[s]].Test(component_of_[t]);
  if (reachable) REACH_PROBE_INC(probe, positives);
  return reachable;
}

size_t TransitiveClosure::IndexSizeBytes() const {
  size_t bytes = component_of_.size() * sizeof(VertexId);
  for (const DynamicBitset& row : rows_) bytes += row.MemoryBytes();
  return bytes;
}

std::vector<VertexId> TransitiveClosure::ReachableSet(VertexId v) const {
  const DynamicBitset& row = rows_[component_of_[v]];
  std::vector<VertexId> out;
  for (VertexId w = 0; w < num_vertices_; ++w) {
    if (row.Test(component_of_[w])) out.push_back(w);
  }
  return out;
}

size_t TransitiveClosure::NumReachablePairs() const {
  size_t pairs = 0;
  // Sum over component pairs (c, d) with d reachable from c of
  // |c| * |d| original-vertex pairs.
  for (VertexId c = 0; c < rows_.size(); ++c) {
    size_t reachable_vertices = 0;
    for (VertexId d = 0; d < rows_.size(); ++d) {
      if (rows_[c].Test(d)) reachable_vertices += component_size_[d];
    }
    pairs += component_size_[c] * reachable_vertices;
  }
  return pairs;
}

}  // namespace reach
