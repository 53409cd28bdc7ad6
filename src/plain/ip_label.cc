#include "plain/ip_label.h"

#include <algorithm>
#include <numeric>

#include "graph/rng.h"
#include "graph/topological.h"
#include "traversal/guided_search.h"

namespace reach {

namespace {

// Whether the k-min summary `sub` is consistent with "underlying set of
// sub ⊆ underlying set of super", given budget k.
bool KMinConsistentSubset(std::span<const uint32_t> sub,
                          std::span<const uint32_t> super, size_t k) {
  const bool super_complete = super.size() < k;  // super holds its full set
  const uint32_t super_max = super.empty() ? 0 : super.back();
  for (uint32_t x : sub) {
    if (super_complete || x < super_max) {
      if (!std::binary_search(super.begin(), super.end(), x)) return false;
    }
  }
  return true;
}

}  // namespace

void IpLabel::Build(const Digraph& graph) {
  ResetProbe();
  graph_ = &graph;
  const size_t n = graph.NumVertices();

  // Random permutation pi over vertices.
  std::vector<uint32_t> pi(n);
  std::iota(pi.begin(), pi.end(), 0);
  Xoshiro256ss rng(seed_);
  for (size_t i = n; i > 1; --i) std::swap(pi[i - 1], pi[rng.NextBounded(i)]);

  auto order = TopologicalOrder(graph);
  // k-min over Out: reverse topological merge of successors.
  std::vector<std::vector<uint32_t>> out_sets(n), in_sets(n);
  std::vector<uint32_t> scratch;
  auto merge_kmin = [&](std::vector<uint32_t>& dest, uint32_t own,
                        auto neighbors, const auto& sets) {
    scratch.clear();
    scratch.push_back(own);
    for (VertexId w : neighbors) {
      scratch.insert(scratch.end(), sets[w].begin(), sets[w].end());
    }
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    if (scratch.size() > k_) scratch.resize(k_);
    dest = scratch;
  };
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    merge_kmin(out_sets[*it], pi[*it], graph.OutNeighbors(*it), out_sets);
  }
  for (VertexId v : *order) {
    merge_kmin(in_sets[v], pi[v], graph.InNeighbors(v), in_sets);
  }

  out_offsets_.assign(n + 1, 0);
  in_offsets_.assign(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    out_offsets_[v + 1] = out_offsets_[v] + out_sets[v].size();
    in_offsets_[v + 1] = in_offsets_[v] + in_sets[v].size();
  }
  out_min_.clear();
  in_min_.clear();
  out_min_.reserve(out_offsets_[n]);
  in_min_.reserve(in_offsets_[n]);
  for (VertexId v = 0; v < n; ++v) {
    out_min_.insert(out_min_.end(), out_sets[v].begin(), out_sets[v].end());
    in_min_.insert(in_min_.end(), in_sets[v].begin(), in_sets[v].end());
  }

  fwd_level_ = ForwardLevels(graph);
  bwd_level_ = BackwardLevels(graph);
}

bool IpLabel::MaybeReachable(VertexId s, VertexId t) const {
  if (s == t) return true;
  if (fwd_level_[s] >= fwd_level_[t]) return false;
  if (bwd_level_[s] <= bwd_level_[t]) return false;
  // s -> t requires Out(t) ⊆ Out(s) and In(s) ⊆ In(t).
  if (!KMinConsistentSubset(OutMin(t), OutMin(s), k_)) return false;
  if (!KMinConsistentSubset(InMin(s), InMin(t), k_)) return false;
  return true;
}

bool IpLabel::QueryInSlot(VertexId s, VertexId t, size_t slot) const {
  SearchWorkspace& ws = Workspace(slot);
  const auto verdict = [&](VertexId v) {
    return MaybeReachable(v, t) ? 0 : -1;
  };
  return GuidedQuery(s, t, ws, graph_->NumVertices(), verdict, [&] {
    return GuidedDfs(s, t, ws, OutArcs(*graph_), verdict);
  });
}

size_t IpLabel::IndexSizeBytes() const {
  return (out_min_.size() + in_min_.size()) * sizeof(uint32_t) +
         (out_offsets_.size() + in_offsets_.size()) * sizeof(size_t) +
         (fwd_level_.size() + bwd_level_.size()) * sizeof(uint32_t);
}

}  // namespace reach
