#include "plain/gripp.h"

#include <algorithm>

#include "traversal/guided_search.h"

namespace reach {

void Gripp::Build(const Digraph& graph) {
  BuildStatsScope build(&build_stats_);
  BuildPhaseTimer timer(&build_stats_.phases, "instance_tree");
  ResetProbe();
  num_vertices_ = graph.NumVertices();
  tree_.assign(num_vertices_, {});
  hop_order_.clear();

  std::vector<bool> visited(num_vertices_, false);
  struct Frame {
    VertexId vertex;
    size_t next_child;
  };
  std::vector<Frame> stack;
  uint32_t counter = 0;

  // One DFS per unvisited vertex unrolls the (possibly cyclic) graph into
  // the instance tree: first visits expand, re-visits become hop leaves.
  for (VertexId root = 0; root < num_vertices_; ++root) {
    if (visited[root]) continue;
    visited[root] = true;
    tree_[root].pre = ++counter;
    stack.push_back({root, 0});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const VertexId v = frame.vertex;
      auto children = graph.OutNeighbors(v);
      if (frame.next_child < children.size()) {
        const VertexId w = children[frame.next_child++];
        if (!visited[w]) {
          visited[w] = true;
          tree_[w].pre = ++counter;
          stack.push_back({w, 0});
        } else {
          hop_order_.push_back({++counter, w});
        }
      } else {
        tree_[v].post = ++counter;
        stack.pop_back();
      }
    }
  }
  // DFS emits hop instances in increasing pre already; keep it explicit.
  std::sort(hop_order_.begin(), hop_order_.end(),
            [](const HopInstance& a, const HopInstance& b) {
              return a.pre < b.pre;
            });

  // Per-vertex sorted instance positions (tree pre + hop pres).
  instance_offsets_.assign(num_vertices_ + 1, 0);
  for (VertexId v = 0; v < num_vertices_; ++v) {
    instance_offsets_[v + 1] = 1;  // tree instance
  }
  for (const HopInstance& hop : hop_order_) {
    ++instance_offsets_[hop.vertex + 1];
  }
  for (VertexId v = 0; v < num_vertices_; ++v) {
    instance_offsets_[v + 1] += instance_offsets_[v];
  }
  instance_pres_.assign(instance_offsets_[num_vertices_], 0);
  std::vector<size_t> cursor(instance_offsets_.begin(),
                             instance_offsets_.end() - 1);
  for (VertexId v = 0; v < num_vertices_; ++v) {
    instance_pres_[cursor[v]++] = tree_[v].pre;
  }
  for (const HopInstance& hop : hop_order_) {
    instance_pres_[cursor[hop.vertex]++] = hop.pre;
  }
  for (VertexId v = 0; v < num_vertices_; ++v) {
    std::sort(instance_pres_.begin() + instance_offsets_[v],
              instance_pres_.begin() + instance_offsets_[v + 1]);
  }
  build_stats_.size_bytes = IndexSizeBytes();
}

bool Gripp::QueryInSlot(VertexId s, VertexId t, size_t slot) const {
  SearchWorkspace& ws = Workspace(slot);
  const uint32_t* t_begin = instance_pres_.data() + instance_offsets_[t];
  const uint32_t* t_end = instance_pres_.data() + instance_offsets_[t + 1];
  // Any instance of t strictly inside v's tree interval (pre, post)?
  const auto verdict = [&](VertexId v) {
    const uint32_t* it = std::upper_bound(t_begin, t_end, tree_[v].pre);
    return it != t_end && *it < tree_[v].post ? 1 : 0;
  };
  // The hop instances inside v's interval lead into their vertices' trees.
  const auto hops = [&](VertexId v, auto&& visit) {
    auto it = std::lower_bound(
        hop_order_.begin(), hop_order_.end(), tree_[v].pre,
        [](const HopInstance& h, uint32_t pre) { return h.pre < pre; });
    for (; it != hop_order_.end() && it->pre < tree_[v].post; ++it) {
      if (visit(it->vertex)) return true;
    }
    return false;
  };
  return GuidedQuery(s, t, ws, num_vertices_, verdict,
                     [&] { return GuidedBfs(s, t, ws, hops, verdict); });
}

size_t Gripp::IndexSizeBytes() const {
  return tree_.size() * sizeof(TreeInstance) +
         hop_order_.size() * sizeof(HopInstance) +
         instance_offsets_.size() * sizeof(size_t) +
         instance_pres_.size() * sizeof(uint32_t);
}

}  // namespace reach
