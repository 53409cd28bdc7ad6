#include "plain/pruned_two_hop.h"

#include <algorithm>
#include <numeric>

#include "graph/condensation.h"
#include "graph/rng.h"

namespace reach {

// One pruned BFS from `start`. A plain path has no labels to add, so
// every state carries `entry`, and a vertex is visited once per sweep.
class PlainTwoHopTraits::Sweeper {
 public:
  explicit Sweeper(size_t n) : mark_(n, 0) {}

  template <typename Adjacency, typename Prune, typename Emit>
  void Run(VertexId start, Entry entry, Adjacency&& adjacency, Prune&& prune,
           Emit&& emit) {
    if (++epoch_ == 0) {  // wrapped: clear once per 2^32 sweeps
      std::fill(mark_.begin(), mark_.end(), 0);
      epoch_ = 1;
    }
    queue_.clear();
    queue_.push_back(start);
    mark_[start] = epoch_;
    for (size_t head = 0; head < queue_.size(); ++head) {
      adjacency(queue_[head], [&](VertexId w) {
        if (mark_[w] == epoch_) return false;
        mark_[w] = epoch_;
        if (prune(w, entry)) return false;
        emit(w, entry);  // a build's ranks arrive ascending: lists stay sorted
        queue_.push_back(w);
        return false;
      });
    }
  }

 private:
  std::vector<uint32_t> mark_;  // epoch-stamped visited marks
  uint32_t epoch_ = 0;
  std::vector<VertexId> queue_;
};

std::vector<VertexId> PrunedTwoHop::ComputeOrder(const Digraph& graph) const {
  if (order_ == VertexOrder::kDegree) return DegreeOrder(graph);
  const size_t n = graph.NumVertices();
  std::vector<VertexId> by_rank(n);
  std::iota(by_rank.begin(), by_rank.end(), 0);
  switch (order_) {
    case VertexOrder::kDegree:
      break;
    case VertexOrder::kReverseDegree:
      std::stable_sort(by_rank.begin(), by_rank.end(),
                       [&](VertexId a, VertexId b) {
                         return graph.Degree(a) < graph.Degree(b);
                       });
      break;
    case VertexOrder::kTopological: {
      // Topological position of each vertex's SCC (Tarjan ids are reverse
      // topological, so higher component id = earlier in topo order);
      // degree breaks ties inside an SCC and between parallel components.
      Condensation cond = Condense(graph);
      std::stable_sort(
          by_rank.begin(), by_rank.end(), [&](VertexId a, VertexId b) {
            const VertexId ca = cond.DagVertex(a), cb = cond.DagVertex(b);
            if (ca != cb) return ca > cb;
            return graph.Degree(a) > graph.Degree(b);
          });
      break;
    }
    case VertexOrder::kRandom: {
      Xoshiro256ss rng(seed_);
      for (size_t i = n; i > 1; --i) {
        std::swap(by_rank[i - 1], by_rank[rng.NextBounded(i)]);
      }
      break;
    }
  }
  return by_rank;
}

void PrunedTwoHop::Build(const Digraph& graph) {
  core_.Build(graph, &build_stats_,
              [this](const Digraph& g) { return ComputeOrder(g); });
}

bool PrunedTwoHop::Query(VertexId s, VertexId t) const {
  return core_.Answer(s, t, {}, 0);
}

bool PrunedTwoHop::QueryInSlot(VertexId s, VertexId t, size_t slot) const {
  return core_.Answer(s, t, {}, slot);
}

UpdateResult PrunedTwoHop::ApplyUpdate(const UpdateBatch& batch) {
  return core_.ApplyUpdate(batch);
}

bool PrunedTwoHop::RebuildFromUpdates() {
  // Rebuilding over the live edge set folds the delta overlay in, drops
  // the tombstones, and resets damage — the payoff step of the
  // rebuild-threshold policy.
  const Digraph* live = core_.MaterializeLiveGraph();
  if (live == nullptr) return false;
  Build(*live);
  return true;
}

std::string PrunedTwoHop::Name() const {
  switch (order_) {
    case VertexOrder::kDegree:
      return "pll";  // == DL; degree-order TOL
    case VertexOrder::kTopological:
      return "tfl";
    case VertexOrder::kReverseDegree:
      return "tol(revdeg)";
    case VertexOrder::kRandom:
      return "tol(random)";
  }
  return "2hop";
}

}  // namespace reach
