#include "plain/pruned_two_hop.h"

#include <algorithm>
#include <numeric>

#include "graph/condensation.h"
#include "graph/rng.h"

namespace reach {

// One pruned BFS: hop = by_rank[r] adds itself to Lin of everything it
// reaches (forward) or to Lout of everything reaching it (backward),
// pruned where the labels built so far already answer Qr(hop, w) (resp.
// Qr(w, hop)) and at higher-ranked vertices. A vertex is evaluated once
// per sweep, so the plain oracle never sees the sweep's own entries.
//
// The oracle is the common-hop case of `LabelQuery` alone: at every
// evaluation both of its covered cases are false. Take the forward sweep
// of rank r and an evaluated w, so rank(w) > r (lower ranks are skipped).
//  * Covered(Lin(w), r): a rank-r entry enters Lin(w) only through this
//    sweep's emit(w, r), which follows w's one evaluation.
//  * Covered(Lout(hop), rank(w)): a backward sweep of rank r' labels only
//    vertices of rank > r', so Lout(hop) holds ranks < r; and rank(w) > r.
// The backward sweep is the mirror image: Lin(hop) holds ranks < r, and
// r enters Lout(w) only after w is evaluated.
class PlainTwoHopTraits::Sweeper {
 public:
  explicit Sweeper(size_t n) : mark_(n, 0) {}

  template <typename Emit>
  void Run(const TwoHopCore<PlainTwoHopTraits>& core, uint32_t r,
           bool forward, Emit&& emit) {
    const VertexId hop = core.ByRank(r);
    ++epoch_;
    queue_.clear();
    queue_.push_back(hop);
    mark_[hop] = epoch_;
    for (size_t head = 0; head < queue_.size(); ++head) {
      const auto visit = [&](VertexId w) {
        if (mark_[w] == epoch_ || core.Rank(w) <= r) return;
        mark_[w] = epoch_;
        ++evaluations_;
        if (forward ? core.LabelIntersect(hop, w, {})
                    : core.LabelIntersect(w, hop, {})) {
          return;  // prune: already covered
        }
        emit(w, r);  // ranks arrive ascending: lists stay sorted
        queue_.push_back(w);
      };
      const VertexId x = queue_[head];
      if (forward) {
        for (VertexId w : core.graph().OutNeighbors(x)) visit(w);
      } else {
        for (VertexId w : core.graph().InNeighbors(x)) visit(w);
      }
    }
  }

  /// Oracle evaluations over every `Run` so far: the build price.
  uint64_t Evaluations() const { return evaluations_; }

 private:
  std::vector<uint32_t> mark_;  // epoch-stamped visited marks
  uint32_t epoch_ = 0;
  std::vector<VertexId> queue_;
  uint64_t evaluations_ = 0;
};

void PlainTwoHopTraits::PropagateInsert(TwoHopCore<PlainTwoHopTraits>& core,
                                        VertexId s, VertexId t) {
  // Any pair newly connected by (s, t) decomposes into x -> s (old paths)
  // and t -> y (old paths); the old index answers x -> s with some hop
  // h ∈ Lout(x) ∩ (Lin(s) ∪ {s}). Propagating every such h through the
  // new edge to all of Reach(t) restores the invariant: h lands in Lin(y),
  // so Qr(x, y) finds it. One shared sweep computes Reach(t); each hop is
  // then added to the Lin of every vertex on it (one unpruned BFS per hop,
  // without re-traversing the edges). No pruning beyond already-present
  // labels: label minimality is traded for correctness (class comment).
  std::vector<uint32_t> hops = core.InEntries(s);
  hops.push_back(core.Rank(s));
  const std::vector<VertexId>& reach = core.ReachableInSuperset(t);
  for (uint32_t h : hops) {
    const VertexId hop = core.ByRank(h);
    for (VertexId x : reach) {
      if (x != hop && !core.InCovered(x, h, {})) core.AddDeltaIn(x, h);
    }
  }
}

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
