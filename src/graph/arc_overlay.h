#ifndef REACH_GRAPH_ARC_OVERLAY_H_
#define REACH_GRAPH_ARC_OVERLAY_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "graph/labeled_digraph.h"
#include "graph/types.h"

namespace reach {

/// What `ArcOverlay::Insert` did with an arc.
enum class ArcInsert : uint8_t {
  kNoOp,         // the arc is already live
  kResurrected,  // a tombstoned arc is live again
  kAdded,        // a new arc joined the overlay
};

/// The one edge-update overlay of the dynamic indexes (TOL, DAGGER, DBL,
/// DLCR) and the serve drain: an immutable base graph, plus the arcs
/// inserted since it was built, minus the arcs deleted since. `Graph` is
/// `Digraph` or `LabeledDigraph`; `GraphArcs<Graph>` gives the arc type.
///
/// Two views of it matter. The *live* graph is what the updates left:
/// base and inserted arcs, tombstones skipped. The *superset* graph G+
/// keeps every arc that ever existed, tombstones ignored. A deleted arc
/// is tombstoned, never erased, even when it was inserted after the
/// build: an index whose labels only ever widen describes G+, and a
/// later re-insert is then a tombstone drop (`kResurrected`) that needs
/// no label work.
///
/// Inserted arcs are kept per vertex in insertion order, both ways;
/// tombstones per source vertex, sorted. All three are sized on first
/// use, so an overlay that never sees an update costs nothing per vertex.
/// The views are `for_each(v, visit)` callables in the early-exit form of
/// traversal/guided_search.h: `visit(arc)` returns true to stop, and the
/// callable returns whether it stopped.
template <typename Graph>
class ArcOverlay {
 public:
  using Arcs = GraphArcs<Graph>;
  using Arc = typename Arcs::Arc;

  /// Rebases onto `base` (nullptr = no live graph) and drops every
  /// inserted arc and tombstone.
  void Reset(const Graph* base) {
    base_ = base;
    extra_out_.clear();
    extra_in_.clear();
    tomb_out_.clear();
    num_arcs_ = 0;
  }

  const Graph* base() const { return base_; }
  size_t NumVertices() const { return base_->NumVertices(); }

  /// Makes `s -> arc` live: drops its tombstone, or adds it when neither
  /// the base nor an earlier insert has it.
  ArcInsert Insert(VertexId s, const Arc& arc) {
    if (IsTombstoned(s, arc)) {
      tomb_out_[s].erase(
          std::lower_bound(tomb_out_[s].begin(), tomb_out_[s].end(), arc));
      --num_arcs_;
      return ArcInsert::kResurrected;
    }
    if (Contains(s, arc)) return ArcInsert::kNoOp;
    if (extra_out_.empty()) {
      extra_out_.resize(NumVertices());
      extra_in_.resize(NumVertices());
    }
    extra_out_[s].push_back(arc);
    extra_in_[Arcs::Head(arc)].push_back(Arcs::Reverse(s, arc));
    num_arcs_ += 2;
    return ArcInsert::kAdded;
  }

  /// Tombstones `s -> arc`; false when it is absent or already deleted.
  bool Delete(VertexId s, const Arc& arc) {
    if (!Contains(s, arc) || IsTombstoned(s, arc)) return false;
    if (tomb_out_.empty()) tomb_out_.resize(NumVertices());
    tomb_out_[s].insert(
        std::lower_bound(tomb_out_[s].begin(), tomb_out_[s].end(), arc), arc);
    ++num_arcs_;
    return true;
  }

  /// Live out-arcs: base and inserted, tombstones skipped.
  auto LiveOut() const {
    return [this](VertexId v, auto&& visit) {
      const std::vector<Arc>* dead =
          tomb_out_.empty() || tomb_out_[v].empty() ? nullptr : &tomb_out_[v];
      const auto visit_live = [&](const Arc& arc) {
        return (dead == nullptr ||
                !std::binary_search(dead->begin(), dead->end(), arc)) &&
               visit(arc);
      };
      return VisitArcs(Arcs::Out(*base_, v), extra_out_, v, visit_live);
    };
  }

  /// Superset out-arcs: base and inserted, tombstones ignored.
  auto SupersetOut() const {
    return [this](VertexId v, auto&& visit) {
      return VisitArcs(Arcs::Out(*base_, v), extra_out_, v, visit);
    };
  }

  /// Superset in-arcs (`Arcs::Reverse` form): base and inserted,
  /// tombstones ignored.
  auto SupersetIn() const {
    return [this](VertexId v, auto&& visit) {
      return VisitArcs(Arcs::In(*base_, v), extra_in_, v, visit);
    };
  }

  /// The live graph as a new graph.
  Graph LiveGraph() const {
    std::vector<typename Arcs::Edge> edges;
    edges.reserve(base_->NumEdges());
    for (VertexId v = 0; v < NumVertices(); ++v) {
      LiveOut()(v, [&](const Arc& arc) {
        edges.push_back(Arcs::MakeEdge(v, arc));
        return false;
      });
    }
    return Arcs::MakeGraph(*base_, std::move(edges));
  }

  /// Bytes of the inserted arcs (each kept both ways) and tombstones
  /// themselves, in O(1): not the base graph, and not the per-vertex list
  /// headers, a fixed cost once the first update sized them.
  size_t ArcBytes() const { return num_arcs_ * sizeof(Arc); }

  /// Folds the updates into the base: the live graph becomes a graph the
  /// overlay owns, and the overlay is rebased onto it, empty. What
  /// `RebuildFromUpdates` builds over. A copy of the overlay shares the
  /// owned graph, so its base outlives this overlay's next `Materialize`.
  const Graph& Materialize() {
    auto owned = std::make_shared<const Graph>(LiveGraph());
    Reset(owned.get());
    owned_graph_ = std::move(owned);
    return *owned_graph_;
  }

 private:
  // True iff `s -> arc` is in G+ (base or inserted, tombstoned or not).
  bool Contains(VertexId s, const Arc& arc) const {
    const std::span<const Arc> base = Arcs::Out(*base_, s);
    if (std::binary_search(base.begin(), base.end(), arc)) return true;
    return !extra_out_.empty() &&
           std::find(extra_out_[s].begin(), extra_out_[s].end(), arc) !=
               extra_out_[s].end();
  }

  bool IsTombstoned(VertexId s, const Arc& arc) const {
    return !tomb_out_.empty() &&
           std::binary_search(tomb_out_[s].begin(), tomb_out_[s].end(), arc);
  }

  // Visits the base arcs, then the inserted arcs of `v`, until `visit`
  // returns true.
  template <typename Fn>
  static bool VisitArcs(std::span<const Arc> base,
                        const std::vector<std::vector<Arc>>& extra,
                        VertexId v, Fn& visit) {
    for (const Arc& arc : base) {
      if (visit(arc)) return true;
    }
    if (extra.empty()) return false;
    for (const Arc& arc : extra[v]) {
      if (visit(arc)) return true;
    }
    return false;
  }

  const Graph* base_ = nullptr;
  std::shared_ptr<const Graph> owned_graph_;
  std::vector<std::vector<Arc>> extra_out_, extra_in_;
  std::vector<std::vector<Arc>> tomb_out_;
  size_t num_arcs_ = 0;  // entries of the three lists above
};

}  // namespace reach

#endif  // REACH_GRAPH_ARC_OVERLAY_H_
