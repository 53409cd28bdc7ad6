#ifndef REACH_GRAPH_DIGRAPH_H_
#define REACH_GRAPH_DIGRAPH_H_

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.h"

namespace reach {

/// An immutable directed graph in compressed-sparse-row (CSR) form, with
/// both forward (out-neighbor) and backward (in-neighbor) adjacency.
///
/// This is the plain graph `G = (V, E)` of paper §2.1. Vertices are the
/// dense ids `0 .. NumVertices()-1`. Parallel edges are deduplicated and
/// self-loops are kept (they are irrelevant for reachability but harmless).
///
/// The structure is immutable by design: every index in the library builds
/// from a snapshot. Dynamic indexes (TOL-style insertions, DBL) keep their
/// own delta adjacency on top of the snapshot.
class Digraph {
 public:
  /// Builds an empty graph.
  Digraph() = default;

  /// Builds a graph with `num_vertices` vertices and the given edges.
  /// Edges referencing vertices `>= num_vertices` are invalid; callers must
  /// not pass them (checked in debug builds). Duplicate edges are removed.
  static Digraph FromEdges(VertexId num_vertices, std::vector<Edge> edges);

  /// Number of vertices.
  size_t NumVertices() const { return num_vertices_; }

  /// Number of (deduplicated) edges.
  size_t NumEdges() const { return out_targets_.size(); }

  /// Out-neighbors of `v`, sorted ascending.
  std::span<const VertexId> OutNeighbors(VertexId v) const {
    return {out_targets_.data() + out_offsets_[v],
            out_targets_.data() + out_offsets_[v + 1]};
  }

  /// In-neighbors of `v`, sorted ascending.
  std::span<const VertexId> InNeighbors(VertexId v) const {
    return {in_sources_.data() + in_offsets_[v],
            in_sources_.data() + in_offsets_[v + 1]};
  }

  /// Out-degree of `v`.
  size_t OutDegree(VertexId v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }

  /// In-degree of `v`.
  size_t InDegree(VertexId v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  /// Total degree (in + out) of `v`; the vertex-ordering heuristic used by
  /// the 2-hop indexes of §3.2 and §4.1.3.
  size_t Degree(VertexId v) const { return OutDegree(v) + InDegree(v); }

  /// True iff the edge `s -> t` exists. O(log OutDegree(s)).
  bool HasEdge(VertexId s, VertexId t) const;

  /// Returns the graph with every edge reversed.
  Digraph Reverse() const;

  /// Returns all edges, sorted by (source, target).
  std::vector<Edge> Edges() const;

  /// Heap footprint in bytes (CSR arrays). Counts vector *capacity*, not
  /// size: `FromEdges` can leave the offset arrays (and, after dedup, the
  /// adjacency arrays) holding more memory than their element counts, and
  /// reporting size alone under-counted that slack.
  size_t MemoryBytes() const {
    return (out_offsets_.capacity() + in_offsets_.capacity()) *
               sizeof(size_t) +
           (out_targets_.capacity() + in_sources_.capacity()) *
               sizeof(VertexId);
  }

 private:
  size_t num_vertices_ = 0;
  std::vector<size_t> out_offsets_ = {0};  // size num_vertices_ + 1
  std::vector<VertexId> out_targets_;
  std::vector<size_t> in_offsets_ = {0};  // size num_vertices_ + 1
  std::vector<VertexId> in_sources_;
};

/// The arc vocabulary of a graph type, for code written once over plain
/// and labeled graphs (`ArcOverlay`, `TwoHopCore`): what an adjacency arc
/// is, its head, the reverse arc stored at that head, a vertex's out- and
/// in-arcs (sorted, as the CSR keeps them), whether an arc fits the
/// graph, and how edges and graphs are built from arcs.
template <typename Graph>
struct GraphArcs;

/// A plain arc is its head vertex.
template <>
struct GraphArcs<Digraph> {
  using Arc = VertexId;
  using Edge = ::reach::Edge;

  static VertexId Head(Arc arc) { return arc; }
  static Arc Reverse(VertexId from, Arc) { return from; }
  static std::span<const Arc> Out(const Digraph& g, VertexId v) {
    return g.OutNeighbors(v);
  }
  static std::span<const Arc> In(const Digraph& g, VertexId v) {
    return g.InNeighbors(v);
  }
  static bool InRange(const Digraph&, Arc) { return true; }
  static Edge MakeEdge(VertexId from, Arc arc) { return {from, arc}; }
  static Digraph MakeGraph(const Digraph& like, std::vector<Edge> edges) {
    return Digraph::FromEdges(static_cast<VertexId>(like.NumVertices()),
                              std::move(edges));
  }
};

}  // namespace reach

#endif  // REACH_GRAPH_DIGRAPH_H_
