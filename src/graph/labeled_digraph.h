#ifndef REACH_GRAPH_LABELED_DIGRAPH_H_
#define REACH_GRAPH_LABELED_DIGRAPH_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "graph/types.h"

namespace reach {

/// An immutable edge-labeled directed graph `G = (V, E, L)` (paper §2.2)
/// in CSR form with forward and backward adjacency.
///
/// Unlike `Digraph`, parallel edges with *different* labels are kept: the
/// pair (target, label) is the deduplication key. Labels are dense ids
/// `0 .. NumLabels()-1`; callers may attach human-readable names.
class LabeledDigraph {
 public:
  /// A (neighbor, label) adjacency entry.
  struct Arc {
    VertexId vertex;
    Label label;

    friend bool operator==(const Arc&, const Arc&) = default;
    /// (vertex, label) order — the order adjacency lists are sorted in.
    friend auto operator<=>(const Arc&, const Arc&) = default;
  };

  LabeledDigraph() = default;

  /// Builds a labeled graph. Every edge's label must be `< num_labels`,
  /// `num_labels <= kMaxLabels`, and endpoints `< num_vertices`.
  /// Duplicate (source, target, label) triples are removed.
  static LabeledDigraph FromEdges(VertexId num_vertices, Label num_labels,
                                  std::vector<LabeledEdge> edges);

  /// Number of vertices.
  size_t NumVertices() const { return num_vertices_; }

  /// Number of (deduplicated) labeled edges.
  size_t NumEdges() const { return out_arcs_.size(); }

  /// Number of distinct labels the graph was declared with.
  Label NumLabels() const { return num_labels_; }

  /// Outgoing arcs of `v`, sorted by (target, label).
  std::span<const Arc> OutArcs(VertexId v) const {
    return {out_arcs_.data() + out_offsets_[v],
            out_arcs_.data() + out_offsets_[v + 1]};
  }

  /// Incoming arcs of `v`: `Arc{u, l}` means edge `u -l-> v`. Sorted by
  /// (source, label).
  std::span<const Arc> InArcs(VertexId v) const {
    return {in_arcs_.data() + in_offsets_[v],
            in_arcs_.data() + in_offsets_[v + 1]};
  }

  /// Out-degree (number of outgoing labeled arcs) of `v`.
  size_t OutDegree(VertexId v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }

  /// In-degree (number of incoming labeled arcs) of `v`.
  size_t InDegree(VertexId v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  /// Total degree of `v`.
  size_t Degree(VertexId v) const { return OutDegree(v) + InDegree(v); }

  /// All labeled edges, sorted by (source, target, label).
  std::vector<LabeledEdge> Edges() const;

  /// The underlying plain graph: same vertices, an edge `s -> t` iff some
  /// labeled edge `s -l-> t` exists. Used to answer plain reachability on
  /// labeled graphs and to drive SCC condensation.
  Digraph ProjectPlain() const;

  /// Optional human-readable label names (e.g., "friendOf"). Either empty
  /// or of size NumLabels().
  const std::vector<std::string>& label_names() const { return label_names_; }

  /// Attaches label names; `names.size()` must equal NumLabels().
  void set_label_names(std::vector<std::string> names);

  /// Approximate heap footprint in bytes.
  size_t MemoryBytes() const {
    return (out_offsets_.size() + in_offsets_.size()) * sizeof(size_t) +
           (out_arcs_.size() + in_arcs_.size()) * sizeof(Arc);
  }

 private:
  size_t num_vertices_ = 0;
  Label num_labels_ = 0;
  std::vector<size_t> out_offsets_ = {0};
  std::vector<Arc> out_arcs_;
  std::vector<size_t> in_offsets_ = {0};
  std::vector<Arc> in_arcs_;
  std::vector<std::string> label_names_;
};

}  // namespace reach

#endif  // REACH_GRAPH_LABELED_DIGRAPH_H_
