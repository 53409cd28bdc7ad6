#ifndef REACH_LCR_LCR_INDEX_H_
#define REACH_LCR_LCR_INDEX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/edge_update.h"
#include "core/index_stats.h"
#include "core/serialize.h"
#include "graph/labeled_digraph.h"
#include "graph/types.h"
#include "obs/query_probe.h"

namespace reach {

/// A single labeled write: insert or delete of the arc
/// `source -label-> target`. The labeled analogue of `EdgeUpdate`
/// (core/edge_update.h) for the LCR write surface; batches share the
/// `UpdateResult` contract.
struct LabeledEdgeUpdate {
  using Kind = EdgeUpdate::Kind;

  Kind kind = Kind::kInsert;
  VertexId source = 0;
  VertexId target = 0;
  Label label = 0;

  static LabeledEdgeUpdate Insert(VertexId s, VertexId t, Label l) {
    return {Kind::kInsert, s, t, l};
  }
  static LabeledEdgeUpdate Delete(VertexId s, VertexId t, Label l) {
    return {Kind::kDelete, s, t, l};
  }

  bool IsInsert() const { return kind == Kind::kInsert; }
  bool IsDelete() const { return kind == Kind::kDelete; }

  friend bool operator==(const LabeledEdgeUpdate&,
                         const LabeledEdgeUpdate&) = default;
};

/// The labeled adjacency arc an update names.
inline LabeledDigraph::Arc UpdateArc(const LabeledEdgeUpdate& update) {
  return {update.target, update.label};
}

/// An ordered batch of labeled updates, applied atomically per the
/// `UpdateResult` contract (validate-first; later updates see earlier
/// ones).
using LabeledUpdateBatch = std::vector<LabeledEdgeUpdate>;

/// Abstract interface of an index for alternation-based path-constrained
/// reachability queries (label-constrained reachability, LCR — paper §4.1).
///
/// `Query(s, t, allowed)` answers Qr(s, t, alpha) for the alternation
/// constraint alpha = (l1 ∪ l2 ∪ ...)* whose label set is the bitmask
/// `allowed`: does an s-t path exist using only edges whose label is in
/// `allowed`? Kleene-star semantics make reachability reflexive:
/// `Query(v, v, anything) == true` (empty path).
///
/// As with plain indexes, answers are always exact; partial indexes fall
/// back to constrained traversal internally.
class LcrIndex {
 public:
  virtual ~LcrIndex() = default;

  /// Builds the index; same lifetime contract as `ReachabilityIndex`.
  virtual void Build(const LabeledDigraph& graph) = 0;

  /// Answers Qr(s, t, (∪ allowed)*).
  virtual bool Query(VertexId s, VertexId t, LabelSet allowed) const = 0;

  /// Serialization capability (optional) — same envelope contract as
  /// `ReachabilityIndex` (core/serialize.h): versioned envelope + payload
  /// on `Save`, typed mismatch errors on `Load`, defaults that signal
  /// "unsupported" explicitly.
  virtual bool SupportsSerialization() const { return false; }

  virtual bool Save(std::ostream& out) const {
    (void)out;
    return false;
  }

  virtual LoadResult Load(std::istream& in) {
    (void)in;
    return LoadResult{LoadStatus::kUnsupported, Name()};
  }

  /// Index footprint in bytes (labels only).
  virtual size_t IndexSizeBytes() const = 0;

  /// True if queries never fall back to graph traversal.
  virtual bool IsComplete() const = 0;

  /// Identifier for benchmark tables.
  virtual std::string Name() const = 0;

  /// Build statistics of the last `Build()` (see `ReachabilityIndex`).
  const IndexStats& Stats() const { return build_stats_; }

  /// Per-query instrumentation accumulated since `Build()` /
  /// `ResetProbe()`; empty for uninstrumented indexes or REACH_METRICS=0.
  virtual QueryProbe Probe() const { return QueryProbe{}; }

  /// Zeroes the probe counters.
  virtual void ResetProbe() const {}

 protected:
  /// Populated by each `Build()` via `BuildStatsScope`.
  IndexStats build_stats_;
};

}  // namespace reach

#endif  // REACH_LCR_LCR_INDEX_H_
