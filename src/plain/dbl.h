#ifndef REACH_PLAIN_DBL_H_
#define REACH_PLAIN_DBL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/reachability_index.h"
#include "core/workspace_pool.h"
#include "graph/arc_overlay.h"
#include "graph/digraph.h"

namespace reach {

/// DBL [29] (paper §3.2): a *partial*, insertion-dynamic 2-hop-style index
/// combining two complementary 64-bit labels per direction:
///
///  * DL — a *landmark* label: bit d of DlOut(v) is set iff v reaches the
///    d-th landmark (the 64 highest-degree vertices); DlIn dually. A common
///    landmark (DlOut(s) & DlIn(t) != 0) certifies reachability: a
///    *no-false-positive* positive filter.
///  * BL — a *bloom* label: every vertex hashes to one of 64 buckets, and
///    BlOut(v) is the bloom of v's full reachable set (BlIn dually). By the
///    contra-positive containment argument of §3.3, BlOut(t) ⊄ BlOut(s) or
///    BlIn(s) ⊄ BlIn(t) certifies *un*reachability: a *no-false-negative*
///    negative filter.
///
/// Queries undecided by both filters fall back to `GuidedBiBfs`
/// (traversal/guided_search.h) over the base graph plus inserted edges,
/// re-applying the filters per visited vertex. Inserts (via `ApplyUpdate`)
/// maintain both labels by monotone propagation (labels only gain bits),
/// exactly the insert-only design the survey credits DBL with; deletions
/// are unsupported (Table 1: insertion-only) — `SupportsDeletions()` is
/// false and a batch containing any `kDelete` is rejected whole, with no
/// partial application.
class Dbl : public PooledSearchIndex<Dbl, DynamicReachabilityIndex> {
 public:
  explicit Dbl(uint64_t seed = 0x64'62'6cULL) : seed_(seed) {}

  void Build(const Digraph& graph) override;
  bool QueryInSlot(VertexId s, VertexId t, size_t slot) const override;
  size_t IndexSizeBytes() const override;
  bool IsComplete() const override { return false; }
  std::string Name() const override { return "dbl"; }

  UpdateResult ApplyUpdate(const UpdateBatch& batch) override;

  /// Pure-filter outcomes for tests/benches: +1 certain reachable (DL),
  /// -1 certain unreachable (BL), 0 undecided.
  int FilterVerdict(VertexId s, VertexId t) const;

 private:
  // Single-edge insert; returns true when graph state changed.
  bool ApplyInsert(VertexId s, VertexId t);

  uint64_t seed_;
  // The built graph plus inserted arcs. Nothing is ever tombstoned, so
  // the superset arcs are the live ones.
  ArcOverlay<Digraph> overlay_;
  std::vector<uint64_t> dl_out_, dl_in_;  // landmark bitmasks
  std::vector<uint64_t> bl_out_, bl_in_;  // bloom bitmasks
  std::vector<uint64_t> hash_bit_;        // each vertex's bloom bit
};

}  // namespace reach

#endif  // REACH_PLAIN_DBL_H_
