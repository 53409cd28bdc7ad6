#include "lcr/pruned_labeled_two_hop.h"

#include <algorithm>
#include <utility>

#include "core/label_kernels.h"

namespace reach {

namespace {

// Exponential search to the first entry with `entry.rank >= rank` at index
// >= `from` — the rank-projected analogue of `GallopLowerBound`, shared by
// the skewed-size advance of the LCR rank-group sweep.
template <typename E>
size_t GallopToRank(std::span<const E> entries, size_t from, uint32_t rank) {
  const size_t n = entries.size();
  if (from >= n || entries[from].rank >= rank) return from;
  size_t offset = 1;
  while (from + offset < n && entries[from + offset].rank < rank) {
    offset <<= 1;
  }
  const size_t lo = from + offset / 2;
  const size_t hi = std::min(n, from + offset + 1);
  return static_cast<size_t>(
      std::lower_bound(entries.begin() + lo, entries.begin() + hi, rank,
                       [](const E& e, uint32_t r) { return e.rank < r; }) -
      entries.begin());
}

// A label-BFS state: `vertex` reached with `entry`, whose mask is the
// path's accumulated label set.
struct State {
  LabeledTwoHopTraits::Entry entry;
  VertexId vertex;
};

// Bucket queue keyed by |mask| so states expand in nondecreasing number of
// distinct labels (minimal SPLSs first).
class BucketQueue {
 public:
  void Clear() {
    for (auto& b : buckets_) b.clear();
    level_ = 0;
    index_ = 0;
  }

  void Push(State s) { buckets_[LabelCount(s.entry.mask)].push_back(s); }

  // Returns false when empty. States pushed at the current level while
  // draining it are still popped (same-level growth).
  bool Pop(State* out) {
    while (level_ <= kMaxLabels) {
      if (index_ < buckets_[level_].size()) {
        *out = buckets_[level_][index_++];
        return true;
      }
      buckets_[level_].clear();
      index_ = 0;
      ++level_;
    }
    return false;
  }

 private:
  std::vector<State> buckets_[kMaxLabels + 1];
  size_t level_ = 0;
  size_t index_ = 0;
};

// Per-sweep dominance antichains with O(1) sparse reset.
class SeenSets {
 public:
  void Reset(size_t n) {
    if (seen_.size() < n) seen_.resize(n);
    for (VertexId v : touched_) seen_[v] = MinimalLabelSets();
    touched_.clear();
  }

  // Adds mask for v unless dominated; returns true if added.
  bool Add(VertexId v, LabelSet mask) {
    if (seen_[v].empty()) touched_.push_back(v);
    return seen_[v].AddIfMinimal(mask);
  }

  bool Dominates(VertexId v, LabelSet mask) const {
    return seen_[v].Dominates(mask);
  }

 private:
  std::vector<MinimalLabelSets> seen_;
  std::vector<VertexId> touched_;
};

}  // namespace

using Entry = LabeledTwoHopTraits::Entry;
using Arc = LabeledDigraph::Arc;

// The P2H+ label-BFS from `start`. States (vertex, label set) expand in
// nondecreasing |label set|, so recorded SPLSs are minimal; a state is
// dropped when a state of its vertex seen in this sweep has a subset of
// its label set, and pruned by `prune`. A pruned state blocks its
// supersets too: the build's and the insert's oracles are monotone in
// the label set.
class LabeledTwoHopTraits::Sweeper {
 public:
  explicit Sweeper(size_t n) : n_(n) {}

  template <typename Adjacency, typename Prune, typename Emit>
  void Run(VertexId start, const Entry& entry, Adjacency&& adjacency,
           Prune&& prune, Emit&& emit) {
    queue_.Clear();
    seen_.Reset(n_);
    seen_.Add(start, entry.mask);
    queue_.Push({entry, start});
    State state;
    while (queue_.Pop(&state)) {
      adjacency(state.vertex, [&](const Arc& arc) {
        const VertexId x = arc.vertex;
        const Entry next = Extend(state.entry, arc);
        if (seen_.Dominates(x, next.mask)) return false;
        const bool pruned = prune(x, next);
        seen_.Add(x, next.mask);
        if (pruned) return false;
        emit(x, next);
        queue_.Push({next, x});
        return false;
      });
    }
  }

 private:
  size_t n_;
  BucketQueue queue_;
  SeenSets seen_;
};

bool LabeledTwoHopTraits::Covered(std::span<const Entry> entries,
                                  uint32_t rank, LabelSet allowed) {
  // Entries are grouped by ascending rank; binary-search the group start.
  auto it = std::lower_bound(
      entries.begin(), entries.end(), rank,
      [](const Entry& e, uint32_t r) { return e.rank < r; });
  for (; it != entries.end() && it->rank == rank; ++it) {
    if (IsSubsetOf(it->mask, allowed)) return true;
  }
  return false;
}

bool LabeledTwoHopTraits::Intersect(std::span<const Entry> out,
                                    std::span<const Entry> in,
                                    LabelSet allowed) {
  // First/last-rank prefilter: disjoint rank ranges cannot share a hop.
  if (out.empty() || in.empty()) return false;
  if (out.back().rank < in.front().rank ||
      in.back().rank < out.front().rank) {
    return false;
  }
  // Rank-group sweep; skewed sizes advance by galloping instead of one
  // group at a time (same >= 8x threshold as the plain engine).
  const bool gallop = out.size() >= kGallopSkewThreshold * in.size() ||
                      in.size() >= kGallopSkewThreshold * out.size();
  size_t i = 0, j = 0;
  while (i < out.size() && j < in.size()) {
    if (out[i].rank < in[j].rank) {
      i = gallop ? GallopToRank(out, i + 1, in[j].rank) : i + 1;
    } else if (out[i].rank > in[j].rank) {
      j = gallop ? GallopToRank(in, j + 1, out[i].rank) : j + 1;
    } else {
      const uint32_t rank = out[i].rank;
      size_t i_end = i, j_end = j;
      while (i_end < out.size() && out[i_end].rank == rank) ++i_end;
      while (j_end < in.size() && in[j_end].rank == rank) ++j_end;
      for (size_t a = i; a < i_end; ++a) {
        if (!IsSubsetOf(out[a].mask, allowed)) continue;
        for (size_t b = j; b < j_end; ++b) {
          if (IsSubsetOf(in[b].mask, allowed)) return true;
        }
      }
      i = i_end;
      j = j_end;
    }
  }
  return false;
}

void PrunedLabeledTwoHop::Build(const LabeledDigraph& graph) {
  core_.Build(graph, &build_stats_,
              [](const LabeledDigraph& g) { return DegreeOrder(g); });
}

bool PrunedLabeledTwoHop::Query(VertexId s, VertexId t,
                                LabelSet allowed) const {
  return core_.Answer(s, t, allowed, 0);
}

UpdateResult PrunedLabeledTwoHop::ApplyUpdate(const LabeledUpdateBatch& batch) {
  return core_.ApplyUpdate(batch);
}

bool PrunedLabeledTwoHop::RebuildFromUpdates() {
  // Build resets every overlay (tombstones, damage, delta) and
  // re-minimizes the labeling over the live edge set.
  const LabeledDigraph* live = core_.MaterializeLiveGraph();
  if (live == nullptr) return false;
  Build(*live);
  return true;
}

}  // namespace reach
