#include "lcr/pruned_labeled_two_hop.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <string_view>
#include <utility>

#include "core/label_kernels.h"
#include "core/serialize.h"
#include "par/thread_pool.h"

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

// A label-BFS state: `vertex` reached with accumulated label set `mask`.
struct State {
  LabelSet mask;
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

  void Push(State s) { buckets_[LabelCount(s.mask)].push_back(s); }

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

  /// Distinct vertices added since the last `Reset` — exactly the set of
  /// vertices the sweep's pruning oracle was evaluated at, which is what
  /// the parallel build's conflict check needs.
  const std::vector<VertexId>& Touched() const { return touched_; }

 private:
  std::vector<MinimalLabelSets> seen_;
  std::vector<VertexId> touched_;
};

}  // namespace

using Entry = LabeledTwoHopTraits::Entry;
using Arc = LabeledDigraph::Arc;
using LabeledCore = TwoHopCore<LabeledTwoHopTraits>;

// The P2H+ label-BFS of one rank: forward populates Lin via hop -> x
// states, backward populates Lout. States (vertex, label set) expand in
// nondecreasing |label set|, so recorded SPLSs are minimal; a state is
// pruned when dominated within the sweep or when the index built so far
// already answers the corresponding query.
class LabeledTwoHopTraits::Sweeper {
 public:
  explicit Sweeper(size_t n)
      : local_(n), speculation_cap_(std::max<size_t>(1024, 4 * n)) {}

  template <bool kSpeculative, typename Emit>
  bool Run(const LabeledCore& core, uint32_t r, bool forward,
           std::vector<VertexId>* touched, Emit&& emit) {
    const VertexId hop = core.ByRank(r);
    queue_.Clear();
    seen_.Reset(local_.size());
    for (VertexId v : local_touched_) local_[v].clear();
    local_touched_.clear();
    seen_.Add(hop, 0);
    queue_.Push({0, hop});
    // Label-BFS state counts can exceed n (one state per (vertex, mask)).
    size_t evaluated = 0;
    State state;
    while (queue_.Pop(&state)) {
      const auto visit = [&](const Arc& arc) {
        const VertexId x = arc.vertex;
        if (x == hop || core.Rank(x) < r) return;
        const LabelSet next = state.mask | LabelBit(arc.label);
        if (seen_.Dominates(x, next)) return;
        ++evaluated;
        bool covered = kSpeculative && ShadowCovers(x, next);
        if (!covered) {
          covered = forward ? core.LabelQuery(hop, x, next)
                            : core.LabelQuery(x, hop, next);
        }
        seen_.Add(x, next);  // covered: blocks supersets, already answerable
        if (covered) return;
        if constexpr (kSpeculative) {
          if (local_[x].empty()) local_touched_.push_back(x);
          local_[x].push_back(next);
        }
        emit(x, Entry{r, next});
        queue_.Push({next, x});
      };
      if (forward) {
        for (const Arc& arc : core.graph().OutArcs(state.vertex)) visit(arc);
      } else {
        for (const Arc& arc : core.graph().InArcs(state.vertex)) visit(arc);
      }
      if (kSpeculative && evaluated > speculation_cap_) return false;
    }
    if constexpr (kSpeculative) *touched = seen_.Touched();
    return true;
  }

 private:
  bool ShadowCovers(VertexId x, LabelSet mask) const {
    return std::any_of(local_[x].begin(), local_[x].end(),
                       [mask](LabelSet m) { return IsSubsetOf(m, mask); });
  }

  BucketQueue queue_;
  SeenSets seen_;
  // The serial pruning oracle LabelQuery(hop, x, next) reads the rank-r
  // entry group of Lin(x) — entries the *current sweep* inserted. A
  // speculative sweep shadows that group here, so local-covered ||
  // committed-prefix LabelQuery equals the serial oracle exactly (the
  // committed prefix has no rank-r groups).
  std::vector<std::vector<LabelSet>> local_;
  std::vector<VertexId> local_touched_;
  size_t speculation_cap_;
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

bool LabeledTwoHopTraits::CoveredInPool(const CompressedPool& pool,
                                        VertexId v, uint32_t rank,
                                        LabelSet allowed) {
  const size_t end = pool.BlockEnd(v);
  const size_t b = pool.LowerBoundBlock(pool.BlockBegin(v), end, rank);
  if (b == end || pool.Skip(b).first > rank) return false;
  // Rank groups are never split across blocks, so the whole group of
  // `rank` — if present — lives in this one block.
  Entry buf[CompressedPool::kMaxBlockEntries];
  const size_t count = pool.DecodeBlock(b, buf);
  return Covered({buf, count}, rank, allowed);
}

bool LabeledTwoHopTraits::IntersectPools(const CompressedPool& out_pool,
                                         VertexId s,
                                         const CompressedPool& in_pool,
                                         VertexId t, LabelSet allowed) {
  size_t i = out_pool.BlockBegin(s), j = in_pool.BlockBegin(t);
  const size_t i_end = out_pool.BlockEnd(s), j_end = in_pool.BlockEnd(t);
  if (i == i_end || j == j_end) return false;
  // Whole-list prefilter straight off the skip entries.
  if (out_pool.Skip(i_end - 1).last < in_pool.Skip(j).first ||
      in_pool.Skip(j_end - 1).last < out_pool.Skip(i).first) {
    return false;
  }
  constexpr size_t kCap = CompressedPool::kMaxBlockEntries;
  Entry buf_out[kCap], buf_in[kCap];
  size_t decoded_out = SIZE_MAX, decoded_in = SIZE_MAX;
  size_t count_out = 0, count_in = 0;
  while (i != i_end && j != j_end) {
    const auto& so = out_pool.Skip(i);
    const auto& si = in_pool.Skip(j);
    if (so.last < si.first) {
      i = out_pool.LowerBoundBlock(i + 1, i_end, si.first);
      continue;
    }
    if (si.last < so.first) {
      j = in_pool.LowerBoundBlock(j + 1, j_end, so.first);
      continue;
    }
    if (decoded_out != i) {
      count_out = out_pool.DecodeBlock(i, buf_out);
      decoded_out = i;
    }
    if (decoded_in != j) {
      count_in = in_pool.DecodeBlock(j, buf_in);
      decoded_in = j;
    }
    if (Intersect({buf_out, count_out}, {buf_in, count_in}, allowed)) {
      return true;
    }
    // Equal-last advance-both is sound: blocks end at whole rank groups,
    // so the shared last group was fully checked by this pair.
    const bool advance_out = so.last <= si.last;
    const bool advance_in = si.last <= so.last;
    if (advance_out) ++i;
    if (advance_in) ++j;
  }
  return false;
}

bool LabeledTwoHopTraits::IntersectPoolWithSpan(const CompressedPool& pool,
                                                VertexId v,
                                                std::span<const Entry> other,
                                                LabelSet allowed) {
  if (other.empty()) return false;
  const size_t end = pool.BlockEnd(v);
  size_t b = pool.LowerBoundBlock(pool.BlockBegin(v), end,
                                  other.front().rank);
  Entry buf[CompressedPool::kMaxBlockEntries];
  for (; b != end && pool.Skip(b).first <= other.back().rank; ++b) {
    const size_t count = pool.DecodeBlock(b, buf);
    if (Intersect({buf, count}, other, allowed)) return true;
  }
  return false;
}

void LabeledTwoHopTraits::PropagateInsert(LabeledCore& core, VertexId s,
                                          const Arc& arc) {
  // Every newly answerable pair (x, y, A) decomposes as x -> s (old paths,
  // mask M1 ⊆ A), the new edge (label ∈ A), then t -> y (old paths,
  // M2 ⊆ A). The old index answers (x, s, M1) through some hop entry of
  // Lin(s) (or a virtual endpoint hop), so propagating each such hop
  // through the new edge to everything reachable from t restores
  // completeness. Traversal prunes only by per-sweep dominance, never by
  // index queries — minimality is traded for correctness (see header).
  std::vector<Entry> hops = core.InEntries(s);
  hops.push_back({core.Rank(s), 0});
  BucketQueue queue;
  SeenSets seen;
  State state;
  for (const Entry& hop_entry : hops) {
    const VertexId hop = core.ByRank(hop_entry.rank);
    queue.Clear();
    seen.Reset(core.NumVertices());
    const LabelSet start = hop_entry.mask | LabelBit(arc.label);
    seen.Add(arc.vertex, start);
    queue.Push({start, arc.vertex});
    while (queue.Pop(&state)) {
      if (state.vertex != hop &&
          !core.InCovered(state.vertex, hop_entry.rank, state.mask)) {
        core.AddDeltaIn(state.vertex, {hop_entry.rank, state.mask});
      }
      core.ForEachOutSuperset(state.vertex, [&](const Arc& a) {
        const LabelSet next = state.mask | LabelBit(a.label);
        if (seen.Dominates(a.vertex, next)) return;
        seen.Add(a.vertex, next);
        queue.Push({next, a.vertex});
      });
    }
  }
}

void PrunedLabeledTwoHop::Build(const LabeledDigraph& graph) {
  core_.Build(graph, ResolveThreads(num_threads_), &build_stats_,
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

namespace {

// Payload magic for the labeled 2-hop stream (distinct from the plain
// "reach-2h" payload; the envelope already distinguishes formats, this is
// defense in depth).
constexpr uint64_t kP2hMagic = 0x7265616368703268ULL;  // "reachp2h"

constexpr std::string_view kP2hFormatName = "p2h";

using serialize_detail::ReadPod;
using serialize_detail::ReadU32Vec;
using serialize_detail::WritePod;
using serialize_detail::WriteU32Vec;

}  // namespace

bool PrunedLabeledTwoHop::Save(std::ostream& out) const {
  // A damaged labeling is only exact together with the live tombstone
  // state, which the stream does not carry (header contract).
  if (core_.Damage() > 0) return false;
  if (!WriteEnvelope(out, kP2hFormatName)) return false;
  const size_t n = core_.NumVertices();
  WritePod(out, kP2hMagic);
  WritePod(out, static_cast<uint64_t>(n));
  WriteU32Vec(out, core_.rank_);
  WriteU32Vec(out, core_.by_rank_);
  const auto write_entries = [&out](const std::vector<Entry>& entries) {
    WritePod(out, static_cast<uint64_t>(entries.size()));
    for (const Entry& e : entries) {
      WritePod(out, e.rank);
      WritePod(out, static_cast<uint32_t>(e.mask));
    }
  };
  for (VertexId v = 0; v < n; ++v) write_entries(core_.InEntries(v));
  for (VertexId v = 0; v < n; ++v) write_entries(core_.OutEntries(v));
  return static_cast<bool>(out);
}

LoadResult PrunedLabeledTwoHop::Load(std::istream& in) {
  LoadResult envelope = ReadEnvelope(in, kP2hFormatName);
  if (!envelope) return envelope;
  const LoadResult corrupt{LoadStatus::kCorrupt,
                           std::string(kP2hFormatName)};
  uint64_t magic = 0, n = 0;
  if (!ReadPod(in, &magic) || magic != kP2hMagic) return corrupt;
  if (!ReadPod(in, &n)) return corrupt;
  std::vector<uint32_t> rank, by_rank;
  if (!ReadU32Vec(in, &rank, n)) return corrupt;
  if (!ReadU32Vec(in, &by_rank, n)) return corrupt;
  if (rank.size() != n || by_rank.size() != n) return corrupt;
  for (uint32_t r : rank) {
    if (r >= n) return corrupt;
  }
  for (VertexId v : by_rank) {
    if (v >= n) return corrupt;
  }
  // Entry lists: each must be rank-sorted (the rank-group sweep's
  // invariant) with in-range hop ranks. Per-vertex count is bounded by
  // n * 2^|labels| in principle; cap at a generous multiple to reject
  // nonsense sizes without rejecting legal dense labelings.
  const uint64_t max_entries = n * 64;
  const auto read_entries = [&](std::vector<Entry>* entries) {
    uint64_t count = 0;
    if (!ReadPod(in, &count) || count > max_entries) return false;
    entries->clear();
    entries->reserve(count);
    uint32_t prev_rank = 0;
    for (uint64_t i = 0; i < count; ++i) {
      uint32_t rank = 0, mask = 0;
      if (!ReadPod(in, &rank) || !ReadPod(in, &mask)) return false;
      if (rank >= n || (i > 0 && rank < prev_rank)) return false;
      prev_rank = rank;
      entries->push_back(Entry{rank, static_cast<LabelSet>(mask)});
    }
    return true;
  };
  std::vector<std::vector<Entry>> lin(n), lout(n);
  for (auto& entries : lin) {
    if (!read_entries(&entries)) return corrupt;
  }
  for (auto& entries : lout) {
    if (!read_entries(&entries)) return corrupt;
  }
  core_.Restore(std::move(rank), std::move(by_rank), std::move(lin),
                std::move(lout));
  return LoadResult{};
}

}  // namespace reach
