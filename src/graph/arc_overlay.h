#ifndef REACH_GRAPH_ARC_OVERLAY_H_
#define REACH_GRAPH_ARC_OVERLAY_H_

#include <algorithm>
#include <array>
#include <atomic>
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

namespace cow_detail {

// A fresh owner tag for chunks shared until written.
inline uint64_t NewTag() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace cow_detail

/// Per-vertex lists whose copies share storage. The vertices are split
/// into chunks of `kChunk`, each one contiguous array behind a
/// `shared_ptr`, so a copy costs one pointer per chunk, not one list per
/// vertex. A chunk is written in place only by the lists that made it;
/// copying retags both sides, so the first write of either to a chunk
/// they share clones that chunk alone. A copy may be taken while other
/// threads read the source (reads touch no tag), but not while it is
/// written. Chunks are allocated on first write.
template <typename T>
class CowLists {
 public:
  CowLists() = default;
  CowLists(const CowLists& other)
      : chunks_(other.chunks_), num_items_(other.num_items_) {
    other.tag_ = cow_detail::NewTag();
  }
  CowLists& operator=(const CowLists&) = delete;

  std::span<const T> operator[](VertexId v) const {
    const size_t k = v / kChunk;
    if (k >= chunks_.size() || chunks_[k] == nullptr) return {};
    const Chunk& c = *chunks_[k];
    const size_t i = v % kChunk;
    return {c.items.data() + c.begin[i], c.begin[i + 1] - c.begin[i]};
  }

  /// Inserts `value` at position `at` of list `v`.
  void Insert(VertexId v, size_t at, const T& value) {
    Chunk& c = Own(v / kChunk);
    const size_t i = v % kChunk;
    c.items.insert(c.items.begin() + c.begin[i] + at, value);
    for (size_t j = i + 1; j <= kChunk; ++j) ++c.begin[j];
    ++num_items_;
  }
  void PushBack(VertexId v, const T& value) {
    Insert(v, (*this)[v].size(), value);
  }
  /// Erases position `at` of list `v`.
  void Erase(VertexId v, size_t at) {
    Chunk& c = Own(v / kChunk);
    const size_t i = v % kChunk;
    c.items.erase(c.items.begin() + c.begin[i] + at);
    for (size_t j = i + 1; j <= kChunk; ++j) --c.begin[j];
    --num_items_;
  }

  void Clear() {
    chunks_.clear();
    num_items_ = 0;
  }
  bool empty() const { return num_items_ == 0; }
  size_t NumItems() const { return num_items_; }

 private:
  static constexpr size_t kChunk = 64;
  struct Chunk {
    uint64_t tag = 0;  // of the lists that may write it in place
    // List i of the chunk is items[begin[i], begin[i + 1]).
    std::array<uint32_t, kChunk + 1> begin{};
    std::vector<T> items;
  };

  Chunk& Own(size_t k) {
    if (k >= chunks_.size()) chunks_.resize(k + 1);
    std::shared_ptr<Chunk>& c = chunks_[k];
    if (c == nullptr) {
      c = std::make_shared<Chunk>();
    } else if (c->tag != tag_) {
      c = std::make_shared<Chunk>(*c);
    }
    c->tag = tag_;
    return *c;
  }

  std::vector<std::shared_ptr<Chunk>> chunks_;
  size_t num_items_ = 0;
  mutable uint64_t tag_ = cow_detail::NewTag();
};

/// One value per vertex, chunked and shared until written as `CowLists`
/// are: a copy costs one pointer per chunk, and the first write of either
/// side to a chunk they share clones that chunk alone. A vertex whose
/// chunk was never written reads as `T{}`, so an array that is never
/// written costs nothing per vertex.
template <typename T>
class CowArray {
 public:
  CowArray() = default;
  CowArray(const CowArray& other) : chunks_(other.chunks_) {
    other.tag_ = cow_detail::NewTag();
  }
  CowArray& operator=(const CowArray&) = delete;

  const T& operator[](VertexId v) const {
    static const T kUnwritten{};
    const size_t k = v / kChunk;
    if (k >= chunks_.size() || chunks_[k] == nullptr) return kUnwritten;
    return chunks_[k]->items[v % kChunk];
  }

  /// The value of `v`, writable: clones its chunk first when a copy
  /// shares it.
  T& Mutable(VertexId v) {
    const size_t k = v / kChunk;
    if (k >= chunks_.size()) chunks_.resize(k + 1);
    std::shared_ptr<Chunk>& c = chunks_[k];
    if (c == nullptr) {
      c = std::make_shared<Chunk>();
    } else if (c->tag != tag_) {
      c = std::make_shared<Chunk>(*c);
    }
    c->tag = tag_;
    return c->items[v % kChunk];
  }

  bool empty() const { return chunks_.empty(); }

 private:
  static constexpr size_t kChunk = 64;
  struct Chunk {
    uint64_t tag = 0;  // of the array that may write it in place
    std::array<T, kChunk> items{};
  };

  std::vector<std::shared_ptr<Chunk>> chunks_;
  mutable uint64_t tag_ = cow_detail::NewTag();
};

/// One value whose copies share it until either side writes: a copy costs
/// one pointer, and the first write of either side after a copy clones the
/// value (whose members may in turn share their chunks, as `CowLists` and
/// `CowArray` do). Copies follow the `CowLists` rules.
template <typename T>
class CowBox {
 public:
  CowBox() { Reset(); }
  CowBox(const CowBox& other) : held_(other.held_) {
    other.tag_ = cow_detail::NewTag();
  }
  CowBox& operator=(const CowBox&) = delete;

  const T& operator*() const { return held_->value; }
  const T* operator->() const { return &held_->value; }

  /// The value, writable: cloned first when a copy shares it.
  T& Mutable() {
    if (held_->tag != tag_) {
      held_ = std::make_shared<Held>(*held_);
      held_->tag = tag_;
    }
    return held_->value;
  }

  /// Replaces the value with `T{}`, leaving any copy's value alone.
  void Reset() {
    held_ = std::make_shared<Held>();
    held_->tag = tag_;
  }

 private:
  struct Held {
    uint64_t tag = 0;  // of the box that may write it in place
    T value{};
  };

  std::shared_ptr<Held> held_;
  mutable uint64_t tag_ = cow_detail::NewTag();
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
/// tombstones per source vertex, sorted. All three are `CowLists`, so an
/// overlay that never sees an update costs nothing per vertex, and a copy
/// costs one pointer per 64 vertices plus, later, the chunks its own
/// updates touch.
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
    extra_out_.Clear();
    extra_in_.Clear();
    tomb_out_.Clear();
    num_arcs_ = 0;
  }

  const Graph* base() const { return base_; }
  size_t NumVertices() const { return base_->NumVertices(); }

  /// Makes `s -> arc` live: drops its tombstone, or adds it when neither
  /// the base nor an earlier insert has it.
  ArcInsert Insert(VertexId s, const Arc& arc) {
    if (IsTombstoned(s, arc)) {
      tomb_out_.Erase(s, TombstoneAt(s, arc));
      --num_arcs_;
      return ArcInsert::kResurrected;
    }
    if (Contains(s, arc)) return ArcInsert::kNoOp;
    extra_out_.PushBack(s, arc);
    extra_in_.PushBack(Arcs::Head(arc), Arcs::Reverse(s, arc));
    num_arcs_ += 2;
    return ArcInsert::kAdded;
  }

  /// Tombstones `s -> arc`; false when it is absent or already deleted.
  bool Delete(VertexId s, const Arc& arc) {
    if (!Contains(s, arc) || IsTombstoned(s, arc)) return false;
    tomb_out_.Insert(s, TombstoneAt(s, arc), arc);
    ++num_arcs_;
    return true;
  }

  /// Live out-arcs: base and inserted, tombstones skipped.
  auto LiveOut() const {
    return [this](VertexId v, auto&& visit) {
      const std::span<const Arc> dead = tomb_out_[v];
      const auto visit_live = [&](const Arc& arc) {
        return (dead.empty() ||
                !std::binary_search(dead.begin(), dead.end(), arc)) &&
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
  /// themselves, in O(1): not the base graph, and not the chunk headers.
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
    const std::span<const Arc> extra = extra_out_[s];
    return std::find(extra.begin(), extra.end(), arc) != extra.end();
  }

  bool IsTombstoned(VertexId s, const Arc& arc) const {
    const std::span<const Arc> dead = tomb_out_[s];
    return std::binary_search(dead.begin(), dead.end(), arc);
  }

  // Where `arc` is, or would go, in the sorted tombstones of `s`.
  size_t TombstoneAt(VertexId s, const Arc& arc) const {
    const std::span<const Arc> dead = tomb_out_[s];
    return std::lower_bound(dead.begin(), dead.end(), arc) - dead.begin();
  }

  // Visits the base arcs, then the inserted arcs of `v`, until `visit`
  // returns true.
  template <typename Fn>
  static bool VisitArcs(std::span<const Arc> base, const CowLists<Arc>& extra,
                        VertexId v, Fn& visit) {
    for (const Arc& arc : base) {
      if (visit(arc)) return true;
    }
    for (const Arc& arc : extra[v]) {
      if (visit(arc)) return true;
    }
    return false;
  }

  const Graph* base_ = nullptr;
  std::shared_ptr<const Graph> owned_graph_;
  CowLists<Arc> extra_out_, extra_in_;
  CowLists<Arc> tomb_out_;
  size_t num_arcs_ = 0;  // entries of the three lists above
};

}  // namespace reach

#endif  // REACH_GRAPH_ARC_OVERLAY_H_
