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

// A fresh owner tag for nodes shared until written. Each thread takes
// its tags from a block of its own, so a copy, which takes two, touches
// no shared counter.
inline uint64_t NewTag() {
  constexpr uint64_t kBlock = uint64_t{1} << 16;
  static std::atomic<uint64_t> blocks{1};
  thread_local uint64_t next = 0;
  thread_local uint64_t end = 0;
  if (next == end) {
    next = blocks.fetch_add(kBlock, std::memory_order_relaxed);
    end = next + kBlock;
  }
  return next++;
}

/// The one chunk table behind `CowLists`, `CowArray` and `CowBox`: a
/// persistent radix tree of fan-out `kFanout` over leaves (`Leaf`, one per
/// chunk index), held by one `shared_ptr` to its root. Its height is the
/// fewest levels that cover the highest chunk written (0 = the root is
/// chunk 0's leaf), so a table over n / 64 chunks is log_8(n / 64) levels
/// deep. Leaves and nodes are allocated on first write.
///
/// A copy shares the whole tree: it copies the root pointer and retags the
/// source, so neither side holds the tag of any node they share. A node
/// or leaf is written in place only by the table whose tag it carries;
/// the first write of either side below a shared node clones the path
/// from the root down to the leaf (each node on it holds `kFanout`
/// pointers), one node at a time and only where the other side shares it.
/// Freeing a copy releases only what it owned alone. So a copy costs one
/// reference count, whatever the table's size, and a write the paths it
/// touches. A copy may be taken while other threads read the source
/// (reads touch no tag), but not while it is written.
///
/// The table also keeps a plain copy of the pointers `kWindowLevels`
/// levels below its root (`window_`, 64 of them at the default 2), which
/// the tree keeps alive and a write refreshes. A lookup starts there, so
/// up to 4096 vertices it loads one pointer and the leaf, as a flat table
/// of chunks would, and a copy copies the window with the root pointer:
/// 512 bytes, no reference counts.
template <typename Leaf, unsigned kWindowLevels = 2>
class ChunkTable {
 public:
  ChunkTable() = default;
  ChunkTable(const ChunkTable& other)
      : root_(other.root_),
        window_(other.window_),
        height_(other.height_),
        below_(other.below_) {
    other.tag_ = NewTag();
  }
  ChunkTable& operator=(const ChunkTable&) = delete;

  /// Chunk `k`'s leaf, or nullptr when no write reached it.
  const Leaf* Find(size_t k) const {
    if ((k >> (kBits * height_)) != 0) return nullptr;
    const void* at = window_[k >> (kBits * below_)];
    for (unsigned level = below_; at != nullptr && level-- > 0;) {
      at = static_cast<const Node*>(at)->child[(k >> (kBits * level)) & kMask]
               .get();
    }
    return at == nullptr ? nullptr : &static_cast<const Held*>(at)->leaf;
  }

  /// Chunk `k`'s leaf, writable: allocates the path to it, or clones the
  /// part of it a copy shares.
  Leaf& Own(size_t k) {
    if ((k >> (kBits * height_)) != 0) {
      do {
        if (root_ != nullptr) {
          auto up = std::make_shared<Node>();
          up->tag = tag_;
          up->child[0] = std::move(root_);
          root_ = std::move(up);
        }
        ++height_;
      } while ((k >> (kBits * height_)) != 0);
      below_ = height_ - std::min(height_, kWindowLevels);
      for (size_t w = 0; w < window_.size(); ++w) window_[w] = Window(w);
    }
    const size_t w = k >> (kBits * below_);
    // A node or leaf with this table's tag is reached only through nodes
    // with its tag (a copy retags its source), so a write below one of
    // them starts there.
    if (void* top = window_[w]; top != nullptr) {
      if (below_ == 0) {
        if (Held* held = static_cast<Held*>(top); held->tag == tag_) {
          return held->leaf;
        }
      } else if (Node* node = static_cast<Node*>(top); node->tag == tag_) {
        unsigned level = below_ - 1;
        std::shared_ptr<void>* at =
            &node->child[(k >> (kBits * level)) & kMask];
        while (level-- > 0) {
          at = &OwnAt<Node>(*at).child[(k >> (kBits * level)) & kMask];
        }
        return OwnAt<Held>(*at).leaf;
      }
    }
    std::shared_ptr<void>* at = &root_;
    for (unsigned level = height_; level-- > 0;) {
      at = &OwnAt<Node>(*at).child[(k >> (kBits * level)) & kMask];
    }
    Leaf& leaf = OwnAt<Held>(*at).leaf;
    // The path may hold new nodes down to the window's level; the other
    // window entries are unchanged, even where a node above them was
    // cloned.
    window_[w] = Window(w);
    return leaf;
  }

  bool empty() const { return root_ == nullptr; }
  /// Drops every chunk, leaving any copy's alone.
  void Clear() {
    root_.reset();
    window_ = {};
    height_ = 0;
    below_ = 0;
  }

 private:
  // 8 children per node: measured against 4, 16 and 32 on serve-churn
  // (EXPERIMENTS.md E15).
  static constexpr unsigned kBits = 3;
  static constexpr size_t kFanout = size_t{1} << kBits;
  static constexpr size_t kMask = kFanout - 1;

  struct Node {
    uint64_t tag = 0;  // of the table that may write it in place
    // A `Node` below a node of level > 1, a `Held` below level 1.
    std::array<std::shared_ptr<void>, kFanout> child;
  };
  struct Held {
    uint64_t tag = 0;  // of the table that may write it in place
    Leaf leaf{};
  };

  // The tree's pointer at window entry `w`: the root's descendant
  // `kWindowLevels` levels down (fewer in a lower tree) on the path of
  // the chunks `w` covers.
  void* Window(size_t w) const {
    void* at = root_.get();
    for (unsigned level = height_ - below_; at != nullptr && level-- > 0;) {
      at = static_cast<Node*>(at)->child[(w >> (kBits * level)) & kMask].get();
    }
    return at;
  }

  // The node or leaf at `slot`, this table's own: made, or cloned when
  // another table may share it.
  template <typename X>
  X& OwnAt(std::shared_ptr<void>& slot) {
    X* x = static_cast<X*>(slot.get());
    if (x != nullptr && x->tag == tag_) return *x;
    auto made = x == nullptr ? std::make_shared<X>() : std::make_shared<X>(*x);
    made->tag = tag_;
    x = made.get();
    slot = std::move(made);
    return *x;
  }

  std::shared_ptr<void> root_;
  std::array<void*, size_t{1} << (kBits * kWindowLevels)> window_{};
  unsigned height_ = 0;
  // Levels between the window and the leaves.
  unsigned below_ = 0;
  mutable uint64_t tag_ = NewTag();
};

}  // namespace cow_detail

/// Per-vertex lists whose copies share storage. The vertices are split
/// into chunks of `kChunk`, each one contiguous array in a leaf of the
/// persistent chunk table (`cow_detail::ChunkTable`), so a copy costs one
/// reference count, and a write clones the leaves it touches and the
/// table nodes above them that a copy shares. A copy may be taken while
/// other threads read the source, but not while it is written.
template <typename T>
class CowLists {
 public:
  CowLists() = default;
  CowLists(const CowLists&) = default;
  CowLists& operator=(const CowLists&) = delete;

  std::span<const T> operator[](VertexId v) const {
    const Chunk* c = chunks_.Find(v / kChunk);
    if (c == nullptr) return {};
    const size_t i = v % kChunk;
    return {c->items.data() + c->begin[i], c->begin[i + 1] - c->begin[i]};
  }

  /// Inserts `value` at position `at` of list `v`.
  void Insert(VertexId v, size_t at, const T& value) {
    Chunk& c = chunks_.Own(v / kChunk);
    const size_t i = v % kChunk;
    c.items.insert(c.items.begin() + c.begin[i] + at, value);
    for (size_t j = i + 1; j <= kChunk; ++j) ++c.begin[j];
    ++num_items_;
  }
  void PushBack(VertexId v, const T& value) {
    Insert(v, (*this)[v].size(), value);
  }
  /// Appends `values` to list `v`.
  void Append(VertexId v, std::span<const T> values) {
    Chunk& c = chunks_.Own(v / kChunk);
    const size_t i = v % kChunk;
    c.items.insert(c.items.begin() + c.begin[i + 1], values.begin(),
                   values.end());
    for (size_t j = i + 1; j <= kChunk; ++j) c.begin[j] += values.size();
    num_items_ += values.size();
  }
  /// List `v`, writable in place: clones its chunk first when a copy
  /// shares it.
  std::span<T> Mutable(VertexId v) {
    Chunk& c = chunks_.Own(v / kChunk);
    const size_t i = v % kChunk;
    return {c.items.data() + c.begin[i], c.begin[i + 1] - c.begin[i]};
  }
  /// Erases position `at` of list `v`.
  void Erase(VertexId v, size_t at) {
    Chunk& c = chunks_.Own(v / kChunk);
    const size_t i = v % kChunk;
    c.items.erase(c.items.begin() + c.begin[i] + at);
    for (size_t j = i + 1; j <= kChunk; ++j) --c.begin[j];
    --num_items_;
  }

  void Clear() {
    chunks_.Clear();
    num_items_ = 0;
  }
  bool empty() const { return num_items_ == 0; }
  size_t NumItems() const { return num_items_; }

 private:
  static constexpr size_t kChunk = 64;
  struct Chunk {
    // List i of the chunk is items[begin[i], begin[i + 1]).
    std::array<uint32_t, kChunk + 1> begin{};
    std::vector<T> items;
  };

  cow_detail::ChunkTable<Chunk> chunks_;
  size_t num_items_ = 0;
};

/// One value per vertex, in chunks of 64 shared until written as
/// `CowLists` are: a copy costs one reference count, and a write clones
/// the chunk it touches and the table nodes above it that a copy shares.
/// A vertex whose chunk was never written reads as `T{}`, so an array
/// that is never written costs nothing per vertex.
template <typename T>
class CowArray {
 public:
  CowArray() = default;
  CowArray(const CowArray&) = default;
  CowArray& operator=(const CowArray&) = delete;

  const T& operator[](VertexId v) const {
    static const T kUnwritten{};
    const Chunk* c = chunks_.Find(v / kChunk);
    return c == nullptr ? kUnwritten : (*c)[v % kChunk];
  }

  /// The value of `v`, writable: clones its chunk first when a copy
  /// shares it.
  T& Mutable(VertexId v) { return chunks_.Own(v / kChunk)[v % kChunk]; }

  bool empty() const { return chunks_.empty(); }

 private:
  static constexpr size_t kChunk = 64;
  using Chunk = std::array<T, kChunk>;

  cow_detail::ChunkTable<Chunk> chunks_;
};

/// One value whose copies share it until either side writes: a one-leaf
/// chunk table, so a copy costs one reference count, and the first write
/// of either side after a copy clones the value (whose members may in
/// turn share their chunks, as `CowLists` and `CowArray` do). Copies
/// follow the `CowLists` rules.
template <typename T>
class CowBox {
 public:
  CowBox() { Reset(); }
  CowBox(const CowBox&) = default;
  CowBox& operator=(const CowBox&) = delete;

  const T& operator*() const { return *held_.Find(0); }
  const T* operator->() const { return held_.Find(0); }

  /// The value, writable: cloned first when a copy shares it.
  T& Mutable() { return held_.Own(0); }

  /// Replaces the value with `T{}`, leaving any copy's value alone.
  void Reset() {
    held_.Clear();
    held_.Own(0);
  }

 private:
  // One leaf, so no window below the root.
  cow_detail::ChunkTable<T, 0> held_;
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
/// costs one pointer per list plus, later, the chunks its own updates
/// touch and the table paths above them.
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
