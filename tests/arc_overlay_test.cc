// ArcOverlay (graph/arc_overlay.h) against a std::set model of its live
// and superset arc sets, on plain and labeled graphs: seeded random
// insert, delete and resurrect sequences (self-loops, duplicate inserts,
// deletes of absent and already-deleted arcs included), every view and
// the live graph checked after each step, and the updates folded into the
// base (`Materialize`) now and then. The rebuild the overlay feeds is
// checked too: after `RebuildFromUpdates`, pll and lcr:pll save the same
// bytes as a fresh build on the model's live graph.
//
// The copy-on-write containers under the overlay (`CowLists`, `CowArray`,
// `CowBox`) are checked on their own against a std::vector model per
// copy: seeded trees of copies, each written at random (vertices past the
// last written chunk included) and destroyed in random order, and a
// source read by several threads while a writer copies it and writes the
// copies.

#include "graph/arc_overlay.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/index_factory.h"
#include "core/reachability_index.h"
#include "graph/rng.h"
#include "lcr/pruned_labeled_two_hop.h"

namespace reach {
namespace {

constexpr VertexId kN = 10;
constexpr Label kLabels = 3;

struct PlainKind {
  using Graph = Digraph;
  using Index = DynamicReachabilityIndex;
  static constexpr const char* kSpec = "pll";

  static VertexId MakeArc(VertexId head, Label) { return head; }
  static Digraph FromEdges(const std::vector<Edge>& edges) {
    return Digraph::FromEdges(kN, edges);
  }
  static EdgeUpdate MakeUpdate(bool insert, VertexId s, VertexId arc) {
    return insert ? EdgeUpdate::Insert(s, arc) : EdgeUpdate::Delete(s, arc);
  }
  static std::unique_ptr<Index> NewIndex() {
    MadeIndex made = MakeIndex(kSpec);
    if (dynamic_cast<Index*>(made.plain.get()) == nullptr) return nullptr;
    return std::unique_ptr<Index>(dynamic_cast<Index*>(made.plain.release()));
  }
  static UpdateResult Apply(Index& index, const EdgeUpdate& update) {
    return index.ApplyUpdate({update});
  }
};

struct LabeledKind {
  using Graph = LabeledDigraph;
  using Index = PrunedLabeledTwoHop;
  static constexpr const char* kSpec = "lcr:pll";

  static LabeledDigraph::Arc MakeArc(VertexId head, Label label) {
    return {head, label};
  }
  static LabeledDigraph FromEdges(const std::vector<LabeledEdge>& edges) {
    return LabeledDigraph::FromEdges(kN, kLabels, edges);
  }
  static LabeledEdgeUpdate MakeUpdate(bool insert, VertexId s,
                                      const LabeledDigraph::Arc& arc) {
    return insert ? LabeledEdgeUpdate::Insert(s, arc.vertex, arc.label)
                  : LabeledEdgeUpdate::Delete(s, arc.vertex, arc.label);
  }
  static std::unique_ptr<Index> NewIndex() {
    MadeIndex made = MakeIndex(kSpec);
    if (dynamic_cast<Index*>(made.lcr.get()) == nullptr) return nullptr;
    return std::unique_ptr<Index>(dynamic_cast<Index*>(made.lcr.release()));
  }
  static UpdateResult Apply(Index& index, const LabeledEdgeUpdate& update) {
    return index.ApplyUpdate({update});
  }
};

// The reference: every arc that ever existed (superset) and the live ones.
template <typename Kind>
struct Model {
  using Arcs = GraphArcs<typename Kind::Graph>;
  using Arc = typename Arcs::Arc;
  using Key = std::pair<VertexId, Arc>;

  std::set<Key> live;
  std::set<Key> superset;

  ArcInsert Insert(VertexId s, const Arc& arc) {
    if (!live.insert({s, arc}).second) return ArcInsert::kNoOp;
    return superset.insert({s, arc}).second ? ArcInsert::kAdded
                                            : ArcInsert::kResurrected;
  }
  bool Delete(VertexId s, const Arc& arc) { return live.erase({s, arc}) > 0; }

  typename Kind::Graph LiveGraph() const {
    std::vector<typename Arcs::Edge> edges;
    for (const auto& [s, arc] : live) edges.push_back(Arcs::MakeEdge(s, arc));
    return Kind::FromEdges(edges);
  }

  // The out-arcs (or reversed in-arcs) of `v` in `arcs`, sorted.
  static std::vector<Arc> OutOf(const std::set<Key>& arcs, VertexId v) {
    std::vector<Arc> out;
    for (const auto& [s, arc] : arcs) {
      if (s == v) out.push_back(arc);
    }
    return out;
  }
  static std::vector<Arc> InOf(const std::set<Key>& arcs, VertexId v) {
    std::vector<Arc> in;
    for (const auto& [s, arc] : arcs) {
      if (Arcs::Head(arc) == v) in.push_back(Arcs::Reverse(s, arc));
    }
    std::sort(in.begin(), in.end());
    return in;
  }
};

template <typename Kind>
struct Op {
  bool insert;
  VertexId source;
  typename Model<Kind>::Arc arc;
};

template <typename Kind>
Op<Kind> RandomOp(Xoshiro256ss& rng, const Model<Kind>& model) {
  const auto pick = [&rng](const auto& keys) {
    auto it = keys.begin();
    std::advance(it, static_cast<ptrdiff_t>(rng.NextBounded(keys.size())));
    return *it;
  };
  std::set<typename Model<Kind>::Key> dead;
  std::set_difference(model.superset.begin(), model.superset.end(),
                      model.live.begin(), model.live.end(),
                      std::inserter(dead, dead.end()));
  const uint64_t roll = rng.NextBounded(100);
  if (roll < 15 && !model.superset.empty()) {
    // A delete of a known arc: live, or already deleted.
    const auto [s, arc] = pick(model.superset);
    return {false, s, arc};
  }
  if (roll < 30 && !dead.empty()) {
    const auto [s, arc] = pick(dead);  // a resurrection
    return {true, s, arc};
  }
  if (roll < 40 && !model.live.empty()) {
    const auto [s, arc] = pick(model.live);  // a duplicate insert
    return {true, s, arc};
  }
  const VertexId s = static_cast<VertexId>(rng.NextBounded(kN));
  const VertexId head =
      roll < 50 ? s : static_cast<VertexId>(rng.NextBounded(kN));
  const auto arc =
      Kind::MakeArc(head, static_cast<Label>(rng.NextBounded(kLabels)));
  // Mostly inserts; a random delete usually names an absent arc.
  return {roll < 80, s, arc};
}

template <typename Kind>
typename Kind::Graph RandomBase(Xoshiro256ss& rng, Model<Kind>* model) {
  using Arcs = typename Model<Kind>::Arcs;
  std::vector<typename Arcs::Edge> edges;
  for (int i = 0; i < 16; ++i) {
    const VertexId s = static_cast<VertexId>(rng.NextBounded(kN));
    const VertexId head =
        i % 8 == 0 ? s : static_cast<VertexId>(rng.NextBounded(kN));
    const auto arc =
        Kind::MakeArc(head, static_cast<Label>(rng.NextBounded(kLabels)));
    edges.push_back(Arcs::MakeEdge(s, arc));
    model->live.insert({s, arc});
  }
  model->superset = model->live;
  return Kind::FromEdges(edges);
}

template <typename Kind, typename View>
std::vector<typename Model<Kind>::Arc> Collect(const View& view, VertexId v) {
  std::vector<typename Model<Kind>::Arc> arcs;
  EXPECT_FALSE(view(v, [&](const auto& arc) {
    arcs.push_back(arc);
    return false;
  }));
  std::sort(arcs.begin(), arcs.end());
  return arcs;
}

template <typename Kind>
void ExpectMatchesModel(const ArcOverlay<typename Kind::Graph>& overlay,
                        const Model<Kind>& model) {
  using M = Model<Kind>;
  using Arcs = typename M::Arcs;
  for (VertexId v = 0; v < kN; ++v) {
    SCOPED_TRACE("vertex " + std::to_string(v));
    // Sorted equality also rules out an arc visited twice.
    EXPECT_EQ(Collect<Kind>(overlay.LiveOut(), v), M::OutOf(model.live, v));
    const std::vector<typename M::Arc> superset_out =
        M::OutOf(model.superset, v);
    EXPECT_EQ(Collect<Kind>(overlay.SupersetOut(), v), superset_out);
    EXPECT_EQ(Collect<Kind>(overlay.SupersetIn(), v),
              M::InOf(model.superset, v));
    // A visit that asks to stop ends the view at once.
    size_t calls = 0;
    const bool stopped = overlay.SupersetOut()(v, [&](const auto&) {
      ++calls;
      return true;
    });
    EXPECT_EQ(stopped, !superset_out.empty());
    EXPECT_EQ(calls, stopped ? 1u : 0u);
  }
  const typename Kind::Graph graph = overlay.LiveGraph();
  ASSERT_EQ(graph.NumVertices(), kN);
  for (VertexId v = 0; v < kN; ++v) {
    const std::span<const typename M::Arc> out = Arcs::Out(graph, v);
    const std::span<const typename M::Arc> in = Arcs::In(graph, v);
    EXPECT_EQ(std::vector(out.begin(), out.end()), M::OutOf(model.live, v));
    EXPECT_EQ(std::vector(in.begin(), in.end()), M::InOf(model.live, v));
  }
}

template <typename Kind>
class ArcOverlayTest : public ::testing::Test {};

struct KindNames {
  template <typename Kind>
  static std::string GetName(int) {
    return std::is_same_v<Kind, PlainKind> ? "plain" : "labeled";
  }
};

using Kinds = ::testing::Types<PlainKind, LabeledKind>;
TYPED_TEST_SUITE(ArcOverlayTest, Kinds, KindNames);

TYPED_TEST(ArcOverlayTest, RandomSequencesMatchSetReference) {
  using Kind = TypeParam;
  for (uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Xoshiro256ss rng(seed);
    Model<Kind> model;
    const typename Kind::Graph base = RandomBase(rng, &model);
    ArcOverlay<typename Kind::Graph> overlay;
    overlay.Reset(&base);
    ExpectMatchesModel(overlay, model);
    for (int step = 0; step < 120; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const Op<Kind> op = RandomOp(rng, model);
      if (op.insert) {
        EXPECT_EQ(overlay.Insert(op.source, op.arc),
                  model.Insert(op.source, op.arc));
      } else {
        EXPECT_EQ(overlay.Delete(op.source, op.arc),
                  model.Delete(op.source, op.arc));
      }
      ExpectMatchesModel(overlay, model);
      // Now and then fold the updates into the base, as
      // `RebuildFromUpdates` does: the superset shrinks to the live arcs.
      if (step % 30 == 29) {
        const typename Kind::Graph& folded = overlay.Materialize();
        EXPECT_EQ(overlay.base(), &folded);
        model.superset = model.live;
        ExpectMatchesModel(overlay, model);
      }
    }
  }
}

TYPED_TEST(ArcOverlayTest, RebuildSavesTheBytesOfAFreshBuild) {
  using Kind = TypeParam;
  using Arcs = typename Model<Kind>::Arcs;
  for (uint64_t seed : {11, 12, 13}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Xoshiro256ss rng(seed);
    Model<Kind> model;
    const typename Kind::Graph base = RandomBase(rng, &model);
    std::unique_ptr<typename Kind::Index> index = Kind::NewIndex();
    ASSERT_NE(index, nullptr) << Kind::kSpec;
    index->Build(base);
    // Two rounds, so the second runs on the graph the first rebuild
    // materialized.
    for (int round = 0; round < 2; ++round) {
      for (int step = 0; step < 40; ++step) {
        const Op<Kind> op = RandomOp(rng, model);
        // The index ignores self-loop inserts: reachability is reflexive.
        bool changed = false;
        if (!op.insert) {
          changed = model.Delete(op.source, op.arc);
        } else if (Arcs::Head(op.arc) != op.source) {
          changed = model.Insert(op.source, op.arc) != ArcInsert::kNoOp;
        }
        const UpdateResult result =
            Kind::Apply(*index, Kind::MakeUpdate(op.insert, op.source, op.arc));
        ASSERT_TRUE(result.ok()) << result.reason;
        EXPECT_EQ(result.applied, changed ? 1u : 0u) << "step " << step;
      }
      ASSERT_TRUE(index->RebuildFromUpdates());
      model.superset = model.live;
      std::ostringstream rebuilt;
      ASSERT_TRUE(index->Save(rebuilt));
      const typename Kind::Graph live = model.LiveGraph();
      std::unique_ptr<typename Kind::Index> fresh = Kind::NewIndex();
      fresh->Build(live);
      std::ostringstream built;
      ASSERT_TRUE(fresh->Save(built));
      EXPECT_EQ(rebuilt.str(), built.str()) << "round " << round;
    }
  }
}

// One copy of the three copy-on-write containers, with its own model.
struct CowCopy {
  CowLists<uint32_t> lists;
  CowArray<uint64_t> array;
  CowBox<std::vector<uint32_t>> box;
  std::vector<std::vector<uint32_t>> lists_model;
  std::vector<uint64_t> array_model;
  std::vector<uint32_t> box_model;
};

// Checks every vertex below `bound`, and one far past it, against the
// copy's model.
void ExpectCowMatchesModel(const CowCopy& copy, VertexId bound) {
  size_t items = 0;
  for (VertexId v = 0; v < bound; ++v) {
    static const std::vector<uint32_t> kNone;
    const std::vector<uint32_t>& want =
        v < copy.lists_model.size() ? copy.lists_model[v] : kNone;
    const std::span<const uint32_t> list = copy.lists[v];
    ASSERT_TRUE(std::equal(list.begin(), list.end(), want.begin(), want.end()))
        << "list " << v;
    items += want.size();
    const uint64_t value =
        v < copy.array_model.size() ? copy.array_model[v] : 0;
    ASSERT_EQ(copy.array[v], value) << "array " << v;
  }
  EXPECT_TRUE(copy.lists[1u << 30].empty());
  EXPECT_EQ(copy.array[1u << 30], 0u);
  EXPECT_EQ(copy.lists.NumItems(), items);
  EXPECT_EQ(copy.lists.empty(), items == 0);
  EXPECT_EQ(*copy.box, copy.box_model);
}

// One random write to `copy` and its model. Most vertices fall in the
// first `kNear`; one write in 16 lands up to `kFar`, past the chunks
// written so far, and grows the table.
constexpr VertexId kNear = 700;
constexpr VertexId kFar = 8192;

void RandomCowWrite(Xoshiro256ss& rng, CowCopy& copy, VertexId* bound) {
  const VertexId v = static_cast<VertexId>(
      rng.NextBounded(rng.NextBounded(16) == 0 ? kFar : kNear));
  *bound = std::max(*bound, v + 1);
  if (copy.lists_model.size() <= v) copy.lists_model.resize(v + 1);
  if (copy.array_model.size() <= v) copy.array_model.resize(v + 1);
  std::vector<uint32_t>& list = copy.lists_model[v];
  const uint32_t value = static_cast<uint32_t>(rng.Next());
  switch (rng.NextBounded(7)) {
    case 0:
    case 1: {
      const size_t at = rng.NextBounded(list.size() + 1);
      copy.lists.Insert(v, at, value);
      list.insert(list.begin() + static_cast<ptrdiff_t>(at), value);
      break;
    }
    case 2:
      if (!list.empty()) {
        const size_t at = rng.NextBounded(list.size());
        copy.lists.Erase(v, at);
        list.erase(list.begin() + static_cast<ptrdiff_t>(at));
      }
      break;
    case 3:
      if (!list.empty()) {
        const size_t at = rng.NextBounded(list.size());
        copy.lists.Mutable(v)[at] = value;
        list[at] = value;
      }
      break;
    case 4: {
      const std::vector<uint32_t> values(1 + rng.NextBounded(3), value);
      copy.lists.Append(v, values);
      list.insert(list.end(), values.begin(), values.end());
      break;
    }
    case 5:
      copy.array.Mutable(v) = value;
      copy.array_model[v] = value;
      break;
    case 6:
      copy.box.Mutable().push_back(value);
      copy.box_model.push_back(value);
      break;
  }
}

TEST(CowContainerTest, TreesOfCopiesMatchTheirModels) {
  for (uint64_t seed : {21, 22, 23, 24}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Xoshiro256ss rng(seed);
    std::vector<std::unique_ptr<CowCopy>> live;
    live.push_back(std::make_unique<CowCopy>());
    VertexId bound = 1;
    size_t copies = 0;
    for (int step = 0; step < 300; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const uint64_t roll = rng.NextBounded(100);
      const size_t pick = rng.NextBounded(live.size());
      if (roll < 15 && live.size() < 10) {
        // Any live copy may be copied, so the copies form a tree.
        live.push_back(std::make_unique<CowCopy>(*live[pick]));
        ++copies;
      } else if (roll < 25 && live.size() > 1) {
        live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      } else {
        RandomCowWrite(rng, *live[pick], &bound);
      }
      for (const auto& copy : live) {
        ExpectCowMatchesModel(*copy, bound);
        if (HasFatalFailure()) return;
      }
    }
    EXPECT_GE(copies, 30u);
    EXPECT_GT(bound, 4096u);  // the table grew past 64 chunks
  }
}

TEST(CowContainerTest, ClearAndResetLeaveCopiesAlone) {
  CowCopy source;
  Xoshiro256ss rng(31);
  VertexId bound = 1;
  for (int i = 0; i < 200; ++i) RandomCowWrite(rng, source, &bound);
  CowCopy copy(source);
  copy.lists.Clear();
  copy.box.Reset();
  EXPECT_TRUE(copy.lists.empty());
  EXPECT_TRUE(copy.box->empty());
  ExpectCowMatchesModel(source, bound);
  // The source writes on, and the cleared copy stays empty.
  for (int i = 0; i < 200; ++i) RandomCowWrite(rng, source, &bound);
  ExpectCowMatchesModel(source, bound);
  EXPECT_TRUE(copy.lists.empty());
  EXPECT_TRUE(copy.box->empty());
}

// Readers scan a source while one writer copies it (the source's only
// change is its tag), writes the copy and copies that copy again, as the
// serve writer does while readers query the published index.
TEST(CowContainerTest, ReadersOfASourceRaceAWriterCopyingIt) {
  auto source = std::make_unique<CowCopy>();
  Xoshiro256ss rng(41);
  VertexId bound = 1;
  for (int i = 0; i < 600; ++i) RandomCowWrite(rng, *source, &bound);
  std::atomic<bool> stop{false};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (VertexId v = 0; v < bound; ++v) {
          const std::span<const uint32_t> list = source->lists[v];
          const bool list_ok =
              v < source->lists_model.size()
                  ? std::equal(list.begin(), list.end(),
                               source->lists_model[v].begin(),
                               source->lists_model[v].end())
                  : list.empty();
          const uint64_t value =
              v < source->array_model.size() ? source->array_model[v] : 0;
          if (!list_ok || source->array[v] != value) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (*source->box != source->box_model) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  VertexId copy_bound = bound;
  for (int round = 0; round < 200; ++round) {
    auto copy = std::make_unique<CowCopy>(*source);
    for (int i = 0; i < 8; ++i) RandomCowWrite(rng, *copy, &copy_bound);
    auto next = std::make_unique<CowCopy>(*copy);
    copy.reset();  // the first copy goes before its own copy
    for (int i = 0; i < 8; ++i) RandomCowWrite(rng, *next, &copy_bound);
    ExpectCowMatchesModel(*next, copy_bound);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0u);
  ExpectCowMatchesModel(*source, bound);
}

}  // namespace
}  // namespace reach
