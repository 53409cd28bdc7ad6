#include "plain/pruned_two_hop.h"

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/index_factory.h"
#include "graph/generators.h"
#include "graph/rng.h"
#include "lcr/pruned_labeled_two_hop.h"
#include "par/thread_pool.h"
#include "traversal/online_search.h"
#include "traversal/transitive_closure.h"

namespace reach {
namespace {

void ExpectMatchesOracle(const PrunedTwoHop& index,
                         const TransitiveClosure& oracle, size_t n,
                         const std::string& context) {
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = 0; t < n; ++t) {
      ASSERT_EQ(index.Query(s, t), oracle.Query(s, t))
          << context << ": " << s << "->" << t;
    }
  }
}

class OrderTest : public ::testing::TestWithParam<VertexOrder> {};

TEST_P(OrderTest, AllOrdersAreExactOnCyclicGraphs) {
  for (uint64_t seed : {91, 92, 93}) {
    const Digraph g = RandomDigraph(44, 140, seed);
    PrunedTwoHop index(GetParam(), seed);
    index.Build(g);
    TransitiveClosure oracle;
    oracle.Build(g);
    ExpectMatchesOracle(index, oracle, g.NumVertices(),
                        "seed=" + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, OrderTest,
                         ::testing::Values(VertexOrder::kDegree,
                                           VertexOrder::kTopological,
                                           VertexOrder::kReverseDegree,
                                           VertexOrder::kRandom));

TEST(PrunedTwoHopTest, LabelsAreSortedAndBounded) {
  const Digraph g = RandomDigraph(60, 200, 5);
  PrunedTwoHop index(VertexOrder::kDegree);
  index.Build(g);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const auto& lin = index.InLabels(v);
    const auto& lout = index.OutLabels(v);
    EXPECT_TRUE(std::is_sorted(lin.begin(), lin.end()));
    EXPECT_TRUE(std::is_sorted(lout.begin(), lout.end()));
    for (uint32_t r : lin) EXPECT_LT(r, g.NumVertices());
    for (uint32_t r : lout) EXPECT_LT(r, g.NumVertices());
  }
}

TEST(PrunedTwoHopTest, DegreeOrderBeatsReverseDegreeOnScaleFree) {
  // §3.2: the choice of total order drives index size; hubs first is the
  // DL/PLL heuristic. On a hub-heavy graph it must not lose to hubs-last.
  const Digraph g = ScaleFreeDag(300, 3, 11);
  PrunedTwoHop good(VertexOrder::kDegree);
  PrunedTwoHop bad(VertexOrder::kReverseDegree);
  good.Build(g);
  bad.Build(g);
  EXPECT_LT(good.TotalLabelEntries(), bad.TotalLabelEntries());
}

TEST(PrunedTwoHopTest, SccMembersShareHighestRankedHop) {
  const Digraph g = Cycle(8);
  PrunedTwoHop index(VertexOrder::kDegree);
  index.Build(g);
  for (VertexId s = 0; s < 8; ++s) {
    for (VertexId t = 0; t < 8; ++t) EXPECT_TRUE(index.Query(s, t));
  }
  // One hop covers the cycle: labels stay linear, not quadratic.
  EXPECT_LE(index.TotalLabelEntries(), 2 * 8u);
}

TEST(PrunedTwoHopTest, InsertEdgeConnectsComponents) {
  Digraph g = Digraph::FromEdges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  PrunedTwoHop index;
  index.Build(g);
  EXPECT_FALSE(index.Query(0, 5));
  const UpdateResult result =
      index.ApplyUpdate({EdgeUpdate::Insert(2, 3)});
  EXPECT_EQ(result.status, UpdateStatus::kApplied);
  EXPECT_EQ(result.applied, 1u);
  EXPECT_TRUE(index.Query(0, 5));
  EXPECT_TRUE(index.Query(2, 3));
  EXPECT_TRUE(index.Query(1, 4));
  EXPECT_FALSE(index.Query(5, 0));
}

TEST(PrunedTwoHopTest, InsertEdgeCreatingCycle) {
  const Digraph g = Chain(5);
  PrunedTwoHop index;
  index.Build(g);
  ASSERT_TRUE(index.ApplyUpdate({EdgeUpdate::Insert(4, 0)}).ok());
  for (VertexId s = 0; s < 5; ++s) {
    for (VertexId t = 0; t < 5; ++t) {
      EXPECT_TRUE(index.Query(s, t)) << s << "->" << t;
    }
  }
}

TEST(PrunedTwoHopTest, InsertExistingEdgeIsNoop) {
  const Digraph g = Chain(4);
  PrunedTwoHop index;
  index.Build(g);
  const size_t before = index.TotalLabelEntries();
  const UpdateResult result =
      index.ApplyUpdate({EdgeUpdate::Insert(0, 1)});  // already present
  EXPECT_EQ(result.applied, 0u);
  EXPECT_EQ(result.ignored, 1u);
  EXPECT_EQ(index.TotalLabelEntries(), before);
}

TEST(PrunedTwoHopTest, RedundantInsertAddsNoEntries) {
  // An arc whose endpoints the graph already connects grows no closure, so
  // the labels stay as they are — and stay exact.
  const Digraph g = RandomDag(40, 90, 31);
  PrunedTwoHop index;
  index.Build(g);
  TransitiveClosure before_oracle;
  before_oracle.Build(g);
  const size_t before = index.TotalLabelEntries();
  std::vector<Edge> edges = g.Edges();
  for (VertexId s = 0; s < 40; s += 3) {
    for (VertexId t = 0; t < 40; t += 5) {
      if (s == t || !before_oracle.Query(s, t)) continue;
      const UpdateResult result =
          index.ApplyUpdate({EdgeUpdate::Insert(s, t)});
      ASSERT_TRUE(result.ok());
      if (result.applied == 1) edges.push_back({s, t});
    }
  }
  ASSERT_GT(edges.size(), g.NumEdges());
  EXPECT_EQ(index.TotalLabelEntries(), before);
  const Digraph after = Digraph::FromEdges(40, edges);
  TransitiveClosure oracle;
  oracle.Build(after);
  ExpectMatchesOracle(index, oracle, 40, "after redundant inserts");
}

// h reaches a, and so c, through the hub g; t reaches a and b. Inserting
// (s, t) resumes the sweeps of h (the hop of Lin(s)) and s from t: h's
// stops at a, which the index already answers for it, so h goes into
// Lin(t) and Lin(b) only, while s goes into the Lin of all of t, a, b and
// c — six entries, where adding each hop to all of Reach(t) takes eight.
TEST(PrunedTwoHopTest, InsertStopsWhereAHopAlreadyReaches) {
  constexpr VertexId g = 0, h = 1, a = 2, t = 3, s = 4, b = 5, c = 6;
  // x1 = 7 and x2 = 8 only give g the top rank. Degree order: g, a, h, t,
  // s, b, c, x1, x2.
  std::vector<Edge> edges = {{h, g}, {g, a}, {g, 7}, {g, 8},
                             {a, c}, {h, s}, {t, a}, {t, b}};
  PrunedTwoHop index;
  const Digraph before = Digraph::FromEdges(9, edges);
  index.Build(before);
  ASSERT_EQ(index.InLabels(s), std::vector<uint32_t>({2}));  // h's rank
  ASSERT_TRUE(index.Query(h, c));
  const size_t entries = index.TotalLabelEntries();
  ASSERT_TRUE(index.ApplyUpdate({EdgeUpdate::Insert(s, t)}).ok());
  EXPECT_EQ(index.TotalLabelEntries(), entries + 6);
  EXPECT_EQ(index.InLabels(a), std::vector<uint32_t>({0, 4}));
  EXPECT_EQ(index.InLabels(b), std::vector<uint32_t>({2, 3, 4}));
  edges.push_back({s, t});
  TransitiveClosure oracle;
  oracle.Build(Digraph::FromEdges(9, edges));
  ExpectMatchesOracle(index, oracle, 9, "after inserting (s, t)");
}

TEST(PrunedTwoHopTest, RejectedBatchLeavesNoTrace) {
  const Digraph g = Chain(4);
  PrunedTwoHop index;
  index.Build(g);
  // Second update is out of range: validate-first must reject the whole
  // batch, including the in-range insert ahead of it.
  const UpdateResult result = index.ApplyUpdate(
      {EdgeUpdate::Insert(3, 0), EdgeUpdate::Insert(0, 99)});
  EXPECT_EQ(result.status, UpdateStatus::kRejected);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.reason.empty());
  EXPECT_FALSE(index.Query(3, 0));
}

class InsertStreamTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InsertStreamTest, IncrementalMatchesRebuiltIndex) {
  const uint64_t seed = GetParam();
  const VertexId n = 36;
  Xoshiro256ss rng(seed);
  std::vector<Edge> base_edges = RandomDigraph(n, 60, seed).Edges();
  Digraph base = Digraph::FromEdges(n, base_edges);

  PrunedTwoHop incremental(VertexOrder::kDegree);
  incremental.Build(base);

  std::vector<Edge> all_edges = base_edges;
  for (int step = 0; step < 25; ++step) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    if (u == v) continue;
    ASSERT_TRUE(incremental.ApplyUpdate({EdgeUpdate::Insert(u, v)}).ok());
    all_edges.push_back({u, v});
  }
  const Digraph full = Digraph::FromEdges(n, all_edges);
  TransitiveClosure oracle;
  oracle.Build(full);
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = 0; t < n; ++t) {
      ASSERT_EQ(incremental.Query(s, t), oracle.Query(s, t))
          << s << "->" << t << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InsertStreamTest,
                         ::testing::Values(111, 222, 333, 444, 555));

TEST(PrunedTwoHopTest, DeleteEdgeIncrementally) {
  const Digraph g = Chain(5);
  PrunedTwoHop index;
  index.Build(g);
  EXPECT_TRUE(index.Query(0, 4));
  const UpdateResult del = index.ApplyUpdate({EdgeUpdate::Delete(2, 3)});
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del.applied, 1u);
  EXPECT_EQ(del.damage, 1u);  // a chain has no detour: damaging delete
  EXPECT_FALSE(index.Query(0, 4));
  EXPECT_TRUE(index.Query(0, 2));
  EXPECT_TRUE(index.Query(3, 4));
  // Re-inserting the tombstoned edge resurrects it (labels still cover
  // it), and deleting again severs it once more.
  ASSERT_TRUE(index.ApplyUpdate({EdgeUpdate::Insert(2, 3)}).ok());
  EXPECT_TRUE(index.Query(0, 4));
  ASSERT_TRUE(index.ApplyUpdate({EdgeUpdate::Delete(2, 3)}).ok());
  EXPECT_FALSE(index.Query(0, 4));
}

TEST(PrunedTwoHopTest, RedundantDeleteCausesNoDamage) {
  // The arc 0->1 has a detour 0->2->1, so deleting it leaves the
  // reachability relation untouched and the local-detour search absorbs
  // the tombstone without marking any damage.
  const Digraph g = Digraph::FromEdges(4, {{0, 1}, {0, 2}, {2, 1}, {1, 3}});
  PrunedTwoHop index;
  index.Build(g);
  const UpdateResult del = index.ApplyUpdate({EdgeUpdate::Delete(0, 1)});
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del.damage, 0u);  // locally redundant: tombstone only
  EXPECT_TRUE(index.Query(0, 1));  // still reachable via the detour
  EXPECT_TRUE(index.Query(0, 3));
  EXPECT_TRUE(index.Query(2, 3));
}

// A re-delete of a resurrected arc finds the arc cut already and adds no
// damage. On a ring every arc is damaging; after a delete, its
// resurrection and the same delete again, `Damage()` still counts one
// arc, and every answer matches the live ring at each step.
TEST(PrunedTwoHopTest, RedeletingAResurrectedArcAddsNoDamage) {
  constexpr VertexId kN = 12;
  std::vector<Edge> ring;
  for (VertexId v = 0; v < kN; ++v) ring.push_back({v, (v + 1) % kN});
  const Digraph g = Digraph::FromEdges(kN, ring);
  PrunedTwoHop index;
  index.Build(g);
  const auto step = [&](EdgeUpdate update, bool live, size_t damage,
                        const std::string& when) {
    ASSERT_TRUE(index.ApplyUpdate({update}).ok()) << when;
    EXPECT_EQ(index.Damage(), damage) << when;
    std::vector<Edge> edges = ring;
    if (!live) std::erase(edges, Edge{update.source, update.target});
    TransitiveClosure oracle;
    oracle.Build(Digraph::FromEdges(kN, edges));
    ExpectMatchesOracle(index, oracle, kN, when);
  };
  step(EdgeUpdate::Delete(3, 4), false, 1, "delete");
  step(EdgeUpdate::Insert(3, 4), true, 1, "resurrect");
  step(EdgeUpdate::Delete(3, 4), false, 1, "delete again");
}

TEST(PrunedTwoHopTest, RebuildFromUpdatesClearsDamage) {
  const Digraph g = Chain(6);
  PrunedTwoHop index(VertexOrder::kDegree, 7, {}, /*staleness_budget=*/2);
  index.Build(g);
  ASSERT_TRUE(index.ApplyUpdate({EdgeUpdate::Delete(1, 2)}).ok());
  const UpdateResult second =
      index.ApplyUpdate({EdgeUpdate::Delete(3, 4)});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.damage, 2u);
  ASSERT_TRUE(index.RebuildFromUpdates());
  EXPECT_EQ(index.Damage(), 0u);
  EXPECT_FALSE(index.Query(0, 5));
  EXPECT_FALSE(index.Query(1, 2));
  EXPECT_TRUE(index.Query(2, 3));
  EXPECT_TRUE(index.Query(4, 5));
}

TEST(PrunedTwoHopTest, StalenessBudgetRecommendsRebuild) {
  const Digraph g = Chain(8);
  PrunedTwoHop index(VertexOrder::kDegree, 7, {}, /*staleness_budget=*/1);
  index.Build(g);
  ASSERT_TRUE(index.ApplyUpdate({EdgeUpdate::Delete(1, 2)}).ok());
  const UpdateResult over = index.ApplyUpdate({EdgeUpdate::Delete(5, 6)});
  EXPECT_EQ(over.status, UpdateStatus::kDeferredRebuild);
  EXPECT_TRUE(over.rebuild_recommended);
  // Answers stay exact even past the budget: the rebuild is advisory.
  EXPECT_FALSE(index.Query(0, 7));
  EXPECT_TRUE(index.Query(2, 5));
}

// Every pair's answer of `index`, row-major.
std::vector<uint8_t> AllAnswers(const ReachabilityIndex& index, size_t n) {
  std::vector<uint8_t> answers;
  answers.reserve(n * n);
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = 0; t < n; ++t) answers.push_back(index.Query(s, t));
  }
  return answers;
}

std::string SaveBytes(const PrunedTwoHop& index) {
  std::ostringstream out;
  EXPECT_TRUE(index.Save(out));
  return out.str();
}

// `Clone` shares the sealed labeling and copies the update state: the
// copy answers like its source, updates on its own, and leaves the
// source's answers and Save bytes alone, whether the copy applies a batch
// or rebuilds. Both storage modes, and a damaged source too.
TEST(PrunedTwoHopCloneTest, CopyAnswersLikeItsSourceAndUpdatesAlone) {
  constexpr VertexId kN = 48;
  for (const bool compress : {false, true}) {
    SCOPED_TRACE(compress ? "compressed" : "flat");
    const Digraph g = RandomDigraph(kN, 110, 0xC10E);
    TwoHopStorageOptions storage;
    storage.compress = compress;
    PrunedTwoHop source(VertexOrder::kDegree, 7, storage);
    source.Build(g);
    // Inserts leave a delta overlay for the copy to carry.
    const std::vector<Edge> base_edges = g.Edges();
    std::set<Edge> live(base_edges.begin(), base_edges.end());
    Xoshiro256ss rng(0xC0DE);
    UpdateBatch inserts;
    for (int i = 0; i < 6; ++i) {
      const Edge e{static_cast<VertexId>(rng.NextBounded(kN)),
                   static_cast<VertexId>(rng.NextBounded(kN))};
      inserts.push_back(EdgeUpdate::Insert(e.source, e.target));
      live.insert(e);
    }
    ASSERT_EQ(source.ApplyUpdate(inserts).status, UpdateStatus::kApplied);
    ASSERT_EQ(source.Damage(), 0u);
    const std::vector<uint8_t> source_answers = AllAnswers(source, kN);
    const std::string source_bytes = SaveBytes(source);

    std::unique_ptr<DynamicReachabilityIndex> copy = source.Clone();
    ASSERT_NE(copy, nullptr);
    EXPECT_EQ(AllAnswers(*copy, kN), source_answers);

    // Deletes (damage included) and more inserts, on the copy only.
    const std::vector<Edge> edges(live.begin(), live.end());
    UpdateBatch mixed;
    for (int i = 0; i < 8; ++i) {
      const Edge e = edges[rng.NextBounded(edges.size())];
      if (live.erase(e) != 0) {
        mixed.push_back(EdgeUpdate::Delete(e.source, e.target));
      }
    }
    for (int i = 0; i < 4; ++i) {
      const Edge e{static_cast<VertexId>(rng.NextBounded(kN)),
                   static_cast<VertexId>(rng.NextBounded(kN))};
      mixed.push_back(EdgeUpdate::Insert(e.source, e.target));
      live.insert(e);
    }
    ASSERT_TRUE(copy->ApplyUpdate(mixed).ok());
    TransitiveClosure oracle;
    oracle.Build(
        Digraph::FromEdges(kN, std::vector<Edge>(live.begin(), live.end())));
    for (VertexId s = 0; s < kN; ++s) {
      for (VertexId t = 0; t < kN; ++t) {
        ASSERT_EQ(copy->Query(s, t), oracle.Query(s, t)) << s << "->" << t;
      }
    }
    EXPECT_EQ(AllAnswers(source, kN), source_answers);
    EXPECT_EQ(SaveBytes(source), source_bytes);

    // A copy of the damaged copy answers like it, and its rebuild seals a
    // labeling of its own.
    const auto* damaged = dynamic_cast<const PrunedTwoHop*>(copy.get());
    ASSERT_NE(damaged, nullptr);
    EXPECT_GT(damaged->Damage(), 0u);
    std::unique_ptr<DynamicReachabilityIndex> second = copy->Clone();
    EXPECT_EQ(AllAnswers(*second, kN), AllAnswers(*copy, kN));
    ASSERT_TRUE(second->RebuildFromUpdates());
    EXPECT_EQ(AllAnswers(*second, kN), AllAnswers(*copy, kN));
    EXPECT_EQ(AllAnswers(source, kN), source_answers);
    EXPECT_EQ(SaveBytes(source), source_bytes);
  }
}

// The ski-rental rebuild rule (`TwoHopCore::ApplyUpdate`): a damaged
// index asks for a full build once the rent its damaged queries paid
// reaches the price of its last build. An empty batch asks without
// changing anything.

// Deletes `graph`'s edges from `index` in order until one damages the
// labels; none of them may ask for a build (no query has paid rent).
void ApplyFirstDamagingDelete(DynamicReachabilityIndex& index,
                              const Digraph& graph) {
  for (const Edge& e : graph.Edges()) {
    const UpdateResult result =
        index.ApplyUpdate({EdgeUpdate::Delete(e.source, e.target)});
    ASSERT_EQ(result.status, UpdateStatus::kApplied);
    if (result.damage > 0) return;
  }
  FAIL() << "no damaging delete";
}

// Asks every pair, checked against `oracle`, pass after pass, until the
// rent reaches the build price; every ask before that must leave the
// index applied. Only the positives the lost sets leave in doubt pay, so
// one pass may pay less than the price.
void PayRentUntilDue(DynamicReachabilityIndex& index,
                     const TransitiveClosure& oracle, size_t n) {
  const uint64_t price = index.Rent().price;
  for (int pass = 0; pass < 64; ++pass) {
    for (VertexId s = 0; s < n; ++s) {
      for (VertexId t = 0; t < n; ++t) {
        if (index.Rent().paid >= price) return;
        ASSERT_EQ(index.ApplyUpdate({}).status, UpdateStatus::kApplied);
        ASSERT_EQ(index.Query(s, t), oracle.Query(s, t)) << s << "->" << t;
      }
    }
  }
  FAIL() << "64 passes over every pair, rent " << index.Rent().paid
         << " of " << price;
}

// On a DAG most deletes damage the labels, and without queries no rent
// is paid: however many damaging deletes arrive, none asks for a build.
TEST(PrunedTwoHopRentTest, DamagingDeletesWithoutQueriesAreNeverRecommended) {
  const Digraph g = ScaleFreeDag(2048, 3, 0xDA6);
  PrunedTwoHop index;
  index.Build(g);
  ASSERT_GT(index.Rent().price, 0u);
  std::vector<Edge> edges = g.Edges();
  Xoshiro256ss rng(0xDA7);
  for (size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.NextBounded(i)]);
  }
  for (const Edge& e : edges) {
    if (index.Damage() >= 120) break;
    const UpdateResult result =
        index.ApplyUpdate({EdgeUpdate::Delete(e.source, e.target)});
    ASSERT_EQ(result.status, UpdateStatus::kApplied) << result.damage;
  }
  ASSERT_GE(index.Damage(), 100u);
  EXPECT_EQ(index.Rent().paid, 0u);
  TransitiveClosure oracle;
  oracle.Build(*index.LiveGraph());
  for (VertexId s = 0; s < g.NumVertices(); s += 97) {
    for (VertexId t = 0; t < g.NumVertices(); t += 13) {
      ASSERT_EQ(index.Query(s, t), oracle.Query(s, t)) << s << "->" << t;
    }
  }
}

// On a cyclic graph the damaged positives the lost sets of one damaging
// delete leave in doubt run live searches and, pass by pass, pay for a
// build: the first ask after the rent reaches the price
// is recommended, and the build starts a fresh meter.
TEST(PrunedTwoHopRentTest, DamagedQueriesRecommendOnceTheRentReachesThePrice) {
  constexpr VertexId kN = 400;
  const Digraph g = RandomDigraph(kN, 4 * kN, 0x5C1);
  PrunedTwoHop index;
  index.Build(g);
  const RebuildRent built = index.Rent();
  EXPECT_EQ(built.paid, 0u);
  ASSERT_GT(built.price, 0u);
  ApplyFirstDamagingDelete(index, g);
  ASSERT_EQ(index.Damage(), 1u);
  TransitiveClosure oracle;
  oracle.Build(*index.LiveGraph());
  PayRentUntilDue(index, oracle, kN);
  ASSERT_GE(index.Rent().paid, built.price);
  const UpdateResult due = index.ApplyUpdate({});
  EXPECT_EQ(due.status, UpdateStatus::kDeferredRebuild);
  EXPECT_TRUE(due.rebuild_recommended);

  ASSERT_TRUE(index.RebuildFromUpdates());
  EXPECT_EQ(index.Damage(), 0u);
  EXPECT_EQ(index.Rent().paid, 0u);
  EXPECT_GT(index.Rent().price, 0u);
  EXPECT_EQ(index.ApplyUpdate({}).status, UpdateStatus::kApplied);
  ExpectMatchesOracle(index, oracle, kN, "rebuilt");
}

// A copy shares its source's meter: rent paid on either counts for both,
// until the copy's own build gives it a fresh meter.
TEST(PrunedTwoHopRentTest, ACopyPaysIntoItsSourcesRent) {
  constexpr VertexId kN = 300;
  const Digraph g = RandomDigraph(kN, 4 * kN, 0xC0B1);
  PrunedTwoHop source;
  source.Build(g);
  ApplyFirstDamagingDelete(source, g);
  std::unique_ptr<DynamicReachabilityIndex> copy = source.Clone();
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->Rent().price, source.Rent().price);
  TransitiveClosure oracle;
  oracle.Build(*source.LiveGraph());
  PayRentUntilDue(*copy, oracle, kN);
  EXPECT_EQ(source.Rent().paid, copy->Rent().paid);
  EXPECT_EQ(source.ApplyUpdate({}).status, UpdateStatus::kDeferredRebuild);

  const uint64_t paid = source.Rent().paid;
  ASSERT_TRUE(copy->RebuildFromUpdates());
  EXPECT_EQ(copy->Rent().paid, 0u);
  EXPECT_EQ(source.Rent().paid, paid);
  EXPECT_EQ(copy->ApplyUpdate({}).status, UpdateStatus::kApplied);
}

// A positive no cut could have lost is trusted without a live search and
// pays nothing: after one damaging delete on a cyclic graph, whose
// ancestors and descendants are most of the graph, a pass over every pair
// pays less than one unit per damaged positive, the least it paid when
// every superset positive paid.
TEST(PrunedTwoHopRentTest, TrustedPositivesPayNoRent) {
  constexpr VertexId kN = 400;
  const Digraph g = RandomDigraph(kN, 4 * kN, 0x5C1);
  PrunedTwoHop index;
  index.Build(g);
  ApplyFirstDamagingDelete(index, g);
  ASSERT_EQ(index.Damage(), 1u);
  TransitiveClosure oracle;
  oracle.Build(*index.LiveGraph());
  index.ResetProbe();
  uint64_t positives = 0;
  for (VertexId s = 0; s < kN; ++s) {
    for (VertexId t = 0; t < kN; ++t) {
      const bool reachable = index.Query(s, t);
      ASSERT_EQ(reachable, oracle.Query(s, t)) << s << "->" << t;
      if (reachable && s != t) ++positives;
    }
  }
  ASSERT_GT(positives, kN * kN / 2);
  EXPECT_LT(index.Rent().paid, positives);
  if (kMetricsCompiled) {
    EXPECT_LT(index.Probe().fallbacks, positives / 100);
  }
}

// An explicit `staleness=N` is a hard cap: the damaging delete past it
// asks for a build with no rent paid at all.
TEST(PrunedTwoHopRentTest, StalenessCapRecommendsWithoutRent) {
  MadeIndex made = MakeIndex("pll:staleness=3");
  ASSERT_TRUE(made);
  auto* index = dynamic_cast<DynamicReachabilityIndex*>(made.plain.get());
  ASSERT_NE(index, nullptr);
  const Digraph g = Chain(12);
  index->Build(g);
  for (const VertexId u : {1, 3, 5}) {
    EXPECT_EQ(index->ApplyUpdate({EdgeUpdate::Delete(u, u + 1)}).status,
              UpdateStatus::kApplied);
  }
  const UpdateResult over = index->ApplyUpdate({EdgeUpdate::Delete(7, 8)});
  EXPECT_EQ(over.status, UpdateStatus::kDeferredRebuild);
  EXPECT_EQ(over.damage, 4u);
  EXPECT_EQ(index->Rent().paid, 0u);
}

// A 2-hop build is one rank loop on the calling thread, so the price that
// damaged queries pay rent against, and the labeling itself, do not
// depend on the default thread count: `pll` and `lcr:pll` built at one
// thread and at four report the same price and save the same bytes.
TEST(PrunedTwoHopRentTest, BuildPriceAndBytesIgnoreTheThreadCount) {
  struct RestoreDefaultThreads {
    ~RestoreDefaultThreads() { SetDefaultThreads(0); }
  } restore;
  const Digraph g = ScaleFreeDag(4096, 3, 7);
  const LabeledDigraph lg = RandomLabeledDigraph(512, 2048, 4, 0x1c4);
  struct Built {
    uint64_t pll_price = 0, lcr_price = 0;
    std::string pll_bytes, lcr_bytes;
  };
  const auto build = [&](size_t threads) {
    SetDefaultThreads(threads);
    Built out;
    MadeIndex pll = MakeIndex("pll");
    MadeIndex lcr = MakeIndex("lcr:pll");
    auto& plain = dynamic_cast<PrunedTwoHop&>(*pll.plain);
    auto& labeled = dynamic_cast<PrunedLabeledTwoHop&>(*lcr.lcr);
    plain.Build(g);
    labeled.Build(lg);
    out.pll_price = plain.Rent().price;
    out.lcr_price = labeled.Rent().price;
    std::ostringstream pll_bytes, lcr_bytes;
    EXPECT_TRUE(plain.Save(pll_bytes));
    EXPECT_TRUE(labeled.Save(lcr_bytes));
    out.pll_bytes = pll_bytes.str();
    out.lcr_bytes = lcr_bytes.str();
    return out;
  };
  const Built one = build(1);
  const Built four = build(4);
  EXPECT_GT(one.pll_price, 0u);
  EXPECT_GT(one.lcr_price, 0u);
  EXPECT_EQ(one.pll_price, four.pll_price);
  EXPECT_EQ(one.lcr_price, four.lcr_price);
  EXPECT_EQ(one.pll_bytes, four.pll_bytes);
  EXPECT_EQ(one.lcr_bytes, four.lcr_bytes);
}

// A hub fanning out to eight two-arc chains, 0 -> i -> i + 8 for i in
// 1..8. With degree order the hub ranks first and is the witness of every
// pair it reaches.
Digraph HubOfChains() {
  std::vector<Edge> edges;
  for (VertexId i = 1; i <= 8; ++i) {
    edges.push_back({0, i});
    edges.push_back({i, i + 8});
  }
  return Digraph::FromEdges(17, edges);
}

// Cutting 1 -> 9 damages the hub's labels (it reaches the cut's tail),
// but only 9 lost its ancestors: the pair 0 -> 10, far from the cut, is a
// positive the lost sets trust, so it runs no live search, while 0 -> 9
// is verified and found lost.
TEST(PrunedTwoHopLostSetTest, APairFarFromTheCutRunsNoLiveSearch) {
  if (!kMetricsCompiled) GTEST_SKIP() << "probes compiled out";
  const Digraph g = HubOfChains();
  PrunedTwoHop index;
  index.Build(g);
  ASSERT_EQ(index.ApplyUpdate({EdgeUpdate::Delete(1, 9)}).damage, 1u);
  index.ResetProbe();
  EXPECT_TRUE(index.Query(0, 10));
  EXPECT_TRUE(index.Query(0, 16));
  EXPECT_TRUE(index.Query(2, 10));
  EXPECT_EQ(index.Probe().fallbacks, 0u);
  EXPECT_FALSE(index.Query(0, 9));
  EXPECT_FALSE(index.Query(1, 9));
  EXPECT_EQ(index.Probe().fallbacks, 2u);
  EXPECT_GT(index.Rent().paid, 0u);
}

// A copy's first damaging cut writes its own masks: the chunk it shares
// with its source is cloned first, so the source keeps trusting 0 -> 10,
// which the copy's cut of 2 -> 10 lost.
TEST(PrunedTwoHopLostSetTest, ACopysCutLeavesItsSourcesMasksAlone) {
  if (!kMetricsCompiled) GTEST_SKIP() << "probes compiled out";
  const Digraph g = HubOfChains();
  PrunedTwoHop source;
  source.Build(g);
  ASSERT_EQ(source.ApplyUpdate({EdgeUpdate::Delete(1, 9)}).damage, 1u);
  std::unique_ptr<DynamicReachabilityIndex> copy = source.Clone();
  ASSERT_EQ(copy->ApplyUpdate({EdgeUpdate::Delete(2, 10)}).damage, 2u);
  EXPECT_FALSE(copy->Query(0, 10));
  source.ResetProbe();
  EXPECT_TRUE(source.Query(0, 10));
  EXPECT_TRUE(source.Query(0, 11));
  EXPECT_EQ(source.Probe().fallbacks, 0u);
}

// A cycle of `cycle` vertices with a chord from every fifth vertex, and a
// tail of eight vertices hung off vertex 0: 0 -> cycle -> ... -> cycle + 7.
Digraph CycleWithTail(VertexId cycle) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v < cycle; ++v) {
    edges.push_back({v, (v + 1) % cycle});
    if (v % 5 == 0) edges.push_back({v, (v + 37) % cycle});
  }
  edges.push_back({0, cycle});
  for (VertexId v = cycle; v + 1 < cycle + 8; ++v) edges.push_back({v, v + 1});
  return Digraph::FromEdges(cycle + 8, edges);
}

// Cutting 0 -> tail loses every cycle -> tail pair. The cut's lost target
// set, the tail, is small, but its lost source set is the whole cycle,
// which past `kLocalSearchBudget` vertices overruns the sweep: from then
// on every damaged positive is verified live and pays rent, 1 -> 2 too,
// which no cut lost and which a cycle within the budget trusts for free.
// Sampled answers match a BFS of the live graph.
TEST(PrunedTwoHopLostSetTest, AnOverrunVerifiesEveryDamagedPositive) {
  constexpr VertexId kBudget =
      TwoHopCore<PlainTwoHopTraits>::kLocalSearchBudget;
  const auto cut_tail = [](PrunedTwoHop& index, const Digraph& g) {
    index.Build(g);
    const auto cycle = static_cast<VertexId>(g.NumVertices() - 8);
    ASSERT_EQ(index.ApplyUpdate({EdgeUpdate::Delete(0, cycle)}).damage, 1u);
  };
  const Digraph small = CycleWithTail(kBudget * 3 / 4);
  PrunedTwoHop within;
  cut_tail(within, small);
  EXPECT_TRUE(within.Query(1, 2));
  EXPECT_EQ(within.Rent().paid, 0u);

  constexpr VertexId kCycle = kBudget * 3 / 2;
  const Digraph large = CycleWithTail(kCycle);
  PrunedTwoHop index;
  cut_tail(index, large);
  const std::unique_ptr<Digraph> live = index.LiveGraph();
  SearchWorkspace ws;
  Xoshiro256ss rng(0x0E7);
  size_t positives = 0;
  for (int i = 0; i < 200; ++i) {
    const auto s = static_cast<VertexId>(rng.NextBounded(kCycle + 8));
    // Every fourth target is in the tail, which only the tail reaches.
    const auto t = static_cast<VertexId>(
        i % 4 == 0 ? kCycle + rng.NextBounded(8) : rng.NextBounded(kCycle));
    const uint64_t paid = index.Rent().paid;
    const bool reachable = index.Query(s, t);
    ASSERT_EQ(reachable, BfsReachability(*live, s, t, ws)) << s << "->" << t;
    if (reachable && s != t) {
      ++positives;
      EXPECT_GT(index.Rent().paid, paid) << s << "->" << t;
    }
  }
  EXPECT_GT(positives, 100u);
}

TEST(PrunedTwoHopTest, NamesReflectOrders) {
  EXPECT_EQ(PrunedTwoHop(VertexOrder::kDegree).Name(), "pll");
  EXPECT_EQ(PrunedTwoHop(VertexOrder::kTopological).Name(), "tfl");
  EXPECT_EQ(PrunedTwoHop(VertexOrder::kRandom).Name(), "tol(random)");
}

}  // namespace
}  // namespace reach
