#include "lcr/pruned_labeled_two_hop.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/index_factory.h"
#include "graph/figure1.h"
#include "graph/generators.h"
#include "graph/rng.h"
#include "lcr/gtc_index.h"
#include "lcr/lcr_bfs.h"

namespace reach {
namespace {

TEST(PrunedLabeledTwoHopTest, Figure1RlcPrerequisitePath) {
  // The alternation relaxation of the §4.2 example: L reaches B using only
  // {worksFor, friendOf}.
  using namespace figure1;
  const LabeledDigraph g = LabeledGraph();
  PrunedLabeledTwoHop index;
  index.Build(g);
  EXPECT_TRUE(index.Query(kL, kB, MakeLabelSet({kWorksFor, kFriendOf})));
  EXPECT_FALSE(index.Query(kL, kB, MakeLabelSet({kWorksFor})));
  EXPECT_FALSE(index.Query(kL, kB, MakeLabelSet({kFriendOf})));
}

TEST(PrunedLabeledTwoHopTest, EntriesStayModestOnHubGraphs) {
  // The degree order puts the hub first, so spokes carry one entry per
  // direction instead of quadratic blowup.
  std::vector<LabeledEdge> edges;
  for (VertexId v = 1; v <= 30; ++v) edges.push_back({v, 0, 0});
  for (VertexId v = 31; v <= 60; ++v) edges.push_back({0, v, 1});
  const LabeledDigraph g = LabeledDigraph::FromEdges(61, 2, edges);
  PrunedLabeledTwoHop index;
  index.Build(g);
  EXPECT_LE(index.TotalEntries(), 2u * 61u);
  EXPECT_TRUE(index.Query(5, 40, MakeLabelSet({0, 1})));
  EXPECT_FALSE(index.Query(5, 40, MakeLabelSet({0})));
}

TEST(PrunedLabeledTwoHopTest, InsertEdgeBridgesComponents) {
  const LabeledDigraph g = LabeledDigraph::FromEdges(
      4, 2, {{0, 1, 0}, {2, 3, 1}});
  PrunedLabeledTwoHop index;
  index.Build(g);
  EXPECT_FALSE(index.Query(0, 3, 0b11));
  const UpdateResult result =
      index.ApplyUpdate({LabeledEdgeUpdate::Insert(1, 2, 0)});
  EXPECT_EQ(result.status, UpdateStatus::kApplied);
  EXPECT_EQ(result.applied, 1u);
  EXPECT_TRUE(index.Query(0, 3, 0b11));
  EXPECT_FALSE(index.Query(0, 3, 0b01));  // still needs label 1 for 2->3
  EXPECT_TRUE(index.Query(0, 2, 0b01));
}

TEST(PrunedLabeledTwoHopTest, InsertParallelEdgeAddsCheaperSpls) {
  const LabeledDigraph g = LabeledDigraph::FromEdges(
      2, 2, {{0, 1, 1}});
  PrunedLabeledTwoHop index;
  index.Build(g);
  EXPECT_FALSE(index.Query(0, 1, 0b01));
  // Parallel edge, different label.
  ASSERT_TRUE(index.ApplyUpdate({LabeledEdgeUpdate::Insert(0, 1, 0)}).ok());
  EXPECT_TRUE(index.Query(0, 1, 0b01));
  EXPECT_TRUE(index.Query(0, 1, 0b10));
}

TEST(PrunedLabeledTwoHopTest, InsertDuplicateEdgeIsNoop) {
  const LabeledDigraph g =
      LabeledDigraph::FromEdges(2, 2, {{0, 1, 0}});
  PrunedLabeledTwoHop index;
  index.Build(g);
  const size_t before = index.TotalEntries();
  const UpdateResult result =
      index.ApplyUpdate({LabeledEdgeUpdate::Insert(0, 1, 0)});
  EXPECT_EQ(result.applied, 0u);
  EXPECT_EQ(result.ignored, 1u);
  EXPECT_EQ(index.TotalEntries(), before);
}

TEST(PrunedLabeledTwoHopTest, InsertOffTheDetourLabelIsNotRedundant) {
  // 0 -0-> 1 -0-> 2 connects 0 to 2 under label 0 only. A label-1 arc
  // 0 -> 2 opens the {1} answer, so it must add entries; a label-0 one
  // after it is redundant and adds none.
  std::vector<LabeledEdge> edges = {{0, 1, 0}, {1, 2, 0}};
  PrunedLabeledTwoHop index;
  const LabeledDigraph g = LabeledDigraph::FromEdges(3, 2, edges);
  index.Build(g);
  const size_t before = index.TotalEntries();
  ASSERT_TRUE(index.ApplyUpdate({LabeledEdgeUpdate::Insert(0, 2, 1)}).ok());
  EXPECT_GT(index.TotalEntries(), before);
  const size_t after = index.TotalEntries();
  ASSERT_TRUE(index.ApplyUpdate({LabeledEdgeUpdate::Insert(0, 2, 0)}).ok());
  EXPECT_EQ(index.TotalEntries(), after);
  edges.push_back({0, 2, 1});
  edges.push_back({0, 2, 0});
  const LabeledDigraph current = LabeledDigraph::FromEdges(3, 2, edges);
  SearchWorkspace ws;
  for (VertexId s = 0; s < 3; ++s) {
    for (VertexId t = 0; t < 3; ++t) {
      for (LabelSet mask = 0; mask < 4; ++mask) {
        EXPECT_EQ(index.Query(s, t, mask),
                  LcrBfsReachability(current, s, t, mask, ws))
            << s << "->" << t << " mask=" << mask;
      }
    }
  }
}

// h reaches a, and so c, through the hub g under {0, 1}; t reaches a and
// b. Inserting (s, t) under label 1 resumes the sweeps of (h, {0}) (the
// entry of Lin(s)) and (s, ∅) from t with {0, 1} and {1}: h's stops at a,
// which the index answers under {0, 1} already, so h goes into Lin(t) and
// Lin(b) only, while s goes into the Lin of all of t, a, b and c — six
// entries, where adding each hop to all of Reach(t) takes eight. Under
// label 0 the insert opens h -> a under {0}, which the index does not
// answer, so nothing is pruned and it takes all eight.
TEST(PrunedLabeledTwoHopTest, InsertStopsWhereAHopAlreadyReaches) {
  constexpr VertexId g = 0, h = 1, a = 2, t = 3, s = 4, b = 5, c = 6;
  // x1 = 7 and x2 = 8 only give g the top rank. Degree order: g, a, h, t,
  // s, b, c, x1, x2.
  const std::vector<LabeledEdge> edges = {
      {h, g, 0}, {g, a, 1}, {g, 7, 0}, {g, 8, 0},
      {a, c, 0}, {h, s, 0}, {t, a, 0}, {t, b, 1}};
  for (const auto& [label, added] :
       {std::pair<Label, size_t>{1, 6}, {0, 8}}) {
    PrunedLabeledTwoHop index;
    const LabeledDigraph before = LabeledDigraph::FromEdges(9, 2, edges);
    index.Build(before);
    ASSERT_TRUE(index.Query(h, c, 0b11));
    ASSERT_FALSE(index.Query(h, c, 0b01));
    const size_t entries = index.TotalEntries();
    ASSERT_TRUE(
        index.ApplyUpdate({LabeledEdgeUpdate::Insert(s, t, label)}).ok());
    EXPECT_EQ(index.TotalEntries(), entries + added) << "label " << label;
    std::vector<LabeledEdge> after = edges;
    after.push_back({s, t, label});
    const LabeledDigraph current = LabeledDigraph::FromEdges(9, 2, after);
    SearchWorkspace ws;
    for (VertexId x = 0; x < 9; ++x) {
      for (VertexId y = 0; y < 9; ++y) {
        for (LabelSet mask = 0; mask < 4; ++mask) {
          EXPECT_EQ(index.Query(x, y, mask),
                    LcrBfsReachability(current, x, y, mask, ws))
              << x << "->" << y << " mask=" << mask << " label " << label;
        }
      }
    }
  }
}

// 64 random inserts into a 512-vertex, 4-label random graph, with no
// rebuild between them: answers stay exact, and the index stays within a
// small factor of a fresh build over the final graph.
TEST(PrunedLabeledTwoHopTest, InsertStreamStaysNearAFreshBuild) {
  constexpr VertexId n = 512;
  constexpr Label num_labels = 4;
  std::vector<LabeledEdge> edges =
      RandomLabeledDigraph(n, 3 * n, num_labels, 0x1A5E).Edges();
  PrunedLabeledTwoHop index;
  const LabeledDigraph base = LabeledDigraph::FromEdges(n, num_labels, edges);
  index.Build(base);
  Xoshiro256ss rng(0x1A5F);
  for (int inserts = 0; inserts < 64;) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    const Label l = static_cast<Label>(rng.NextBounded(num_labels));
    if (u == v) continue;
    const UpdateResult result =
        index.ApplyUpdate({LabeledEdgeUpdate::Insert(u, v, l)});
    ASSERT_EQ(result.status, UpdateStatus::kApplied);
    if (result.applied == 0) continue;  // the arc was there already
    edges.push_back({u, v, l});
    ++inserts;
  }
  const LabeledDigraph current =
      LabeledDigraph::FromEdges(n, num_labels, edges);
  PrunedLabeledTwoHop fresh;
  fresh.Build(current);
  EXPECT_LE(index.TotalEntries(), 8 * fresh.TotalEntries())
      << "fresh build: " << fresh.TotalEntries();
  // Every mask from every 8th source: one constrained BFS each.
  std::vector<uint8_t> seen(n);
  std::vector<VertexId> queue;
  for (LabelSet mask = 0; mask < (1u << num_labels); ++mask) {
    for (VertexId s = 0; s < n; s += 8) {
      std::fill(seen.begin(), seen.end(), 0);
      queue.assign(1, s);
      seen[s] = 1;
      for (size_t head = 0; head < queue.size(); ++head) {
        for (const auto& arc : current.OutArcs(queue[head])) {
          if ((LabelBit(arc.label) & mask) == 0 || seen[arc.vertex]) continue;
          seen[arc.vertex] = 1;
          queue.push_back(arc.vertex);
        }
      }
      for (VertexId t = 0; t < n; ++t) {
        ASSERT_EQ(index.Query(s, t, mask), seen[t] != 0)
            << s << "->" << t << " mask=" << mask;
      }
    }
  }
}

class LabeledInsertStreamTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LabeledInsertStreamTest, IncrementalMatchesOracleAfterEveryBatch) {
  const uint64_t seed = GetParam();
  const VertexId n = 16;
  const Label num_labels = 3;
  Xoshiro256ss rng(seed);
  std::vector<LabeledEdge> edges =
      RandomLabeledDigraph(n, 26, num_labels, seed).Edges();
  PrunedLabeledTwoHop index;
  LabeledDigraph base = LabeledDigraph::FromEdges(n, num_labels, edges);
  index.Build(base);

  SearchWorkspace ws;
  for (int step = 0; step < 18; ++step) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    const Label l = static_cast<Label>(rng.NextBounded(num_labels));
    if (u == v) continue;
    ASSERT_TRUE(
        index.ApplyUpdate({LabeledEdgeUpdate::Insert(u, v, l)}).ok());
    edges.push_back({u, v, l});
    if (step % 6 != 5) continue;  // verify every 6th step (all-pairs scan)
    const LabeledDigraph current =
        LabeledDigraph::FromEdges(n, num_labels, edges);
    for (VertexId s = 0; s < n; ++s) {
      for (VertexId t = 0; t < n; ++t) {
        for (LabelSet mask = 0; mask < (1u << num_labels); ++mask) {
          ASSERT_EQ(index.Query(s, t, mask),
                    LcrBfsReachability(current, s, t, mask, ws))
              << s << "->" << t << " mask=" << mask << " step=" << step
              << " seed=" << seed;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LabeledInsertStreamTest,
                         ::testing::Values(161, 162, 163, 164));

TEST(PrunedLabeledTwoHopTest, DeleteEdgeIncrementally) {
  const LabeledDigraph g = LabeledDigraph::FromEdges(
      3, 2, {{0, 1, 0}, {1, 2, 1}});
  PrunedLabeledTwoHop index;
  index.Build(g);
  EXPECT_TRUE(index.Query(0, 2, 0b11));
  ASSERT_TRUE(index.ApplyUpdate({LabeledEdgeUpdate::Delete(1, 2, 1)}).ok());
  EXPECT_FALSE(index.Query(0, 2, 0b11));
  EXPECT_TRUE(index.Query(0, 1, 0b01));
  // Inserted edges survive unrelated deletions.
  ASSERT_TRUE(index.ApplyUpdate({LabeledEdgeUpdate::Insert(1, 2, 0)}).ok());
  EXPECT_TRUE(index.Query(0, 2, 0b01));
  ASSERT_TRUE(index.ApplyUpdate({LabeledEdgeUpdate::Delete(0, 1, 0)}).ok());
  EXPECT_FALSE(index.Query(0, 2, 0b01));
  EXPECT_TRUE(index.Query(1, 2, 0b01));
}

TEST(PrunedLabeledTwoHopTest, DeleteOnlySeversThatLabel) {
  // Parallel arcs 0->1 under labels 0 and 1: deleting the label-0 arc
  // must keep the label-1 route answering, and vice-versa queries that
  // allowed only label 0 must now fail.
  const LabeledDigraph g =
      LabeledDigraph::FromEdges(2, 2, {{0, 1, 0}, {0, 1, 1}});
  PrunedLabeledTwoHop index;
  index.Build(g);
  ASSERT_TRUE(index.ApplyUpdate({LabeledEdgeUpdate::Delete(0, 1, 0)}).ok());
  EXPECT_FALSE(index.Query(0, 1, 0b01));
  EXPECT_TRUE(index.Query(0, 1, 0b10));
  EXPECT_TRUE(index.Query(0, 1, 0b11));
}

// The re-delete rule under labels: on a two-label ring every arc is
// damaging, and deleting a resurrected arc again, which finds it cut
// already, leaves `Damage()` at one, with every answer under every label
// set matching the live ring.
TEST(PrunedLabeledTwoHopTest, RedeletingAResurrectedArcAddsNoDamage) {
  constexpr VertexId kN = 10;
  constexpr Label kLabels = 2;
  std::vector<LabeledEdge> ring;
  for (VertexId v = 0; v < kN; ++v) {
    ring.push_back({v, (v + 1) % kN, v % kLabels});
  }
  MadeIndex made = MakeIndex("lcr:pll");
  auto* index = dynamic_cast<PrunedLabeledTwoHop*>(made.lcr.get());
  ASSERT_NE(index, nullptr);
  const LabeledDigraph g = LabeledDigraph::FromEdges(kN, kLabels, ring);
  index->Build(g);
  SearchWorkspace ws;
  const LabeledEdge cut = ring[3];
  const auto step = [&](LabeledEdgeUpdate update, bool live,
                        const std::string& when) {
    ASSERT_TRUE(index->ApplyUpdate({update}).ok()) << when;
    EXPECT_EQ(index->Damage(), 1u) << when;
    std::vector<LabeledEdge> edges = ring;
    if (!live) std::erase(edges, cut);
    const LabeledDigraph truth =
        LabeledDigraph::FromEdges(kN, kLabels, edges);
    for (VertexId s = 0; s < kN; ++s) {
      for (VertexId t = 0; t < kN; ++t) {
        for (LabelSet mask = 1; mask < (1u << kLabels); ++mask) {
          ASSERT_EQ(index->Query(s, t, mask),
                    LcrBfsReachability(truth, s, t, mask, ws))
              << when << ": " << s << "->" << t << " mask " << mask;
        }
      }
    }
  };
  step(LabeledEdgeUpdate::Delete(cut.source, cut.target, cut.label), false,
       "delete");
  step(LabeledEdgeUpdate::Insert(cut.source, cut.target, cut.label), true,
       "resurrect");
  step(LabeledEdgeUpdate::Delete(cut.source, cut.target, cut.label), false,
       "delete again");
}

// Every answer of `index` under every label set matches a BFS of `edges`.
void ExpectMatchesLive(const PrunedLabeledTwoHop& index, VertexId n,
                       Label labels, const std::vector<LabeledEdge>& edges,
                       const std::string& when) {
  const LabeledDigraph truth = LabeledDigraph::FromEdges(n, labels, edges);
  SearchWorkspace ws;
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = 0; t < n; ++t) {
      for (LabelSet mask = 1; mask < (1u << labels); ++mask) {
        ASSERT_EQ(index.Query(s, t, mask),
                  LcrBfsReachability(truth, s, t, mask, ws))
            << when << ": " << s << "->" << t << " mask " << mask;
      }
    }
  }
}

// s -b-> u -b-> v -b-> t, and s -a-> v. Cutting (u, v) loses s -> t under
// {b} but not under {a, b}: s still reaches v, through a. A lost source
// set that left out the vertices still reaching v in G- along any label,
// not only the cut's, would trust the stale {b} positive.
TEST(PrunedLabeledTwoHopTest, ACutLosesAPairOnlyUnderItsOwnLabels) {
  constexpr VertexId s = 0, u = 1, v = 2, t = 3;
  constexpr Label a = 0, b = 1;
  const std::vector<LabeledEdge> edges = {
      {s, u, b}, {u, v, b}, {v, t, b}, {s, v, a}};
  const LabeledDigraph g = LabeledDigraph::FromEdges(4, 2, edges);
  PrunedLabeledTwoHop index;
  index.Build(g);
  ASSERT_EQ(index.ApplyUpdate({LabeledEdgeUpdate::Delete(u, v, b)}).damage,
            1u);
  EXPECT_FALSE(index.Query(s, t, LabelBit(b)));
  EXPECT_TRUE(index.Query(s, t, LabelBit(a) | LabelBit(b)));
  ExpectMatchesLive(index, 4, 2, {{s, u, b}, {v, t, b}, {s, v, a}}, "cut");
}

// `TwoHopLostSetTest.RedeleteAfterAnotherCutLosesAPair` under labels: s
// -a-> u -a-> v, s -b-> w -b-> v, v -a-> t. Delete (u, v), re-insert it,
// delete (w, v), then delete (u, v) again: s no longer reaches t under
// any label set. The last delete is a re-delete, which changes no damage
// state; only the lost sets of the earlier cuts make the answer exact.
TEST(PrunedLabeledTwoHopTest, RedeleteAfterAnotherCutLosesAPair) {
  constexpr VertexId s = 0, u = 1, v = 2, w = 3, t = 4;
  constexpr Label a = 0, b = 1;
  constexpr LabelSet kAll = 0b11;
  std::vector<LabeledEdge> live = {
      {s, u, a}, {u, v, a}, {s, w, b}, {w, v, b}, {v, t, a}};
  const LabeledDigraph g = LabeledDigraph::FromEdges(5, 2, live);
  PrunedLabeledTwoHop index;
  index.Build(g);
  const auto step = [&](LabeledEdgeUpdate update, const std::string& when) {
    ASSERT_TRUE(index.ApplyUpdate({update}).ok()) << when;
    const LabeledEdge edge{update.source, update.target, update.label};
    if (update.IsInsert()) {
      live.push_back(edge);
    } else {
      std::erase(live, edge);
    }
    ExpectMatchesLive(index, 5, 2, live, when);
  };
  step(LabeledEdgeUpdate::Delete(u, v, a), "delete (u, v)");
  EXPECT_TRUE(index.Query(s, t, kAll));
  EXPECT_FALSE(index.Query(s, t, LabelBit(a)));
  step(LabeledEdgeUpdate::Insert(u, v, a), "resurrect (u, v)");
  EXPECT_TRUE(index.Query(s, t, LabelBit(a)));
  step(LabeledEdgeUpdate::Delete(w, v, b), "delete (w, v)");
  EXPECT_TRUE(index.Query(s, t, kAll));
  const size_t damage = index.Damage();
  step(LabeledEdgeUpdate::Delete(u, v, a), "delete (u, v) again");
  EXPECT_EQ(index.Damage(), damage);
  EXPECT_FALSE(index.Query(s, t, kAll));
  EXPECT_FALSE(index.Query(s, v, kAll));
  EXPECT_TRUE(index.Query(s, w, kAll));
  EXPECT_TRUE(index.Query(v, t, kAll));
}

// `PrunedTwoHopLostSetTest.AnOverrunVerifiesEveryDamagedPositive` under
// labels: a two-label cycle with label-0 chords and a label-1 tail hung
// off vertex 0. Cutting 0 -> tail overruns the lost source set's sweep
// once the cycle passes `kLocalSearchBudget` vertices, and from then on
// every damaged positive pays rent, 1 -> 2 too.
TEST(PrunedLabeledTwoHopTest, AnOverrunVerifiesEveryDamagedPositive) {
  constexpr VertexId kBudget =
      TwoHopCore<LabeledTwoHopTraits>::kLocalSearchBudget;
  constexpr LabelSet kAll = 0b11;
  // Builds `index` over `*g` and returns the live graph after the cut.
  const auto cut_tail = [](PrunedLabeledTwoHop& index, LabeledDigraph* g,
                           VertexId cycle) {
    std::vector<LabeledEdge> edges;
    for (VertexId v = 0; v < cycle; ++v) {
      edges.push_back({v, (v + 1) % cycle, v % 2});
      if (v % 5 == 0) edges.push_back({v, (v + 37) % cycle, 0});
    }
    for (VertexId v = cycle; v + 1 < cycle + 8; ++v) {
      edges.push_back({v, v + 1, 1});
    }
    edges.push_back({0, cycle, 1});
    *g = LabeledDigraph::FromEdges(cycle + 8, 2, edges);
    index.Build(*g);
    EXPECT_EQ(
        index.ApplyUpdate({LabeledEdgeUpdate::Delete(0, cycle, 1)}).damage,
        1u);
    edges.pop_back();
    return LabeledDigraph::FromEdges(cycle + 8, 2, edges);
  };
  LabeledDigraph small, large;
  PrunedLabeledTwoHop within;
  cut_tail(within, &small, kBudget * 3 / 4);
  EXPECT_TRUE(within.Query(1, 2, kAll));
  EXPECT_EQ(within.Rent().paid, 0u);

  constexpr VertexId kCycle = kBudget * 3 / 2;
  PrunedLabeledTwoHop index;
  const LabeledDigraph live = cut_tail(index, &large, kCycle);
  SearchWorkspace ws;
  Xoshiro256ss rng(0x0E8);
  size_t positives = 0;
  for (int i = 0; i < 200; ++i) {
    const auto s = static_cast<VertexId>(rng.NextBounded(kCycle + 8));
    // Every fourth target is in the tail, which only the tail reaches.
    const auto t = static_cast<VertexId>(
        i % 4 == 0 ? kCycle + rng.NextBounded(8) : rng.NextBounded(kCycle));
    const LabelSet mask = i % 3 == 0 ? LabelSet{0b01} : kAll;
    const uint64_t paid = index.Rent().paid;
    const bool reachable = index.Query(s, t, mask);
    ASSERT_EQ(reachable, LcrBfsReachability(live, s, t, mask, ws))
        << s << "->" << t << " mask " << mask;
    if (reachable && s != t) {
      ++positives;
      EXPECT_GT(index.Rent().paid, paid) << s << "->" << t;
    }
  }
  EXPECT_GT(positives, 50u);
}

TEST(PrunedLabeledTwoHopTest, MixedBatchAndRebuildFromUpdates) {
  const LabeledDigraph g = LabeledDigraph::FromEdges(
      4, 2, {{0, 1, 0}, {1, 2, 0}, {2, 3, 1}});
  PrunedLabeledTwoHop index;
  index.Build(g);
  // One batch: bypass 1 with a direct 0->2 arc, then cut 1->2. Order
  // matters — the insert lands before the delete is evaluated.
  const UpdateResult result = index.ApplyUpdate(
      {LabeledEdgeUpdate::Insert(0, 2, 0), LabeledEdgeUpdate::Delete(1, 2, 0)});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(index.Query(0, 3, 0b11));
  EXPECT_FALSE(index.Query(1, 3, 0b11));
  ASSERT_TRUE(index.RebuildFromUpdates());
  EXPECT_EQ(index.Damage(), 0u);
  EXPECT_TRUE(index.Query(0, 3, 0b11));
  EXPECT_FALSE(index.Query(1, 3, 0b11));
  EXPECT_TRUE(index.Query(0, 2, 0b01));
}

// `lcr:pll` rebuilds by the plain index's ski-rental rule: damaging
// deletes alone never ask for a build, and damaged queries ask once their
// rent reaches the price of the last build, which a rebuild resets.
TEST(PrunedLabeledTwoHopTest, RebuildsOnceDamagedQueriesPayForOne) {
  constexpr VertexId kN = 200;
  constexpr Label kLabels = 2;
  const LabeledDigraph g = RandomLabeledDigraph(kN, 5 * kN, kLabels, 0x1C2);
  MadeIndex made = MakeIndex("lcr:pll");
  auto* index = dynamic_cast<PrunedLabeledTwoHop*>(made.lcr.get());
  ASSERT_NE(index, nullptr);
  index->Build(g);
  const uint64_t price = index->Rent().price;
  ASSERT_GT(price, 0u);
  std::vector<LabeledEdge> live = g.Edges();
  for (const LabeledEdge& e : g.Edges()) {
    if (index->Damage() > 0) break;
    const UpdateResult result = index->ApplyUpdate(
        {LabeledEdgeUpdate::Delete(e.source, e.target, e.label)});
    ASSERT_EQ(result.status, UpdateStatus::kApplied);
    std::erase(live, e);
  }
  ASSERT_EQ(index->Damage(), 1u);
  EXPECT_EQ(index->Rent().paid, 0u);

  const LabeledDigraph truth = LabeledDigraph::FromEdges(kN, kLabels, live);
  SearchWorkspace ws;
  const LabelSet all = (1u << kLabels) - 1;
  for (VertexId s = 0; s < kN && index->Rent().paid < price; ++s) {
    for (VertexId t = 0; t < kN && index->Rent().paid < price; ++t) {
      ASSERT_EQ(index->ApplyUpdate({}).status, UpdateStatus::kApplied);
      ASSERT_EQ(index->Query(s, t, all),
                LcrBfsReachability(truth, s, t, all, ws))
          << s << "->" << t;
    }
  }
  ASSERT_GE(index->Rent().paid, price);
  EXPECT_EQ(index->ApplyUpdate({}).status, UpdateStatus::kDeferredRebuild);
  ASSERT_TRUE(index->RebuildFromUpdates());
  EXPECT_EQ(index->Rent().paid, 0u);
  EXPECT_EQ(index->ApplyUpdate({}).status, UpdateStatus::kApplied);
}

TEST(PrunedLabeledTwoHopTest, AgreesWithGtcOnSplsCoverage) {
  // P2H and GTC must answer identically even though they store different
  // structures (hop-split SPLSs vs per-pair SPLSs).
  const LabeledDigraph g = RandomLabeledDigraph(20, 80, 4, 99);
  PrunedLabeledTwoHop p2h;
  GtcIndex gtc;
  p2h.Build(g);
  gtc.Build(g);
  for (VertexId s = 0; s < g.NumVertices(); ++s) {
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      for (LabelSet mask = 0; mask < 16; ++mask) {
        ASSERT_EQ(p2h.Query(s, t, mask), gtc.Query(s, t, mask))
            << s << "->" << t << " mask " << mask;
      }
    }
  }
}

}  // namespace
}  // namespace reach
