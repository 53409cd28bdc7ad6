// Churn differential suite for the unified batched write API (ISSUE 10
// acceptance): random insert/delete mixes through `ApplyUpdate` on every
// deletion-capable index on the roster — pll, dagger, the fastpath
// wrapper, and the labeled 2-hop — cross-checked against a BFS oracle,
// with zero full rebuilds until the index recommends one and
// SCC split/merge transitions handled in place.

#include <algorithm>
#include <iterator>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/index_factory.h"
#include "core/reachability_index.h"
#include "graph/generators.h"
#include "graph/rng.h"
#include "lcr/lcr_bfs.h"
#include "lcr/pruned_labeled_two_hop.h"
#include "plain/pruned_two_hop.h"
#include "traversal/online_search.h"

namespace reach {
namespace {

// The deletion-capable plain roster, exercised through the factory so the
// test covers exactly what `MakeIndex` hands out (wrapper and compressed
// label storage included).
const char* const kDecrementalSpecs[] = {"pll", "dagger", "pll:fastpath=1",
                                         "pll:compress=1"};

// The spec is held as a std::string so the printed parameter, and with it
// the discovered test name, shows the spec text rather than the
// per-process address of a string literal.
class PlainChurnTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(PlainChurnTest, MixedBatchesMatchOracleWithoutEagerRebuilds) {
  const auto& [spec, seed] = GetParam();
  MadeIndex made = MakeIndex(spec);
  ASSERT_TRUE(made) << spec;
  ASSERT_TRUE(made.caps.decremental) << spec;
  auto* index = dynamic_cast<DynamicReachabilityIndex*>(made.plain.get());
  ASSERT_NE(index, nullptr) << spec;

  const VertexId n = 20;
  Xoshiro256ss rng(seed);
  std::vector<Edge> live = RandomDigraph(n, 34, seed).Edges();
  const Digraph base = Digraph::FromEdges(n, live);
  index->Build(base);

  size_t rebuilds = 0;
  size_t recommendations = 0;
  SearchWorkspace ws;
  for (int step = 0; step < 100; ++step) {
    // Compose a batch of 1-3 updates, mixing inserts and deletes.
    UpdateBatch batch;
    const size_t batch_size = 1 + rng.NextBounded(3);
    for (size_t i = 0; i < batch_size; ++i) {
      const bool do_delete = !live.empty() && rng.NextBounded(10) < 3;
      if (do_delete) {
        const Edge e = live[rng.NextBounded(live.size())];
        batch.push_back(EdgeUpdate::Delete(e.source, e.target));
        std::erase(live, e);  // the API deletes the arc, not one copy
      } else {
        const auto u = static_cast<VertexId>(rng.NextBounded(n));
        const auto v = static_cast<VertexId>(rng.NextBounded(n));
        if (u == v) continue;
        batch.push_back(EdgeUpdate::Insert(u, v));
        if (std::find(live.begin(), live.end(), Edge{u, v}) == live.end()) {
          live.push_back({u, v});
        }
      }
    }
    if (batch.empty()) continue;

    const UpdateResult result = index->ApplyUpdate(batch);
    // The UpdateResult contract: accepted batches are kApplied or
    // kDeferredRebuild (advisory), never silently dropped.
    ASSERT_TRUE(result.ok()) << spec << " step " << step << ": "
                             << result.reason;
    ASSERT_EQ(result.applied + result.ignored, batch.size())
        << spec << " step " << step;
    if (result.rebuild_recommended) {
      ASSERT_EQ(result.status, UpdateStatus::kDeferredRebuild);
      ++recommendations;
      ASSERT_TRUE(index->RebuildFromUpdates()) << spec << " step " << step;
      ++rebuilds;
    } else {
      ASSERT_EQ(result.status, UpdateStatus::kApplied);
    }

    if (step % 5 != 4) continue;
    const Digraph truth = Digraph::FromEdges(n, live);
    for (VertexId s = 0; s < n; ++s) {
      for (VertexId t = 0; t < n; ++t) {
        ASSERT_EQ(made.plain->Query(s, t), BfsReachability(truth, s, t, ws))
            << spec << " step " << step << ": " << s << "->" << t;
      }
    }
  }
  // The acceptance bar: every rebuild was policy-driven — none happened
  // before the index recommended it.
  EXPECT_EQ(rebuilds, recommendations) << spec;
}

INSTANTIATE_TEST_SUITE_P(
    Roster, PlainChurnTest,
    ::testing::Combine(
        ::testing::ValuesIn(std::vector<std::string>(
            std::begin(kDecrementalSpecs), std::end(kDecrementalSpecs))),
        ::testing::Values(811u, 812u)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_" + std::to_string(std::get<1>(info.param));
    });

class SccChurnTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SccChurnTest, SplitAndMergeStayExact) {
  // 0 -> 1 -> 2 -> 3 -> 1 (cycle {1,2,3}) -> 4. Deleting 3->1 splits the
  // SCC into singletons; re-inserting merges it back. Both transitions
  // must be absorbed without a Build.
  MadeIndex made = MakeIndex(GetParam());
  ASSERT_TRUE(made);
  auto* index = dynamic_cast<DynamicReachabilityIndex*>(made.plain.get());
  ASSERT_NE(index, nullptr);
  const Digraph g =
      Digraph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 1}, {3, 4}});
  index->Build(g);
  EXPECT_TRUE(made.plain->Query(3, 1));
  EXPECT_TRUE(made.plain->Query(2, 1));

  ASSERT_TRUE(index->ApplyUpdate({EdgeUpdate::Delete(3, 1)}).ok());
  EXPECT_FALSE(made.plain->Query(3, 1));  // SCC split
  EXPECT_FALSE(made.plain->Query(2, 1));
  EXPECT_TRUE(made.plain->Query(1, 3));   // the forward chain survives
  EXPECT_TRUE(made.plain->Query(0, 4));

  ASSERT_TRUE(index->ApplyUpdate({EdgeUpdate::Insert(3, 1)}).ok());
  EXPECT_TRUE(made.plain->Query(3, 1));   // merged back
  EXPECT_TRUE(made.plain->Query(2, 1));
  EXPECT_TRUE(made.plain->Query(0, 4));
}

INSTANTIATE_TEST_SUITE_P(Roster, SccChurnTest,
                         ::testing::ValuesIn(kDecrementalSpecs),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(StalenessPolicyTest, SpecParameterDrivesTheRebuildThreshold) {
  // `staleness=1` through the factory: the second damaging delete must
  // push the index over its budget and flip the status to
  // kDeferredRebuild, while answers stay exact throughout.
  MadeIndex made = MakeIndex("pll:staleness=1");
  ASSERT_TRUE(made);
  auto* index = dynamic_cast<DynamicReachabilityIndex*>(made.plain.get());
  ASSERT_NE(index, nullptr);
  const Digraph g = Chain(8);
  index->Build(g);

  ASSERT_EQ(index->ApplyUpdate({EdgeUpdate::Delete(1, 2)}).status,
            UpdateStatus::kApplied);
  const UpdateResult over = index->ApplyUpdate({EdgeUpdate::Delete(5, 6)});
  ASSERT_TRUE(over.ok());
  EXPECT_EQ(over.status, UpdateStatus::kDeferredRebuild);
  EXPECT_TRUE(over.rebuild_recommended);
  EXPECT_FALSE(made.plain->Query(0, 7));
  EXPECT_TRUE(made.plain->Query(2, 5));
  ASSERT_TRUE(index->RebuildFromUpdates());
  EXPECT_FALSE(made.plain->Query(0, 7));
  EXPECT_TRUE(made.plain->Query(2, 5));
}

// One labeled churn run: the seed, and the storage the labels seal into.
struct LcrChurnCase {
  uint64_t seed;
  TwoHopStorageOptions storage;
};

// Printed into the test name: the bare seed for flat storage, so the
// names read "/911", and "/911_compress" for block-compressed pools.
void PrintTo(const LcrChurnCase& c, std::ostream* os) {
  *os << c.seed << (c.storage.compress ? "_compress" : "");
}

class LcrChurnTest : public ::testing::TestWithParam<LcrChurnCase> {};

TEST_P(LcrChurnTest, LabeledMixedBatchesMatchOracle) {
  const auto [seed, storage] = GetParam();
  const VertexId n = 12;
  const Label num_labels = 2;
  Xoshiro256ss rng(seed);
  std::vector<LabeledEdge> live =
      RandomLabeledDigraph(n, 20, num_labels, seed).Edges();
  PrunedLabeledTwoHop index(storage);
  const LabeledDigraph base =
      LabeledDigraph::FromEdges(n, num_labels, live);
  index.Build(base);
  ASSERT_EQ(index.CompressedStorage(), storage.compress);

  SearchWorkspace ws;
  for (int step = 0; step < 60; ++step) {
    LabeledUpdateBatch batch;
    const bool do_delete = !live.empty() && rng.NextBounded(10) < 3;
    if (do_delete) {
      const LabeledEdge e = live[rng.NextBounded(live.size())];
      batch.push_back(LabeledEdgeUpdate::Delete(e.source, e.target, e.label));
      std::erase(live, e);
    } else {
      const auto u = static_cast<VertexId>(rng.NextBounded(n));
      const auto v = static_cast<VertexId>(rng.NextBounded(n));
      const auto l = static_cast<Label>(rng.NextBounded(num_labels));
      if (u == v) continue;
      batch.push_back(LabeledEdgeUpdate::Insert(u, v, l));
      if (std::find(live.begin(), live.end(), LabeledEdge{u, v, l}) ==
          live.end()) {
        live.push_back({u, v, l});
      }
    }
    const UpdateResult result = index.ApplyUpdate(batch);
    ASSERT_TRUE(result.ok()) << "step " << step << ": " << result.reason;
    if (result.rebuild_recommended) {
      ASSERT_TRUE(index.RebuildFromUpdates());
    }

    if (step % 6 != 5) continue;
    const LabeledDigraph truth =
        LabeledDigraph::FromEdges(n, num_labels, live);
    for (VertexId s = 0; s < n; ++s) {
      for (VertexId t = 0; t < n; ++t) {
        for (LabelSet mask = 1; mask < (1u << num_labels); ++mask) {
          ASSERT_EQ(index.Query(s, t, mask),
                    LcrBfsReachability(truth, s, t, mask, ws))
              << s << "->" << t << " mask=" << mask << " step=" << step
              << " seed=" << seed;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, LcrChurnTest,
    ::testing::Values(LcrChurnCase{911, {}}, LcrChurnCase{912, {}},
                      LcrChurnCase{913, {}},
                      LcrChurnCase{911, {.compress = true}},
                      LcrChurnCase{912, {.compress = true}},
                      LcrChurnCase{913, {.compress = true}}));

// Plain reachability is LCR with a single label: the degree-order TOL
// index and the labeled 2-hop index, built over the same edges (every
// LCR arc carrying label 0), must hold the same number of entries, give
// the same answers, and stay in step — answers and damage alike — under
// the same insert/delete batches.
TEST(SingleLabelEquivalenceTest, PlainMatchesOneLabelLcr) {
  const VertexId n = 24;
  const LabelSet only = LabelBit(0);
  std::vector<Edge> edges = RandomDigraph(n, 48, 1301).Edges();
  const auto labeled_edges = [](const std::vector<Edge>& plain) {
    std::vector<LabeledEdge> out;
    for (const Edge& e : plain) out.push_back({e.source, e.target, 0});
    return out;
  };
  const Digraph graph = Digraph::FromEdges(n, edges);
  const LabeledDigraph labeled =
      LabeledDigraph::FromEdges(n, 1, labeled_edges(edges));
  PrunedTwoHop plain(VertexOrder::kDegree, /*seed=*/0);
  PrunedLabeledTwoHop lcr;
  plain.Build(graph);
  lcr.Build(labeled);
  ASSERT_EQ(plain.TotalLabelEntries(), lcr.TotalEntries());

  const auto expect_same = [&](int step) {
    for (VertexId s = 0; s < n; ++s) {
      for (VertexId t = 0; t < n; ++t) {
        ASSERT_EQ(plain.Query(s, t), lcr.Query(s, t, only))
            << s << "->" << t << " step " << step;
      }
    }
    ASSERT_EQ(plain.Damage(), lcr.Damage()) << "step " << step;
    // Snapshots of both, flat storage and the live delta folded in, load
    // back into indexes that still agree (while damage lets them save).
    if (plain.Damage() > 0) return;
    const std::string plain_path =
        testing::TempDir() + "/single_label_plain.rchx";
    const std::string lcr_path = testing::TempDir() + "/single_label_lcr.rchx";
    ASSERT_TRUE(plain.SaveSnapshot(plain_path));
    ASSERT_TRUE(lcr.SaveSnapshot(lcr_path));
    PrunedTwoHop plain_loaded;
    PrunedLabeledTwoHop lcr_loaded;
    ASSERT_TRUE(plain_loaded.LoadSnapshot(plain_path));
    ASSERT_TRUE(lcr_loaded.LoadSnapshot(lcr_path));
    ASSERT_EQ(plain_loaded.TotalLabelEntries(), lcr_loaded.TotalEntries())
        << "step " << step;
    for (VertexId s = 0; s < n; ++s) {
      for (VertexId t = 0; t < n; ++t) {
        ASSERT_EQ(plain_loaded.Query(s, t), lcr_loaded.Query(s, t, only))
            << s << "->" << t << " step " << step << " (snapshots)";
        ASSERT_EQ(plain_loaded.Query(s, t), plain.Query(s, t))
            << s << "->" << t << " step " << step << " (snapshots)";
      }
    }
  };
  expect_same(-1);

  Xoshiro256ss rng(1302);
  for (int step = 0; step < 40; ++step) {
    UpdateBatch batch;
    LabeledUpdateBatch labeled_batch;
    for (size_t i = 0, size = 1 + rng.NextBounded(3); i < size; ++i) {
      if (!edges.empty() && rng.NextBounded(10) < 4) {
        const Edge e = edges[rng.NextBounded(edges.size())];
        batch.push_back(EdgeUpdate::Delete(e.source, e.target));
        labeled_batch.push_back(
            LabeledEdgeUpdate::Delete(e.source, e.target, 0));
        std::erase(edges, e);
      } else {
        const auto u = static_cast<VertexId>(rng.NextBounded(n));
        const auto v = static_cast<VertexId>(rng.NextBounded(n));
        if (u == v) continue;
        batch.push_back(EdgeUpdate::Insert(u, v));
        labeled_batch.push_back(LabeledEdgeUpdate::Insert(u, v, 0));
        if (std::find(edges.begin(), edges.end(), Edge{u, v}) ==
            edges.end()) {
          edges.push_back({u, v});
        }
      }
    }
    const UpdateResult plain_result = plain.ApplyUpdate(batch);
    const UpdateResult lcr_result = lcr.ApplyUpdate(labeled_batch);
    ASSERT_TRUE(plain_result.ok()) << plain_result.reason;
    ASSERT_TRUE(lcr_result.ok()) << lcr_result.reason;
    ASSERT_EQ(plain_result.status, lcr_result.status) << "step " << step;
    expect_same(step);
  }
}

}  // namespace
}  // namespace reach
