#include "traversal/online_search.h"

#include <memory>

#include <gtest/gtest.h>

#include "graph/figure1.h"
#include "graph/generators.h"
#include "traversal/guided_search.h"
#include "traversal/transitive_closure.h"

namespace reach {
namespace {

// Reference reachability by simple recursive-style DFS over a vector.
bool BruteReaches(const Digraph& g, VertexId s, VertexId t) {
  std::vector<bool> seen(g.NumVertices(), false);
  std::vector<VertexId> stack = {s};
  seen[s] = true;
  while (!stack.empty()) {
    VertexId v = stack.back();
    stack.pop_back();
    if (v == t) return true;
    for (VertexId w : g.OutNeighbors(v)) {
      if (!seen[w]) {
        seen[w] = true;
        stack.push_back(w);
      }
    }
  }
  return false;
}

TEST(OnlineSearchTest, Figure1PaperQuery) {
  // §2.1: Qr(A, G) = true because of the s-t path (A, D, H, G).
  Digraph g = figure1::PlainGraph();
  SearchWorkspace ws;
  EXPECT_TRUE(BfsReachability(g, figure1::kA, figure1::kG, ws));
  EXPECT_TRUE(DfsReachability(g, figure1::kA, figure1::kG, ws));
  EXPECT_TRUE(BiBfsReachability(g, figure1::kA, figure1::kG, ws));
  // G cannot reach A.
  EXPECT_FALSE(BfsReachability(g, figure1::kG, figure1::kA, ws));
  EXPECT_FALSE(DfsReachability(g, figure1::kG, figure1::kA, ws));
  EXPECT_FALSE(BiBfsReachability(g, figure1::kG, figure1::kA, ws));
}

TEST(OnlineSearchTest, SelfReachability) {
  Digraph g = Digraph::FromEdges(3, {{0, 1}});
  SearchWorkspace ws;
  for (VertexId v = 0; v < 3; ++v) {
    EXPECT_TRUE(BfsReachability(g, v, v, ws));
    EXPECT_TRUE(DfsReachability(g, v, v, ws));
    EXPECT_TRUE(BiBfsReachability(g, v, v, ws));
  }
}

TEST(OnlineSearchTest, VisitCountReported) {
  Digraph g = Chain(100);
  SearchWorkspace ws;
  size_t visited = 0;
  EXPECT_TRUE(BfsReachability(g, 0, 99, ws, &visited));
  EXPECT_GE(visited, 99u);
  visited = 0;
  EXPECT_TRUE(BiBfsReachability(g, 0, 99, ws, &visited));
  EXPECT_GE(visited, 2u);
}

TEST(OnlineSearchTest, BiBfsVisitsFewerOnNegativeStar) {
  // Hub-and-spoke: s has huge out-fanout, t has tiny in-degree; backward
  // search from t should settle the negative query almost immediately.
  std::vector<Edge> edges;
  for (VertexId v = 2; v < 1000; ++v) edges.push_back({0, v});
  edges.push_back({1, 2});  // t=1 unreachable, in-degree 0
  Digraph g = Digraph::FromEdges(1000, edges);
  SearchWorkspace ws;
  size_t bfs_visits = 0, bibfs_visits = 0;
  EXPECT_FALSE(BfsReachability(g, 0, 1, ws, &bfs_visits));
  EXPECT_FALSE(BiBfsReachability(g, 0, 1, ws, &bibfs_visits));
  EXPECT_LT(bibfs_visits, bfs_visits / 10);
}

TEST(OnlineSearchTest, IndexAdapterNamesAndSize) {
  OnlineSearch bfs(TraversalKind::kBfs);
  OnlineSearch dfs(TraversalKind::kDfs);
  OnlineSearch bibfs(TraversalKind::kBiBfs);
  EXPECT_EQ(bfs.Name(), "bfs");
  EXPECT_EQ(dfs.Name(), "dfs");
  EXPECT_EQ(bibfs.Name(), "bibfs");
  EXPECT_EQ(bfs.IndexSizeBytes(), 0u);
  EXPECT_FALSE(bfs.IsComplete());
}

class OnlineSearchPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OnlineSearchPropertyTest, AllTraversalsAgreeWithBruteForce) {
  const uint64_t seed = GetParam();
  Digraph g = RandomDigraph(48, 120, seed);
  SearchWorkspace ws;
  for (VertexId s = 0; s < g.NumVertices(); s += 3) {
    for (VertexId t = 0; t < g.NumVertices(); t += 3) {
      const bool expected = BruteReaches(g, s, t);
      EXPECT_EQ(BfsReachability(g, s, t, ws), expected);
      EXPECT_EQ(DfsReachability(g, s, t, ws), expected);
      EXPECT_EQ(BiBfsReachability(g, s, t, ws), expected)
          << "s=" << s << " t=" << t << " seed=" << seed;
    }
  }
}

TEST_P(OnlineSearchPropertyTest, AdapterMatchesFreeFunctions) {
  const uint64_t seed = GetParam();
  Digraph g = RandomDigraph(32, 90, seed ^ 0xf00d);
  OnlineSearch index(TraversalKind::kBiBfs);
  index.Build(g);
  SearchWorkspace ws;
  for (VertexId s = 0; s < g.NumVertices(); s += 2) {
    for (VertexId t = 0; t < g.NumVertices(); t += 2) {
      EXPECT_EQ(index.Query(s, t), BfsReachability(g, s, t, ws));
    }
  }
  if (kMetricsCompiled) {
    EXPECT_GT(index.Probe().vertices_visited, 0u);
  }
}


// Three verdict families for the guided kernels: one that never decides,
// one that decides every pair exactly, and one that decides only some
// pairs (it prunes half of the unreachable ones and confirms a third of
// the reachable ones). Every decided answer is exact, as the kernels
// require.
enum class VerdictKind { kMaybe, kExact, kPartial };

int OracleVerdict(const TransitiveClosure& tc, VertexId a, VertexId b,
                  VerdictKind kind) {
  switch (kind) {
    case VerdictKind::kMaybe:
      return 0;
    case VerdictKind::kExact:
      return tc.Query(a, b) ? 1 : -1;
    case VerdictKind::kPartial:
      if (tc.Query(a, b)) return (a + b) % 3 == 0 ? 1 : 0;
      return (a ^ b) % 2 == 0 ? -1 : 0;
  }
  return 0;
}

TEST_P(OnlineSearchPropertyTest, GuidedKernelsMatchClosureForEveryVerdict) {
  const uint64_t seed = GetParam();
  const Digraph g = RandomDigraph(48, 96, seed ^ 0x9d);
  TransitiveClosure tc;
  tc.Build(g);
  SearchWorkspace ws;
  for (const VerdictKind kind :
       {VerdictKind::kMaybe, VerdictKind::kExact, VerdictKind::kPartial}) {
    for (VertexId s = 0; s < g.NumVertices(); ++s) {
      for (VertexId t = 0; t < g.NumVertices(); ++t) {
        const int expected = tc.Query(s, t) ? 1 : -1;
        const auto to_t = [&](VertexId v) {
          return OracleVerdict(tc, v, t, kind);
        };
        ws.Prepare(g.NumVertices());
        ASSERT_EQ(GuidedDfs(s, t, ws, OutArcs(g), to_t), expected)
            << "dfs s=" << s << " t=" << t << " kind=" << int(kind);
        ws.Prepare(g.NumVertices());
        ASSERT_EQ(GuidedBfs(s, t, ws, OutArcs(g), to_t), expected)
            << "bfs s=" << s << " t=" << t << " kind=" << int(kind);
        ws.Prepare(g.NumVertices());
        ASSERT_EQ(GuidedBiBfs(s, t, ws, OutArcs(g), InArcs(g), to_t,
                              [&](VertexId v) {
                                return OracleVerdict(tc, s, v, kind);
                              }),
                  expected)
            << "bibfs s=" << s << " t=" << t << " kind=" << int(kind);
      }
    }
  }
  if (kMetricsCompiled) {
    EXPECT_GT(ws.probe().vertices_visited, 0u);
    EXPECT_GT(ws.probe().edges_scanned, 0u);
    EXPECT_GT(ws.probe().filter_prunes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineSearchPropertyTest,
                         ::testing::Values(31, 32, 33, 34, 35, 36));

TEST(GuidedSearchTest, ExhaustedVisitBudgetReportsIncomplete) {
  const Digraph g = Chain(100);
  SearchWorkspace ws;
  const auto maybe = [](VertexId) { return 0; };
  ws.Prepare(g.NumVertices());
  EXPECT_EQ(GuidedDfs(0, 99, ws, OutArcs(g), maybe, /*max_visits=*/10), 0);
  ws.Prepare(g.NumVertices());
  EXPECT_EQ(GuidedDfs(0, 99, ws, OutArcs(g), maybe, /*max_visits=*/99), 1);
  // A search that runs dry inside the budget is complete either way.
  ws.Prepare(g.NumVertices());
  EXPECT_EQ(GuidedDfs(99, 0, ws, OutArcs(g), maybe, /*max_visits=*/10), -1);
  ws.Prepare(g.NumVertices());
  EXPECT_EQ(GuidedDfs(50, 50, ws, OutArcs(g), maybe, /*max_visits=*/0), 1);
}

// A forward-only prepare keeps the backward set as it is; a later full
// prepare grows both and starts clean, whichever came first.
TEST(SearchWorkspaceTest, ForwardOnlyAndFullPreparesShareOneEpoch) {
  SearchWorkspace ws;
  ws.PrepareForward(8);
  EXPECT_TRUE(ws.MarkForward(7));
  EXPECT_FALSE(ws.MarkForward(7));
  ws.Prepare(16);
  EXPECT_FALSE(ws.IsForwardMarked(7));
  EXPECT_FALSE(ws.IsBackwardMarked(15));
  EXPECT_TRUE(ws.MarkBackward(15));
  EXPECT_TRUE(ws.MarkForward(15));
  ws.PrepareForward(16);
  EXPECT_FALSE(ws.IsBackwardMarked(15));
  EXPECT_FALSE(ws.IsForwardMarked(15));
  EXPECT_TRUE(ws.MarkForward(15));
}

}  // namespace
}  // namespace reach
