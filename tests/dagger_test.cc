#include "plain/dagger.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/rng.h"
#include "traversal/transitive_closure.h"

namespace reach {
namespace {

TEST(DaggerTest, StaticBehavesLikeGrail) {
  const Digraph g = RandomDag(50, 160, 7);
  Dagger index(3, 7);
  index.Build(g);
  TransitiveClosure oracle;
  oracle.Build(g);
  for (VertexId s = 0; s < g.NumVertices(); ++s) {
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      if (oracle.Query(s, t)) {
        EXPECT_TRUE(index.MaybeReachable(s, t)) << s << "->" << t;
      }
      ASSERT_EQ(index.Query(s, t), oracle.Query(s, t)) << s << "->" << t;
    }
  }
}

TEST(DaggerTest, InsertEdgeConnectsComponents) {
  const Digraph g = Digraph::FromEdges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  Dagger index;
  index.Build(g);
  EXPECT_FALSE(index.Query(0, 5));
  ASSERT_TRUE(index.ApplyUpdate({EdgeUpdate::Insert(2, 3)}).ok());
  EXPECT_TRUE(index.Query(0, 5));
  EXPECT_TRUE(index.MaybeReachable(0, 5));  // filter must not reject
  EXPECT_FALSE(index.Query(5, 0));
}

TEST(DaggerTest, InsertCreatingCycleStaysSound) {
  const Digraph g = Chain(6);
  Dagger index;
  index.Build(g);
  ASSERT_TRUE(index.ApplyUpdate({EdgeUpdate::Insert(5, 0)}).ok());
  for (VertexId s = 0; s < 6; ++s) {
    for (VertexId t = 0; t < 6; ++t) {
      EXPECT_TRUE(index.MaybeReachable(s, t));  // no false negatives
      EXPECT_TRUE(index.Query(s, t));
    }
  }
}

// `Clone` shares the bounds and the overlay: the copy answers like
// its source, takes updates of its own, and leaves the source's answers
// alone; its live graph is the source's with the copy's updates applied.
TEST(DaggerTest, CopyAnswersLikeItsSourceAndUpdatesAlone) {
  const Digraph g = RandomDigraph(40, 90, 11);
  Dagger source;
  source.Build(g);
  ASSERT_TRUE(source.ApplyUpdate({EdgeUpdate::Insert(3, 30)}).ok());
  const std::unique_ptr<DynamicReachabilityIndex> copy = source.Clone();
  ASSERT_NE(copy, nullptr);
  std::vector<uint8_t> before;
  for (VertexId s = 0; s < 40; ++s) {
    for (VertexId t = 0; t < 40; ++t) {
      before.push_back(source.Query(s, t));
      ASSERT_EQ(copy->Query(s, t), source.Query(s, t)) << s << "->" << t;
    }
  }
  const Edge cut = g.Edges()[5];
  ASSERT_TRUE(copy->ApplyUpdate({EdgeUpdate::Delete(cut.source, cut.target),
                                 EdgeUpdate::Insert(30, 0)})
                  .ok());
  const std::unique_ptr<Digraph> live = copy->LiveGraph();
  ASSERT_NE(live, nullptr);
  std::vector<Edge> edges = g.Edges();
  std::erase(edges, cut);
  edges.push_back({3, 30});
  edges.push_back({30, 0});
  std::sort(edges.begin(), edges.end());
  std::vector<Edge> live_edges = live->Edges();
  std::sort(live_edges.begin(), live_edges.end());
  EXPECT_EQ(live_edges, edges);
  TransitiveClosure oracle;
  oracle.Build(*live);
  size_t i = 0;
  for (VertexId s = 0; s < 40; ++s) {
    for (VertexId t = 0; t < 40; ++t, ++i) {
      ASSERT_EQ(copy->Query(s, t), oracle.Query(s, t)) << s << "->" << t;
      ASSERT_EQ(source.Query(s, t), before[i] != 0) << s << "->" << t;
    }
  }
}

// The filter matrix of `index`: MaybeReachable for every pair.
std::vector<uint8_t> FilterMatrix(const Dagger& index, VertexId n) {
  std::vector<uint8_t> matrix;
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = 0; t < n; ++t) {
      matrix.push_back(index.MaybeReachable(s, t));
    }
  }
  return matrix;
}

// Copies share their bounds until an insert widens them: a tree of copies
// over several bound chunks takes inserts and deletes of its own while a
// reader scans the source's filter. Each copy's filter stays sound for its
// own live graph, and no copy's widening reaches the source or a sibling.
TEST(DaggerTest, CopiesShareBoundsUntilTheyWidenThem) {
  constexpr VertexId kN = 160;  // 480 bounds: 8 chunks of 64
  const Digraph g = RandomDag(kN, 240, 17);
  Dagger source;
  source.Build(g);
  const std::vector<uint8_t> source_filter = FilterMatrix(source, kN);
  std::atomic<bool> stop{false};
  std::atomic<size_t> changed{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (FilterMatrix(source, kN) != source_filter) {
        changed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  Xoshiro256ss rng(23);
  std::vector<std::unique_ptr<DynamicReachabilityIndex>> copies;
  std::vector<std::vector<uint8_t>> filters;
  // The copies, in a lambda so a failed assertion still joins the reader.
  const auto write_copies = [&] {
    for (int round = 0; round < 12; ++round) {
      // A copy of the source or of an earlier copy, so the copies form a
      // tree.
      const size_t parent = rng.NextBounded(copies.size() + 1);
      const Dagger& from = parent == copies.size()
                               ? source
                               : static_cast<const Dagger&>(*copies[parent]);
      std::unique_ptr<DynamicReachabilityIndex> copy = from.Clone();
      for (int i = 0; i < 6; ++i) {
        const auto u = static_cast<VertexId>(rng.NextBounded(kN));
        const auto v = static_cast<VertexId>(rng.NextBounded(kN));
        const EdgeUpdate update = i % 3 == 2 ? EdgeUpdate::Delete(u, v)
                                             : EdgeUpdate::Insert(u, v);
        ASSERT_TRUE(copy->ApplyUpdate({update}).ok());
      }
      const std::unique_ptr<Digraph> live = copy->LiveGraph();
      ASSERT_NE(live, nullptr);
      TransitiveClosure oracle;
      oracle.Build(*live);
      const auto& dagger = static_cast<const Dagger&>(*copy);
      for (VertexId s = 0; s < kN; ++s) {
        for (VertexId t = 0; t < kN; ++t) {
          if (oracle.Query(s, t)) {
            ASSERT_TRUE(dagger.MaybeReachable(s, t)) << s << "->" << t;
          }
          ASSERT_EQ(copy->Query(s, t), oracle.Query(s, t)) << s << "->" << t;
        }
      }
      // The earlier copies' filters are as they left them.
      for (size_t c = 0; c < copies.size(); ++c) {
        ASSERT_EQ(FilterMatrix(static_cast<const Dagger&>(*copies[c]), kN),
                  filters[c])
            << "copy " << c;
      }
      filters.push_back(FilterMatrix(dagger, kN));
      copies.push_back(std::move(copy));
    }
  };
  write_copies();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(changed.load(), 0u);
  EXPECT_EQ(FilterMatrix(source, kN), source_filter);
  // Some copy widened a bound, or the check above would be vacuous.
  EXPECT_TRUE(std::any_of(filters.begin(), filters.end(),
                          [&](const auto& f) { return f != source_filter; }));
}

class DaggerStreamTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DaggerStreamTest, StreamedInsertsStayExactAndFilterSound) {
  const uint64_t seed = GetParam();
  const VertexId n = 32;
  Xoshiro256ss rng(seed);
  std::vector<Edge> edges = RandomDag(n, 50, seed).Edges();
  const Digraph base = Digraph::FromEdges(n, edges);
  Dagger index(3, seed);
  index.Build(base);

  for (int step = 0; step < 30; ++step) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    if (u == v) continue;
    ASSERT_TRUE(index.ApplyUpdate({EdgeUpdate::Insert(u, v)}).ok());
    edges.push_back({u, v});
  }
  const Digraph full = Digraph::FromEdges(n, edges);
  TransitiveClosure oracle;
  oracle.Build(full);
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = 0; t < n; ++t) {
      ASSERT_EQ(index.Query(s, t), oracle.Query(s, t))
          << s << "->" << t << " seed " << seed;
      if (oracle.Query(s, t)) {
        ASSERT_TRUE(index.MaybeReachable(s, t))
            << "filter false negative " << s << "->" << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DaggerStreamTest,
                         ::testing::Values(251, 252, 253, 254, 255));

TEST(DaggerTest, DeleteEdgeIncrementally) {
  const Digraph g = Chain(6);
  Dagger index;
  index.Build(g);
  ASSERT_TRUE(index.SupportsDeletions());
  EXPECT_TRUE(index.Query(0, 5));
  ASSERT_TRUE(index.ApplyUpdate({EdgeUpdate::Delete(2, 3)}).ok());
  EXPECT_FALSE(index.Query(0, 5));
  EXPECT_FALSE(index.Query(2, 3));
  EXPECT_TRUE(index.Query(0, 2));
  EXPECT_TRUE(index.Query(3, 5));
  // Re-insert resurrects, and the interval filter must not reject it.
  ASSERT_TRUE(index.ApplyUpdate({EdgeUpdate::Insert(2, 3)}).ok());
  EXPECT_TRUE(index.MaybeReachable(0, 5));
  EXPECT_TRUE(index.Query(0, 5));
}

TEST(DaggerTest, SccSplitAndMergeUnderUpdates) {
  // Deleting the back edge of a cycle splits the SCC; re-inserting merges
  // it again. Both transitions must keep answers exact without a Build.
  const Digraph g = Cycle(5);
  Dagger index;
  index.Build(g);
  EXPECT_TRUE(index.Query(3, 1));
  ASSERT_TRUE(index.ApplyUpdate({EdgeUpdate::Delete(4, 0)}).ok());
  EXPECT_FALSE(index.Query(3, 1));  // the SCC is now a chain
  EXPECT_TRUE(index.Query(1, 3));
  ASSERT_TRUE(index.ApplyUpdate({EdgeUpdate::Insert(4, 0)}).ok());
  EXPECT_TRUE(index.Query(3, 1));  // merged back
  EXPECT_TRUE(index.Query(4, 4));
}

TEST(DaggerTest, StalenessBudgetRecommendsRebuild) {
  const Digraph g = Chain(8);
  Dagger index(2, 11, /*staleness_budget=*/1);
  index.Build(g);
  ASSERT_TRUE(index.ApplyUpdate({EdgeUpdate::Delete(1, 2)}).ok());
  const UpdateResult over = index.ApplyUpdate({EdgeUpdate::Delete(5, 6)});
  ASSERT_TRUE(over.ok());
  EXPECT_EQ(over.status, UpdateStatus::kDeferredRebuild);
  EXPECT_TRUE(over.rebuild_recommended);
  // Advisory, not load-bearing: answers stay exact past the budget.
  EXPECT_FALSE(index.Query(0, 7));
  EXPECT_TRUE(index.Query(2, 5));
  ASSERT_TRUE(index.RebuildFromUpdates());
  EXPECT_EQ(index.Damage(), 0u);
  EXPECT_FALSE(index.Query(0, 7));
  EXPECT_TRUE(index.Query(2, 5));
}

TEST(DaggerTest, FilterPrecisionDecaysGracefully) {
  // After many inserts the filter may admit more maybes, but a rebuild
  // re-tightens it.
  const VertexId n = 64;
  const Digraph base = RandomDag(n, 100, 3);
  Dagger index(3, 3);
  index.Build(base);
  std::vector<Edge> edges = base.Edges();
  Xoshiro256ss rng(4);
  for (int i = 0; i < 20; ++i) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    if (u != v) {
      ASSERT_TRUE(index.ApplyUpdate({EdgeUpdate::Insert(u, v)}).ok());
      edges.push_back({u, v});
    }
  }
  size_t maybes_dynamic = 0;
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = 0; t < n; ++t) maybes_dynamic += index.MaybeReachable(s, t);
  }
  const Digraph full = Digraph::FromEdges(n, edges);
  Dagger rebuilt(3, 3);
  rebuilt.Build(full);
  size_t maybes_rebuilt = 0;
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = 0; t < n; ++t) {
      maybes_rebuilt += rebuilt.MaybeReachable(s, t);
    }
  }
  EXPECT_LE(maybes_rebuilt, maybes_dynamic);
}

}  // namespace
}  // namespace reach
