#include <gtest/gtest.h>

#include "graph/generators.h"
#include "plain/bfl.h"
#include "plain/ferrari.h"
#include "plain/grail.h"
#include "traversal/transitive_closure.h"

namespace reach {
namespace {

class GrailPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GrailPropertyTest, FilterHasNoFalseNegatives) {
  const uint64_t seed = GetParam();
  const Digraph g = RandomDag(60, 200, seed);
  Grail index(/*k=*/2, seed);
  index.Build(g);
  TransitiveClosure oracle;
  oracle.Build(g);
  for (VertexId s = 0; s < g.NumVertices(); ++s) {
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      if (oracle.Query(s, t)) {
        EXPECT_TRUE(index.MaybeReachable(s, t))
            << "false negative " << s << "->" << t;
      }
    }
  }
}

TEST_P(GrailPropertyTest, MoreTraversalsNeverWeakenTheFilter) {
  const uint64_t seed = GetParam();
  const Digraph g = RandomDag(50, 160, seed);
  Grail k1(1, 7), k5(5, 7);
  k1.Build(g);
  k5.Build(g);
  size_t rejected_k1 = 0, rejected_k5 = 0;
  for (VertexId s = 0; s < g.NumVertices(); ++s) {
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      rejected_k1 += !k1.MaybeReachable(s, t);
      rejected_k5 += !k5.MaybeReachable(s, t);
    }
  }
  // k=5 contains traversal seeds different from k=1's single tree, but
  // statistically the filter must reject at least as much as k=1 minus
  // noise; assert the weaker invariant that it rejects a majority of the
  // unreachable pairs.
  TransitiveClosure oracle;
  oracle.Build(g);
  size_t unreachable = 0;
  for (VertexId s = 0; s < g.NumVertices(); ++s) {
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      unreachable += !oracle.Query(s, t);
    }
  }
  EXPECT_GT(rejected_k5, unreachable / 2);
  EXPECT_GT(rejected_k1, 0u);
}

TEST_P(GrailPropertyTest, ExactAfterGuidedSearch) {
  const uint64_t seed = GetParam();
  const Digraph g = RandomDag(48, 150, seed ^ 0xaa);
  Grail index(3, seed);
  index.Build(g);
  TransitiveClosure oracle;
  oracle.Build(g);
  for (VertexId s = 0; s < g.NumVertices(); ++s) {
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      ASSERT_EQ(index.Query(s, t), oracle.Query(s, t)) << s << "->" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GrailPropertyTest,
                         ::testing::Values(71, 72, 73, 74));

TEST(GrailTest, RejectionCounterAdvances) {
  const Digraph g = Chain(10);
  Grail index(2, 1);
  index.Build(g);
  EXPECT_FALSE(index.Query(9, 0));
  if (kMetricsCompiled) {
    EXPECT_GE(index.Probe().label_rejections, 1u);
  }
}

// The pure label tests are read by tests and bench_ablation_k between
// queries; they count into no query slot, so the probe stays all zero.
TEST(FerrariTest, MaybeReachableCountsNothing) {
  const Digraph g = RandomDag(48, 160, 83);
  Ferrari ferrari(2);
  Grail grail(2, 1);
  Bfl bfl(64);
  ferrari.Build(g);
  grail.Build(g);
  bfl.Build(g);
  for (VertexId s = 0; s < g.NumVertices(); ++s) {
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      ferrari.MaybeReachable(s, t);
      grail.MaybeReachable(s, t);
      bfl.FilterVerdict(s, t);
    }
  }
  for (const ReachabilityIndex* index :
       std::initializer_list<const ReachabilityIndex*>{&ferrari, &grail,
                                                        &bfl}) {
    index->Probe().ForEachField([&](const char* field, uint64_t value) {
      EXPECT_EQ(value, 0u) << index->Name() << "." << field;
    });
  }
}

TEST(GrailTest, IndexSizeIsLinearInKAndV) {
  const Digraph g = RandomDag(100, 300, 5);
  Grail k2(2, 1), k4(4, 1);
  k2.Build(g);
  k4.Build(g);
  EXPECT_EQ(k4.IndexSizeBytes(), 2 * k2.IndexSizeBytes());
}

class FerrariPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(FerrariPropertyTest, ExactForEveryBudget) {
  const size_t k = GetParam();
  for (uint64_t seed : {81, 82}) {
    const Digraph g = RandomDag(48, 160, seed);
    Ferrari index(k);
    index.Build(g);
    TransitiveClosure oracle;
    oracle.Build(g);
    for (VertexId s = 0; s < g.NumVertices(); ++s) {
      for (VertexId t = 0; t < g.NumVertices(); ++t) {
        ASSERT_EQ(index.Query(s, t), oracle.Query(s, t))
            << "k=" << k << " " << s << "->" << t;
      }
    }
  }
}

TEST_P(FerrariPropertyTest, BudgetIsRespected) {
  const size_t k = GetParam();
  const Digraph g = RandomDag(80, 400, 9);
  Ferrari index(k);
  index.Build(g);
  EXPECT_LE(index.TotalIntervals(), k * g.NumVertices());
}

INSTANTIATE_TEST_SUITE_P(Budgets, FerrariPropertyTest,
                         ::testing::Values(1, 2, 3, 8));

TEST(FerrariTest, LargeBudgetDegeneratesToExactTreeCover) {
  const Digraph g = RandomDag(40, 120, 4);
  Ferrari index(/*k=*/1000000);
  index.Build(g);
  EXPECT_DOUBLE_EQ(index.ExactFraction(), 1.0);
}

TEST(FerrariTest, TightBudgetForcesApproximation) {
  const Digraph g = RandomDag(80, 480, 4);
  Ferrari index(/*k=*/1);
  index.Build(g);
  EXPECT_LT(index.ExactFraction(), 1.0);
}

TEST(FerrariTest, SmallerBudgetSmallerIndex) {
  const Digraph g = RandomDag(100, 500, 6);
  Ferrari k1(1), k8(8);
  k1.Build(g);
  k8.Build(g);
  EXPECT_LE(k1.TotalIntervals(), k8.TotalIntervals());
}

}  // namespace
}  // namespace reach
