// Cross-cutting conformance suite: EVERY plain index in the factory
// roster must agree exactly with the transitive-closure oracle on every
// graph family,
// for all vertex pairs — including cyclic inputs (exercising the §3.1 SCC
// reduction), DAGs, trees, dense graphs, and the paper's Figure 1.

#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "graph/figure1.h"
#include "graph/generators.h"
#include "obs/query_probe.h"
#include "core/index_factory.h"
#include "core/query_workload.h"
#include "traversal/transitive_closure.h"

namespace reach {
namespace {

class PlainConformanceTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

void ExpectMatchesOracle(ReachabilityIndex& index, const Digraph& graph,
                         const std::string& context) {
  TransitiveClosure oracle;
  oracle.Build(graph);
  index.Build(graph);
  for (VertexId s = 0; s < graph.NumVertices(); ++s) {
    for (VertexId t = 0; t < graph.NumVertices(); ++t) {
      ASSERT_EQ(index.Query(s, t), oracle.Query(s, t))
          << context << ": " << index.Name() << " disagrees on " << s
          << " -> " << t;
    }
  }
}

TEST_P(PlainConformanceTest, MatchesTransitiveClosureOnAllFamilies) {
  const auto& [spec, seed] = GetParam();
  auto index = MakeIndex(spec).plain;
  ASSERT_NE(index, nullptr) << spec;

  ExpectMatchesOracle(*index, RandomDigraph(40, 120, seed), "cyclic-sparse");
  ExpectMatchesOracle(*index, RandomDigraph(24, 180, seed), "cyclic-dense");
  ExpectMatchesOracle(*index, RandomDag(40, 110, seed), "dag");
  ExpectMatchesOracle(*index, ScaleFreeDag(40, 2, seed), "scale-free");
  ExpectMatchesOracle(*index, RandomTree(40, seed), "tree");
  ExpectMatchesOracle(*index, LayeredDag(4, 8, 2, seed), "layered");
  ExpectMatchesOracle(*index, Chain(12), "chain");
  ExpectMatchesOracle(*index, Cycle(12), "cycle");
  ExpectMatchesOracle(*index, figure1::PlainGraph(), "figure1");
  ExpectMatchesOracle(*index, Digraph::FromEdges(5, {}), "edgeless");
}

TEST_P(PlainConformanceTest, ReflexivityAndRebuild) {
  const auto& [spec, seed] = GetParam();
  auto index = MakeIndex(spec).plain;
  ASSERT_NE(index, nullptr);
  const Digraph g1 = RandomDigraph(30, 90, seed);
  index->Build(g1);
  for (VertexId v = 0; v < g1.NumVertices(); ++v) {
    EXPECT_TRUE(index->Query(v, v)) << index->Name();
  }
  // Rebuilding on a different graph must fully replace prior state.
  const Digraph g2 = RandomDag(25, 70, seed + 1);
  ExpectMatchesOracle(*index, g2, "rebuild");
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexes, PlainConformanceTest,
    ::testing::Combine(::testing::ValuesIn(DefaultIndexSpecs(IndexFamily::kPlain)),
                       ::testing::Values(101, 202, 303)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

TEST(PlainFactoryTest, UnknownSpecReturnsEmpty) {
  EXPECT_FALSE(MakeIndex("nonsense"));
}

TEST(PlainFactoryTest, ParamSpecsApply) {
  auto grail = MakeIndex("grail:k=5").plain;
  ASSERT_NE(grail, nullptr);
  EXPECT_NE(grail->Name().find("k=5"), std::string::npos);
  auto bfl = MakeIndex("bfl:bits=128").plain;
  ASSERT_NE(bfl, nullptr);
  EXPECT_NE(bfl->Name().find("128"), std::string::npos);
}

TEST(PlainFactoryTest, DefaultRosterIsBuildable) {
  const Digraph g = RandomDigraph(20, 60, 7);
  for (const std::string& spec : DefaultIndexSpecs(IndexFamily::kPlain)) {
    auto index = MakeIndex(spec).plain;
    ASSERT_NE(index, nullptr) << spec;
    index->Build(g);
    EXPECT_FALSE(index->Name().empty());
  }
}

TEST(PlainFactoryTest, CompletenessFlagsMatchTable1) {
  // Complete rows of Table 1: tree cover, dual labeling, 2-hop family, TC.
  for (const char* spec :
       {"tc", "treecover", "dual", "chaincover", "pll", "tfl"}) {
    auto index = MakeIndex(spec).plain;
    index->Build(Chain(4));
    EXPECT_TRUE(index->IsComplete()) << spec;
  }
  // Partial rows: GRAIL, Ferrari, IP, BFL, O'Reach, DBL, Feline, PReaCH.
  for (const char* spec :
       {"grail", "gripp", "ferrari", "ip", "bfl", "oreach", "dbl", "dagger",
        "feline", "preach", "bfs", "bibfs"}) {
    auto index = MakeIndex(spec).plain;
    index->Build(Chain(4));
    EXPECT_FALSE(index->IsComplete()) << spec;
  }
}

// A negative query against GRAIL must leave probe evidence: either the
// interval labels rejected it outright (label_rejections) or the index
// fell back to guided DFS (fallbacks). Uses the paper's Figure 1 graph.
TEST(PlainProbeTest, GrailRecordsNegativeQueryEvidence) {
  const Digraph g = figure1::PlainGraph();
  TransitiveClosure oracle;
  oracle.Build(g);
  auto grail = MakeIndex("grail").plain;
  ASSERT_NE(grail, nullptr);
  grail->Build(g);

  VertexId neg_s = 0, neg_t = 0;
  bool found = false;
  for (VertexId s = 0; s < g.NumVertices() && !found; ++s) {
    for (VertexId t = 0; t < g.NumVertices() && !found; ++t) {
      if (!oracle.Query(s, t)) {
        neg_s = s;
        neg_t = t;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found) << "Figure 1 has no unreachable pair?";

  grail->ResetProbe();
  EXPECT_FALSE(grail->Query(neg_s, neg_t));
  const QueryProbe probe = grail->Probe();
  if (kMetricsCompiled) {
    EXPECT_EQ(probe.queries, 1u);
    EXPECT_EQ(probe.positives, 0u);
    EXPECT_GT(probe.labels_scanned, 0u);
    EXPECT_GE(probe.label_rejections + probe.fallbacks, 1u)
        << "negative answer must be attributed to labels or fallback";
  } else {
    EXPECT_EQ(probe.queries, 0u);
  }
}

TEST(PlainProbeTest, InstrumentedRosterCountsQueriesAndBuildStats) {
  // Sparse and large enough (more vertices than DBL's 64 landmarks) that
  // the condensation keeps a deep DAG, so every partial index meets pairs
  // its labels cannot settle.
  const Digraph g = RandomDigraph(512, 768, 11);
  const std::vector<QueryPair> queries = RandomPairs(g, 4000, 12);
  for (const char* spec :
       {"bfs", "dfs", "bibfs", "tc", "treecover", "grail", "ferrari", "bfl",
        "pll", "tfl", "feline", "ip", "oreach", "preach", "dbl", "dagger",
        "gripp"}) {
    auto index = MakeIndex(spec).plain;
    ASSERT_NE(index, nullptr) << spec;
    index->Build(g);
    index->ResetProbe();
    for (const QueryPair& q : queries) index->Query(q.source, q.target);
    const QueryProbe probe = index->Probe();
    // Online searches (bfs/dfs/bibfs) are index-free: their Build() only
    // stores a pointer, so phase/build-time assertions apply to the rest.
    const bool builds_an_index =
        std::string(spec) != "bfs" && std::string(spec) != "dfs" &&
        std::string(spec) != "bibfs";
    if (kMetricsCompiled) {
      EXPECT_EQ(probe.queries, queries.size()) << spec;
      if (builds_an_index) {
        EXPECT_GT(index->Stats().build_time.count(), 0) << spec;
        EXPECT_FALSE(index->Stats().phases.empty()) << spec;
      }
      // Every partial index hands its undecided pairs to a guided search,
      // and that search fills the traversal fields.
      if (!index->IsComplete()) {
        EXPECT_GT(probe.fallbacks, 0u) << spec;
        EXPECT_GT(probe.vertices_visited, 0u) << spec;
        EXPECT_GT(probe.edges_scanned, 0u) << spec;
      }
    } else {
      EXPECT_EQ(probe.queries, 0u) << spec;
    }
    // ResetProbe must zero everything regardless of compile mode.
    index->ResetProbe();
    index->Probe().ForEachField(
        [&](const char* field, uint64_t value) {
          EXPECT_EQ(value, 0u) << spec << "." << field;
        });
  }
}

}  // namespace
}  // namespace reach
