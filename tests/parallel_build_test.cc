// §5 "parallel computation of indexes": every parallelized builder
// (transitive closure, GRAIL, FERRARI, BFL) must produce answers
// identical to its serial build, on the paper's Figure 1 and on larger
// random graphs. Also covers the BatchQuery parallel query API. The 2-hop
// builds are serial (docs/PARALLELISM.md); their bytes are checked
// against the thread count in pruned_two_hop_test.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/query_workload.h"
#include "core/scc_condensing_index.h"
#include "graph/figure1.h"
#include "graph/generators.h"
#include "core/index_factory.h"
#include "plain/bfl.h"
#include "plain/dagger.h"
#include "plain/dbl.h"
#include "plain/ferrari.h"
#include "plain/grail.h"
#include "plain/pruned_two_hop.h"
#include "traversal/transitive_closure.h"

namespace reach {
namespace {

// The 4k-vertex determinism workhorse DAG shared by the suites below.
const Digraph& BigDag() {
  static const Digraph g = RandomDag(4096, 16384, 0xda9);
  return g;
}

// Strided sample of vertex pairs — dense enough to catch any divergence,
// sparse enough to keep the suite fast.
template <typename SerialFn, typename ParallelFn>
void ExpectSameAnswers(const Digraph& g, SerialFn&& serial,
                       ParallelFn&& parallel, VertexId stride = 1) {
  for (VertexId s = 0; s < g.NumVertices(); s += stride) {
    for (VertexId t = 0; t < g.NumVertices(); t += stride) {
      ASSERT_EQ(serial(s, t), parallel(s, t)) << s << "->" << t;
    }
  }
}

TEST(ParallelBuildTest, ParallelGrailMatchesSerialAnswers) {
  const Digraph g = RandomDag(300, 1200, 3);
  Grail serial(/*k=*/8, /*seed=*/99, /*num_threads=*/1);
  Grail parallel(/*k=*/8, /*seed=*/99, /*num_threads=*/4);
  serial.Build(g);
  parallel.Build(g);
  for (VertexId s = 0; s < g.NumVertices(); s += 2) {
    for (VertexId t = 0; t < g.NumVertices(); t += 2) {
      ASSERT_EQ(serial.MaybeReachable(s, t), parallel.MaybeReachable(s, t))
          << s << "->" << t;
      ASSERT_EQ(serial.Query(s, t), parallel.Query(s, t));
    }
  }
}

TEST(ParallelBuildTest, ParallelGrailIsExact) {
  const Digraph g = RandomDag(200, 700, 5);
  Grail parallel(/*k=*/6, /*seed=*/1, /*num_threads=*/3);
  parallel.Build(g);
  TransitiveClosure oracle;
  oracle.Build(g);
  for (VertexId s = 0; s < g.NumVertices(); ++s) {
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      ASSERT_EQ(parallel.Query(s, t), oracle.Query(s, t)) << s << "->" << t;
    }
  }
}

TEST(ParallelBuildTest, MoreThreadsThanColumnsIsFine) {
  const Digraph g = Chain(50);
  Grail index(/*k=*/2, /*seed=*/5, /*num_threads=*/16);
  index.Build(g);
  EXPECT_TRUE(index.Query(0, 49));
  EXPECT_FALSE(index.Query(49, 0));
}

TEST(ParallelBuildTest, ZeroThreadsMeansPoolDefault) {
  const Digraph g = Chain(10);
  Grail index(3, 5, 0);
  index.Build(g);
  EXPECT_TRUE(index.Query(0, 9));
}

TEST(ParallelBuildTest, RepeatedParallelBuildsAreDeterministic) {
  const Digraph g = RandomDag(150, 500, 8);
  Grail a(4, 42, 4), b(4, 42, 2);
  a.Build(g);
  b.Build(g);
  // Same seed, different thread counts: identical filter behavior.
  for (VertexId s = 0; s < g.NumVertices(); s += 3) {
    for (VertexId t = 0; t < g.NumVertices(); t += 3) {
      ASSERT_EQ(a.MaybeReachable(s, t), b.MaybeReachable(s, t));
    }
  }
}

TEST(ParallelBuildTest, TransitiveClosureMatchesSerialOnFigure1) {
  const Digraph g = figure1::PlainGraph();
  TransitiveClosure serial(/*num_threads=*/1), parallel(/*num_threads=*/4);
  serial.Build(g);
  parallel.Build(g);
  ExpectSameAnswers(
      g, [&](VertexId s, VertexId t) { return serial.Query(s, t); },
      [&](VertexId s, VertexId t) { return parallel.Query(s, t); });
}

TEST(ParallelBuildTest, TransitiveClosureMatchesSerialOnBigDag) {
  const Digraph& g = BigDag();
  TransitiveClosure serial(/*num_threads=*/1), parallel(/*num_threads=*/8);
  serial.Build(g);
  parallel.Build(g);
  EXPECT_EQ(serial.IndexSizeBytes(), parallel.IndexSizeBytes());
  ExpectSameAnswers(
      g, [&](VertexId s, VertexId t) { return serial.Query(s, t); },
      [&](VertexId s, VertexId t) { return parallel.Query(s, t); },
      /*stride=*/61);
}

TEST(ParallelBuildTest, TransitiveClosureParallelHandlesCycles) {
  const Digraph g = RandomDigraph(400, 1600, 17);
  TransitiveClosure serial(1), parallel(4);
  serial.Build(g);
  parallel.Build(g);
  ExpectSameAnswers(
      g, [&](VertexId s, VertexId t) { return serial.Query(s, t); },
      [&](VertexId s, VertexId t) { return parallel.Query(s, t); },
      /*stride=*/3);
}

// A rebuild replaces every row: the rows of the first, larger graph
// leave no trace in the second's closure.
TEST(ParallelBuildTest, TransitiveClosureRebuildMatchesSerial) {
  TransitiveClosure parallel(/*num_threads=*/4);
  parallel.Build(RandomDigraph(400, 1600, 17));
  const Digraph g = RandomDag(250, 700, 0x7c1);
  parallel.Build(g);
  TransitiveClosure serial(/*num_threads=*/1);
  serial.Build(g);
  EXPECT_EQ(serial.IndexSizeBytes(), parallel.IndexSizeBytes());
  EXPECT_EQ(serial.NumReachablePairs(), parallel.NumReachablePairs());
  ExpectSameAnswers(
      g, [&](VertexId s, VertexId t) { return serial.Query(s, t); },
      [&](VertexId s, VertexId t) { return parallel.Query(s, t); });
}

TEST(ParallelBuildTest, FerrariMatchesSerialOnBigDag) {
  const Digraph& g = BigDag();
  Ferrari serial(/*k=*/4, /*num_threads=*/1);
  Ferrari parallel(/*k=*/4, /*num_threads=*/8);
  serial.Build(g);
  parallel.Build(g);
  EXPECT_EQ(serial.IndexSizeBytes(), parallel.IndexSizeBytes());
  ExpectSameAnswers(
      g, [&](VertexId s, VertexId t) { return serial.Query(s, t); },
      [&](VertexId s, VertexId t) { return parallel.Query(s, t); },
      /*stride=*/61);
}

TEST(ParallelBuildTest, BflMatchesSerialOnBigDag) {
  const Digraph& g = BigDag();
  Bfl serial(/*filter_bits=*/128, /*seed=*/9, /*num_threads=*/1);
  Bfl parallel(/*filter_bits=*/128, /*seed=*/9, /*num_threads=*/8);
  serial.Build(g);
  parallel.Build(g);
  ExpectSameAnswers(
      g, [&](VertexId s, VertexId t) { return serial.Query(s, t); },
      [&](VertexId s, VertexId t) { return parallel.Query(s, t); },
      /*stride=*/61);
}

// Every traversing plain spec grants the slots it is asked for, so a
// 4-thread batch runs four guided searches at once over per-slot
// workspaces; the answers must match the serial loop and the closure.
void ExpectBatchMatchesSerialLoop(const ReachabilityIndex& index,
                                  const Digraph& g,
                                  const std::vector<QueryPair>& queries,
                                  const std::string& label) {
  TransitiveClosure oracle(1);
  oracle.Build(g);
  for (const size_t threads : {1ul, 4ul}) {
    const std::vector<uint8_t> batch = index.BatchQuery(queries, threads);
    ASSERT_EQ(batch.size(), queries.size()) << label;
    for (size_t i = 0; i < queries.size(); ++i) {
      const QueryPair& q = queries[i];
      const bool expected = oracle.Query(q.source, q.target);
      ASSERT_EQ(batch[i] != 0, expected) << label << " threads=" << threads
                                         << " " << q.source << "->"
                                         << q.target;
      ASSERT_EQ(index.Query(q.source, q.target), expected) << label;
    }
  }
  EXPECT_EQ(index.PrepareConcurrentQueries(4), 4u) << label;
}

TEST(ParallelBuildTest, BatchQueryMatchesSerialLoop) {
  const Digraph& g = BigDag();
  const std::vector<QueryPair> queries = RandomPairs(g, 5000, 0xb0);
  PrunedTwoHop pll(VertexOrder::kDegree, 11);
  pll.Build(g);
  TransitiveClosure tc(1);
  tc.Build(g);
  for (const size_t threads : {1ul, 4ul}) {
    const std::vector<uint8_t> pll_batch = pll.BatchQuery(queries, threads);
    const std::vector<uint8_t> tc_batch = tc.BatchQuery(queries, threads);
    ASSERT_EQ(pll_batch.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      const QueryPair& q = queries[i];
      ASSERT_EQ(pll_batch[i] != 0, pll.Query(q.source, q.target)) << i;
      ASSERT_EQ(tc_batch[i] != 0, tc.Query(q.source, q.target)) << i;
    }
  }

  const Digraph cyclic = RandomDigraph(1024, 2048, 0xb1);
  const std::vector<QueryPair> cyclic_queries = RandomPairs(cyclic, 2000, 0xb2);
  for (const char* spec : {"bfs", "dfs", "bibfs", "gripp", "grail", "ferrari",
                           "bfl", "feline", "ip", "oreach", "preach", "dbl",
                           "dagger"}) {
    auto index = MakeIndex(spec).plain;
    ASSERT_NE(index, nullptr) << spec;
    index->Build(cyclic);
    ExpectBatchMatchesSerialLoop(*index, cyclic, cyclic_queries, spec);
  }
}

// The overlay indexes answer over base plus inserted (minus deleted)
// edges; their batch legs run after an update batch.
TEST(ParallelBuildTest, DynamicSpecsBatchQueryAfterApplyUpdate) {
  const Digraph g = RandomDigraph(1024, 2048, 0xb3);
  std::vector<Edge> edges = g.Edges();
  UpdateBatch inserts;
  for (VertexId i = 0; i < 64; ++i) {
    const VertexId s = (i * 131 + 7) % 1024;
    const VertexId t = (i * 257 + 11) % 1024;
    if (s == t || g.HasEdge(s, t)) continue;
    inserts.push_back(EdgeUpdate::Insert(s, t));
    edges.push_back({s, t});
  }
  UpdateBatch with_deletes = inserts;
  std::vector<Edge> after_deletes = edges;
  for (size_t i = 0; i < 64; ++i) {
    const Edge e = edges[i * 29];
    with_deletes.push_back(EdgeUpdate::Delete(e.source, e.target));
    std::erase_if(after_deletes, [&](const Edge& x) {
      return x.source == e.source && x.target == e.target;
    });
  }
  const std::vector<QueryPair> queries = RandomPairs(g, 2000, 0xb4);

  Dbl dbl;
  dbl.Build(g);
  ASSERT_TRUE(dbl.ApplyUpdate(inserts).ok());
  ExpectBatchMatchesSerialLoop(
      dbl, Digraph::FromEdges(1024, std::move(edges)), queries, "dbl");

  Dagger dagger;
  dagger.Build(g);
  ASSERT_TRUE(dagger.ApplyUpdate(with_deletes).ok());
  ExpectBatchMatchesSerialLoop(
      dagger, Digraph::FromEdges(1024, std::move(after_deletes)), queries,
      "dagger");
}

TEST(ParallelBuildTest, BatchQueryThroughSccWrapper) {
  const Digraph g = RandomDigraph(600, 2400, 31);
  auto index = MakeCondensing<TransitiveClosure>(/*num_threads=*/2);
  index->Build(g);
  const std::vector<QueryPair> queries = RandomPairs(g, 2000, 0xcc);
  const std::vector<uint8_t> batch = index->BatchQuery(queries, 4);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(batch[i] != 0, index->Query(queries[i].source,
                                          queries[i].target))
        << i;
  }
}

}  // namespace
}  // namespace reach
