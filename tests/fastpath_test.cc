// Differential suite for the composable fast-path layer
// (core/fastpath_index.h): for EVERY plain index X on the factory roster,
// FastPathIndex(X) must be query-equivalent to bare X and to the
// transitive-closure oracle — on random cyclic digraphs, the adversarial
// deep-chain-with-shortcuts family (order filters never fire), and dense
// bipartite DAGs (no transitivity, controlled negative mix) — plus
// observation-stack soundness, dynamic-insert semantics, and factory
// capability propagation.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/fastpath_index.h"
#include "core/index_factory.h"
#include "core/observation_stack.h"
#include "core/reordering_index.h"
#include "graph/generators.h"
#include "graph/rng.h"
#include "obs/metrics_registry.h"
#include "plain/pruned_two_hop.h"
#include "traversal/transitive_closure.h"

namespace reach {
namespace {

constexpr size_t kPairsPerGraph = 10000;

// The global registry's fastpath.* counters, in one scrape.
FastPathVerdictStats RegistryVerdicts() {
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const auto value = [&](const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? uint64_t{0} : it->second;
  };
  FastPathVerdictStats stats;
  stats.hit_pos = value("fastpath.hit.pos");
  stats.hit_neg = value("fastpath.hit.neg");
  stats.undecided = value("fastpath.undecided");
  return stats;
}

FastPathVerdictStats Minus(const FastPathVerdictStats& a,
                           const FastPathVerdictStats& b) {
  FastPathVerdictStats d;
  d.hit_pos = a.hit_pos - b.hit_pos;
  d.hit_neg = a.hit_neg - b.hit_neg;
  d.undecided = a.undecided - b.undecided;
  return d;
}

struct TestGraph {
  const char* name;
  Digraph graph;
};

std::vector<TestGraph> DifferentialGraphs(uint64_t seed) {
  std::vector<TestGraph> graphs;
  graphs.push_back({"cyclic-random", RandomDigraph(150, 450, seed)});
  graphs.push_back({"deep-chain", ChainWithShortcuts(300, 50, seed)});
  graphs.push_back({"dense-bipartite", DenseBipartiteDag(32, 32, 0.2, seed)});
  return graphs;
}

// FastPathIndex(X) vs bare X vs oracle on 10k random pairs per family.
class FastPathDifferentialTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(FastPathDifferentialTest, AgreesWithBareIndexAndOracle) {
  const std::string& spec = GetParam();
  auto wrapped = MakeIndex(spec + ":fastpath=1").plain;
  auto bare = MakeIndex(spec).plain;
  ASSERT_NE(wrapped, nullptr) << spec;
  ASSERT_NE(bare, nullptr) << spec;

  for (const TestGraph& tg : DifferentialGraphs(/*seed=*/7)) {
    TransitiveClosure oracle;
    oracle.Build(tg.graph);
    wrapped->Build(tg.graph);
    bare->Build(tg.graph);
    const VertexId n = static_cast<VertexId>(tg.graph.NumVertices());
    Xoshiro256ss rng(0xFA57 + n);
    for (size_t i = 0; i < kPairsPerGraph; ++i) {
      const VertexId s = static_cast<VertexId>(rng.NextBounded(n));
      const VertexId t = static_cast<VertexId>(rng.NextBounded(n));
      const bool expected = oracle.Query(s, t);
      ASSERT_EQ(bare->Query(s, t), expected)
          << tg.name << ": " << bare->Name() << " vs oracle on " << s
          << " -> " << t;
      ASSERT_EQ(wrapped->Query(s, t), expected)
          << tg.name << ": " << wrapped->Name() << " vs oracle on " << s
          << " -> " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexes, FastPathDifferentialTest,
    ::testing::ValuesIn(DefaultIndexSpecs(IndexFamily::kPlain)),
    [](const auto& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------
// Observation-stack soundness: a decided verdict must match the oracle.

TEST(ObservationStackTest, VerdictsAreSoundOnAllFamilies) {
  const std::vector<TestGraph> graphs = {
      {"cyclic", RandomDigraph(80, 240, 11)},
      {"dag", RandomDag(80, 200, 12)},
      {"chain", ChainWithShortcuts(120, 20, 13)},
      {"bipartite", DenseBipartiteDag(20, 20, 0.3, 14)},
      {"edgeless", Digraph::FromEdges(6, {})},
  };
  for (const TestGraph& tg : graphs) {
    TransitiveClosure oracle;
    oracle.Build(tg.graph);
    ObservationStack stack;
    stack.Build(tg.graph);
    size_t decided = 0;
    for (VertexId s = 0; s < tg.graph.NumVertices(); ++s) {
      for (VertexId t = 0; t < tg.graph.NumVertices(); ++t) {
        const int verdict = stack.Verdict(s, t);
        if (verdict > 0) {
          EXPECT_TRUE(oracle.Query(s, t))
              << tg.name << ": false positive on " << s << " -> " << t;
        } else if (verdict < 0) {
          EXPECT_FALSE(oracle.Query(s, t))
              << tg.name << ": false negative on " << s << " -> " << t;
        }
        decided += verdict != 0;
      }
    }
    if (tg.graph.NumEdges() > 0) {
      EXPECT_GT(decided, 0u) << tg.name;
    }
  }
}

TEST(ObservationStackTest, ObserverBudgetIsClamped) {
  ObservationStack::Options options;
  options.num_supports = 200;  // together far past the 64-bit signature
  options.num_anti = 200;
  ObservationStack stack(options);
  stack.Build(RandomDag(60, 150, 5));
  EXPECT_LE(stack.NumObservationVertices(), 64u);
  EXPECT_GT(stack.SizeBytes(), 0u);
}

// ---------------------------------------------------------------------
// Verdict accounting and the decided fraction on a favourable workload.

TEST(FastPathIndexTest, VerdictStatsAccountForEveryQuery) {
  auto made = MakeIndex("pll:fastpath=1");  // pll is dynamic in this repo
  auto* fast = dynamic_cast<DynamicFastPathIndex*>(made.plain.get());
  ASSERT_NE(fast, nullptr);
  const Digraph g = RandomDag(100, 250, 21);
  fast->Build(g);
  TransitiveClosure oracle;
  oracle.Build(g);
  // The registry's fastpath.* counters read the verdict cells at scrape
  // time, so their deltas match VerdictStats() exactly, at any count.
  const FastPathVerdictStats registry_before = RegistryVerdicts();
  Xoshiro256ss rng(22);
  const size_t kQueries = 2000;
  for (size_t i = 0; i < kQueries; ++i) {
    const VertexId s = static_cast<VertexId>(rng.NextBounded(100));
    const VertexId t = static_cast<VertexId>(rng.NextBounded(100));
    EXPECT_EQ(fast->Query(s, t), oracle.Query(s, t));
  }
  const FastPathVerdictStats stats = fast->VerdictStats();
  EXPECT_EQ(stats.Total(), kQueries);
  // Sparse random DAGs are negative-dominated; the order filters alone
  // should decide well over half of the pairs (the ISSUE's hit-rate bar).
  EXPECT_GT(stats.Decided(), kQueries / 2);
  const FastPathVerdictStats registry_delta =
      Minus(RegistryVerdicts(), registry_before);
  EXPECT_EQ(registry_delta.hit_pos, stats.hit_pos);
  EXPECT_EQ(registry_delta.hit_neg, stats.hit_neg);
  EXPECT_EQ(registry_delta.undecided, stats.undecided);
  // Rebasing VerdictStats() leaves the registry alone, and destroying the
  // index keeps its counts in the registry.
  fast->ResetProbe();
  EXPECT_EQ(fast->VerdictStats().Total(), 0u);
  made.plain.reset();
  EXPECT_EQ(Minus(RegistryVerdicts(), registry_before).Total(), kQueries);
}

// Threads query distinct slots while the main thread scrapes the global
// registry: run under TSan this fails if a verdict cell is read without
// synchronization. Scrapes never go backwards and the last one is exact.
TEST(FastPathIndexTest, RegistryScrapesWhileSlotsQuery) {
  auto made = MakeIndex("pll:fastpath=1");
  auto* fast = dynamic_cast<DynamicFastPathIndex*>(made.plain.get());
  ASSERT_NE(fast, nullptr);
  constexpr VertexId kN = 200;
  const Digraph g = RandomDag(kN, 500, 31);
  fast->Build(g);
  const size_t slots = fast->PrepareConcurrentQueries(4);
  ASSERT_GE(slots, 1u);
  TransitiveClosure oracle;
  oracle.Build(g);
  constexpr size_t kQueriesPerSlot = 4000;
  struct Pair {
    VertexId s, t;
    bool reachable;
  };
  std::vector<std::vector<Pair>> work(slots);
  Xoshiro256ss rng(32);
  for (std::vector<Pair>& pairs : work) {
    for (size_t i = 0; i < kQueriesPerSlot; ++i) {
      const auto s = static_cast<VertexId>(rng.NextBounded(kN));
      const auto t = static_cast<VertexId>(rng.NextBounded(kN));
      pairs.push_back({s, t, oracle.Query(s, t)});
    }
  }
  const uint64_t before = RegistryVerdicts().Total();
  std::atomic<size_t> running{slots};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> threads;
  for (size_t slot = 0; slot < slots; ++slot) {
    threads.emplace_back([&, slot] {
      for (const Pair& p : work[slot]) {
        if (fast->QueryInSlot(p.s, p.t, slot) != p.reachable) ++wrong;
      }
      running.fetch_sub(1);
    });
  }
  uint64_t last = before;
  while (running.load() > 0) {
    const uint64_t now = RegistryVerdicts().Total();
    EXPECT_GE(now, last);
    last = now;
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(RegistryVerdicts().Total() - before, slots * kQueriesPerSlot);
  EXPECT_EQ(fast->VerdictStats().Total(), slots * kQueriesPerSlot);
}

// ---------------------------------------------------------------------
// Dynamic composition: ApplyUpdate must flow through, and cached
// verdicts in the unsound direction must stop firing (inserts poison
// negatives, deletes poison positives — until the next Build).

TEST(FastPathIndexTest, InsertEdgeSuppressesStaleNegativeVerdicts) {
  auto made = MakeIndex("dagger:fastpath=1");
  ASSERT_TRUE(made.caps.dynamic);
  auto* fast = dynamic_cast<DynamicFastPathIndex*>(made.plain.get());
  ASSERT_NE(fast, nullptr);
  const Digraph g = Chain(6);  // 0 -> 1 -> ... -> 5
  fast->Build(g);
  EXPECT_TRUE(fast->Query(0, 5));
  EXPECT_FALSE(fast->Query(5, 0));  // order filter decides this negatively
  // 5 -> 0 closes a cycle.
  ASSERT_TRUE(fast->ApplyUpdate({EdgeUpdate::Insert(5, 0)}).ok());
  EXPECT_TRUE(fast->Query(5, 0));
  EXPECT_TRUE(fast->Query(3, 2));
  // A rebuild restores fast-path negatives over the new edge set.
  Digraph g2 = Digraph::FromEdges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
                                      {5, 0}});
  fast->Build(g2);
  EXPECT_TRUE(fast->Query(5, 0));
}

TEST(FastPathIndexTest, DeleteSuppressesStalePositiveVerdicts) {
  // The dangerous direction: after a delete, a cached positive verdict
  // (e.g. DFS containment on the chain) would be a wrong answer. The
  // wrapper must demote positives to undecided and let the inner index
  // (which processed the tombstone) answer.
  auto made = MakeIndex("pll:fastpath=1");
  ASSERT_TRUE(made.caps.decremental);
  auto* fast = dynamic_cast<DynamicFastPathIndex*>(made.plain.get());
  ASSERT_NE(fast, nullptr);
  // The dynamic inner index references the build graph across updates, so
  // it must outlive them.
  const Digraph g = Chain(6);
  fast->Build(g);
  EXPECT_TRUE(fast->Query(0, 5));  // decided positively by the stack
  ASSERT_TRUE(fast->SupportsDeletions());
  const UpdateResult del = fast->ApplyUpdate({EdgeUpdate::Delete(2, 3)});
  ASSERT_TRUE(del.ok());
  EXPECT_FALSE(fast->Query(0, 5));  // stale positive must NOT fire
  EXPECT_FALSE(fast->Query(2, 3));
  EXPECT_TRUE(fast->Query(0, 2));
  EXPECT_TRUE(fast->Query(3, 5));
  // Negative verdicts stay armed (no insert yet): 5 -> 0 is still decided
  // without consulting the inner index, and remains correct.
  EXPECT_FALSE(fast->Query(5, 0));
}

TEST(FastPathIndexTest, BuildReArmsVerdictsAfterDeletes) {
  // Both suppression flags must clear on Build — and only on Build:
  // RebuildFromUpdates re-minimizes the inner index but cannot refresh
  // the observation stack, so suppression persists across it.
  auto made = MakeIndex("pll:fastpath=1");
  auto* fast = dynamic_cast<DynamicFastPathIndex*>(made.plain.get());
  ASSERT_NE(fast, nullptr);
  const Digraph g = Chain(5);
  fast->Build(g);
  ASSERT_TRUE(fast->ApplyUpdate({EdgeUpdate::Delete(1, 2)}).ok());
  ASSERT_TRUE(fast->ApplyUpdate({EdgeUpdate::Insert(0, 4)}).ok());

  auto decided = [&](VertexId s, VertexId t) {
    const FastPathVerdictStats before = fast->VerdictStats();
    (void)fast->Query(s, t);
    return fast->VerdictStats().Decided() > before.Decided();
  };
  // Suppressed in both directions: nothing is decided at the stack.
  EXPECT_FALSE(decided(0, 4));
  EXPECT_FALSE(decided(4, 0));
  // Folding the backlog into the inner labels does NOT re-arm.
  ASSERT_TRUE(fast->RebuildFromUpdates());
  EXPECT_FALSE(decided(0, 4));
  // A full Build over the updated graph re-arms both directions.
  const Digraph g2 =
      Digraph::FromEdges(5, {{0, 1}, {2, 3}, {3, 4}, {0, 4}});
  fast->Build(g2);
  EXPECT_TRUE(fast->Query(0, 4));
  EXPECT_FALSE(fast->Query(1, 2));
  EXPECT_TRUE(decided(0, 4) || decided(4, 0));
}

TEST(FastPathIndexTest, DynamicWrapperStaysConformantUnderInserts) {
  auto made = MakeIndex("dagger:fastpath=1");
  auto* fast = dynamic_cast<DynamicFastPathIndex*>(made.plain.get());
  ASSERT_NE(fast, nullptr);
  Digraph g = RandomDag(40, 80, 31);
  fast->Build(g);
  std::vector<Edge> edges;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (VertexId w : g.OutNeighbors(v)) edges.push_back({v, w});
  }
  Xoshiro256ss rng(32);
  for (int round = 0; round < 20; ++round) {
    const VertexId s = static_cast<VertexId>(rng.NextBounded(40));
    const VertexId t = static_cast<VertexId>(rng.NextBounded(40));
    if (s == t) continue;
    ASSERT_TRUE(fast->ApplyUpdate({EdgeUpdate::Insert(s, t)}).ok());
    edges.push_back({s, t});
    TransitiveClosure oracle;
    oracle.Build(Digraph::FromEdges(40, edges));
    for (VertexId a = 0; a < 40; ++a) {
      for (VertexId b = 0; b < 40; ++b) {
        ASSERT_EQ(fast->Query(a, b), oracle.Query(a, b))
            << "after inserting " << s << " -> " << t << ": " << a << " -> "
            << b;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Factory wiring: capability propagation and the spec params.

// The wrappers forward `Clone` (sharing their immutable tables), so a
// wrapped pll serves on the copy path: the copy answers like its source,
// updates alone, and reports the live graph in the caller's numbering.
TEST(FastPathIndexTest, WrappersForwardCopiesThatUpdateAlone) {
  constexpr VertexId kN = 40;
  const Digraph g = RandomDigraph(kN, 90, 0xC1);
  MadeIndex made = MakeIndex("pll:fastpath=1");
  std::vector<std::unique_ptr<DynamicReachabilityIndex>> sources;
  sources.emplace_back(
      dynamic_cast<DynamicReachabilityIndex*>(made.plain.release()));
  sources.push_back(std::make_unique<DynamicReorderingIndex>(
      std::make_unique<PrunedTwoHop>(), ReorderStrategy::kDegree));
  for (const auto& source : sources) {
    SCOPED_TRACE(source->Name());
    source->Build(g);
    const auto answers = [&](const ReachabilityIndex& index) {
      std::vector<bool> out;
      for (VertexId s = 0; s < kN; ++s) {
        for (VertexId t = 0; t < kN; ++t) out.push_back(index.Query(s, t));
      }
      return out;
    };
    const std::vector<bool> before = answers(*source);
    std::unique_ptr<DynamicReachabilityIndex> copy = source->Clone();
    ASSERT_NE(copy, nullptr);
    EXPECT_EQ(answers(*copy), before);

    const Edge cut = g.Edges().front();
    ASSERT_TRUE(copy->ApplyUpdate({EdgeUpdate::Delete(cut.source, cut.target),
                                   EdgeUpdate::Insert(kN - 1, 0)})
                    .ok());
    std::vector<Edge> live = g.Edges();
    live.erase(live.begin());
    live.push_back({kN - 1, 0});
    const Digraph live_graph = Digraph::FromEdges(kN, live);
    TransitiveClosure oracle;
    oracle.Build(live_graph);
    EXPECT_EQ(answers(*copy), answers(oracle));
    EXPECT_EQ(answers(*source), before);
    const std::unique_ptr<Digraph> reported = copy->LiveGraph();
    ASSERT_NE(reported, nullptr);
    EXPECT_EQ(reported->Edges(), live_graph.Edges());
  }
}

TEST(FastPathFactoryTest, CapabilityPropagation) {
  const auto static_made = MakeIndex("grail:fastpath=1");
  ASSERT_NE(static_made.plain, nullptr);
  // `complete` follows the inner index — grail is registered incomplete,
  // and wrapping it must not launder that away.
  EXPECT_EQ(static_made.caps.complete, MakeIndex("grail").caps.complete);
  EXPECT_FALSE(static_made.caps.dynamic);
  EXPECT_FALSE(static_made.caps.serializable);  // stack is never persisted
  EXPECT_NE(dynamic_cast<FastPathIndex*>(static_made.plain.get()), nullptr);
  EXPECT_EQ(static_made.plain->Name().rfind("fastpath+", 0), 0u);

  // pll is dynamic here (PrunedTwoHop supports ApplyUpdate), so the
  // factory must pick the dynamic wrapper and keep the write API
  // reachable; `decremental` must follow the inner index too.
  const auto dynamic_made = MakeIndex("pll:fastpath=1");
  ASSERT_NE(dynamic_made.plain, nullptr);
  EXPECT_TRUE(dynamic_made.caps.dynamic);
  EXPECT_TRUE(dynamic_made.caps.decremental);
  EXPECT_FALSE(static_made.caps.decremental);
  EXPECT_TRUE(dynamic_made.caps.complete);
  EXPECT_FALSE(dynamic_made.caps.serializable);
  EXPECT_EQ(dynamic_made.plain->Name(), "fastpath+pll");
  EXPECT_NE(dynamic_cast<DynamicFastPathIndex*>(dynamic_made.plain.get()),
            nullptr);
  EXPECT_NE(dynamic_cast<DynamicReachabilityIndex*>(dynamic_made.plain.get()),
            nullptr);

  // Signature budget params flow through to the stack.
  const auto tuned = MakeIndex("grail:fastpath=1:supports=8:anti=4");
  auto* fast = dynamic_cast<FastPathIndex*>(tuned.plain.get());
  ASSERT_NE(fast, nullptr);
  fast->Build(RandomDag(50, 120, 41));
  EXPECT_LE(fast->observations().NumObservationVertices(), 12u);
}

TEST(FastPathFactoryTest, RosterDocsMentionFastPathParams) {
  bool found = false;
  for (const SpecDoc& doc : DescribeIndexSpecs(IndexFamily::kPlain)) {
    if (doc.spec.find("fastpath") != std::string::npos) {
      found = true;
      EXPECT_NE(doc.params.find("supports"), std::string::npos);
      EXPECT_NE(doc.params.find("anti"), std::string::npos);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace reach
