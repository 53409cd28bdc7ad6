// Unit tests for the unified construction entry point
// (core/index_factory.h): spec parsing, capability reporting, aliases,
// and the default rosters. Conformance of the indexes themselves lives in
// plain_conformance_test.cc / lcr_conformance_test.cc.

#include "core/index_factory.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/figure1.h"
#include "graph/generators.h"
#include "lcr/lcr_bfs.h"
#include "traversal/online_search.h"

namespace reach {
namespace {

TEST(IndexSpecTest, ParsesPlainSpecWithParameters) {
  const IndexSpec spec("grail:k=5");
  EXPECT_EQ(spec.text, "grail:k=5");
  EXPECT_FALSE(spec.labeled);
  EXPECT_EQ(spec.base, "grail");
  EXPECT_EQ(spec.Param("k", 3), 5u);
  EXPECT_EQ(spec.Param("missing", 7), 7u);
}

TEST(IndexSpecTest, ParsesLcrSpecWithMultipleParameters) {
  const IndexSpec spec("lcr:landmark:k=8:b=3");
  EXPECT_TRUE(spec.labeled);
  EXPECT_EQ(spec.base, "landmark");
  EXPECT_EQ(spec.Param("k", 16), 8u);
  EXPECT_EQ(spec.Param("b", 2), 3u);
}

TEST(IndexSpecTest, BareNameHasNoParameters) {
  const IndexSpec spec("pll");
  EXPECT_FALSE(spec.labeled);
  EXPECT_EQ(spec.base, "pll");
  EXPECT_EQ(spec.Param("k", 42), 42u);
}

TEST(IndexFactoryTest, UnknownSpecsReturnEmpty) {
  EXPECT_FALSE(MakeIndex("nonsense"));
  EXPECT_FALSE(MakeIndex("lcr:nonsense"));
  EXPECT_FALSE(MakeIndex(""));
  EXPECT_FALSE(MakeIndex("nonsense").error.empty());
}

TEST(IndexFactoryTest, PlainSpecSetsExactlyPlain) {
  MadeIndex made = MakeIndex("pll");
  ASSERT_TRUE(made);
  EXPECT_NE(made.plain, nullptr);
  EXPECT_EQ(made.lcr, nullptr);
  EXPECT_FALSE(made.caps.labeled);
  EXPECT_TRUE(made.caps.dynamic);       // 2-hop supports ApplyUpdate
  EXPECT_TRUE(made.caps.decremental);   // ... including kDelete batches
  EXPECT_TRUE(made.caps.complete);
  EXPECT_TRUE(made.caps.serializable);  // versioned Save/Load envelope
}

TEST(IndexFactoryTest, LcrSpecSetsExactlyLcr) {
  MadeIndex made = MakeIndex("lcr:pll");
  ASSERT_TRUE(made);
  EXPECT_EQ(made.plain, nullptr);
  EXPECT_NE(made.lcr, nullptr);
  EXPECT_TRUE(made.caps.labeled);
  EXPECT_TRUE(made.caps.dynamic);
  EXPECT_TRUE(made.caps.decremental);
  EXPECT_TRUE(made.caps.complete);
}

TEST(IndexFactoryTest, PartialIndexesReportIncomplete) {
  MadeIndex grail = MakeIndex("grail:k=5");
  ASSERT_TRUE(grail);
  EXPECT_FALSE(grail.caps.complete);  // GRAIL prunes, then falls back
  EXPECT_FALSE(grail.caps.dynamic);
  EXPECT_FALSE(grail.caps.decremental);  // never without dynamic
  EXPECT_FALSE(grail.caps.serializable);

  MadeIndex bfs = MakeIndex("lcr:bfs");
  ASSERT_TRUE(bfs);
  EXPECT_FALSE(bfs.caps.complete);  // pure online baseline
}

TEST(IndexFactoryTest, AutoAdvisorIsDeferred) {
  MadeIndex made = MakeIndex("auto");
  ASSERT_TRUE(made);
  // The advisor picks its technique at Build time, so completeness and
  // serializability cannot be promised up front.
  EXPECT_FALSE(made.caps.complete);
  EXPECT_FALSE(made.caps.serializable);
}

TEST(IndexFactoryTest, HistoricalLcrAliasesStillConstruct) {
  for (const char* alias : {"lcr:lcr-bfs", "lcr:jin-tree", "lcr:p2h"}) {
    MadeIndex made = MakeIndex(alias);
    EXPECT_TRUE(made) << alias;
    EXPECT_NE(made.lcr, nullptr) << alias;
  }
}

TEST(IndexFactoryTest, ParametersReachTheTechnique) {
  MadeIndex a = MakeIndex("bfl:bits=64");
  MadeIndex b = MakeIndex("bfl:bits=512");
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  const Digraph g = figure1::PlainGraph();
  a.plain->Build(g);
  b.plain->Build(g);
  EXPECT_LT(a.plain->IndexSizeBytes(), b.plain->IndexSizeBytes());
}

TEST(IndexFactoryTest, PlainRosterConstructsAndAnswersFigure1) {
  const Digraph g = figure1::PlainGraph();
  const std::vector<std::string> roster = DefaultIndexSpecs(IndexFamily::kPlain);
  EXPECT_GE(roster.size(), 20u);
  for (const std::string& spec : roster) {
    MadeIndex made = MakeIndex(spec);
    ASSERT_TRUE(made) << spec;
    ASSERT_NE(made.plain, nullptr) << spec;
    EXPECT_FALSE(made.caps.labeled) << spec;
    made.plain->Build(g);
    EXPECT_TRUE(made.plain->Query(figure1::kA, figure1::kG)) << spec;  // §2.1
    EXPECT_FALSE(made.plain->Query(figure1::kG, figure1::kA)) << spec;
  }
}

TEST(IndexFactoryTest, LcrRosterIsPrefixedAndConstructs) {
  const std::vector<std::string> roster = DefaultIndexSpecs(IndexFamily::kLcr);
  EXPECT_GE(roster.size(), 5u);
  for (const std::string& spec : roster) {
    EXPECT_EQ(spec.rfind("lcr:", 0), 0u) << spec;
    MadeIndex made = MakeIndex(spec);
    ASSERT_TRUE(made) << spec;
    EXPECT_NE(made.lcr, nullptr) << spec;
    EXPECT_TRUE(made.caps.labeled) << spec;
  }
}

TEST(IndexFactoryTest, CapsMatchIndexSelfReports) {
  for (IndexFamily family : {IndexFamily::kPlain, IndexFamily::kLcr}) {
    for (const std::string& spec : DefaultIndexSpecs(family)) {
      if (spec == "auto") continue;  // deferred until Build
      MadeIndex made = MakeIndex(spec);
      ASSERT_TRUE(made) << spec;
      if (made.plain != nullptr) {
        EXPECT_EQ(made.caps.complete, made.plain->IsComplete()) << spec;
        EXPECT_EQ(made.caps.serializable, made.plain->SupportsSerialization())
            << spec;
        // `decremental` is exactly "dynamic and the index takes kDelete".
        const auto* dyn =
            dynamic_cast<const DynamicReachabilityIndex*>(made.plain.get());
        EXPECT_EQ(made.caps.decremental,
                  dyn != nullptr && dyn->SupportsDeletions())
            << spec;
        if (made.caps.decremental) {
          EXPECT_TRUE(made.caps.dynamic) << spec;
        }
      } else {
        EXPECT_EQ(made.caps.complete, made.lcr->IsComplete()) << spec;
      }
    }
  }
}

TEST(IndexFactoryTest, SpecDocCapsMatchFactoryCaps) {
  // The --help roster's capability column is documentation of MakeIndex's
  // IndexCaps — pin every row to the factory's actual report so the two
  // can never drift.
  for (IndexFamily family : {IndexFamily::kPlain, IndexFamily::kLcr}) {
    for (const SpecDoc& doc : DescribeIndexSpecs(family)) {
      if (doc.spec.find("<any>") != std::string::npos) {
        EXPECT_EQ(doc.caps, "follows the wrapped spec");
        continue;
      }
      MadeIndex made = MakeIndex(doc.spec);
      ASSERT_TRUE(made) << doc.spec;
      const char* expected = made.caps.decremental ? "dynamic (insert+delete)"
                             : made.caps.dynamic   ? "dynamic (insert-only)"
                                                   : "static";
      EXPECT_EQ(doc.caps, expected) << doc.spec;
    }
  }
}

// ---------------------------------------------------------------------
// Table-driven: every row of DescribeIndexSpecs, every documented key.

struct DocKey {
  std::string name;
  size_t fallback;
};

// The keys a SpecDoc documents: "k=<n> interval labelings (3), ...".
std::vector<DocKey> KeysOf(const SpecDoc& doc) {
  std::vector<DocKey> keys;
  size_t pos = 0;
  while (pos < doc.params.size()) {
    const size_t end =
        std::min(doc.params.find(", ", pos), doc.params.size());
    const std::string part = doc.params.substr(pos, end - pos);
    const size_t open = part.rfind('(');
    keys.push_back({part.substr(0, part.find('=')),
                    std::stoul(part.substr(open + 1))});
    pos = end + 2;
  }
  return keys;
}

bool Accepts(const SpecDoc& doc, const std::string& key) {
  for (const DocKey& k : KeysOf(doc)) {
    if (k.name == key) return true;
  }
  return false;
}

// Builds `spec` over a small cyclic graph and checks every pair against
// a BFS; returns the built index's Name().
std::string BuildAndCheck(const std::string& spec) {
  MadeIndex made = MakeIndex(spec);
  EXPECT_TRUE(made) << spec << ": " << made.error;
  if (made.plain != nullptr) {
    const Digraph g = RandomDigraph(24, 48, 5);
    OnlineSearch bfs(TraversalKind::kBfs);
    bfs.Build(g);
    made.plain->Build(g);
    for (VertexId s = 0; s < g.NumVertices(); ++s) {
      for (VertexId t = 0; t < g.NumVertices(); ++t) {
        EXPECT_EQ(made.plain->Query(s, t), bfs.Query(s, t))
            << spec << ": " << s << "->" << t;
      }
    }
    return made.plain->Name();
  }
  if (made.lcr != nullptr) {
    const LabeledDigraph g = RandomLabeledDigraph(16, 36, 3, 5);
    made.lcr->Build(g);
    SearchWorkspace ws;
    for (VertexId s = 0; s < g.NumVertices(); ++s) {
      for (VertexId t = 0; t < g.NumVertices(); ++t) {
        for (LabelSet mask = 0; mask < 8; ++mask) {
          EXPECT_EQ(made.lcr->Query(s, t, mask),
                    LcrBfsReachability(g, s, t, mask, ws))
              << spec << ": " << s << "->" << t << " mask=" << mask;
        }
      }
    }
    return made.lcr->Name();
  }
  return "";
}

TEST(SpecTableTest, EveryRowBuildsBareFastPathedAndCompressed) {
  for (IndexFamily family : {IndexFamily::kPlain, IndexFamily::kLcr}) {
    for (const SpecDoc& doc : DescribeIndexSpecs(family)) {
      if (doc.spec.starts_with("<any>")) continue;
      BuildAndCheck(doc.spec);
      if (family == IndexFamily::kPlain) {
        EXPECT_TRUE(BuildAndCheck(doc.spec + ":fastpath=1")
                        .starts_with("fastpath+"))
            << doc.spec;
      }
      if (Accepts(doc, "compress")) BuildAndCheck(doc.spec + ":compress=1");
    }
  }
}

TEST(SpecTableTest, EveryDocumentedKeyTakesANonDefaultValue) {
  size_t checked = 0;
  for (IndexFamily family : {IndexFamily::kPlain, IndexFamily::kLcr}) {
    for (const SpecDoc& doc : DescribeIndexSpecs(family)) {
      // The fast-path keys compose with any plain spec; try them on pll.
      const bool any = doc.spec.starts_with("<any>");
      const std::string base = any ? "pll:fastpath=1" : doc.spec;
      const MadeIndex made = MakeIndex(base);
      const std::string bare =
          made.plain != nullptr ? made.plain->Name() : made.lcr->Name();
      for (const DocKey& key : KeysOf(doc)) {
        if (any && key.name == "fastpath") continue;
        const size_t value = key.fallback == 0 ? 1 : 2 * key.fallback;
        const std::string spec =
            base + ":" + key.name + "=" + std::to_string(value);
        const std::string name = BuildAndCheck(spec);
        // Where Name() carries the key, it carries the new value.
        const std::string shown = key.name + "=" + std::to_string(key.fallback);
        if (bare.find(shown) != std::string::npos) {
          EXPECT_NE(name.find(key.name + "=" + std::to_string(value)),
                    std::string::npos)
              << spec << " built " << name;
        }
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 25u);
}

TEST(SpecTableTest, TwoHopRowsDocumentTheStorageKeys) {
  for (const SpecDoc& doc : DescribeIndexSpecs(IndexFamily::kPlain)) {
    if (doc.spec != "pll" && doc.spec != "tfl" &&
        !doc.spec.starts_with("tol-")) {
      continue;
    }
    for (const char* key : {"compress", "block", "budget_mb", "staleness"}) {
      EXPECT_TRUE(Accepts(doc, key)) << doc.spec << " " << key;
    }
  }
}

TEST(SpecTableTest, MalformedSpecsBuildNothingAndNameTheBadPart) {
  const struct {
    const char* spec;
    const char* bad_part;
  } cases[] = {
      {"pll:compres=1", "'compres'"},    {"grail:k=abc", "'abc'"},
      {"grail:k=3:k=4", "'k' given twice"}, {"bfl:bits", "'bits'"},
      {"lcr:pll:fastpath=1", "'fastpath'"}, {"pl", "'pl'"},
      {"grail:k=-1", "'-1'"},             {"pll:", "''"},
      {"lcr:pll:supports=4", "'supports'"},
  };
  for (const auto& c : cases) {
    const MadeIndex made = MakeIndex(c.spec);
    EXPECT_FALSE(made) << c.spec;
    EXPECT_EQ(made.plain, nullptr) << c.spec;
    EXPECT_EQ(made.lcr, nullptr) << c.spec;
    EXPECT_NE(made.error.find(c.bad_part), std::string::npos)
        << c.spec << ": " << made.error;
    EXPECT_NE(made.error.find(c.spec), std::string::npos) << made.error;
  }
}

TEST(SpecTableTest, ParsesOnceIntoAKeyMap) {
  const IndexSpec spec("pll:fastpath=1:compress=1:supports=8");
  EXPECT_TRUE(spec.error.empty());
  EXPECT_EQ(spec.params.size(), 3u);
  EXPECT_EQ(spec.Param("supports", 32), 8u);
  // A key is matched whole, never as a substring of another key.
  EXPECT_EQ(IndexSpec("pll:xfastpath=1").Param("fastpath", 0), 0u);
  EXPECT_FALSE(IndexSpec("grail:k=12x").error.empty());
}

}  // namespace
}  // namespace reach
