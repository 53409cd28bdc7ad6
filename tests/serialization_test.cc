#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/index_factory.h"
#include "core/serialize.h"
#include "graph/figure1.h"
#include "graph/generators.h"
#include "lcr/label_set.h"
#include "lcr/pruned_labeled_two_hop.h"
#include "plain/pruned_two_hop.h"
#include "traversal/transitive_closure.h"

namespace reach {
namespace {

TEST(SerializationTest, RoundTripPreservesAllAnswers) {
  const Digraph g = RandomDigraph(60, 200, 9);
  PrunedTwoHop original;
  original.Build(g);

  std::stringstream buffer;
  ASSERT_TRUE(original.Save(buffer));

  PrunedTwoHop loaded;
  ASSERT_TRUE(loaded.Load(buffer));
  EXPECT_EQ(loaded.TotalLabelEntries(), original.TotalLabelEntries());
  for (VertexId s = 0; s < g.NumVertices(); ++s) {
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      ASSERT_EQ(loaded.Query(s, t), original.Query(s, t)) << s << "->" << t;
    }
  }
}

TEST(SerializationTest, RoundTripAfterInsertions) {
  const Digraph g = Digraph::FromEdges(6, {{0, 1}, {2, 3}, {4, 5}});
  PrunedTwoHop index;
  index.Build(g);
  ASSERT_TRUE(index.ApplyUpdate(
      {EdgeUpdate::Insert(1, 2), EdgeUpdate::Insert(3, 4)}).ok());

  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer));
  PrunedTwoHop loaded;
  ASSERT_TRUE(loaded.Load(buffer));
  EXPECT_TRUE(loaded.Query(0, 5));  // path through both inserted edges
  EXPECT_FALSE(loaded.Query(5, 0));
}

TEST(SerializationTest, LoadedIndexMatchesOracleWithoutGraph) {
  const Digraph g = RandomDigraph(40, 140, 21);
  TransitiveClosure oracle;
  oracle.Build(g);
  std::stringstream buffer;
  {
    PrunedTwoHop index;
    index.Build(g);
    ASSERT_TRUE(index.Save(buffer));
  }  // original index destroyed; the loaded one must stand alone
  PrunedTwoHop loaded;
  ASSERT_TRUE(loaded.Load(buffer));
  for (VertexId s = 0; s < g.NumVertices(); s += 2) {
    for (VertexId t = 0; t < g.NumVertices(); t += 2) {
      ASSERT_EQ(loaded.Query(s, t), oracle.Query(s, t));
    }
  }
}

TEST(SerializationTest, RejectsBadMagic) {
  std::stringstream buffer;
  buffer << "definitely not an index";
  PrunedTwoHop loaded;
  EXPECT_FALSE(loaded.Load(buffer));
}

TEST(SerializationTest, RejectsTruncatedStream) {
  const Digraph g = Chain(20);
  PrunedTwoHop index;
  index.Build(g);
  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer));
  const std::string full = buffer.str();
  for (size_t cut : {size_t{4}, full.size() / 2, full.size() - 3}) {
    std::stringstream truncated(full.substr(0, cut));
    PrunedTwoHop loaded;
    EXPECT_FALSE(loaded.Load(truncated)) << "cut at " << cut;
  }
}

TEST(SerializationTest, RejectsCorruptedRanks) {
  const Digraph g = Chain(8);
  PrunedTwoHop index;
  index.Build(g);
  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer));
  std::string data = buffer.str();
  // rank_ entries start right after magic (8B) + count (8B) + size (8B);
  // smash one to an out-of-range value.
  data[24] = '\xff';
  data[25] = '\xff';
  data[26] = '\xff';
  data[27] = '\xff';
  std::stringstream corrupted(data);
  PrunedTwoHop loaded;
  EXPECT_FALSE(loaded.Load(corrupted));
}

// Save -> Load across *every* registered plain spec: serializable
// indexes must answer identically after the round trip; the rest must
// refuse with the typed kUnsupported status instead of writing or
// misreading bytes.
TEST(SerializationRosterTest, PlainRoundTripAcrossAllRegisteredSpecs) {
  const Digraph fig = figure1::PlainGraph();
  const Digraph rnd = RandomDigraph(48, 150, 0xC0FFEE);
  for (const std::string& spec : DefaultIndexSpecs(IndexFamily::kPlain)) {
    for (const Digraph* g : {&fig, &rnd}) {
      MadeIndex made = MakeIndex(spec);
      ASSERT_TRUE(made) << spec;
      made.plain->Build(*g);
      std::stringstream buffer;
      if (!made.caps.serializable) {
        EXPECT_FALSE(made.plain->Save(buffer)) << spec;
        const LoadResult result = made.plain->Load(buffer);
        EXPECT_EQ(result.status, LoadStatus::kUnsupported) << spec;
        continue;
      }
      ASSERT_TRUE(made.plain->Save(buffer)) << spec;
      MadeIndex fresh = MakeIndex(spec);
      const LoadResult result = fresh.plain->Load(buffer);
      ASSERT_TRUE(result) << spec << ": "
                          << LoadStatusMessage(result.status);
      for (VertexId s = 0; s < g->NumVertices(); ++s) {
        for (VertexId t = 0; t < g->NumVertices(); ++t) {
          ASSERT_EQ(fresh.plain->Query(s, t), made.plain->Query(s, t))
              << spec << ": " << s << "->" << t;
        }
      }
    }
  }
}

TEST(SerializationRosterTest, LcrRoundTripAcrossAllRegisteredSpecs) {
  const LabeledDigraph fig = figure1::LabeledGraph();
  const LabeledDigraph rnd = RandomLabeledDigraph(40, 130, 3, 0xBEEF);
  const std::vector<LabelSet> label_sets = {
      MakeLabelSet({}),     MakeLabelSet({0}),       MakeLabelSet({2}),
      MakeLabelSet({0, 1}), MakeLabelSet({0, 1, 2}),
  };
  for (const std::string& spec : DefaultIndexSpecs(IndexFamily::kLcr)) {
    for (const LabeledDigraph* g : {&fig, &rnd}) {
      MadeIndex made = MakeIndex(spec);
      ASSERT_TRUE(made) << spec;
      made.lcr->Build(*g);
      std::stringstream buffer;
      if (!made.caps.serializable) {
        EXPECT_FALSE(made.lcr->Save(buffer)) << spec;
        const LoadResult result = made.lcr->Load(buffer);
        EXPECT_EQ(result.status, LoadStatus::kUnsupported) << spec;
        continue;
      }
      ASSERT_TRUE(made.lcr->Save(buffer)) << spec;
      MadeIndex fresh = MakeIndex(spec);
      const LoadResult result = fresh.lcr->Load(buffer);
      ASSERT_TRUE(result) << spec << ": "
                          << LoadStatusMessage(result.status);
      for (VertexId s = 0; s < g->NumVertices(); ++s) {
        for (VertexId t = 0; t < g->NumVertices(); ++t) {
          for (const LabelSet& ls : label_sets) {
            ASSERT_EQ(fresh.lcr->Query(s, t, ls), made.lcr->Query(s, t, ls))
                << spec << ": " << s << "->" << t;
          }
        }
      }
    }
  }
}

TEST(SerializationEnvelopeTest, VersionMismatchIsRejectedWithTypedStatus) {
  const Digraph g = Chain(8);
  PrunedTwoHop index;
  index.Build(g);
  std::stringstream saved;
  ASSERT_TRUE(index.Save(saved));
  // Re-wrap the payload in an envelope from a future format revision.
  const std::string bytes = saved.str();
  const size_t envelope_size = 3 * sizeof(uint32_t) + index.Name().size();
  std::stringstream tampered;
  ASSERT_TRUE(WriteEnvelope(tampered, index.Name(), kEnvelopeVersion + 1));
  tampered << bytes.substr(envelope_size);
  PrunedTwoHop loaded;
  const LoadResult result = loaded.Load(tampered);
  EXPECT_EQ(result.status, LoadStatus::kBadVersion);
}

TEST(SerializationEnvelopeTest, WrongIndexNameIsRejected) {
  const Digraph g = Chain(8);
  PrunedTwoHop degree_order;  // envelope name "pll"
  degree_order.Build(g);
  std::stringstream buffer;
  ASSERT_TRUE(degree_order.Save(buffer));
  // The labeled 2-hop (format "p2h") must refuse the "pll" stream.
  MadeIndex other = MakeIndex("lcr:pll");
  ASSERT_TRUE(other);
  const LoadResult result = other.lcr->Load(buffer);
  EXPECT_EQ(result.status, LoadStatus::kWrongIndex);
  EXPECT_EQ(result.detail, "pll");
}

TEST(SerializationEnvelopeTest, BadMagicIsTyped) {
  std::stringstream buffer;
  buffer << "not an index stream";
  PrunedTwoHop loaded;
  const LoadResult result = loaded.Load(buffer);
  EXPECT_EQ(result.status, LoadStatus::kBadMagic);
}

// Byte offsets in a v1 stream (docs/SNAPSHOTS.md): the envelope for a
// three-letter format name is 15 bytes, then u64 magic, u64 n, and the
// rank table as u64 count + u32s (its first rank at kStreamRankTable),
// the by-rank table likewise, then the Lin lists as u64 count + entries.
constexpr size_t kStreamRankTable = 15 + 8 + 8 + 8;
size_t StreamLinLists(size_t n) { return kStreamRankTable + 8 + 8 * n; }

template <typename T>
T ReadAt(const std::string& bytes, size_t pos) {
  T value;
  std::memcpy(&value, bytes.data() + pos, sizeof(T));
  return value;
}

// Swaps the `size`-byte values at `a` and `b`.
void SwapBytes(std::string& bytes, size_t a, size_t b, size_t size) {
  for (size_t i = 0; i < size; ++i) std::swap(bytes[a + i], bytes[b + i]);
}

// A plain stream whose first Lin list with two entries has them swapped:
// a labeling whose answers are wrong even though every rank is in range.
TEST(SerializationTest, RejectsUnsortedLinList) {
  const Digraph g = RandomDag(300, 900, 7);
  PrunedTwoHop index;
  index.Build(g);
  std::stringstream saved;
  ASSERT_TRUE(index.Save(saved));
  std::string bytes = saved.str();
  const size_t n = g.NumVertices();
  size_t pos = StreamLinLists(n);
  for (;;) {
    ASSERT_LT(pos + 8, bytes.size()) << "no Lin list with two entries";
    const uint64_t count = ReadAt<uint64_t>(bytes, pos);
    if (count >= 2) break;
    pos += 8 + 4 * count;
  }
  SwapBytes(bytes, pos + 8, pos + 12, 4);
  for (const bool compress : {false, true}) {
    TwoHopStorageOptions storage;
    storage.compress = compress;
    PrunedTwoHop loaded(VertexOrder::kDegree, 0, storage);
    std::istringstream in(bytes);
    const LoadResult result = loaded.Load(in);
    EXPECT_EQ(result.status, LoadStatus::kCorrupt) << "compress " << compress;
    EXPECT_NE(result.detail.find("Lin["), std::string::npos) << result.detail;
  }
}

TEST(SerializationTest, RejectsRankTableNotInverseOfByRank) {
  const Digraph g = RandomDag(300, 900, 7);
  PrunedTwoHop index;
  index.Build(g);
  std::stringstream saved;
  ASSERT_TRUE(index.Save(saved));
  std::string bytes = saved.str();
  SwapBytes(bytes, kStreamRankTable, kStreamRankTable + 4, 4);
  std::istringstream in(bytes);
  PrunedTwoHop loaded;
  const LoadResult result = loaded.Load(in);
  EXPECT_EQ(result.status, LoadStatus::kCorrupt);
  EXPECT_NE(result.detail.find("rank table"), std::string::npos)
      << result.detail;
}

TEST(SerializationTest, LabeledRejectsRankTableNotInverseOfByRank) {
  const LabeledDigraph g = RandomLabeledDigraph(60, 240, 3, 7);
  PrunedLabeledTwoHop index;
  index.Build(g);
  std::stringstream saved;
  ASSERT_TRUE(index.Save(saved));
  std::string bytes = saved.str();
  SwapBytes(bytes, kStreamRankTable, kStreamRankTable + 4, 4);
  std::istringstream in(bytes);
  PrunedLabeledTwoHop loaded;
  const LoadResult result = loaded.Load(in);
  EXPECT_EQ(result.status, LoadStatus::kCorrupt);
  EXPECT_NE(result.detail.find("rank table"), std::string::npos)
      << result.detail;
}

TEST(SerializationTest, EmptyGraphRoundTrip) {
  const Digraph g = Digraph::FromEdges(0, {});
  PrunedTwoHop index;
  index.Build(g);
  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer));
  PrunedTwoHop loaded;
  EXPECT_TRUE(loaded.Load(buffer));
}

}  // namespace
}  // namespace reach
