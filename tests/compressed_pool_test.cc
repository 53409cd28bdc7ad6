// Block-compressed label pools (core/label_pool.h): codec round-trips,
// skip-table queries, differentials against the flat layout on the
// generator roster, and the FERRARI-style budget fallback.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "core/bit_pack.h"
#include "core/label_pool.h"
#include "core/two_hop_core.h"
#include "graph/generators.h"
#include "lcr/pruned_labeled_two_hop.h"
#include "plain/pruned_two_hop.h"

namespace reach {
namespace {

std::vector<std::vector<uint32_t>> RandomRankLists(size_t n, uint32_t universe,
                                                   uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<uint32_t>> lists(n);
  for (auto& list : lists) {
    const size_t len = rng() % 200;
    std::vector<uint32_t> values;
    for (size_t i = 0; i < len; ++i) {
      values.push_back(static_cast<uint32_t>(rng() % universe));
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    list = std::move(values);
  }
  return lists;
}

// The two entry kinds the pool's codecs cover, and what the typed tests
// need of each: an entry per (rank, mask), the largest rank group to
// generate, a query constraint, and the usable-under-`q` oracle.
struct PlainKind {
  using Traits = PlainTwoHopTraits;
  using Entry = uint32_t;
  static constexpr size_t kMaxGroup = 1;
  static Entry Make(uint32_t rank, LabelSet) { return rank; }
  static Traits::Constraint Query(uint64_t) { return {}; }
  static Traits::Constraint AllowAll() { return {}; }
  static bool Usable(Entry, Traits::Constraint) { return true; }
};

struct LabeledKind {
  using Traits = LabeledTwoHopTraits;
  using Entry = Traits::Entry;
  static constexpr size_t kMaxGroup = 3;
  static Entry Make(uint32_t rank, LabelSet mask) { return {rank, mask}; }
  static LabelSet Query(uint64_t bits) { return static_cast<LabelSet>(bits); }
  static LabelSet AllowAll() { return ~LabelSet{0}; }
  static bool Usable(const Entry& e, LabelSet q) {
    return IsSubsetOf(e.mask, q);
  }
};

struct KindNames {
  template <typename Kind>
  static std::string GetName(int) {
    return std::is_same_v<Kind, PlainKind> ? "plain" : "labeled";
  }
};

// Random rank-sorted lists of `Kind` entries: the ranks of
// `RandomRankLists`, each a group of up to `kMaxGroup` distinct masks.
template <typename Kind>
std::vector<std::vector<typename Kind::Entry>> RandomLists(size_t n,
                                                           uint32_t universe,
                                                           uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<std::vector<typename Kind::Entry>> lists(n);
  const auto ranks = RandomRankLists(n, universe, seed);
  for (size_t v = 0; v < n; ++v) {
    for (uint32_t rank : ranks[v]) {
      std::vector<LabelSet> masks;
      for (size_t i = 1 + rng() % Kind::kMaxGroup; i > 0; --i) {
        masks.push_back(static_cast<LabelSet>(rng() % 16));
      }
      std::sort(masks.begin(), masks.end());
      masks.erase(std::unique(masks.begin(), masks.end()), masks.end());
      for (LabelSet mask : masks) lists[v].push_back(Kind::Make(rank, mask));
    }
  }
  return lists;
}

template <typename Entry>
bool SameEntries(const std::vector<Entry>& a, const std::vector<Entry>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Entry)) == 0);
}

TEST(BitPackTest, RoundTripsEveryWidth) {
  std::vector<uint8_t> bytes;
  BitWriter writer(&bytes);
  std::vector<std::pair<uint32_t, int>> values;
  std::mt19937_64 rng(7);
  for (int width = 0; width <= 32; ++width) {
    const uint32_t mask = BitWriter::MaskOf(width);
    for (int i = 0; i < 17; ++i) {
      const uint32_t v = static_cast<uint32_t>(rng()) & mask;
      values.emplace_back(v, width);
      writer.Put(v, width);
    }
  }
  writer.Flush();
  BitReader reader(bytes.data(), bytes.data() + bytes.size());
  for (const auto& [v, width] : values) {
    EXPECT_EQ(reader.Get(width), v);
  }
  // Past-the-end reads produce zeros, never UB.
  EXPECT_EQ(reader.Get(32), 0u);
}

// The pool and the core's pool kernels over both codecs: every case runs
// once on plain rank lists and once on labeled lists with rank groups.
template <typename Kind>
class CompressedPoolTest : public testing::Test {
 protected:
  using Entry = typename Kind::Entry;
  using Pool = CompressedPool<Entry>;
  using Core = TwoHopCore<typename Kind::Traits>;

  static bool CoveredOracle(const std::vector<Entry>& list, uint32_t rank,
                            typename Kind::Traits::Constraint q) {
    return std::any_of(list.begin(), list.end(), [&](const Entry& e) {
      return Kind::Traits::Rank(e) == rank && Kind::Usable(e, q);
    });
  }

  static bool IntersectOracle(const std::vector<Entry>& a,
                              const std::vector<Entry>& b,
                              typename Kind::Traits::Constraint q) {
    return std::any_of(a.begin(), a.end(), [&](const Entry& e) {
      return Kind::Usable(e, q) &&
             CoveredOracle(b, Kind::Traits::Rank(e), q);
    });
  }
};
using Kinds = testing::Types<PlainKind, LabeledKind>;
TYPED_TEST_SUITE(CompressedPoolTest, Kinds, KindNames);

TYPED_TEST(CompressedPoolTest, DecodeMatchesInput) {
  const auto lists = RandomLists<TypeParam>(300, 1 << 20, 11);
  for (size_t block : {8u, 64u, 1024u}) {
    typename TestFixture::Pool pool;
    ASSERT_TRUE(pool.Seal(lists, block));
    ASSERT_TRUE(pool.Sealed());
    std::vector<typename TypeParam::Entry> decoded;
    for (size_t v = 0; v < lists.size(); ++v) {
      pool.Decode(static_cast<VertexId>(v), &decoded);
      EXPECT_TRUE(SameEntries(decoded, lists[v]))
          << "vertex " << v << " block " << block;
      EXPECT_EQ(pool.ListEntries(static_cast<VertexId>(v)), lists[v].size());
    }
  }
}

TYPED_TEST(CompressedPoolTest, ContainsMatchesBinarySearch) {
  const auto lists = RandomLists<TypeParam>(120, 5000, 23);
  typename TestFixture::Pool pool;
  ASSERT_TRUE(pool.Seal(lists, 32));
  std::mt19937_64 rng(29);
  for (size_t v = 0; v < lists.size(); ++v) {
    const VertexId vertex = static_cast<VertexId>(v);
    for (int probe = 0; probe < 64; ++probe) {
      const uint32_t rank = static_cast<uint32_t>(rng() % 5000);
      const auto q = TypeParam::Query(rng());
      EXPECT_EQ(TestFixture::Core::PoolCovered(pool, vertex, rank, q),
                TestFixture::CoveredOracle(lists[v], rank, q))
          << "vertex " << v << " rank " << rank;
    }
    if (!lists[v].empty()) {
      for (const auto& e : {lists[v].front(), lists[v].back()}) {
        EXPECT_TRUE(TestFixture::Core::PoolCovered(
            pool, vertex, TypeParam::Traits::Rank(e), TypeParam::AllowAll()));
      }
    }
  }
}

TYPED_TEST(CompressedPoolTest, IntersectMatchesSetIntersection) {
  const auto lists = RandomLists<TypeParam>(200, 3000, 31);
  typename TestFixture::Pool pool;
  ASSERT_TRUE(pool.Seal(lists, 16));
  std::mt19937_64 rng(37);
  for (int trial = 0; trial < 2000; ++trial) {
    const VertexId a = static_cast<VertexId>(rng() % lists.size());
    const VertexId b = static_cast<VertexId>(rng() % lists.size());
    const auto q = TypeParam::Query(rng());
    EXPECT_EQ(TestFixture::Core::PoolsIntersect(pool, a, pool, b, q),
              TestFixture::IntersectOracle(lists[a], lists[b], q))
        << a << " ^ " << b;
  }
}

TYPED_TEST(CompressedPoolTest, IntersectWithSortedMatchesOracle) {
  const auto lists = RandomLists<TypeParam>(80, 1000, 41);
  typename TestFixture::Pool pool;
  ASSERT_TRUE(pool.Seal(lists, 16));
  const auto others = RandomLists<TypeParam>(500, 1000, 43);
  std::mt19937_64 rng(43);
  for (const auto& other : others) {
    const VertexId v = static_cast<VertexId>(rng() % lists.size());
    const auto q = TypeParam::Query(rng());
    EXPECT_EQ(TestFixture::Core::PoolIntersectsSpan(pool, v, other, q),
              TestFixture::IntersectOracle(lists[v], other, q));
  }
}

TYPED_TEST(CompressedPoolTest, SealFromViewRejectsMalformedStructure) {
  const auto lists = RandomLists<TypeParam>(20, 500, 47);
  typename TestFixture::Pool pool;
  ASSERT_TRUE(pool.Seal(lists, 16));
  const auto vb = pool.VertexBlocksRaw();
  const auto skip = pool.SkipRaw();
  const auto data = pool.DataRaw();

  typename TestFixture::Pool view;
  ASSERT_TRUE(view.SealFromView(vb, skip, data, pool.NumEntries(),
                                pool.BlockEntries()));
  // Wrong entry total must be rejected (count validation sums blocks).
  EXPECT_FALSE(view.SealFromView(vb, skip, data, pool.NumEntries() + 1,
                                 pool.BlockEntries()));
  // Truncated data must be rejected before any decode.
  EXPECT_FALSE(view.SealFromView(vb, skip,
                                 data.subspan(0, data.size() / 2),
                                 pool.NumEntries(), pool.BlockEntries()));
  // A corrupted block-index table must be rejected.
  std::vector<uint32_t> bad_vb(vb.begin(), vb.end());
  if (bad_vb.size() > 2) {
    std::swap(bad_vb[1], bad_vb[bad_vb.size() - 2]);
    EXPECT_FALSE(view.SealFromView(bad_vb, skip, data, pool.NumEntries(),
                                   pool.BlockEntries()));
  }
}

// The acceptance differential: compressed and flat storage answer every
// query identically across the roster graphs (> 10k pairs in total).
TEST(CompressedStorageTest, PlainDifferentialAcrossRoster) {
  const Digraph graphs[] = {
      ScaleFreeDag(100, 4, 3),
      RandomDigraph(80, 400, 5),
      RandomDag(90, 350, 7),
      ChainWithShortcuts(70, 25, 9),
  };
  for (const Digraph& g : graphs) {
    PrunedTwoHop flat;
    flat.Build(g);
    TwoHopStorageOptions storage;
    storage.compress = true;
    storage.block_entries = 16;
    PrunedTwoHop compressed(VertexOrder::kDegree, 0x70'6c'6cULL, storage);
    compressed.Build(g);
    ASSERT_TRUE(compressed.CompressedStorage());
    ASSERT_FALSE(flat.CompressedStorage());
    EXPECT_EQ(compressed.TotalLabelEntries(), flat.TotalLabelEntries());
    for (VertexId s = 0; s < g.NumVertices(); ++s) {
      for (VertexId t = 0; t < g.NumVertices(); ++t) {
        ASSERT_EQ(compressed.Query(s, t), flat.Query(s, t))
            << s << "->" << t;
      }
    }
  }
}

TEST(CompressedStorageTest, PlainDifferentialAfterInsertions) {
  const Digraph g = ScaleFreeDag(60, 3, 13);
  TwoHopStorageOptions storage;
  storage.compress = true;
  PrunedTwoHop flat;
  PrunedTwoHop compressed(VertexOrder::kDegree, 0x70'6c'6cULL, storage);
  flat.Build(g);
  compressed.Build(g);
  std::mt19937_64 rng(17);
  for (int i = 0; i < 10; ++i) {
    const VertexId s = static_cast<VertexId>(rng() % g.NumVertices());
    const VertexId t = static_cast<VertexId>(rng() % g.NumVertices());
    const UpdateBatch batch = {EdgeUpdate::Insert(s, t)};
    ASSERT_TRUE(flat.ApplyUpdate(batch).ok());
    ASSERT_TRUE(compressed.ApplyUpdate(batch).ok());
  }
  for (VertexId s = 0; s < g.NumVertices(); ++s) {
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      ASSERT_EQ(compressed.Query(s, t), flat.Query(s, t)) << s << "->" << t;
    }
  }
}

TEST(CompressedStorageTest, LcrDifferential) {
  const LabeledDigraph g = RandomLabeledDigraph(60, 300, 4, 19);
  PrunedLabeledTwoHop flat;
  flat.Build(g);
  TwoHopStorageOptions storage;
  storage.compress = true;
  storage.block_entries = 16;
  PrunedLabeledTwoHop compressed(storage);
  compressed.Build(g);
  ASSERT_TRUE(compressed.CompressedStorage());
  EXPECT_EQ(compressed.TotalEntries(), flat.TotalEntries());
  for (VertexId s = 0; s < g.NumVertices(); ++s) {
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      for (LabelSet mask : {LabelSet{0x1}, LabelSet{0x5}, LabelSet{0xf}}) {
        ASSERT_EQ(compressed.Query(s, t, mask), flat.Query(s, t, mask))
            << s << "->" << t << " mask " << mask;
      }
    }
  }
}

TEST(CompressedStorageTest, LcrDifferentialAfterInsertions) {
  const LabeledDigraph g = RandomLabeledDigraph(40, 150, 3, 23);
  PrunedLabeledTwoHop flat;
  flat.Build(g);
  TwoHopStorageOptions storage;
  storage.compress = true;
  PrunedLabeledTwoHop compressed(storage);
  compressed.Build(g);
  std::mt19937_64 rng(27);
  for (int i = 0; i < 6; ++i) {
    const VertexId s = static_cast<VertexId>(rng() % g.NumVertices());
    const VertexId t = static_cast<VertexId>(rng() % g.NumVertices());
    const Label l = static_cast<Label>(rng() % g.NumLabels());
    const LabeledUpdateBatch batch = {LabeledEdgeUpdate::Insert(s, t, l)};
    ASSERT_TRUE(flat.ApplyUpdate(batch).ok());
    ASSERT_TRUE(compressed.ApplyUpdate(batch).ok());
  }
  for (VertexId s = 0; s < g.NumVertices(); ++s) {
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      for (LabelSet mask : {LabelSet{0x3}, LabelSet{0x7}}) {
        ASSERT_EQ(compressed.Query(s, t, mask), flat.Query(s, t, mask))
            << s << "->" << t << " mask " << mask;
      }
    }
  }
}

TEST(CompressedEntryPoolTest, SealRefusesOversizedRankGroup) {
  struct E {
    uint32_t rank;
    uint32_t mask;
  };
  std::vector<std::vector<E>> lists(1);
  for (uint32_t i = 0;
       i < CompressedPool<E>::kMaxBlockEntries + 1; ++i) {
    lists[0].push_back({7, i});  // one rank group larger than any block
  }
  CompressedPool<E> pool;
  EXPECT_FALSE(pool.Seal(lists, 64));
  EXPECT_FALSE(pool.Sealed());
}

// A tight byte budget on an uncompressed spec forces the FERRARI-style
// fallback to compressed storage; the index still answers correctly.
TEST(CompressedStorageTest, BudgetFallsBackToCompressed) {
  const Digraph g = ScaleFreeDag(60000, 3, 29);
  TwoHopStorageOptions storage;
  storage.budget_mb = 1;  // flat offsets alone exceed 1 MiB at this size
  PrunedTwoHop index(VertexOrder::kDegree, 0x70'6c'6cULL, storage);
  index.Build(g);
  EXPECT_TRUE(index.CompressedStorage());
  PrunedTwoHop oracle;
  oracle.Build(g);
  std::mt19937_64 rng(31);
  for (int i = 0; i < 2000; ++i) {
    const VertexId s = static_cast<VertexId>(rng() % g.NumVertices());
    const VertexId t = static_cast<VertexId>(rng() % g.NumVertices());
    ASSERT_EQ(index.Query(s, t), oracle.Query(s, t)) << s << "->" << t;
  }
}

TEST(CompressedStorageTest, CompressionShrinksLabelBytes) {
  // Label-heavy graph: 2-hop labels carry long rank lists, where the
  // delta/bit-packed blocks should win clearly (the >= 2x acceptance
  // criterion is asserted in the perf bench on the Table 1 roster; this
  // is the functional floor).
  const Digraph g = ScaleFreeDag(4000, 4, 37);
  PrunedTwoHop flat;
  flat.Build(g);
  TwoHopStorageOptions storage;
  storage.compress = true;
  PrunedTwoHop compressed(VertexOrder::kDegree, 0x70'6c'6cULL, storage);
  compressed.Build(g);
  EXPECT_LT(compressed.IndexSizeBytes(), flat.IndexSizeBytes());
}

TEST(MemoryBytesTest, PoolsAndNegCacheReportBytes) {
  std::vector<std::vector<uint32_t>> lists = {{1, 2, 3}, {}, {5}};
  FlatLabelPool<uint32_t> flat;
  flat.Seal(std::move(lists));
  // (n + 1) offsets + 4 entries.
  EXPECT_EQ(flat.MemoryBytes(), 4 * sizeof(uint64_t) + 4 * sizeof(uint32_t));

  CompressedPool<uint32_t> cpool;
  cpool.Seal(RandomRankLists(50, 1000, 53), 32);
  EXPECT_GT(cpool.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace reach
