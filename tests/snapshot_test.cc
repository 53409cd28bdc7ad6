// RCHX v2 snapshot files (core/serialize.h, docs/SNAPSHOTS.md): zero-copy
// round-trips on flat and compressed storage, truncation/corruption
// robustness with section-level diagnostics, and the ReachService
// mmap-startup path.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/mapped_file.h"
#include "core/serialize.h"
#include "graph/generators.h"
#include "lcr/pruned_labeled_two_hop.h"
#include "plain/pruned_two_hop.h"
#include "serve/reach_service.h"
#include "snapshot_files.h"

namespace reach {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

template <typename Index>
std::string SnapshotBytes(const Index& index) {
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(index.SaveSnapshot(out));
  return out.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

void ExpectSameAnswers(const PrunedTwoHop& got, const PrunedTwoHop& want,
                       VertexId n) {
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = 0; t < n; ++t) {
      ASSERT_EQ(got.Query(s, t), want.Query(s, t)) << s << "->" << t;
    }
  }
}

TEST(SnapshotTest, FlatRoundTripPreservesAllAnswers) {
  const Digraph g = RandomDigraph(70, 300, 3);
  PrunedTwoHop index;
  index.Build(g);
  const std::string path = TempPath("snap_flat.rchx");
  WriteFile(path, SnapshotBytes(index));

  PrunedTwoHop loaded;
  const LoadResult result = loaded.LoadSnapshot(path);
  ASSERT_TRUE(result) << LoadStatusMessage(result);
  EXPECT_EQ(loaded.NumIndexedVertices(), g.NumVertices());
  EXPECT_FALSE(loaded.CompressedStorage());
  EXPECT_EQ(loaded.TotalLabelEntries(), index.TotalLabelEntries());
  ExpectSameAnswers(loaded, index, g.NumVertices());
}

TEST(SnapshotTest, CompressedRoundTripPreservesAllAnswers) {
  const Digraph g = ScaleFreeDag(90, 4, 5);
  TwoHopStorageOptions storage;
  storage.compress = true;
  storage.block_entries = 16;
  PrunedTwoHop index(VertexOrder::kDegree, 0x70'6c'6cULL, storage);
  index.Build(g);
  ASSERT_TRUE(index.CompressedStorage());
  const std::string path = TempPath("snap_compressed.rchx");
  WriteFile(path, SnapshotBytes(index));

  PrunedTwoHop loaded;
  const LoadResult result = loaded.LoadSnapshot(path);
  ASSERT_TRUE(result) << LoadStatusMessage(result);
  EXPECT_TRUE(loaded.CompressedStorage());
  EXPECT_EQ(loaded.TotalLabelEntries(), index.TotalLabelEntries());
  ExpectSameAnswers(loaded, index, g.NumVertices());
}

TEST(SnapshotTest, RoundTripFoldsInInsertedEdges) {
  const Digraph g = RandomDag(60, 200, 7);
  PrunedTwoHop index;
  index.Build(g);
  ASSERT_TRUE(index.ApplyUpdate(
      {EdgeUpdate::Insert(3, 57), EdgeUpdate::Insert(41, 8)}).ok());
  const std::string path = TempPath("snap_delta.rchx");
  WriteFile(path, SnapshotBytes(index));

  PrunedTwoHop loaded;
  ASSERT_TRUE(loaded.LoadSnapshot(path));
  // The snapshot captures the post-insert labeling.
  ExpectSameAnswers(loaded, index, g.NumVertices());
}

TEST(SnapshotTest, LoadedMappingSurvivesSourceFileHandle) {
  // The index keeps the mapping alive itself: querying after the loading
  // scope closed every other handle must still work.
  const Digraph g = RandomDigraph(40, 150, 11);
  PrunedTwoHop index;
  index.Build(g);
  const std::string path = TempPath("snap_lifetime.rchx");
  WriteFile(path, SnapshotBytes(index));

  PrunedTwoHop loaded;
  {
    std::string error;
    auto file = MappedFile::Open(path, &error);
    ASSERT_NE(file, nullptr) << error;
    ASSERT_TRUE(loaded.LoadSnapshot(std::move(file)));
  }
  ExpectSameAnswers(loaded, index, g.NumVertices());
}

TEST(SnapshotTest, EveryTruncationFailsCleanly) {
  const Digraph g = RandomDigraph(30, 100, 13);
  PrunedTwoHop index;
  index.Build(g);
  const std::string bytes = SnapshotBytes(index);
  ASSERT_GT(bytes.size(), 4096u);

  // Exhaustive over the header/table region, sampled over the payload.
  std::vector<size_t> cuts;
  for (size_t i = 0; i < 256 && i < bytes.size(); ++i) cuts.push_back(i);
  for (size_t i = 256; i < bytes.size(); i += 97) cuts.push_back(i);
  const std::string path = TempPath("snap_truncated.rchx");
  for (const size_t cut : cuts) {
    WriteFile(path, bytes.substr(0, cut));
    PrunedTwoHop loaded;
    const LoadResult result = loaded.LoadSnapshot(path);
    EXPECT_FALSE(result) << "prefix of " << cut << " bytes loaded";
    EXPECT_NE(result.status, LoadStatus::kOk);
  }
}

TEST(SnapshotTest, MisalignedSectionTableIsRejectedWithDiagnostics) {
  const Digraph g = RandomDigraph(30, 100, 17);
  PrunedTwoHop index;
  index.Build(g);
  std::string bytes = SnapshotBytes(index);
  // Name "pll" -> prelude ends at byte 19, table starts at 24; the first
  // record's u64 offset lives at bytes [24, 32). Knocking it off its
  // alignment must be caught by table validation, before any payload use.
  ASSERT_GT(bytes.size(), 32u);
  bytes[24] = static_cast<char>(static_cast<uint8_t>(bytes[24]) ^ 0x1);
  const std::string path = TempPath("snap_misaligned.rchx");
  WriteFile(path, bytes);

  PrunedTwoHop loaded;
  const LoadResult result = loaded.LoadSnapshot(path);
  ASSERT_FALSE(result);
  EXPECT_EQ(result.status, LoadStatus::kCorrupt);
  EXPECT_NE(result.detail.find("misaligned"), std::string::npos)
      << result.detail;
  EXPECT_NE(result.detail.find("at byte"), std::string::npos) << result.detail;
}

TEST(SnapshotTest, FailureNamesSectionAndOffset) {
  const Digraph g = RandomDigraph(30, 100, 19);
  PrunedTwoHop index;
  index.Build(g);
  std::string bytes = SnapshotBytes(index);
  // Shrink the last section by chopping the file tail: the table still
  // parses, the section bounds check fails with a located diagnostic.
  const std::string path = TempPath("snap_short_section.rchx");
  WriteFile(path, bytes.substr(0, bytes.size() - 1));

  PrunedTwoHop loaded;
  const LoadResult result = loaded.LoadSnapshot(path);
  ASSERT_FALSE(result);
  EXPECT_EQ(result.status, LoadStatus::kCorrupt);
  EXPECT_FALSE(result.detail.empty());
  // The full message is render-ready for logs/CLI.
  EXPECT_NE(LoadStatusMessage(result).find(LoadStatusMessage(result.status)),
            std::string::npos);
}

TEST(SnapshotTest, SnapshotFileHandedToStreamLoadFailsAsBadVersion) {
  const Digraph g = RandomDigraph(25, 80, 23);
  PrunedTwoHop index;
  index.Build(g);
  std::istringstream in(SnapshotBytes(index), std::ios::binary);
  PrunedTwoHop loaded;
  const LoadResult result = loaded.Load(in);
  ASSERT_FALSE(result);
  EXPECT_EQ(result.status, LoadStatus::kBadVersion);
}

TEST(SnapshotTest, StreamFileHandedToSnapshotLoadFailsAsBadVersion) {
  const Digraph g = RandomDigraph(25, 80, 27);
  PrunedTwoHop index;
  index.Build(g);
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(index.Save(out));
  const std::string path = TempPath("snap_v1_stream.rchx");
  WriteFile(path, out.str());

  PrunedTwoHop loaded;
  const LoadResult result = loaded.LoadSnapshot(path);
  ASSERT_FALSE(result);
  EXPECT_EQ(result.status, LoadStatus::kBadVersion);
}

TEST(SnapshotTest, WrongFormatNameIsRejected) {
  SnapshotWriter writer("zzz");
  const uint32_t payload[] = {1, 2, 3};
  writer.AddSection(1, payload, sizeof(payload));
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(writer.WriteTo(out));
  const std::string bytes = out.str();

  SnapshotView view;
  const LoadResult result = view.Parse(
      reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size(), "pll");
  ASSERT_FALSE(result);
  EXPECT_EQ(result.status, LoadStatus::kWrongIndex);
  EXPECT_EQ(result.detail, "zzz");
}

TEST(SnapshotTest, ViewRejectsDuplicateSectionKinds) {
  SnapshotWriter writer("pll");
  const uint32_t payload[] = {1, 2, 3};
  writer.AddSection(7, payload, sizeof(payload));
  writer.AddSection(7, payload, sizeof(payload));
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(writer.WriteTo(out));
  const std::string bytes = out.str();

  SnapshotView view;
  const LoadResult result = view.Parse(
      reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size(), "pll");
  ASSERT_FALSE(result);
  EXPECT_EQ(result.status, LoadStatus::kCorrupt);
}

TEST(SnapshotTest, SectionsArePageAligned) {
  SnapshotWriter writer("pll");
  const uint8_t a[3] = {1, 2, 3};
  const uint64_t b[5] = {4, 5, 6, 7, 8};
  writer.AddSection(1, a, sizeof(a));
  writer.AddSection(2, b, sizeof(b));
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(writer.WriteTo(out));
  const std::string bytes = out.str();

  SnapshotView view;
  ASSERT_TRUE(view.Parse(reinterpret_cast<const uint8_t*>(bytes.data()),
                         bytes.size(), "pll"));
  ASSERT_TRUE(view.Has(1));
  ASSERT_TRUE(view.Has(2));
  EXPECT_FALSE(view.Has(3));
  const auto sec1 = view.Section(1);
  const auto sec2 = view.Section(2);
  EXPECT_EQ(
      (reinterpret_cast<uintptr_t>(sec1.data()) -
       reinterpret_cast<uintptr_t>(bytes.data())) % kSnapshotPageAlign, 0u);
  EXPECT_EQ(sec1.size(), sizeof(a));
  EXPECT_EQ(std::memcmp(sec1.data(), a, sizeof(a)), 0);
  const auto typed = view.TypedSection<uint64_t>(2);
  ASSERT_EQ(typed.size(), 5u);
  EXPECT_EQ(typed[4], 8u);
  // Size not a multiple of the element type -> empty typed view.
  EXPECT_TRUE(view.TypedSection<uint64_t>(1).empty());
}

// Section kinds of a 2-hop snapshot, as docs/SNAPSHOTS.md lists them.
constexpr uint32_t kMetaSection = 1;
constexpr uint32_t kRankSection = 2;
constexpr uint32_t kLinOffsetsSection = 4;
constexpr uint32_t kLinEntriesSection = 5;
constexpr uint32_t kLinVertexBlocksSection = 8;
constexpr uint32_t kLinSkipSection = 9;
constexpr uint32_t kLinDataSection = 10;

// Byte offset of section `kind` in `bytes`, found through the validated
// section table.
size_t SectionOffset(const std::string& bytes, uint32_t kind) {
  SnapshotView view;
  const auto* base = reinterpret_cast<const uint8_t*>(bytes.data());
  EXPECT_TRUE(view.Parse(base, bytes.size(), "pll"));
  EXPECT_TRUE(view.Has(kind)) << "section " << kind;
  return static_cast<size_t>(view.Section(kind).data() - base);
}

template <typename T>
T ReadAt(const std::string& bytes, size_t pos) {
  T value;
  std::memcpy(&value, bytes.data() + pos, sizeof(T));
  return value;
}

void SwapBytes(std::string& bytes, size_t a, size_t b, size_t size) {
  for (size_t i = 0; i < size; ++i) std::swap(bytes[a + i], bytes[b + i]);
}

LoadResult LoadSnapshotBytes(const std::string& bytes,
                             const std::string& name) {
  const std::string path = TempPath(name);
  WriteFile(path, bytes);
  PrunedTwoHop loaded;
  return loaded.LoadSnapshot(path);
}

TEST(SnapshotTest, FlatRejectsUnsortedLinList) {
  const Digraph g = RandomDag(300, 900, 7);
  PrunedTwoHop index;
  index.Build(g);
  std::string bytes = SnapshotBytes(index);
  const size_t offsets = SectionOffset(bytes, kLinOffsetsSection);
  const size_t entries = SectionOffset(bytes, kLinEntriesSection);
  size_t v = 0;
  while (ReadAt<uint64_t>(bytes, offsets + 8 * (v + 1)) -
             ReadAt<uint64_t>(bytes, offsets + 8 * v) < 2) {
    ASSERT_LT(++v, g.NumVertices()) << "no Lin list with two entries";
  }
  const size_t first = entries + 4 * ReadAt<uint64_t>(bytes, offsets + 8 * v);
  SwapBytes(bytes, first, first + 4, 4);
  const LoadResult result = LoadSnapshotBytes(bytes, "snap_unsorted.rchx");
  EXPECT_EQ(result.status, LoadStatus::kCorrupt);
  EXPECT_NE(result.detail.find("Lin[" + std::to_string(v) + "]"),
            std::string::npos)
      << result.detail;
}

TEST(SnapshotTest, FlatRejectsRankTableNotInverseOfByRank) {
  const Digraph g = RandomDag(300, 900, 7);
  PrunedTwoHop index;
  index.Build(g);
  std::string bytes = SnapshotBytes(index);
  const size_t rank = SectionOffset(bytes, kRankSection);
  SwapBytes(bytes, rank, rank + 4, 4);
  const LoadResult result = LoadSnapshotBytes(bytes, "snap_rank_swap.rchx");
  EXPECT_EQ(result.status, LoadStatus::kCorrupt);
  EXPECT_NE(result.detail.find("rank table"), std::string::npos)
      << result.detail;
}

// Two consecutive blocks of one list trade their skip ranges while their
// data stays put: every structural check passes, but the list's skip
// entries are out of order.
TEST(SnapshotTest, CompressedRejectsSkipEntriesOutOfOrder) {
  const Digraph g = RandomDag(300, 900, 7);
  TwoHopStorageOptions storage;
  storage.compress = true;
  storage.block_entries = 8;
  PrunedTwoHop index(VertexOrder::kDegree, 0x70'6c'6cULL, storage);
  index.Build(g);
  std::string bytes = SnapshotBytes(index);
  const size_t blocks = SectionOffset(bytes, kLinVertexBlocksSection);
  const size_t skip = SectionOffset(bytes, kLinSkipSection);
  size_t v = 0;
  while (ReadAt<uint32_t>(bytes, blocks + 4 * (v + 1)) -
             ReadAt<uint32_t>(bytes, blocks + 4 * v) < 2) {
    ASSERT_LT(++v, g.NumVertices()) << "no Lin list with two blocks";
  }
  const size_t b = skip + 12 * ReadAt<uint32_t>(bytes, blocks + 4 * v);
  SwapBytes(bytes, b, b + 12, 8);  // {first, last} of blocks b and b + 1
  const LoadResult result = LoadSnapshotBytes(bytes, "snap_skip_order.rchx");
  EXPECT_EQ(result.status, LoadStatus::kCorrupt);
  EXPECT_NE(result.detail.find("Lin[" + std::to_string(v) + "]"),
            std::string::npos)
      << result.detail;
}

// Pins the compressed v2 layout of docs/SNAPSHOTS.md the way
// `ExpectLegacySaveLayout` pins v1: the Lin sections decoded by the
// documented layout, with a decoder written from the doc alone, give
// back `InLabels`.
TEST(SnapshotTest, CompressedLinSectionsFollowDocumentedLayout) {
  const Digraph g = ScaleFreeDag(200, 4, 41);
  TwoHopStorageOptions storage;
  storage.compress = true;
  storage.block_entries = 16;
  PrunedTwoHop index(VertexOrder::kDegree, 0x70'6c'6cULL, storage);
  index.Build(g);
  const std::string bytes = SnapshotBytes(index);
  const size_t n = g.NumVertices();

  // Meta: u64 magic, u64 n, u64 Lin entries, u64 Lout entries,
  // u32 storage, u32 block entries.
  const size_t meta = SectionOffset(bytes, kMetaSection);
  EXPECT_EQ(ReadAt<uint64_t>(bytes, meta), 0x72656163682d3268ULL);
  EXPECT_EQ(ReadAt<uint64_t>(bytes, meta + 8), n);
  EXPECT_EQ(ReadAt<uint32_t>(bytes, meta + 32), 1u);
  EXPECT_EQ(ReadAt<uint32_t>(bytes, meta + 36), 16u);

  // Vertex v owns blocks [blocks[v], blocks[v + 1]); skip entry b is
  // {u32 first, u32 last, u32 data offset}; block b's bytes are a u8
  // delta width w, a u16 count, then count - 1 deltas of w bits,
  // LSB-first, each value being the previous one plus one plus its delta.
  const size_t blocks = SectionOffset(bytes, kLinVertexBlocksSection);
  const size_t skip = SectionOffset(bytes, kLinSkipSection);
  const size_t data = SectionOffset(bytes, kLinDataSection);
  uint64_t lin_entries = 0;
  for (VertexId v = 0; v < n; ++v) {
    std::vector<uint32_t> lin;
    for (uint32_t b = ReadAt<uint32_t>(bytes, blocks + 4 * v);
         b < ReadAt<uint32_t>(bytes, blocks + 4 * (v + 1)); ++b) {
      const uint32_t first = ReadAt<uint32_t>(bytes, skip + 12 * b);
      const uint32_t last = ReadAt<uint32_t>(bytes, skip + 12 * b + 4);
      const size_t block = data + ReadAt<uint32_t>(bytes, skip + 12 * b + 8);
      const int width = static_cast<uint8_t>(bytes[block]);
      const uint16_t count = ReadAt<uint16_t>(bytes, block + 1);
      uint32_t value = first;
      lin.push_back(value);
      for (size_t i = 1, bit = 0; i < count; ++i) {
        uint32_t delta = 0;
        for (int k = 0; k < width; ++k, ++bit) {
          const auto byte = static_cast<uint8_t>(bytes[block + 3 + bit / 8]);
          delta |= static_cast<uint32_t>((byte >> (bit % 8)) & 1) << k;
        }
        value += 1 + delta;
        lin.push_back(value);
      }
      EXPECT_EQ(value, last) << "Lin(" << v << ") block " << b;
    }
    EXPECT_EQ(lin, index.InLabels(v)) << "Lin(" << v << ")";
    lin_entries += lin.size();
  }
  EXPECT_EQ(ReadAt<uint64_t>(bytes, meta + 16), lin_entries);
}

// The labeled 2-hop ("p2h") snapshot: flat and compressed, with insert
// deltas folded in, answers every (pair, label set) like the live index.
TEST(SnapshotTest, LcrRoundTripFoldsInInserts) {
  const LabeledDigraph g = RandomLabeledDigraph(50, 180, 3, 43);
  const LabelSet masks[] = {LabelSet{0x1}, LabelSet{0x3}, LabelSet{0x5},
                            LabelSet{0x7}};
  for (const bool compress : {false, true}) {
    TwoHopStorageOptions storage;
    storage.compress = compress;
    storage.block_entries = 8;
    PrunedLabeledTwoHop index(storage);
    index.Build(g);
    ASSERT_TRUE(index.ApplyUpdate({LabeledEdgeUpdate::Insert(3, 41, 1),
                                   LabeledEdgeUpdate::Insert(40, 7, 2),
                                   LabeledEdgeUpdate::Insert(12, 30, 0)})
                    .ok());
    const std::string path = TempPath("snap_lcr.rchx");
    WriteFile(path, SnapshotBytes(index));

    PrunedLabeledTwoHop loaded;
    const LoadResult result = loaded.LoadSnapshot(path);
    ASSERT_TRUE(result) << LoadStatusMessage(result);
    EXPECT_EQ(loaded.CompressedStorage(), compress);
    EXPECT_EQ(loaded.TotalEntries(), index.TotalEntries());
    for (VertexId s = 0; s < g.NumVertices(); ++s) {
      for (VertexId t = 0; t < g.NumVertices(); ++t) {
        for (const LabelSet mask : masks) {
          ASSERT_EQ(loaded.Query(s, t, mask), index.Query(s, t, mask))
              << s << "->" << t << " mask " << mask << " compress "
              << compress;
        }
      }
    }
    // The "pll" and "p2h" formats do not cross-load.
    PrunedTwoHop plain;
    EXPECT_EQ(plain.LoadSnapshot(path).status, LoadStatus::kWrongIndex);
  }
}

TEST(ServeSnapshotTest, StartWithSnapshotServesIndexBackedAnswers) {
  const Digraph g = RandomDigraph(50, 220, 29);
  PrunedTwoHop oracle;
  oracle.Build(g);
  const std::string path = TempPath("snap_serve.rchx");
  WriteFile(path, SnapshotBytes(oracle));

  ReachService service(g);
  const LoadResult result = service.StartWithSnapshot(path);
  ASSERT_TRUE(result) << LoadStatusMessage(result);
  EXPECT_GT(service.SnapshotVersion(), 0u);
  for (VertexId s = 0; s < g.NumVertices(); ++s) {
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      const ServeAnswer answer = service.Query(s, t);
      ASSERT_EQ(answer.reachable, oracle.Query(s, t)) << s << "->" << t;
      ASSERT_TRUE(answer.exact);
    }
  }
  // No fallback BFS: every answer was index-backed (or negative-cached).
  EXPECT_EQ(service.stats().fallback_answers.load(), 0u);
  service.Stop();
}

TEST(ServeSnapshotTest, StartWithSnapshotAcceptsSubsequentInserts) {
  const Digraph g = LayeredDag(8, 5, 2, 31);
  PrunedTwoHop built;
  built.Build(g);
  const std::string path = TempPath("snap_serve_insert.rchx");
  WriteFile(path, SnapshotBytes(built));

  ReachService service(g);
  ASSERT_TRUE(service.StartWithSnapshot(path));
  ASSERT_TRUE(service.InsertEdge(1, 0));
  const ServeAnswer answer = service.Query(1, 0);
  EXPECT_TRUE(answer.reachable);
  EXPECT_TRUE(answer.exact);
  service.Flush();
  EXPECT_TRUE(service.Query(1, 0).reachable);
  service.Stop();
}

TEST(ServeSnapshotTest, VertexCountMismatchIsWrongIndex) {
  const Digraph small = RandomDigraph(20, 60, 37);
  PrunedTwoHop index;
  index.Build(small);
  const std::string path = TempPath("snap_serve_mismatch.rchx");
  WriteFile(path, SnapshotBytes(index));

  ReachService service(RandomDigraph(21, 60, 37));
  const LoadResult result = service.StartWithSnapshot(path);
  ASSERT_FALSE(result);
  EXPECT_EQ(result.status, LoadStatus::kWrongIndex);
  EXPECT_NE(result.detail.find("20"), std::string::npos) << result.detail;
  EXPECT_NE(result.detail.find("21"), std::string::npos) << result.detail;
  // The failure leaves the service startable the ordinary way.
  service.Start();
  service.Flush();
  EXPECT_EQ(service.Query(0, 0).reachable, true);
  service.Stop();
}

// The labels must describe the service's graph: a snapshot of another
// graph with the same vertex count fails on its graph digest, and so does
// one that carries no digest (written by an index loaded from a stream,
// which knows no graph). Either failure leaves the service startable the
// ordinary way.
TEST(ServeSnapshotTest, SnapshotOfAnotherGraphIsWrongIndex) {
  const Digraph g = RandomDigraph(40, 120, 41);
  const Digraph other_graph = RandomDigraph(40, 120, 43);
  PrunedTwoHop other;
  other.Build(other_graph);
  const std::string path = TempPath("snap_serve_other_graph.rchx");
  WriteFile(path, SnapshotBytes(other));

  PrunedTwoHop built;
  built.Build(g);
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(built.Save(stream));
  PrunedTwoHop streamed;
  ASSERT_TRUE(streamed.Load(stream));
  const std::string undigested = TempPath("snap_serve_no_digest.rchx");
  WriteFile(undigested, SnapshotBytes(streamed));

  for (const auto& [file, why] :
       {std::pair{path, "different graph"},
        std::pair{undigested, "no graph digest"}}) {
    ReachService service(g);
    const LoadResult result = service.StartWithSnapshot(file);
    ASSERT_FALSE(result) << why;
    EXPECT_EQ(result.status, LoadStatus::kWrongIndex) << why;
    EXPECT_NE(result.detail.find(why), std::string::npos) << result.detail;
    EXPECT_EQ(service.SnapshotVersion(), 0u);
    ASSERT_TRUE(service.Start());
    service.Flush();
    for (VertexId s = 0; s < g.NumVertices(); ++s) {
      for (VertexId t = 0; t < g.NumVertices(); ++t) {
        ASSERT_EQ(service.Query(s, t).reachable, built.Query(s, t))
            << why << ": " << s << "->" << t;
      }
    }
    service.Stop();
  }
}

// A snapshot-started index rebased onto its graph writes a snapshot that
// starts a service again: its digest now covers the inserted arcs too.
TEST(ServeSnapshotTest, RebasedIndexCarriesTheDigestForward) {
  const Digraph g = LayeredDag(6, 5, 2, 47);
  PrunedTwoHop built;
  built.Build(g);
  const std::string path = TempPath("snap_serve_rebase.rchx");
  WriteFile(path, SnapshotBytes(built));

  PrunedTwoHop loaded;
  ASSERT_TRUE(loaded.LoadSnapshot(path));
  ASSERT_TRUE(loaded.Rebase(g));
  ASSERT_FALSE(loaded.Query(29, 0));
  ASSERT_TRUE(loaded.ApplyUpdate({EdgeUpdate::Insert(29, 0)}).ok());
  EXPECT_TRUE(loaded.Query(29, 0));
  const std::string grown = TempPath("snap_serve_rebase_grown.rchx");
  WriteFile(grown, SnapshotBytes(loaded));

  std::vector<Edge> edges = g.Edges();
  edges.push_back({29, 0});
  const Digraph g_grown = Digraph::FromEdges(g.NumVertices(), edges);
  ReachService service(g_grown);
  ASSERT_TRUE(service.StartWithSnapshot(grown));
  EXPECT_TRUE(service.Query(29, 0).reachable);
  service.Stop();
  ReachService stale(g);
  EXPECT_EQ(stale.StartWithSnapshot(grown).status, LoadStatus::kWrongIndex);
}

// The build price travels with the labels: a snapshot records it, a load
// and a rebase keep it, and so does the snapshot of a loaded index. A
// snapshot written without it loads with price 0.
TEST(SnapshotTest, BuildPriceSurvivesLoadAndRebase) {
  const Digraph g = LayeredDag(6, 5, 2, 47);
  PrunedTwoHop built;
  built.Build(g);
  const uint64_t price = built.Rent().price;
  ASSERT_GT(price, 0u);
  const std::string path = TempPath("snap_price.rchx");
  WriteFile(path, SnapshotBytes(built));
  PrunedTwoHop loaded;
  ASSERT_TRUE(loaded.LoadSnapshot(path));
  EXPECT_EQ(loaded.Rent().price, price);
  ASSERT_TRUE(loaded.Rebase(g));
  EXPECT_EQ(loaded.Rent().price, price);
  EXPECT_EQ(loaded.Rent().paid, 0u);
  const std::string again = TempPath("snap_price_again.rchx");
  WriteFile(again, SnapshotBytes(loaded));
  PrunedTwoHop reloaded;
  ASSERT_TRUE(reloaded.LoadSnapshot(again));
  EXPECT_EQ(reloaded.Rent().price, price);

  const std::string unpriced = TempPath("snap_unpriced.rchx");
  SaveSnapshotWithoutBuildPrice(built, unpriced);
  PrunedTwoHop old;
  ASSERT_TRUE(old.LoadSnapshot(unpriced));
  EXPECT_EQ(old.Rent().price, 0u);
  ASSERT_TRUE(old.Rebase(g));
  EXPECT_EQ(old.Rent().price, 0u);
  for (VertexId s = 0; s < g.NumVertices(); ++s) {
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      ASSERT_EQ(old.Query(s, t), built.Query(s, t)) << s << "->" << t;
    }
  }
}

TEST(ServeSnapshotTest, MissingFileFailsWithoutStartingService) {
  ReachService service(Chain(10));
  const LoadResult result =
      service.StartWithSnapshot(TempPath("snap_does_not_exist.rchx"));
  ASSERT_FALSE(result);
  service.Start();
  service.Flush();
  EXPECT_TRUE(service.Query(0, 9).reachable);
  service.Stop();
}

}  // namespace
}  // namespace reach
