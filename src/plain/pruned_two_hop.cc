#include "plain/pruned_two_hop.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <numeric>
#include <ostream>
#include <string_view>

#include "core/serialize.h"
#include "graph/condensation.h"
#include "graph/rng.h"
#include "par/thread_pool.h"

namespace reach {

// One pruned BFS: hop = by_rank[r] adds itself to Lin of everything it
// reaches (forward) or to Lout of everything reaching it (backward),
// pruned where the labels built so far already answer Qr(hop, w) (resp.
// Qr(w, hop)) and at higher-ranked vertices. A vertex is evaluated once
// per sweep, so the plain oracle never sees the sweep's own entries.
class PlainTwoHopTraits::Sweeper {
 public:
  explicit Sweeper(size_t n)
      : mark_(n, 0), speculation_cap_(std::max<size_t>(1024, n / 16)) {}

  template <bool kSpeculative, typename Emit>
  bool Run(const TwoHopCore<PlainTwoHopTraits>& core, uint32_t r,
           bool forward, std::vector<VertexId>* touched, Emit&& emit) {
    const VertexId hop = core.ByRank(r);
    ++epoch_;
    queue_.clear();
    queue_.push_back(hop);
    mark_[hop] = epoch_;
    for (size_t head = 0; head < queue_.size(); ++head) {
      const auto visit = [&](VertexId w) {
        if (mark_[w] == epoch_ || core.Rank(w) <= r) return;
        mark_[w] = epoch_;
        if constexpr (kSpeculative) touched->push_back(w);
        if (forward ? core.LabelQuery(hop, w, {})
                    : core.LabelQuery(w, hop, {})) {
          return;  // prune: already covered
        }
        emit(w, r);  // ranks arrive ascending: lists stay sorted
        queue_.push_back(w);
      };
      const VertexId x = queue_[head];
      if (forward) {
        for (VertexId w : core.graph().OutNeighbors(x)) visit(w);
      } else {
        for (VertexId w : core.graph().InNeighbors(x)) visit(w);
      }
      // A speculative sweep that floods far past the serial one (because
      // the prefix is still thin) is cut off and redone serially —
      // bounding wasted work without affecting the result.
      if constexpr (kSpeculative) {
        if (touched->size() > speculation_cap_) return false;
      }
    }
    return true;
  }

 private:
  std::vector<uint32_t> mark_;  // epoch-stamped visited marks
  uint32_t epoch_ = 0;
  std::vector<VertexId> queue_;
  size_t speculation_cap_;
};

void PlainTwoHopTraits::PropagateInsert(TwoHopCore<PlainTwoHopTraits>& core,
                                        VertexId s, VertexId t) {
  // Any pair newly connected by (s, t) decomposes into x -> s (old paths)
  // and t -> y (old paths); the old index answers x -> s with some hop
  // h ∈ Lout(x) ∩ (Lin(s) ∪ {s}). Propagating every such h through the
  // new edge to all of Reach(t) restores the invariant: h lands in Lin(y),
  // so Qr(x, y) finds it. One shared sweep computes Reach(t); each hop is
  // then added to the Lin of every vertex on it (one unpruned BFS per hop,
  // without re-traversing the edges). No pruning beyond already-present
  // labels: label minimality is traded for correctness (class comment).
  std::vector<uint32_t> hops = core.InEntries(s);
  hops.push_back(core.Rank(s));
  const std::vector<VertexId>& reach = core.ReachableInSuperset(t);
  for (uint32_t h : hops) {
    const VertexId hop = core.ByRank(h);
    for (VertexId x : reach) {
      if (x != hop && !core.InCovered(x, h, {})) core.AddDeltaIn(x, h);
    }
  }
}

std::vector<VertexId> PrunedTwoHop::ComputeOrder(const Digraph& graph) const {
  if (order_ == VertexOrder::kDegree) return DegreeOrder(graph);
  const size_t n = graph.NumVertices();
  std::vector<VertexId> by_rank(n);
  std::iota(by_rank.begin(), by_rank.end(), 0);
  switch (order_) {
    case VertexOrder::kDegree:
      break;
    case VertexOrder::kReverseDegree:
      std::stable_sort(by_rank.begin(), by_rank.end(),
                       [&](VertexId a, VertexId b) {
                         return graph.Degree(a) < graph.Degree(b);
                       });
      break;
    case VertexOrder::kTopological: {
      // Topological position of each vertex's SCC (Tarjan ids are reverse
      // topological, so higher component id = earlier in topo order);
      // degree breaks ties inside an SCC and between parallel components.
      Condensation cond = Condense(graph);
      std::stable_sort(
          by_rank.begin(), by_rank.end(), [&](VertexId a, VertexId b) {
            const VertexId ca = cond.DagVertex(a), cb = cond.DagVertex(b);
            if (ca != cb) return ca > cb;
            return graph.Degree(a) > graph.Degree(b);
          });
      break;
    }
    case VertexOrder::kRandom: {
      Xoshiro256ss rng(seed_);
      for (size_t i = n; i > 1; --i) {
        std::swap(by_rank[i - 1], by_rank[rng.NextBounded(i)]);
      }
      break;
    }
  }
  return by_rank;
}

void PrunedTwoHop::Build(const Digraph& graph) {
  core_.Build(graph, ResolveThreads(num_threads_), &build_stats_,
              [this](const Digraph& g) { return ComputeOrder(g); });
}

bool PrunedTwoHop::Query(VertexId s, VertexId t) const {
  return core_.Answer(s, t, {}, 0);
}

bool PrunedTwoHop::QueryInSlot(VertexId s, VertexId t, size_t slot) const {
  return core_.Answer(s, t, {}, slot);
}

UpdateResult PrunedTwoHop::ApplyUpdate(const UpdateBatch& batch) {
  return core_.ApplyUpdate(batch);
}

bool PrunedTwoHop::RebuildFromUpdates() {
  // Rebuilding over the live edge set folds the delta overlay in, drops
  // the tombstones, and resets damage — the payoff step of the
  // rebuild-threshold policy.
  const Digraph* live = core_.MaterializeLiveGraph();
  if (live == nullptr) return false;
  Build(*live);
  return true;
}

namespace {

// Payload magic, kept from the pre-envelope format so the payload bytes
// after the envelope stay byte-identical to the historical layout.
constexpr uint64_t kMagic = 0x72656163682d3268ULL;  // "reach-2h"

// The envelope's format name: one name for the whole TOL family — the
// stream stores the total order itself, so any `VertexOrder` instance
// can load any other's labeling.
constexpr std::string_view kFormatName = "pll";

using serialize_detail::ReadPod;
using serialize_detail::ReadU32Vec;
using serialize_detail::WritePod;
using serialize_detail::WriteU32Vec;

// RCHX v2 snapshot-file section kinds (private to the "pll" format).
enum SnapshotSectionKind : uint32_t {
  kSecMeta = 1,
  kSecRank = 2,
  kSecByRank = 3,
  // Flat storage.
  kSecLinOffsets = 4,
  kSecLinEntries = 5,
  kSecLoutOffsets = 6,
  kSecLoutEntries = 7,
  // Compressed storage.
  kSecLinVertexBlocks = 8,
  kSecLinSkip = 9,
  kSecLinData = 10,
  kSecLoutVertexBlocks = 11,
  kSecLoutSkip = 12,
  kSecLoutData = 13,
};

// Fixed-layout snapshot metadata (kSecMeta).
struct SnapshotMeta {
  uint64_t payload_magic;  // kMagic
  uint64_t num_vertices;
  uint64_t lin_entries;
  uint64_t lout_entries;
  uint32_t storage;  // 0 = flat pools, 1 = block-compressed pools
  uint32_t block_entries;
};
static_assert(sizeof(SnapshotMeta) == 40);
static_assert(std::is_trivially_copyable_v<SnapshotMeta>);

}  // namespace

bool PrunedTwoHop::Save(std::ostream& out) const {
  // A damaged labeling is only exact together with the live tombstone +
  // graph state, which the stream does not carry: refuse rather than
  // persist stale positives (header contract).
  if (core_.Damage() > 0) return false;
  // The payload layout predates the flat pool and is kept byte-identical:
  // per-vertex sorted label vectors, reconstructed by merging each pool
  // slice with its delta overlay (exactly what the nested-vector layout
  // used to hold).
  if (!WriteEnvelope(out, kFormatName)) return false;
  const size_t n = core_.NumVertices();
  WritePod(out, kMagic);
  WritePod(out, static_cast<uint64_t>(n));
  WriteU32Vec(out, core_.rank_);
  WriteU32Vec(out, core_.by_rank_);
  for (VertexId v = 0; v < n; ++v) WriteU32Vec(out, InLabels(v));
  for (VertexId v = 0; v < n; ++v) WriteU32Vec(out, OutLabels(v));
  return static_cast<bool>(out);
}

LoadResult PrunedTwoHop::Load(std::istream& in) {
  LoadResult envelope = ReadEnvelope(in, kFormatName);
  if (!envelope) return envelope;
  // Corrupt payloads name the failing section and its starting byte
  // offset, so a truncated or smashed stream is diagnosable.
  const auto offset = [&in]() -> uint64_t {
    const std::streampos pos = in.tellg();
    return pos < 0 ? 0 : static_cast<uint64_t>(pos);
  };
  uint64_t at = offset();
  uint64_t magic = 0, n = 0;
  if (!ReadPod(in, &magic) || magic != kMagic) {
    return CorruptAt("payload magic", at);
  }
  at = offset();
  if (!ReadPod(in, &n)) return CorruptAt("vertex count", at);
  // Hard sanity cap: label vectors can never exceed n entries.
  at = offset();
  std::vector<uint32_t> rank;
  if (!ReadU32Vec(in, &rank, n) || rank.size() != n) {
    return CorruptAt("rank table", at);
  }
  at = offset();
  std::vector<uint32_t> by_rank;
  if (!ReadU32Vec(in, &by_rank, n) || by_rank.size() != n) {
    return CorruptAt("by-rank table", at);
  }
  std::vector<std::vector<uint32_t>> lin(n), lout(n);
  for (size_t v = 0; v < n; ++v) {
    at = offset();
    if (!ReadU32Vec(in, &lin[v], n)) {
      return CorruptAt("Lin[" + std::to_string(v) + "]", at);
    }
  }
  for (size_t v = 0; v < n; ++v) {
    at = offset();
    if (!ReadU32Vec(in, &lout[v], n)) {
      return CorruptAt("Lout[" + std::to_string(v) + "]", at);
    }
  }
  // Validate ranges so a corrupted stream cannot cause out-of-bounds use.
  for (uint32_t r : rank) {
    if (r >= n) return {LoadStatus::kCorrupt, "rank table: rank out of range"};
  }
  for (VertexId v : by_rank) {
    if (v >= n) {
      return {LoadStatus::kCorrupt, "by-rank table: vertex out of range"};
    }
  }
  for (const auto& labels : lin) {
    for (uint32_t r : labels) {
      if (r >= n) return {LoadStatus::kCorrupt, "Lin labels: rank out of range"};
    }
  }
  for (const auto& labels : lout) {
    for (uint32_t r : labels) {
      if (r >= n) return {LoadStatus::kCorrupt, "Lout labels: rank out of range"};
    }
  }
  core_.Restore(std::move(rank), std::move(by_rank), std::move(lin),
                std::move(lout));
  return LoadResult{};
}

bool PrunedTwoHop::SaveSnapshot(std::ostream& out) const {
  // Same contract as `Save`: never persist a labeling whose exactness
  // depends on live tombstone state.
  const TwoHopCore<PlainTwoHopTraits>& core = core_;
  if (core.damage_ > 0) return false;
  const size_t n = core.NumVertices();
  // A post-build delta overlay is folded into temporary pools so the
  // snapshot always holds one sealed, delta-free labeling. The
  // temporaries must outlive WriteTo (sections point into them).
  FlatLabelPool<uint32_t> merged_flat;
  CompressedRankPool merged_compressed;
  const FlatLabelPool<uint32_t>* lin_flat = &core.lin_pool_;
  const CompressedRankPool* lin_c = &core.lin_cpool_;
  if (core.has_delta_) {
    std::vector<std::vector<uint32_t>> merged(n);
    for (VertexId v = 0; v < n; ++v) merged[v] = InLabels(v);
    if (core.compressed_) {
      merged_compressed.Seal(merged, core.lin_cpool_.BlockEntries());
      lin_c = &merged_compressed;
    } else {
      merged_flat.Seal(std::move(merged));
      lin_flat = &merged_flat;
    }
  }

  SnapshotWriter writer{std::string(kFormatName)};
  SnapshotMeta meta{};
  meta.payload_magic = kMagic;
  meta.num_vertices = n;
  meta.storage = core.compressed_ ? 1 : 0;
  if (core.compressed_) {
    meta.lin_entries = lin_c->NumEntries();
    meta.lout_entries = core.lout_cpool_.NumEntries();
    meta.block_entries = static_cast<uint32_t>(lin_c->BlockEntries());
  } else {
    meta.lin_entries = lin_flat->NumEntries();
    meta.lout_entries = core.lout_pool_.NumEntries();
  }
  writer.AddSection(kSecMeta, &meta, sizeof(meta));
  writer.AddSection(kSecRank, core.rank_.data(),
                    core.rank_.size() * sizeof(uint32_t));
  writer.AddSection(kSecByRank, core.by_rank_.data(),
                    core.by_rank_.size() * sizeof(VertexId));
  if (core.compressed_) {
    const auto add_pool = [&writer](uint32_t blocks_kind,
                                    uint32_t skip_kind, uint32_t data_kind,
                                    const CompressedRankPool& pool) {
      writer.AddSection(blocks_kind, pool.VertexBlocksRaw().data(),
                        pool.VertexBlocksRaw().size_bytes());
      writer.AddSection(skip_kind, pool.SkipRaw().data(),
                        pool.SkipRaw().size_bytes());
      writer.AddSection(data_kind, pool.DataRaw().data(),
                        pool.DataRaw().size_bytes());
    };
    add_pool(kSecLinVertexBlocks, kSecLinSkip, kSecLinData, *lin_c);
    add_pool(kSecLoutVertexBlocks, kSecLoutSkip, kSecLoutData,
             core.lout_cpool_);
  } else {
    writer.AddSection(kSecLinOffsets, lin_flat->OffsetsRaw().data(),
                      lin_flat->OffsetsRaw().size_bytes());
    writer.AddSection(kSecLinEntries, lin_flat->EntriesRaw().data(),
                      lin_flat->EntriesRaw().size_bytes());
    writer.AddSection(kSecLoutOffsets, core.lout_pool_.OffsetsRaw().data(),
                      core.lout_pool_.OffsetsRaw().size_bytes());
    writer.AddSection(kSecLoutEntries, core.lout_pool_.EntriesRaw().data(),
                      core.lout_pool_.EntriesRaw().size_bytes());
  }
  return writer.WriteTo(out);
}

bool PrunedTwoHop::SaveSnapshot(const std::string& path,
                                std::string* error) const {
  return WriteFileAtomic(
      path, [this](std::ostream& out) { return SaveSnapshot(out); }, error);
}

LoadResult PrunedTwoHop::LoadSnapshot(const std::string& path) {
  std::string error;
  std::shared_ptr<MappedFile> file = MappedFile::Open(path, &error);
  if (file == nullptr) return {LoadStatus::kCorrupt, error};
  return LoadSnapshot(std::move(file));
}

LoadResult PrunedTwoHop::LoadSnapshot(std::shared_ptr<MappedFile> file) {
  SnapshotView view;
  LoadResult parsed = view.Parse(file->data(), file->size(), kFormatName);
  if (!parsed) return parsed;
  const std::span<const uint8_t> meta_bytes = view.Section(kSecMeta);
  if (meta_bytes.size() != sizeof(SnapshotMeta)) {
    return {LoadStatus::kCorrupt, "meta section: wrong size"};
  }
  SnapshotMeta meta;
  std::memcpy(&meta, meta_bytes.data(), sizeof(meta));
  if (meta.payload_magic != kMagic) {
    return {LoadStatus::kCorrupt, "meta section: bad payload magic"};
  }
  if (meta.storage > 1) {
    return {LoadStatus::kCorrupt, "meta section: unknown storage mode"};
  }
  const uint64_t n = meta.num_vertices;
  if (n > UINT32_MAX) {
    return {LoadStatus::kCorrupt, "meta section: vertex count overflow"};
  }
  const std::span<const uint32_t> rank =
      view.TypedSection<uint32_t>(kSecRank);
  const std::span<const uint32_t> by_rank =
      view.TypedSection<uint32_t>(kSecByRank);
  if (rank.size() != n) {
    return {LoadStatus::kCorrupt, "rank section: size mismatch"};
  }
  if (by_rank.size() != n) {
    return {LoadStatus::kCorrupt, "by-rank section: size mismatch"};
  }
  for (uint32_t r : rank) {
    if (r >= n) {
      return {LoadStatus::kCorrupt, "rank section: rank out of range"};
    }
  }
  for (uint32_t v : by_rank) {
    if (v >= n) {
      return {LoadStatus::kCorrupt, "by-rank section: vertex out of range"};
    }
  }

  // All header-level checks passed: reset storage, then point the pools
  // at the mapping. SealFromView validates the pool structure (CSR
  // monotonicity / block tables) before the pool goes live.
  TwoHopCore<PlainTwoHopTraits>& core = core_;
  core.graph_ = nullptr;
  core.ResetDynamicState();
  core.ClearPools();
  core.compressed_ = meta.storage == 1;
  if (core.compressed_) {
    if (!core.lin_cpool_.SealFromView(
            view.TypedSection<uint32_t>(kSecLinVertexBlocks),
            view.TypedSection<CompressedRankPool::SkipEntry>(kSecLinSkip),
            view.Section(kSecLinData), meta.lin_entries,
            meta.block_entries) ||
        core.lin_cpool_.NumVertices() != n) {
      return {LoadStatus::kCorrupt, "Lin block sections: malformed"};
    }
    if (!core.lout_cpool_.SealFromView(
            view.TypedSection<uint32_t>(kSecLoutVertexBlocks),
            view.TypedSection<CompressedRankPool::SkipEntry>(kSecLoutSkip),
            view.Section(kSecLoutData), meta.lout_entries,
            meta.block_entries) ||
        core.lout_cpool_.NumVertices() != n) {
      return {LoadStatus::kCorrupt, "Lout block sections: malformed"};
    }
  } else {
    const std::span<const uint32_t> lin_entries =
        view.TypedSection<uint32_t>(kSecLinEntries);
    const std::span<const uint32_t> lout_entries =
        view.TypedSection<uint32_t>(kSecLoutEntries);
    if (lin_entries.size() != meta.lin_entries ||
        lout_entries.size() != meta.lout_entries) {
      return {LoadStatus::kCorrupt, "entry sections: size mismatch"};
    }
    if (!core.lin_pool_.SealFromView(
            view.TypedSection<uint64_t>(kSecLinOffsets), lin_entries) ||
        core.lin_pool_.NumVertices() != n) {
      return {LoadStatus::kCorrupt, "Lin offsets: malformed CSR"};
    }
    if (!core.lout_pool_.SealFromView(
            view.TypedSection<uint64_t>(kSecLoutOffsets), lout_entries) ||
        core.lout_pool_.NumVertices() != n) {
      return {LoadStatus::kCorrupt, "Lout offsets: malformed CSR"};
    }
  }

  core.rank_.assign(rank.begin(), rank.end());
  core.by_rank_.assign(by_rank.begin(), by_rank.end());
  core.mapping_ = std::move(file);  // pool views point into this mapping
  const size_t flat_equivalent =
      2 * (static_cast<size_t>(n) + 1) * sizeof(uint64_t) +
      static_cast<size_t>(meta.lin_entries + meta.lout_entries) *
          sizeof(uint32_t);
  core.PublishStorageGauges(flat_equivalent);
  return LoadResult{};
}

std::string PrunedTwoHop::Name() const {
  switch (order_) {
    case VertexOrder::kDegree:
      return "pll";  // == DL; degree-order TOL
    case VertexOrder::kTopological:
      return "tfl";
    case VertexOrder::kReverseDegree:
      return "tol(revdeg)";
    case VertexOrder::kRandom:
      return "tol(random)";
  }
  return "2hop";
}

}  // namespace reach
