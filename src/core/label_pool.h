#ifndef REACH_CORE_LABEL_POOL_H_
#define REACH_CORE_LABEL_POOL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "core/bit_pack.h"
#include "graph/types.h"

namespace reach {

/// Sealed-label storage policy shared by the 2-hop families (the TOL
/// instantiations and the LCR P2H+ index; docs/SNAPSHOTS.md).
/// Factory spelling: `pll:compress=1[:block=N][:budget_mb=N]` (and the
/// same keys on `lcr:pll`).
struct TwoHopStorageOptions {
  /// Seal into block-compressed pools instead of flat CSR pools.
  bool compress = false;
  /// Target entries per compressed block (clamped to the pool's range).
  size_t block_entries = 64;
  /// Sealed-label byte budget in MiB; 0 = unbounded. When the flat
  /// layout exceeds the budget the seal falls back FERRARI-style to
  /// compressed storage, doubling the block size until it fits (or the
  /// coarsest tier is reached — the index never fails to build, it only
  /// reports `BudgetExceeded()` and the `index.budget_exceeded` gauge).
  size_t budget_mb = 0;
};

/// A sealed, CSR-style contiguous pool of per-vertex label entries — the
/// flat layout of the query hot-path engine (docs/QUERY_ENGINE.md).
///
/// The 2-hop builders accumulate labels into `vector<vector<Entry>>`
/// (ranks arrive per-sweep, appending to arbitrary vertices); at the end
/// of `Build`/`Load` the nested vectors are *sealed* into one 64-byte
/// aligned entries array plus an offsets array. Queries then read
/// `Slice(v)` — a single indirection into memory where consecutive
/// vertices' labels are adjacent, instead of a pointer chase through
/// ~48 bytes of vector headers per vertex.
///
/// A sealed pool is immutable. Post-seal mutation (TOL-style
/// `ApplyUpdate` — inserts into a delta overlay, deletes as tombstones
/// plus lost-set masks) is kept next to the pool by its owner; the pool
/// itself never reallocates, so spans stay valid for the index's
/// lifetime.
///
/// A pool can alternatively be sealed as a *view* over externally owned
/// memory (`SealFromView`) — the zero-copy mmap snapshot path
/// (docs/SNAPSHOTS.md). The view owner (e.g. a `MappedFile`) must outlive
/// the pool; the pool only validates the structure and points at it.
template <typename Entry>
class FlatLabelPool {
  static_assert(std::is_trivially_copyable_v<Entry>,
                "pool entries are raw-copied into aligned storage");

 public:
  /// Cache-line alignment of the entries array.
  static constexpr size_t kAlignment = 64;

  FlatLabelPool() = default;

  /// Seals `per_vertex` into the pool and releases the nested vectors
  /// (the caller's build-side memory is freed, not kept in parallel).
  void Seal(std::vector<std::vector<Entry>>&& per_vertex) {
    Clear();
    const size_t n = per_vertex.size();
    owned_offsets_.assign(n + 1, 0);
    for (size_t v = 0; v < n; ++v) {
      owned_offsets_[v + 1] = owned_offsets_[v] + per_vertex[v].size();
    }
    const size_t total = static_cast<size_t>(owned_offsets_[n]);
    owned_entries_.reset(total == 0 ? nullptr
                                    : static_cast<Entry*>(::operator new[](
                                          total * sizeof(Entry),
                                          std::align_val_t{kAlignment})));
    for (size_t v = 0; v < n; ++v) {
      if (!per_vertex[v].empty()) {
        std::memcpy(owned_entries_.get() + owned_offsets_[v],
                    per_vertex[v].data(),
                    per_vertex[v].size() * sizeof(Entry));
      }
    }
    std::vector<std::vector<Entry>>().swap(per_vertex);
    offsets_ = owned_offsets_.data();
    entries_ = owned_entries_.get();
    num_vertices_ = n;
    sealed_ = true;
  }

  /// Seals the pool as a view over externally owned arrays (the mmap
  /// snapshot path — no copy, no reseal). Validates the CSR structure:
  /// offsets must start at 0, be non-decreasing, and end exactly at
  /// `entries.size()`. Returns false (pool left unsealed) on malformed
  /// input; never reads `entries`.
  bool SealFromView(std::span<const uint64_t> offsets,
                    std::span<const Entry> entries) {
    Clear();
    if (offsets.empty() || offsets.front() != 0) return false;
    for (size_t i = 1; i < offsets.size(); ++i) {
      if (offsets[i] < offsets[i - 1]) return false;
    }
    if (offsets.back() != entries.size()) return false;
    offsets_ = offsets.data();
    entries_ = entries.data();
    num_vertices_ = offsets.size() - 1;
    sealed_ = true;
    return true;
  }

  /// The sealed labels of `v`, sorted exactly as the build produced them.
  /// (The empty-slice branch also keeps pointer arithmetic off the null
  /// entries array of an all-empty pool.)
  std::span<const Entry> Slice(VertexId v) const {
    const size_t begin = static_cast<size_t>(offsets_[v]);
    const size_t count = static_cast<size_t>(offsets_[v + 1]) - begin;
    if (count == 0) return {};
    return {entries_ + begin, count};
  }

  bool Sealed() const { return sealed_; }
  size_t NumVertices() const { return num_vertices_; }
  size_t NumEntries() const {
    return sealed_ ? static_cast<size_t>(offsets_[num_vertices_]) : 0;
  }

  /// Returns the pool to the unsealed (empty) state.
  void Clear() {
    owned_offsets_.clear();
    owned_offsets_.shrink_to_fit();
    owned_entries_.reset();
    offsets_ = nullptr;
    entries_ = nullptr;
    num_vertices_ = 0;
    sealed_ = false;
  }

  /// Resident footprint of the sealed arrays (heap or mapping — the bytes
  /// the Table 1 size columns and the `index.bytes` gauge report).
  size_t MemoryBytes() const {
    if (!sealed_) return 0;
    return (num_vertices_ + 1) * sizeof(uint64_t) +
           NumEntries() * sizeof(Entry);
  }

  /// Raw sealed arrays, for the snapshot writer. Valid only when sealed.
  std::span<const uint64_t> OffsetsRaw() const {
    return {offsets_, sealed_ ? num_vertices_ + 1 : 0};
  }
  std::span<const Entry> EntriesRaw() const {
    const size_t count = NumEntries();
    if (count == 0) return {};
    return {entries_, count};
  }

 private:
  struct AlignedDelete {
    void operator()(Entry* p) const {
      ::operator delete[](p, std::align_val_t{kAlignment});
    }
  };

  // Query-side pointers; aimed at the owned arrays after `Seal` and at
  // the external mapping after `SealFromView`.
  const uint64_t* offsets_ = nullptr;  // NumVertices() + 1 when sealed
  const Entry* entries_ = nullptr;
  size_t num_vertices_ = 0;
  bool sealed_ = false;

  std::vector<uint64_t> owned_offsets_;
  std::unique_ptr<Entry[], AlignedDelete> owned_entries_;
};

/// Block codecs of `CompressedPool<Entry>`: each encodes one block of a
/// rank-sorted list and decodes it back. The pool owns everything else
/// (block ranges, skip table, storage), so a codec only sees one block's
/// bytes. A block's first rank lives in its skip entry, not in the block.
///
/// The primary template is the LCR codec for `{rank, mask}` entries, whose
/// equal ranks form *rank groups* (one minimal label set each). Block
/// layout: u8 rank bit-width, u8 mask bit-width, u16 count, then
/// `count - 1` packed rank deltas (`r[i] - r[i-1]`, zero inside a group)
/// followed by `count` packed masks.
template <typename Entry>
struct BlockCodec {
  static constexpr size_t kMaxBlockEntries = 2048;
  static constexpr size_t kHeaderBytes = 4;
  static constexpr size_t kCountOffset = 2;  // of the u16 entry count
  static constexpr bool kDistinctRanks = false;

  static uint32_t Rank(const Entry& e) { return e.rank; }

  static void Encode(const Entry* entries, size_t count,
                     std::vector<uint8_t>* out) {
    uint32_t max_delta = 0, max_mask = 0;
    for (size_t i = 0; i < count; ++i) {
      if (i > 0) {
        max_delta =
            std::max(max_delta, entries[i].rank - entries[i - 1].rank);
      }
      max_mask = std::max(max_mask, static_cast<uint32_t>(entries[i].mask));
    }
    const int rank_width = PackedBitWidth(max_delta);
    const int mask_width = PackedBitWidth(max_mask);
    out->push_back(static_cast<uint8_t>(rank_width));
    out->push_back(static_cast<uint8_t>(mask_width));
    out->push_back(static_cast<uint8_t>(count));
    out->push_back(static_cast<uint8_t>(count >> 8));
    BitWriter writer(out);
    for (size_t i = 1; i < count; ++i) {
      writer.Put(entries[i].rank - entries[i - 1].rank, rank_width);
    }
    for (size_t i = 0; i < count; ++i) {
      writer.Put(static_cast<uint32_t>(entries[i].mask), mask_width);
    }
    writer.Flush();
  }

  /// Whether `block`'s widths are legal and its `count` entries fit in
  /// `block_bytes` (header included).
  static bool HeaderValid(const uint8_t* block, size_t count,
                          size_t block_bytes) {
    const size_t rank_width = block[0], mask_width = block[1];
    if (rank_width > 32 || mask_width > 32) return false;
    const size_t bits = (count - 1) * rank_width + count * mask_width;
    return (bits + 7) / 8 <= block_bytes - kHeaderBytes;
  }

  /// Decodes the block's entries of rank <= `stop` into `out`: the rank
  /// deltas up to the first rank past `stop`, then the masks of that
  /// prefix, which start right after the last rank delta.
  static size_t Decode(const uint8_t* block, const uint8_t* block_end,
                       const uint8_t* /*data_end*/, uint32_t first,
                       size_t count, uint32_t stop, Entry* out) {
    const int rank_width = block[0];
    const int mask_width = block[1];
    const uint8_t* payload = block + kHeaderBytes;
    BitReader ranks(payload, block_end);
    uint32_t rank = first;
    size_t prefix = 0;
    while (prefix < count && rank <= stop) {
      out[prefix++].rank = rank;
      if (prefix < count) rank += ranks.Get(rank_width);
    }
    const size_t mask_bit = (count - 1) * static_cast<size_t>(rank_width);
    BitReader masks(payload + mask_bit / 8, block_end);
    masks.Get(static_cast<int>(mask_bit % 8));  // skip the partial byte
    for (size_t i = 0; i < prefix; ++i) out[i].mask = masks.Get(mask_width);
    return prefix;
  }
};

/// The plain codec for strictly increasing `uint32` rank lists. Block
/// layout: u8 delta bit-width, u16 count, then `count - 1` packed deltas
/// `v[i] - v[i-1] - 1`.
template <>
struct BlockCodec<uint32_t> {
  static constexpr size_t kMaxBlockEntries = 1024;
  static constexpr size_t kHeaderBytes = 3;
  static constexpr size_t kCountOffset = 1;
  static constexpr bool kDistinctRanks = true;

  static uint32_t Rank(uint32_t e) { return e; }

  static void Encode(const uint32_t* values, size_t count,
                     std::vector<uint8_t>* out) {
    uint32_t max_delta = 0;
    for (size_t i = 1; i < count; ++i) {
      max_delta = std::max(max_delta, values[i] - values[i - 1] - 1);
    }
    const int width = PackedBitWidth(max_delta);
    out->push_back(static_cast<uint8_t>(width));
    out->push_back(static_cast<uint8_t>(count));
    out->push_back(static_cast<uint8_t>(count >> 8));
    BitWriter writer(out);
    for (size_t i = 1; i < count; ++i) {
      writer.Put(values[i] - values[i - 1] - 1, width);
    }
    writer.Flush();
  }

  static bool HeaderValid(const uint8_t* block, size_t count,
                          size_t block_bytes) {
    const size_t width = block[0];
    if (width > 32) return false;
    return ((count - 1) * width + 7) / 8 <= block_bytes - kHeaderBytes;
  }

  /// Decodes the block's values <= `stop` into `out`, stopping at the
  /// first value `>= stop` (the membership test's early exit). Deltas are
  /// fixed-width, so entry i's bits start at i * width: the hot loop
  /// decodes by independent unaligned 64-bit loads (no serial accumulator
  /// chain, the prefix sum is the only dependency), and only the last few
  /// entries of the *data array* — where an 8-byte load would run past
  /// `data_end` — fall back to the byte-safe BitReader.
  static size_t Decode(const uint8_t* block, const uint8_t* block_end,
                       const uint8_t* data_end, uint32_t first, size_t count,
                       uint32_t stop, uint32_t* out) {
    // A full decode (the intersections) keeps the stop test off its loop.
    return stop == UINT32_MAX
               ? DecodeUpTo<false>(block, block_end, data_end, first, count,
                                   stop, out)
               : DecodeUpTo<true>(block, block_end, data_end, first, count,
                                  stop, out);
  }

 private:
  template <bool kStop>
  static size_t DecodeUpTo(const uint8_t* block, const uint8_t* block_end,
                           const uint8_t* data_end, uint32_t first,
                           size_t count, uint32_t stop, uint32_t* out) {
    const uint8_t* base = block + kHeaderBytes;
    const int width = block[0];
    out[0] = first;
    if (kStop && first >= stop) return first == stop ? 1 : 0;
    const uint64_t mask = BitWriter::MaskOf(width);
    const int64_t max_start = (data_end - base) * 8 - 64 + 7;
    uint64_t bit = 0;
    size_t i = 1;
    for (; i < count && static_cast<int64_t>(bit) <= max_start; ++i) {
      uint64_t chunk;
      std::memcpy(&chunk, base + (bit >> 3), sizeof(chunk));
      out[i] = out[i - 1] + 1 +
               static_cast<uint32_t>((chunk >> (bit & 7)) & mask);
      if (kStop && out[i] >= stop) return out[i] == stop ? i + 1 : i;
      bit += width;
    }
    if (i < count) {
      BitReader reader(base + (bit >> 3), block_end);
      reader.Get(static_cast<int>(bit & 7));  // skip the partial byte
      for (; i < count; ++i) {
        out[i] = out[i - 1] + 1 + reader.Get(width);
        if (kStop && out[i] >= stop) return out[i] == stop ? i + 1 : i;
      }
    }
    return count;
  }
};

/// Block-compressed sibling of `FlatLabelPool<Entry>`: each vertex's
/// rank-sorted list is split into blocks of ~`block_entries` entries,
/// encoded by `BlockCodec<Entry>` behind an *uncompressed skip table* of
/// per-block {first rank, last rank, data offset}. The query kernels
/// (`TwoHopCore`) prefilter and skip blocks on skip entries alone and
/// decode only blocks that can hold an answer, into stack buffers —
/// decompression stays off the common path, CSIndex DataComp-style.
///
/// A block never splits a rank group, so a group is always decoded whole
/// and the equal-last advance of the block merge stays sound. Plain rank
/// lists have one-entry groups, so their blocks hold exactly
/// `block_entries` entries (the last one of a list fewer). A trailing
/// sentinel skip entry carries `data_offset == data size`, so block `b`
/// always spans `[skip[b].data_offset, skip[b+1].data_offset)`.
///
/// `Seal` *refuses* (returns false) when a single rank group exceeds the
/// block cap — the caller keeps flat pools instead of failing
/// (FERRARI-style degradation). Like the flat pool, a compressed pool can
/// be sealed as a view over a snapshot mapping (`SealFromView`).
template <typename Entry>
class CompressedPool {
  static_assert(std::is_trivially_copyable_v<Entry>);
  using Codec = BlockCodec<Entry>;

 public:
  static constexpr size_t kMinBlockEntries = 8;
  static constexpr size_t kMaxBlockEntries = Codec::kMaxBlockEntries;
  static constexpr size_t kDefaultBlockEntries = 64;
  /// Whether a list's ranks are strictly increasing (one-entry groups).
  static constexpr bool kDistinctRanks = Codec::kDistinctRanks;

  struct SkipEntry {
    uint32_t first;  // first rank in the block
    uint32_t last;   // last rank in the block
    uint32_t data_offset;
  };
  static_assert(std::is_trivially_copyable_v<SkipEntry>);

  static size_t ClampBlockEntries(size_t block_entries) {
    return std::clamp(block_entries, kMinBlockEntries, kMaxBlockEntries);
  }

  /// Seals a compressed copy of `per_vertex` (each list rank-sorted).
  /// Takes a const ref — the caller keeps the build-side vectors, so a
  /// size-budget policy can retry with coarser blocks.
  bool Seal(const std::vector<std::vector<Entry>>& per_vertex,
            size_t block_entries) {
    Clear();
    block_entries_ = ClampBlockEntries(block_entries);
    const size_t n = per_vertex.size();
    owned_vertex_blocks_.reserve(n + 1);
    owned_vertex_blocks_.push_back(0);
    for (size_t v = 0; v < n; ++v) {
      const std::vector<Entry>& list = per_vertex[v];
      // Greedily pack whole rank groups: close the open block when the
      // next group would push it past the target size.
      size_t block_begin = 0, pos = 0;
      while (pos < list.size()) {
        size_t group_end = pos + 1;
        while (group_end < list.size() &&
               Codec::Rank(list[group_end]) == Codec::Rank(list[pos])) {
          ++group_end;
        }
        if (group_end - pos > kMaxBlockEntries) {
          Clear();
          return false;  // one group overflows any block: stay flat
        }
        if (pos > block_begin && group_end - block_begin > block_entries_) {
          EncodeBlock(list.data() + block_begin, pos - block_begin);
          block_begin = pos;
        }
        pos = group_end;
      }
      if (pos > block_begin) {
        EncodeBlock(list.data() + block_begin, pos - block_begin);
      }
      num_entries_ += list.size();
      owned_vertex_blocks_.push_back(
          static_cast<uint32_t>(owned_skip_.size()));
    }
    owned_skip_.push_back(
        {0, 0, static_cast<uint32_t>(owned_data_.size())});  // sentinel
    vertex_blocks_ = owned_vertex_blocks_;
    skip_ = owned_skip_;
    data_ = owned_data_;
    sealed_ = true;
    return true;
  }

  /// Seals the pool as a view over externally owned arrays (mmap
  /// snapshots). Validates every structural invariant the decoders rely
  /// on — monotonic block ranges and data offsets, per-block counts
  /// within the stack-buffer cap, codec widths, entry total matching —
  /// before any payload byte is trusted. Returns false on malformed
  /// input with the pool left unsealed.
  bool SealFromView(std::span<const uint32_t> vertex_blocks,
                    std::span<const SkipEntry> skip,
                    std::span<const uint8_t> data, uint64_t num_entries,
                    size_t block_entries) {
    Clear();
    if (block_entries < kMinBlockEntries ||
        block_entries > kMaxBlockEntries) {
      return false;
    }
    if (vertex_blocks.empty() || vertex_blocks.front() != 0) return false;
    if (skip.empty()) return false;
    const size_t num_blocks = skip.size() - 1;  // minus sentinel
    for (size_t i = 1; i < vertex_blocks.size(); ++i) {
      if (vertex_blocks[i] < vertex_blocks[i - 1]) return false;
    }
    if (vertex_blocks.back() != num_blocks) return false;
    if (skip.back().data_offset != data.size()) return false;
    uint64_t total = 0;
    for (size_t b = 0; b < num_blocks; ++b) {
      if (skip[b].first > skip[b].last) return false;
      if (skip[b].data_offset > skip[b + 1].data_offset) return false;
      const size_t block_bytes =
          skip[b + 1].data_offset - skip[b].data_offset;
      if (block_bytes < Codec::kHeaderBytes) return false;
      const uint8_t* block = data.data() + skip[b].data_offset;
      uint16_t count;
      std::memcpy(&count, block + Codec::kCountOffset, sizeof(count));
      if (count == 0 || count > kMaxBlockEntries ||
          !Codec::HeaderValid(block, count, block_bytes)) {
        return false;
      }
      total += count;
    }
    if (total != num_entries) return false;
    block_entries_ = block_entries;
    vertex_blocks_ = vertex_blocks;
    skip_ = skip;
    data_ = data;
    num_entries_ = num_entries;
    sealed_ = true;
    return true;
  }

  bool Sealed() const { return sealed_; }
  size_t NumVertices() const {
    return vertex_blocks_.empty() ? 0 : vertex_blocks_.size() - 1;
  }
  size_t NumEntries() const { return static_cast<size_t>(num_entries_); }
  size_t NumBlocks() const { return skip_.empty() ? 0 : skip_.size() - 1; }
  size_t BlockEntries() const { return block_entries_; }

  void Clear() {
    owned_vertex_blocks_.clear();
    owned_vertex_blocks_.shrink_to_fit();
    owned_skip_.clear();
    owned_skip_.shrink_to_fit();
    owned_data_.clear();
    owned_data_.shrink_to_fit();
    vertex_blocks_ = {};
    skip_ = {};
    data_ = {};
    num_entries_ = 0;
    block_entries_ = kDefaultBlockEntries;
    sealed_ = false;
  }

  /// Resident footprint of the sealed representation: vertex->block
  /// ranges, skip table, and packed block data.
  size_t MemoryBytes() const {
    return vertex_blocks_.size() * sizeof(uint32_t) +
           skip_.size() * sizeof(SkipEntry) + data_.size();
  }

  /// Block-index range [begin, end) of vertex `v`.
  size_t BlockBegin(VertexId v) const { return vertex_blocks_[v]; }
  size_t BlockEnd(VertexId v) const { return vertex_blocks_[v + 1]; }
  const SkipEntry& Skip(size_t b) const { return skip_[b]; }

  /// First block index in [lo, hi) with `last >= rank` (hi when none).
  size_t LowerBoundBlock(size_t lo, size_t hi, uint32_t rank) const {
    const SkipEntry* base = skip_.data();
    return static_cast<size_t>(
        std::lower_bound(base + lo, base + hi, rank,
                         [](const SkipEntry& e, uint32_t r) {
                           return e.last < r;
                         }) -
        base);
  }

  /// Entry count of one list — walks the block headers (cold paths:
  /// probes, stats).
  size_t ListEntries(VertexId v) const {
    size_t total = 0;
    for (size_t b = BlockBegin(v); b < BlockEnd(v); ++b) {
      total += BlockCount(b);
    }
    return total;
  }

  /// Decodes the entries of block `b` with rank <= `stop` (all of them by
  /// default) into `out` (capacity >= kMaxBlockEntries) and returns their
  /// count; a `stop` rank lets the codec end the decode early.
  /// Bounds-safe for any sealed pool: the count and widths were validated
  /// at seal time and the readers cannot run past the data byte range.
  size_t DecodeBlock(size_t b, Entry* out,
                     uint32_t stop = UINT32_MAX) const {
    const uint8_t* data = data_.data();
    return Codec::Decode(data + skip_[b].data_offset,
                         data + skip_[b + 1].data_offset,
                         data + data_.size(), skip_[b].first,
                         std::min<size_t>(BlockCount(b), kMaxBlockEntries),
                         stop, out);
  }

  /// The entries of `rank` in block `b` — its rank group, empty when the
  /// block has none — decoded into `out` (capacity >= kMaxBlockEntries).
  /// The decode stops at the group; a one-entry group that is the block's
  /// first or last rank needs none.
  std::span<const Entry> DecodeGroup(size_t b, uint32_t rank,
                                     Entry* out) const {
    if constexpr (kDistinctRanks) {
      if (skip_[b].first == rank || skip_[b].last == rank) {
        out[0] = rank;
        return {out, 1};
      }
    }
    const size_t end = DecodeBlock(b, out, rank);
    size_t begin = end;
    while (begin > 0 && Codec::Rank(out[begin - 1]) == rank) --begin;
    return {out + begin, end - begin};
  }

  /// Decompresses one full list (Save / label introspection).
  void Decode(VertexId v, std::vector<Entry>* out) const {
    out->clear();
    Entry buf[kMaxBlockEntries];
    for (size_t b = BlockBegin(v); b < BlockEnd(v); ++b) {
      const size_t count = DecodeBlock(b, buf);
      out->insert(out->end(), buf, buf + count);
    }
  }

  /// Raw sealed arrays, for the snapshot writer. Valid only when sealed.
  std::span<const uint32_t> VertexBlocksRaw() const {
    return vertex_blocks_;
  }
  std::span<const SkipEntry> SkipRaw() const { return skip_; }
  std::span<const uint8_t> DataRaw() const { return data_; }

 private:
  uint16_t BlockCount(size_t b) const {
    uint16_t count;
    std::memcpy(&count,
                data_.data() + skip_[b].data_offset + Codec::kCountOffset,
                sizeof(count));
    return count;
  }

  void EncodeBlock(const Entry* entries, size_t count) {
    owned_skip_.push_back({Codec::Rank(entries[0]),
                           Codec::Rank(entries[count - 1]),
                           static_cast<uint32_t>(owned_data_.size())});
    Codec::Encode(entries, count, &owned_data_);
  }

  std::span<const uint32_t> vertex_blocks_;  // n + 1 block-range bounds
  std::span<const SkipEntry> skip_;          // NumBlocks() + 1 (sentinel)
  std::span<const uint8_t> data_;
  uint64_t num_entries_ = 0;
  size_t block_entries_ = kDefaultBlockEntries;
  bool sealed_ = false;

  std::vector<uint32_t> owned_vertex_blocks_;
  std::vector<SkipEntry> owned_skip_;
  std::vector<uint8_t> owned_data_;
};


}  // namespace reach

#endif  // REACH_CORE_LABEL_POOL_H_
