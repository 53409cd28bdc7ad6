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
#include "core/label_kernels.h"
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
/// plus damage marks) is kept next to the pool by its owner; the pool
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

/// Block-compressed sibling of `FlatLabelPool<uint32_t>` for the plain
/// 2-hop rank lists: each vertex's strictly increasing rank list is split
/// into blocks of ~`block_entries` values, stored frame-of-reference
/// delta/bit-packed, behind an *uncompressed skip table* of per-block
/// {first, last, data offset}. The hot-path prefilter and block skipping
/// run on skip entries alone; only blocks whose rank ranges can intersect
/// are decoded (into small stack buffers — decompression stays off the
/// common path, CSIndex DataComp-style).
///
/// Block payload layout in `data_` (little-endian, byte-aligned per
/// block): u8 delta bit-width, u16 entry count, then `count - 1` packed
/// deltas (`v[i] - v[i-1] - 1`; the first value lives in the skip entry).
/// A trailing sentinel skip entry carries `data_offset == data size`, so
/// block `b` always spans `[skip[b].data_offset, skip[b+1].data_offset)`.
class CompressedRankPool {
 public:
  static constexpr size_t kMinBlockEntries = 8;
  static constexpr size_t kMaxBlockEntries = 1024;
  static constexpr size_t kDefaultBlockEntries = 64;
  static constexpr size_t kBlockHeaderBytes = 3;  // u8 width + u16 count

  struct SkipEntry {
    uint32_t first;
    uint32_t last;
    uint32_t data_offset;
  };
  static_assert(std::is_trivially_copyable_v<SkipEntry>);

  static size_t ClampBlockEntries(size_t block_entries) {
    return std::clamp(block_entries, kMinBlockEntries, kMaxBlockEntries);
  }

  CompressedRankPool() = default;

  /// Seals a compressed copy of `per_vertex` (each list strictly
  /// increasing). Takes a const ref — the caller keeps the build-side
  /// vectors, so a size-budget policy can retry with coarser blocks.
  /// Always succeeds (ranks are distinct, so no group can overflow a
  /// block); returns true like `CompressedEntryPool::Seal`.
  bool Seal(const std::vector<std::vector<uint32_t>>& per_vertex,
            size_t block_entries) {
    Clear();
    block_entries_ = ClampBlockEntries(block_entries);
    const size_t n = per_vertex.size();
    owned_vertex_blocks_.reserve(n + 1);
    owned_vertex_blocks_.push_back(0);
    for (size_t v = 0; v < n; ++v) {
      const std::vector<uint32_t>& list = per_vertex[v];
      for (size_t pos = 0; pos < list.size(); pos += block_entries_) {
        const size_t count = std::min(block_entries_, list.size() - pos);
        EncodeBlock(list.data() + pos, count);
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
  /// within the stack-buffer cap, widths <= 32, entry total matching —
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
      if (block_bytes < kBlockHeaderBytes) return false;
      const uint8_t* p = data.data() + skip[b].data_offset;
      const uint8_t width = p[0];
      uint16_t count;
      std::memcpy(&count, p + 1, sizeof(count));
      if (width > 32 || count == 0 || count > kMaxBlockEntries) {
        return false;
      }
      // The packed deltas must fit in the block's byte range.
      const size_t packed_bits = static_cast<size_t>(count - 1) * width;
      if ((packed_bits + 7) / 8 > block_bytes - kBlockHeaderBytes) {
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

  bool Empty(VertexId v) const {
    return vertex_blocks_[v] == vertex_blocks_[v + 1];
  }

  /// Entry count of one list — walks the block headers (cold paths:
  /// probes, Save, stats).
  size_t ListEntries(VertexId v) const {
    size_t total = 0;
    for (size_t b = vertex_blocks_[v]; b < vertex_blocks_[v + 1]; ++b) {
      total += BlockCount(b);
    }
    return total;
  }

  /// Membership test: one skip-table binary search, then a partial
  /// decode of at most one block — the prefix-sum walk stops at the
  /// first value >= rank.
  bool Contains(VertexId v, uint32_t rank) const {
    const size_t begin = vertex_blocks_[v], end = vertex_blocks_[v + 1];
    const size_t b = LowerBoundBlock(begin, end, rank);
    if (b == end || skip_[b].first > rank) return false;
    if (skip_[b].first == rank || skip_[b].last == rank) return true;
    const uint8_t* base =
        data_.data() + skip_[b].data_offset + kBlockHeaderBytes;
    const int width = base[-kBlockHeaderBytes];
    const size_t count = std::min<size_t>(BlockCount(b), kMaxBlockEntries);
    const uint64_t mask = BitWriter::MaskOf(width);
    const int64_t max_start =
        (data_.data() + data_.size() - base) * 8 - 64 + 7;
    uint32_t value = skip_[b].first;
    uint64_t bit = 0;
    size_t i = 1;
    for (; i < count && static_cast<int64_t>(bit) <= max_start; ++i) {
      uint64_t chunk;
      std::memcpy(&chunk, base + (bit >> 3), sizeof(chunk));
      value += 1 + static_cast<uint32_t>((chunk >> (bit & 7)) & mask);
      if (value >= rank) return value == rank;
      bit += width;
    }
    if (i < count) {
      const uint8_t* block_end = data_.data() + skip_[b + 1].data_offset;
      BitReader reader(base + (bit >> 3), block_end);
      reader.Get(static_cast<int>(bit & 7));
      for (; i < count; ++i) {
        value += 1 + reader.Get(width);
        if (value >= rank) return value == rank;
      }
    }
    return false;
  }

  /// Decompresses one full list (Save / label introspection).
  void Decode(VertexId v, std::vector<uint32_t>* out) const {
    out->clear();
    uint32_t buf[kMaxBlockEntries];
    for (size_t b = vertex_blocks_[v]; b < vertex_blocks_[v + 1]; ++b) {
      const size_t count = DecodeBlock(b, buf);
      out->insert(out->end(), buf, buf + count);
    }
  }

  /// Exact intersection test of two compressed lists: block-merge over
  /// the skip tables (binary-search jumps across non-overlapping runs),
  /// decoding only block pairs whose rank ranges overlap.
  static bool Intersect(const CompressedRankPool& pa, VertexId va,
                        const CompressedRankPool& pb, VertexId vb) {
    size_t i = pa.vertex_blocks_[va];
    const size_t ia_end = pa.vertex_blocks_[va + 1];
    size_t j = pb.vertex_blocks_[vb];
    const size_t jb_end = pb.vertex_blocks_[vb + 1];
    if (i == ia_end || j == jb_end) return false;
    // First/last-rank prefilter on whole lists, from skip entries alone.
    if (pa.skip_[ia_end - 1].last < pb.skip_[j].first ||
        pb.skip_[jb_end - 1].last < pa.skip_[i].first) {
      return false;
    }
    uint32_t buf_a[kMaxBlockEntries], buf_b[kMaxBlockEntries];
    size_t na = 0, nb = 0;
    size_t decoded_a = SIZE_MAX, decoded_b = SIZE_MAX;
    while (i < ia_end && j < jb_end) {
      const SkipEntry& sa = pa.skip_[i];
      const SkipEntry& sb = pb.skip_[j];
      if (sa.last < sb.first) {
        i = pa.LowerBoundBlock(i + 1, ia_end, sb.first);
        continue;
      }
      if (sb.last < sa.first) {
        j = pb.LowerBoundBlock(j + 1, jb_end, sa.first);
        continue;
      }
      if (decoded_a != i) { na = pa.DecodeBlock(i, buf_a); decoded_a = i; }
      if (decoded_b != j) { nb = pb.DecodeBlock(j, buf_b); decoded_b = j; }
      if (IntersectSorted(buf_a, na, buf_b, nb)) return true;
      // Lists are strictly increasing, so equal lasts would have matched
      // above; advancing both on a tie is safe.
      if (sa.last <= sb.last) ++i;
      if (sb.last <= sa.last) ++j;
    }
    return false;
  }

  /// Intersection of a compressed list with a raw sorted array (the
  /// post-seal delta overlay).
  bool IntersectWithSorted(VertexId v, const uint32_t* other,
                           size_t n) const {
    if (n == 0) return false;
    const size_t end = vertex_blocks_[v + 1];
    uint32_t buf[kMaxBlockEntries];
    for (size_t b = LowerBoundBlock(vertex_blocks_[v], end, other[0]);
         b < end && skip_[b].first <= other[n - 1]; ++b) {
      const size_t count = DecodeBlock(b, buf);
      if (IntersectSorted(buf, count, other, n)) return true;
    }
    return false;
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
    std::memcpy(&count, data_.data() + skip_[b].data_offset + 1,
                sizeof(count));
    return count;
  }

  /// Decodes block `b` into `out` (capacity >= kMaxBlockEntries).
  /// Returns the entry count. Bounds-safe for any sealed pool: the
  /// count and width were validated at seal time and the readers
  /// cannot run past the data byte range.
  ///
  /// Deltas are fixed-width, so entry i's bits start at i * width: the
  /// hot loop decodes by independent unaligned 64-bit loads (no serial
  /// accumulator chain, the prefix sum is the only dependency), and only
  /// the last few entries of the *data array* — where an 8-byte load
  /// would run past the buffer — fall back to the byte-safe BitReader.
  size_t DecodeBlock(size_t b, uint32_t* out) const {
    const uint8_t* base =
        data_.data() + skip_[b].data_offset + kBlockHeaderBytes;
    const int width = base[-kBlockHeaderBytes];
    const size_t count =
        std::min<size_t>(BlockCount(b), kMaxBlockEntries);
    out[0] = skip_[b].first;
    const uint64_t mask = BitWriter::MaskOf(width);
    const int64_t safe_bytes = data_.data() + data_.size() - base;
    const int64_t max_start = safe_bytes * 8 - 64 + 7;
    uint64_t bit = 0;
    size_t i = 1;
    for (; i < count && static_cast<int64_t>(bit) <= max_start; ++i) {
      uint64_t chunk;
      std::memcpy(&chunk, base + (bit >> 3), sizeof(chunk));
      out[i] = out[i - 1] + 1 +
               static_cast<uint32_t>((chunk >> (bit & 7)) & mask);
      bit += width;
    }
    if (i < count) {
      const uint8_t* block_end = data_.data() + skip_[b + 1].data_offset;
      BitReader reader(base + (bit >> 3), block_end);
      reader.Get(static_cast<int>(bit & 7));  // skip the partial byte
      for (; i < count; ++i) {
        out[i] = out[i - 1] + 1 + reader.Get(width);
      }
    }
    return count;
  }

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

  void EncodeBlock(const uint32_t* values, size_t count) {
    uint32_t max_delta = 0;
    for (size_t i = 1; i < count; ++i) {
      max_delta = std::max(max_delta, values[i] - values[i - 1] - 1);
    }
    const int width = PackedBitWidth(max_delta);
    owned_skip_.push_back({values[0], values[count - 1],
                           static_cast<uint32_t>(owned_data_.size())});
    owned_data_.push_back(static_cast<uint8_t>(width));
    const uint16_t count16 = static_cast<uint16_t>(count);
    owned_data_.push_back(static_cast<uint8_t>(count16));
    owned_data_.push_back(static_cast<uint8_t>(count16 >> 8));
    BitWriter writer(&owned_data_);
    for (size_t i = 1; i < count; ++i) {
      writer.Put(values[i] - values[i - 1] - 1, width);
    }
    writer.Flush();
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

/// Block-compressed pool for the LCR 2-hop entries ({rank, label mask}
/// pairs sorted by rank, duplicate ranks forming *rank groups* with
/// distinct masks). Same skip-table design as `CompressedRankPool`, with
/// two structural differences: rank deltas may be zero (groups), and a
/// block never splits a rank group — the group sweeps of the labeled
/// intersection see every mask of a rank inside one decoded block, and
/// the equal-last block-merge advance stays sound.
///
/// Block payload: u8 rank bit-width, u8 mask bit-width, u16 count, then
/// `count - 1` packed rank deltas followed by `count` packed masks.
///
/// `Seal` can *refuse* (returns false) when a single rank group exceeds
/// the block cap — the caller keeps flat pools instead of failing
/// (FERRARI-style degradation).
template <typename Entry>
class CompressedEntryPool {
  static_assert(std::is_trivially_copyable_v<Entry>);

 public:
  static constexpr size_t kMinBlockEntries = 8;
  static constexpr size_t kMaxBlockEntries = 2048;
  static constexpr size_t kBlockHeaderBytes = 4;

  struct SkipEntry {
    uint32_t first;  // first rank in the block
    uint32_t last;   // last rank in the block
    uint32_t data_offset;
  };

  bool Seal(const std::vector<std::vector<Entry>>& per_vertex,
            size_t block_entries) {
    Clear();
    block_entries_ = std::clamp(block_entries, kMinBlockEntries,
                                kMaxBlockEntries);
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
               list[group_end].rank == list[pos].rank) {
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
    sealed_ = true;
    return true;
  }

  bool Sealed() const { return sealed_; }
  size_t NumVertices() const {
    return owned_vertex_blocks_.empty() ? 0
                                        : owned_vertex_blocks_.size() - 1;
  }
  size_t NumEntries() const { return static_cast<size_t>(num_entries_); }
  size_t BlockEntries() const { return block_entries_; }

  void Clear() {
    owned_vertex_blocks_.clear();
    owned_vertex_blocks_.shrink_to_fit();
    owned_skip_.clear();
    owned_skip_.shrink_to_fit();
    owned_data_.clear();
    owned_data_.shrink_to_fit();
    num_entries_ = 0;
    block_entries_ = kMinBlockEntries;
    sealed_ = false;
  }

  size_t MemoryBytes() const {
    return owned_vertex_blocks_.size() * sizeof(uint32_t) +
           owned_skip_.size() * sizeof(SkipEntry) + owned_data_.size();
  }

  bool Empty(VertexId v) const {
    return owned_vertex_blocks_[v] == owned_vertex_blocks_[v + 1];
  }

  /// Block-index range [begin, end) of vertex `v`.
  size_t BlockBegin(VertexId v) const { return owned_vertex_blocks_[v]; }
  size_t BlockEnd(VertexId v) const { return owned_vertex_blocks_[v + 1]; }
  const SkipEntry& Skip(size_t b) const { return owned_skip_[b]; }

  /// First block index in [lo, hi) with `last >= rank` (hi when none).
  size_t LowerBoundBlock(size_t lo, size_t hi, uint32_t rank) const {
    const SkipEntry* base = owned_skip_.data();
    return static_cast<size_t>(
        std::lower_bound(base + lo, base + hi, rank,
                         [](const SkipEntry& e, uint32_t r) {
                           return e.last < r;
                         }) -
        base);
  }

  size_t ListEntries(VertexId v) const {
    size_t total = 0;
    for (size_t b = BlockBegin(v); b < BlockEnd(v); ++b) {
      total += BlockCountOf(b);
    }
    return total;
  }

  /// Decodes block `b` into `out` (capacity >= kMaxBlockEntries).
  size_t DecodeBlock(size_t b, Entry* out) const {
    const uint8_t* p = owned_data_.data() + owned_skip_[b].data_offset;
    const uint8_t* block_end =
        owned_data_.data() + owned_skip_[b + 1].data_offset;
    const int rank_width = p[0];
    const int mask_width = p[1];
    const size_t count =
        std::min<size_t>(BlockCountOf(b), kMaxBlockEntries);
    BitReader reader(p + kBlockHeaderBytes, block_end);
    uint32_t rank = owned_skip_[b].first;
    out[0].rank = rank;
    for (size_t i = 1; i < count; ++i) {
      rank += reader.Get(rank_width);
      out[i].rank = rank;
    }
    for (size_t i = 0; i < count; ++i) {
      out[i].mask = reader.Get(mask_width);
    }
    return count;
  }

  void Decode(VertexId v, std::vector<Entry>* out) const {
    out->clear();
    Entry buf[kMaxBlockEntries];
    for (size_t b = BlockBegin(v); b < BlockEnd(v); ++b) {
      const size_t count = DecodeBlock(b, buf);
      out->insert(out->end(), buf, buf + count);
    }
  }

 private:
  uint16_t BlockCountOf(size_t b) const {
    uint16_t count;
    std::memcpy(&count,
                owned_data_.data() + owned_skip_[b].data_offset + 2,
                sizeof(count));
    return count;
  }

  void EncodeBlock(const Entry* entries, size_t count) {
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
    owned_skip_.push_back({entries[0].rank, entries[count - 1].rank,
                           static_cast<uint32_t>(owned_data_.size())});
    owned_data_.push_back(static_cast<uint8_t>(rank_width));
    owned_data_.push_back(static_cast<uint8_t>(mask_width));
    const uint16_t count16 = static_cast<uint16_t>(count);
    owned_data_.push_back(static_cast<uint8_t>(count16));
    owned_data_.push_back(static_cast<uint8_t>(count16 >> 8));
    BitWriter writer(&owned_data_);
    for (size_t i = 1; i < count; ++i) {
      writer.Put(entries[i].rank - entries[i - 1].rank, rank_width);
    }
    for (size_t i = 0; i < count; ++i) {
      writer.Put(static_cast<uint32_t>(entries[i].mask), mask_width);
    }
    writer.Flush();
  }

  std::vector<uint32_t> owned_vertex_blocks_;
  std::vector<SkipEntry> owned_skip_;
  std::vector<uint8_t> owned_data_;
  uint64_t num_entries_ = 0;
  size_t block_entries_ = kMinBlockEntries;
  bool sealed_ = false;
};

}  // namespace reach

#endif  // REACH_CORE_LABEL_POOL_H_
