#ifndef REACH_CORE_SERIALIZE_H_
#define REACH_CORE_SERIALIZE_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace reach {

/// Versioned serialization envelope shared by every index `Save`/`Load`
/// (the persistence piece of the §5 "integration into GDBMSs" challenge).
///
/// Layout, little-endian, preceding the index-specific payload:
///
///   u32 magic    kEnvelopeMagic ("RCHX")
///   u32 version  kEnvelopeVersion
///   u32 len      length of the format name
///   u8[len]      format name, e.g. "pll" or "p2h"
///
/// The payload bytes that follow are exactly what the unversioned
/// pre-envelope formats wrote, so golden layouts (and the saved bytes'
/// independence of the thread count, docs/PARALLELISM.md) still hold.
/// A mismatched magic, version, or format name is reported as a typed
/// `LoadStatus` instead of being misread as payload.
inline constexpr uint32_t kEnvelopeMagic = 0x52434858u;  // "RCHX"
inline constexpr uint32_t kEnvelopeVersion = 1;

/// Why a `Load` failed (or didn't).
enum class LoadStatus {
  kOk,
  /// The stream does not start with the envelope magic — not a reach
  /// index stream at all (or one saved before the envelope existed).
  kBadMagic,
  /// Envelope present but written by an incompatible format revision.
  kBadVersion,
  /// Envelope present but for a different index technique (e.g. a "p2h"
  /// stream handed to a "pll" index).
  kWrongIndex,
  /// Envelope valid but the payload is truncated or malformed.
  kCorrupt,
  /// The index type has no serialization capability.
  kUnsupported,
};

/// Human-readable description of `status` (stable, for error messages).
const char* LoadStatusMessage(LoadStatus status);

/// Outcome of a `Load`: tests `true` iff the index was restored. On
/// failure `detail` carries the offending value (observed name or
/// version) or — for corrupt payloads — the failing section and byte
/// offset, when one is available.
struct LoadResult {
  LoadStatus status = LoadStatus::kOk;
  std::string detail;

  explicit operator bool() const { return status == LoadStatus::kOk; }
};

/// Full one-line failure description: the status message plus the
/// result's detail (failing section / byte offset / observed value).
std::string LoadStatusMessage(const LoadResult& result);

/// A `kCorrupt` result pinned to a payload location, e.g.
/// `CorruptAt("rank table", 24)` -> detail "rank table at byte 24".
LoadResult CorruptAt(std::string_view section, uint64_t offset);

/// Writes the envelope for `format_name`. `version` is overridable only
/// so tests can produce version-mismatch streams.
bool WriteEnvelope(std::ostream& out, std::string_view format_name,
                   uint32_t version = kEnvelopeVersion);

/// Consumes and validates an envelope, expecting `expected_format_name`.
/// On any failure the stream position is unspecified and the returned
/// status says which check failed first (magic, then version, then name).
LoadResult ReadEnvelope(std::istream& in,
                        std::string_view expected_format_name);

/// --- RCHX v2 snapshot files (docs/SNAPSHOTS.md) -------------------------
///
/// The v1 envelope above frames *streams*: payload bytes are decoded
/// element by element into freshly allocated structures. Snapshot files
/// are the zero-copy alternative: the same magic, version 2, followed by
/// an aligned-section table, with every payload section written
/// page-aligned so `Load` can mmap the file and point sealed
/// `FlatLabelPool` views directly at the mapping — no copy, no reseal.
///
/// Layout, little-endian:
///
///   u32 magic          kEnvelopeMagic ("RCHX")
///   u32 version        kSnapshotVersion (2)
///   u32 len            length of the format name
///   u8[len]            format name, e.g. "pll"
///   u32 section_count
///   (zero pad to 8-byte boundary)
///   SnapshotSectionRecord[section_count]
///   (zero pad; payloads at their recorded page-aligned offsets)
///
/// Section kinds are format-private integers; the table is validated —
/// alignment, bounds, duplicates — before any payload byte is touched.
/// A v2 file handed to a v1 stream `Load` fails closed as kBadVersion.
inline constexpr uint32_t kSnapshotVersion = 2;
inline constexpr uint64_t kSnapshotPageAlign = 4096;
inline constexpr uint32_t kMaxSnapshotSections = 64;

struct SnapshotSectionRecord {
  uint64_t offset;  // absolute file offset, multiple of `align`
  uint64_t size;    // payload bytes (padding excluded)
  uint32_t kind;    // format-private section id, unique per file
  uint32_t align;   // power of two; kSnapshotPageAlign as written
};
static_assert(sizeof(SnapshotSectionRecord) == 24);

/// Accumulates sections, then writes the whole snapshot file. Section
/// payload pointers must stay valid until `WriteTo` returns.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(std::string format_name)
      : name_(std::move(format_name)) {}

  void AddSection(uint32_t kind, const void* data, uint64_t size);

  bool WriteTo(std::ostream& out) const;

 private:
  struct PendingSection {
    uint32_t kind;
    const void* data;
    uint64_t size;
  };
  std::string name_;
  std::vector<PendingSection> sections_;
};

/// Validated view over snapshot-file bytes (typically a `MappedFile`
/// mapping). `Parse` checks the header and the entire section table —
/// misaligned or out-of-bounds tables are rejected before any payload
/// byte is read; failures carry the section kind and byte offset in
/// `LoadResult::detail`.
class SnapshotView {
 public:
  LoadResult Parse(const uint8_t* data, size_t size,
                   std::string_view expected_format_name);

  bool Has(uint32_t kind) const;
  /// Payload bytes of section `kind` (empty span when absent).
  std::span<const uint8_t> Section(uint32_t kind) const;
  /// Typed view of a section; empty when absent or when the byte size is
  /// not a multiple of sizeof(T) (the caller sees a size mismatch, never
  /// a partial element).
  template <typename T>
  std::span<const T> TypedSection(uint32_t kind) const {
    const std::span<const uint8_t> raw = Section(kind);
    if (raw.empty() || raw.size() % sizeof(T) != 0) return {};
    return {reinterpret_cast<const T*>(raw.data()), raw.size() / sizeof(T)};
  }

 private:
  const uint8_t* base_ = nullptr;
  std::vector<SnapshotSectionRecord> table_;
};

/// Crash-safe file replacement: streams `write` into `path + ".tmp"`,
/// flushes and fsyncs the temp file, atomically renames it over `path`,
/// then fsyncs the parent directory. A crash (or injected failure) at any
/// point leaves `path` either untouched or fully replaced — readers can
/// never observe a torn file, which is what lets the validated snapshot
/// reader trust whatever it mmaps (docs/ROBUSTNESS.md). On failure the
/// temp file is removed best-effort and `path` keeps its old bytes.
/// Non-POSIX builds fall back to plain rename (atomicity best-effort).
bool WriteFileAtomic(const std::string& path,
                     const std::function<bool(std::ostream&)>& write,
                     std::string* error = nullptr);

namespace serialize_detail {

/// POD + u32-vector stream helpers shared by the index payload codecs.
/// The byte layout (u64 count + raw element bytes) predates the envelope
/// and must not change.
void WriteBytes(std::ostream& out, const void* data, size_t bytes);
bool ReadBytes(std::istream& in, void* data, size_t bytes);

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  WriteBytes(out, &value, sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  return ReadBytes(in, value, sizeof(T));
}

void WriteU32Vec(std::ostream& out, const std::vector<uint32_t>& v);
/// Reads a vector written by `WriteU32Vec`; fails (returns false) when
/// the recorded size exceeds `max_size`, so corrupted streams cannot
/// trigger huge allocations.
bool ReadU32Vec(std::istream& in, std::vector<uint32_t>* v,
                uint64_t max_size);

}  // namespace serialize_detail

}  // namespace reach

#endif  // REACH_CORE_SERIALIZE_H_
