#ifndef REACH_CORE_INDEX_FACTORY_H_
#define REACH_CORE_INDEX_FACTORY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/reachability_index.h"
#include "lcr/lcr_index.h"

namespace reach {

/// A parsed index specification. Constructible implicitly from a string,
/// so every call site can keep writing `MakeIndex("grail:k=5")`.
///
/// Grammar: `["lcr:"] base [":" key "=" n]...`, n a non-negative decimal
///   * "pll"                — plain 2-hop under the degree order
///   * "grail:k=5"          — GRAIL with five interval labelings
///   * "lcr:pll"            — labeled-constrained P2H+
///   * "lcr:landmark:k=8:b=2"
/// The text is parsed once, here; which bases and keys exist is
/// `MakeIndex`'s business.
struct IndexSpec {
  IndexSpec(std::string spec_text);  // NOLINT(google-explicit-constructor)
  IndexSpec(const char* spec_text)   // NOLINT(google-explicit-constructor)
      : IndexSpec(std::string(spec_text)) {}

  /// The full original text, e.g. "lcr:landmark:k=8:b=2".
  std::string text;
  /// True when the spec carries the "lcr:" family prefix.
  bool labeled = false;
  /// Technique name with the family prefix and parameters stripped,
  /// e.g. "landmark".
  std::string base;
  /// The `:key=n` pairs, e.g. {{"b", 2}, {"k", 8}}.
  std::map<std::string, size_t> params;
  /// Why the parameter tail does not parse (a part without `=`, a value
  /// that is not a non-negative integer, a repeated key); empty when it
  /// does. Parsing stops at the first bad part.
  std::string error;

  /// `params[key]`, or `fallback` when `key` is absent.
  size_t Param(const std::string& key, size_t fallback) const;
};

/// What a constructed index can do — the factory's rendering of the
/// survey's Table 1 / Table 2 columns, so callers can branch on
/// capabilities instead of string-matching spec names.
struct IndexCaps {
  /// Answers label-constrained queries (`MadeIndex::lcr` is set).
  bool labeled = false;
  /// Supports incremental `ApplyUpdate` (at least inserts) after `Build`.
  bool dynamic = false;
  /// `ApplyUpdate` additionally accepts `kDelete` updates — the index is
  /// fully dynamic in the Table 1 sense, not insert-only.
  bool decremental = false;
  /// Answers from the index alone — never falls back to traversal.
  /// (For "auto" this is unknown until `Build` picks a technique.)
  bool complete = false;
  /// Supports the versioned `Save`/`Load` envelope (core/serialize.h).
  bool serializable = false;
};

/// The result of `MakeIndex`: exactly one of `plain` / `lcr` is set (per
/// `caps.labeled`), or neither and `error` says why.
struct MadeIndex {
  std::unique_ptr<ReachabilityIndex> plain;
  std::unique_ptr<LcrIndex> lcr;
  IndexCaps caps;
  /// Names the offending part of a rejected spec, e.g. "index spec
  /// 'pll:compres=1': unknown parameter 'compres' for 'pll'".
  std::string error;

  explicit operator bool() const { return plain != nullptr || lcr != nullptr; }
};

/// The single index-construction entry point: creates a ready-to-Build
/// index from a spec and reports its capabilities. DAG-only plain
/// techniques come pre-wrapped in `SccCondensingIndex`, so every returned
/// index accepts general digraphs — mirroring how the survey's Table 1
/// normalizes the Input column. `DescribeIndexSpecs` lists the specs and
/// their keys; the LCR names "lcr:lcr-bfs", "lcr:jin-tree" and "lcr:p2h"
/// are accepted as aliases.
///
/// Every plain spec additionally accepts
/// `:fastpath=1[:supports=<n>][:anti=<n>]`, which layers the O(1)
/// observation-stack fast path (core/fastpath_index.h, docs/FASTPATH.md)
/// in front of the constructed index. Capability propagation: `complete`
/// and `dynamic` follow the wrapped index, `serializable` becomes false.
///
/// Builds nothing and sets `error` for a spec that does not parse, an
/// unknown base, or a key the base does not accept (`:fastpath` on an
/// "lcr:" spec included).
MadeIndex MakeIndex(const IndexSpec& spec);

enum class IndexFamily { kPlain, kLcr };

/// The default benchmark/conformance roster for a family: one spec per
/// implemented Table 1 / Table 2 row plus the online baselines.
std::vector<std::string> DefaultIndexSpecs(IndexFamily family);

/// One roster entry's documentation line: the spec name, the keys it
/// accepts with their defaults (empty when the technique takes none), and
/// a one-line summary. Used by `reach_cli --help` so the printed roster
/// documents every accepted `:key=value` knob.
struct SpecDoc {
  std::string spec;
  std::string params;
  std::string summary;
  /// Write capability from the `IndexCaps` that `MakeIndex` reports:
  /// "static", "dynamic (insert-only)", or "dynamic (insert+delete)".
  std::string caps;
};

/// Documentation for every spec `MakeIndex` accepts in `family`, in
/// `DefaultIndexSpecs` order (plus specs, like "auto" and "tol-revdeg",
/// that are constructible but not on the default roster).
std::vector<SpecDoc> DescribeIndexSpecs(IndexFamily family);

}  // namespace reach

#endif  // REACH_CORE_INDEX_FACTORY_H_
