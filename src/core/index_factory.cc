#include "core/index_factory.h"

#include <algorithm>
#include <charconv>
#include <span>

#include "core/fastpath_index.h"
#include "core/scc_condensing_index.h"
#include "lcr/gtc_index.h"
#include "lcr/landmark_index.h"
#include "lcr/lcr_bfs.h"
#include "lcr/pruned_labeled_two_hop.h"
#include "lcr/tree_lcr_index.h"
#include "plain/auto_index.h"
#include "plain/bfl.h"
#include "plain/chain_cover.h"
#include "plain/dagger.h"
#include "plain/dbl.h"
#include "plain/dual_labeling.h"
#include "plain/feline.h"
#include "plain/ferrari.h"
#include "plain/grail.h"
#include "plain/gripp.h"
#include "plain/ip_label.h"
#include "plain/oreach.h"
#include "plain/preach.h"
#include "plain/pruned_two_hop.h"
#include "plain/tree_cover.h"
#include "traversal/online_search.h"
#include "traversal/transitive_closure.h"

namespace reach {

namespace {

constexpr std::string_view kLcrPrefix = "lcr:";

// One `:key=n` knob a spec accepts.
struct Key {
  const char* name;
  size_t fallback;
  const char* doc;
};

// A row's key values, in the order of its `keys`, defaults filled in.
using Args = std::span<const size_t>;

// One spec: everything MakeIndex, DefaultIndexSpecs and DescribeIndexSpecs
// know about it.
struct Row {
  std::vector<std::string> names;  // spec name first, then aliases
  bool roster;                     // on the DefaultIndexSpecs roster
  const char* summary;
  std::vector<Key> keys;
  MadeIndex (*make)(Args);
};

constexpr bool kRoster = true;
constexpr bool kExtra = false;

// Sealed-label storage keys shared by the 2-hop families
// (docs/SNAPSHOTS.md), always a row's first four keys.
std::vector<Key> StorageKeys(size_t staleness) {
  return {{"compress", 0, "1 = block-compressed labels"},
          {"block", TwoHopStorageOptions{}.block_entries,
           "entries per compressed block"},
          {"budget_mb", 0, "label budget in MiB or 0 for none"},
          {"staleness", staleness,
           "damaging deletes that force a rebuild or 0 for no cap"}};
}

TwoHopStorageOptions Storage(Args a) {
  return {.compress = a[0] != 0, .block_entries = a[1], .budget_mb = a[2]};
}

// Accepted on every plain row: the O(1) observation-stack fast path
// (core/fastpath_index.h) that MakeIndex layers in front of the index.
std::vector<Key> FastPathKeys() {
  const ObservationStack::Options stack;
  return {{"fastpath", 0, "1 = observation-stack fast path"},
          {"supports", stack.num_supports, "supportive vertices"},
          {"anti", stack.num_anti, "anti vertices"}};
}

template <typename Index, typename... A>
MadeIndex New(A&&... args) {
  MadeIndex made;
  if constexpr (std::is_base_of_v<LcrIndex, Index>) {
    made.lcr = std::make_unique<Index>(std::forward<A>(args)...);
  } else {
    made.plain = std::make_unique<Index>(std::forward<A>(args)...);
  }
  return made;
}

// A DAG-only technique behind SccCondensingIndex; one with a knob takes
// the row's first key.
template <typename DagIndex>
MadeIndex Condensed(Args a) {
  if constexpr (std::is_constructible_v<DagIndex, size_t>) {
    return New<SccCondensingIndex>(std::make_unique<DagIndex>(a[0]));
  } else {
    return New<SccCondensingIndex>(std::make_unique<DagIndex>());
  }
}

template <VertexOrder kOrder>
MadeIndex TwoHop(Args a) {
  return New<PrunedTwoHop>(kOrder, 0x70'6c'6cULL, Storage(a), a[3]);
}

const std::vector<Row>& Table() {
  static const std::vector<Row> rows = {
      {{"bfs"}, kRoster, "online breadth-first search (no index)", {},
       [](Args) { return New<OnlineSearch>(TraversalKind::kBfs); }},
      {{"dfs"}, kRoster, "online depth-first search (no index)", {},
       [](Args) { return New<OnlineSearch>(TraversalKind::kDfs); }},
      {{"bibfs"}, kRoster, "online bidirectional BFS (no index)", {},
       [](Args) { return New<OnlineSearch>(TraversalKind::kBiBfs); }},
      {{"tc"}, kRoster, "full transitive closure bitmap", {},
       [](Args) { return New<TransitiveClosure>(); }},
      {{"treecover"}, kRoster, "Agrawal et al. optimal tree cover", {},
       Condensed<TreeCover>},
      {{"dual"}, kRoster, "dual labeling (tree + non-tree t-links)", {},
       Condensed<DualLabeling>},
      {{"chaincover"}, kRoster, "chain cover (Jagadish)", {},
       Condensed<ChainCover>},
      {{"gripp"}, kRoster, "GRIPP interval traversal", {},
       [](Args) { return New<Gripp>(); }},
      {{"grail"}, kRoster, "GRAIL randomized intervals",
       {{"k", 3, "interval labelings"}}, Condensed<Grail>},
      {{"ferrari"}, kRoster, "FERRARI adaptive exact/approximate intervals",
       {{"k", 4, "intervals per vertex"}}, Condensed<Ferrari>},
      {{"pll"}, kRoster, "pruned 2-hop labeling, degree order",
       StorageKeys(PrunedTwoHop::kDefaultStalenessBudget),
       TwoHop<VertexOrder::kDegree>},
      {{"tfl"}, kRoster, "pruned 2-hop labeling, topological order",
       StorageKeys(PrunedTwoHop::kDefaultStalenessBudget),
       TwoHop<VertexOrder::kTopological>},
      {{"tol-random"}, kRoster, "pruned 2-hop labeling, random order",
       StorageKeys(PrunedTwoHop::kDefaultStalenessBudget),
       TwoHop<VertexOrder::kRandom>},
      {{"tol-revdeg"}, kExtra, "pruned 2-hop labeling, reverse-degree order",
       StorageKeys(PrunedTwoHop::kDefaultStalenessBudget),
       TwoHop<VertexOrder::kReverseDegree>},
      {{"dbl"}, kRoster, "dual Bloom labels", {},
       [](Args) { return New<Dbl>(); }},
      {{"dagger"}, kRoster, "dynamic DAGGER intervals",
       {{"k", 3, "interval labelings"},
        {"staleness", Dagger::kDefaultStalenessBudget,
         "damaging deletes before a rebuild"}},
       [](Args a) { return New<Dagger>(a[0], 0x64'61'67ULL, a[1]); }},
      {{"oreach"}, kRoster,
       "O'Reach observation stack + guided bidirectional BFS",
       {{"k", 32, "supportive vertices"}}, Condensed<OReach>},
      {{"ip"}, kRoster, "IP independent-permutation labels",
       {{"k", 4, "label entries per side"}}, Condensed<IpLabel>},
      {{"bfl"}, kRoster, "Bloom-filter labeling",
       {{"bits", 256, "Bloom-filter width"}}, Condensed<Bfl>},
      {{"feline"}, kRoster, "FELINE planar-dominance coordinates", {},
       Condensed<Feline>},
      {{"preach"}, kRoster, "PReaCH pruned contraction-hierarchy search", {},
       Condensed<Preach>},
      {{"auto"}, kExtra, "Table 1 advisor: picks a technique per graph", {},
       [](Args) { return New<AutoIndex>(); }},
      {{"lcr:bfs", "lcr:lcr-bfs"}, kRoster,
       "label-constrained online BFS baseline", {},
       [](Args) { return New<LcrOnlineBfs>(); }},
      {{"lcr:gtc"}, kRoster, "generalized transitive closure", {},
       [](Args) { return New<GtcIndex>(); }},
      {{"lcr:tree", "lcr:jin-tree"}, kRoster,
       "tree-based LCR index (Jin et al.)", {},
       [](Args) { return New<TreeLcrIndex>(); }},
      {{"lcr:landmark"}, kRoster, "landmark index",
       {{"k", 16, "landmarks"}, {"b", 2, "budget"}},
       [](Args a) { return New<LandmarkIndex>(a[0], a[1]); }},
      {{"lcr:pll", "lcr:p2h"}, kRoster, "label-constrained pruned 2-hop (P2H+)",
       StorageKeys(PrunedLabeledTwoHop::kDefaultStalenessBudget),
       [](Args a) { return New<PrunedLabeledTwoHop>(Storage(a), a[3]); }},
  };
  return rows;
}

bool InFamily(const Row& row, IndexFamily family) {
  return row.names[0].starts_with(kLcrPrefix) == (family == IndexFamily::kLcr);
}

bool Declares(const std::vector<Key>& keys, const std::string& name) {
  return std::ranges::any_of(keys,
                             [&](const Key& key) { return name == key.name; });
}

// `keys`' values in `spec`, defaults filled in.
std::vector<size_t> Resolve(const std::vector<Key>& keys,
                            const IndexSpec& spec) {
  std::vector<size_t> values;
  for (const Key& key : keys) {
    values.push_back(spec.Param(key.name, key.fallback));
  }
  return values;
}

// "k=<n> interval labelings (3), ..." for --help.
std::string KeyDocs(const std::vector<Key>& keys) {
  std::string out;
  for (const Key& key : keys) {
    if (!out.empty()) out += ", ";
    out += std::string(key.name) + "=<n> " + key.doc + " (" +
           std::to_string(key.fallback) + ")";
  }
  return out;
}

}  // namespace

IndexSpec::IndexSpec(std::string spec_text) : text(std::move(spec_text)) {
  std::string_view rest = text;
  labeled = rest.starts_with(kLcrPrefix);
  if (labeled) rest.remove_prefix(kLcrPrefix.size());
  base = rest.substr(0, rest.find(':'));
  rest.remove_prefix(base.size());
  while (!rest.empty() && error.empty()) {
    rest.remove_prefix(1);  // the ':'
    const std::string_view part = rest.substr(0, rest.find(':'));
    rest.remove_prefix(part.size());
    const size_t eq = std::min(part.find('='), part.size());
    const std::string key(part.substr(0, eq));
    const std::string_view digits = part.substr(std::min(eq + 1, part.size()));
    const char* last = digits.data() + digits.size();
    size_t value = 0;
    const auto [end, ec] = std::from_chars(digits.data(), last, value);
    if (eq == part.size()) {
      error = "parameter '" + key + "' has no '=<n>'";
    } else if (ec != std::errc() || end != last) {
      error = "parameter '" + key + "' wants a non-negative integer, got '" +
              std::string(digits) + "'";
    } else if (!params.emplace(key, value).second) {
      error = "parameter '" + key + "' given twice";
    }
  }
}

size_t IndexSpec::Param(const std::string& key, size_t fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

MadeIndex MakeIndex(const IndexSpec& spec) {
  const std::string name =
      std::string(spec.labeled ? kLcrPrefix : "") + spec.base;
  const auto row = std::ranges::find_if(
      Table(), [&](const Row& r) { return std::ranges::count(r.names, name); });
  MadeIndex made;
  made.error = spec.error;
  if (made.error.empty() && row == Table().end()) {
    made.error = "unknown index '" + name + "'";
  }
  for (const auto& [key, value] : spec.params) {
    if (made.error.empty() && !Declares(row->keys, key) &&
        (spec.labeled || !Declares(FastPathKeys(), key))) {
      made.error = "unknown parameter '" + key + "' for '" + name + "'";
    }
  }
  if (!made.error.empty()) {
    made.error = "index spec '" + spec.text + "': " + made.error;
    return made;
  }
  made = row->make(Resolve(row->keys, spec));
  if (made.lcr != nullptr) {
    // PrunedLabeledTwoHop is the one LCR technique with incremental
    // ApplyUpdate (the DLCR row of Table 2); it absorbs deletes too.
    const auto* p2h = dynamic_cast<PrunedLabeledTwoHop*>(made.lcr.get());
    made.caps = {.labeled = true,
                 .dynamic = p2h != nullptr,
                 .decremental = p2h != nullptr && p2h->SupportsDeletions(),
                 .complete = made.lcr->IsComplete(),
                 .serializable = made.lcr->SupportsSerialization()};
    return made;
  }
  const auto* dyn = dynamic_cast<DynamicReachabilityIndex*>(made.plain.get());
  made.caps = {.dynamic = dyn != nullptr,
               .decremental = dyn != nullptr && dyn->SupportsDeletions(),
               .complete = made.plain->IsComplete(),
               .serializable = made.plain->SupportsSerialization()};
  const std::vector<size_t> fast = Resolve(FastPathKeys(), spec);
  if (fast[0] != 0) {
    ObservationStack::Options options;
    options.num_supports = fast[1];
    options.num_anti = fast[2];
    // The dynamic instantiation keeps `ApplyUpdate` (and thereby
    // `caps.dynamic` / `caps.decremental`) reachable through the
    // wrapper; `complete` follows the inner index; serialization is
    // dropped — the observation stack is rebuilt from the graph, never
    // persisted.
    if (made.caps.dynamic) {
      made.plain = std::make_unique<DynamicFastPathIndex>(
          std::move(made.plain), options);
    } else {
      made.plain =
          std::make_unique<FastPathIndex>(std::move(made.plain), options);
    }
    made.caps.serializable = false;
  }
  return made;
}

std::vector<std::string> DefaultIndexSpecs(IndexFamily family) {
  std::vector<std::string> specs;
  for (const Row& row : Table()) {
    if (row.roster && InFamily(row, family)) specs.push_back(row.names[0]);
  }
  return specs;
}

std::vector<SpecDoc> DescribeIndexSpecs(IndexFamily family) {
  std::vector<SpecDoc> docs;
  for (const Row& row : Table()) {
    if (!InFamily(row, family)) continue;
    const IndexCaps caps = MakeIndex(row.names[0]).caps;
    docs.push_back({row.names[0], KeyDocs(row.keys), row.summary,
                    caps.decremental ? "dynamic (insert+delete)"
                    : caps.dynamic   ? "dynamic (insert-only)"
                                     : "static"});
  }
  if (family == IndexFamily::kPlain) {
    docs.push_back({"<any>:fastpath=1", KeyDocs(FastPathKeys()),
                    "wrap any plain spec in the O(1) observation-stack fast "
                    "path",
                    "follows the wrapped spec"});
  }
  return docs;
}

}  // namespace reach
