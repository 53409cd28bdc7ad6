#include "plain/dbl.h"

#include <algorithm>
#include <numeric>

#include "graph/condensation.h"
#include "graph/rng.h"
#include "traversal/guided_search.h"

namespace reach {

namespace {
constexpr size_t kNumLandmarks = 64;
}  // namespace

void Dbl::Build(const Digraph& graph) {
  BuildStatsScope build(&build_stats_);
  BuildPhaseTimer timer(&build_stats_.phases, "label_fixpoint");
  ResetProbe();
  overlay_.Reset(&graph);
  const size_t n = graph.NumVertices();

  // Landmarks: the 64 highest-degree vertices. seed_[d] = vertex.
  std::vector<VertexId> by_degree(n);
  std::iota(by_degree.begin(), by_degree.end(), 0);
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&](VertexId a, VertexId b) {
                     return graph.Degree(a) > graph.Degree(b);
                   });
  const size_t num_landmarks = std::min(kNumLandmarks, n);

  // Seed labels. DL: a landmark's own bit. BL: every vertex's hash bit.
  dl_out_.assign(n, 0);
  dl_in_.assign(n, 0);
  hash_bit_.assign(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    hash_bit_[v] = uint64_t{1} << (Mix64(v ^ seed_) & 63);
  }
  bl_out_ = hash_bit_;
  bl_in_ = hash_bit_;
  for (size_t d = 0; d < num_landmarks; ++d) {
    dl_out_[by_degree[d]] |= uint64_t{1} << d;
    dl_in_[by_degree[d]] |= uint64_t{1} << d;
  }

  // Propagate to a fixpoint over the condensation: members of an SCC share
  // labels; DAG vertices union their successors (out) / predecessors (in).
  Condensation cond = Condense(graph);
  const VertexId num_components = cond.scc.num_components;
  std::vector<uint64_t> comp_dl_out(num_components, 0);
  std::vector<uint64_t> comp_dl_in(num_components, 0);
  std::vector<uint64_t> comp_bl_out(num_components, 0);
  std::vector<uint64_t> comp_bl_in(num_components, 0);
  for (VertexId v = 0; v < n; ++v) {
    const VertexId c = cond.DagVertex(v);
    comp_dl_out[c] |= dl_out_[v];
    comp_dl_in[c] |= dl_in_[v];
    comp_bl_out[c] |= bl_out_[v];
    comp_bl_in[c] |= bl_in_[v];
  }
  // Tarjan ids are reverse topological: ascending order sees successors
  // first (for out-labels); descending sees predecessors first (for in).
  for (VertexId c = 0; c < num_components; ++c) {
    for (VertexId succ : cond.dag.OutNeighbors(c)) {
      comp_dl_out[c] |= comp_dl_out[succ];
      comp_bl_out[c] |= comp_bl_out[succ];
    }
  }
  for (VertexId c = num_components; c-- > 0;) {
    for (VertexId pred : cond.dag.InNeighbors(c)) {
      comp_dl_in[c] |= comp_dl_in[pred];
      comp_bl_in[c] |= comp_bl_in[pred];
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    const VertexId c = cond.DagVertex(v);
    dl_out_[v] = comp_dl_out[c];
    dl_in_[v] = comp_dl_in[c];
    bl_out_[v] = comp_bl_out[c];
    bl_in_[v] = comp_bl_in[c];
  }
  build_stats_.size_bytes = IndexSizeBytes();
}

int Dbl::FilterVerdict(VertexId s, VertexId t) const {
  if (s == t) return 1;
  if ((dl_out_[s] & dl_in_[t]) != 0) return 1;  // common landmark
  // Contra-positive containment (§3.3): s -> t requires
  // BlOut(t) ⊆ BlOut(s) and BlIn(s) ⊆ BlIn(t).
  if ((bl_out_[t] & ~bl_out_[s]) != 0) return -1;
  if ((bl_in_[s] & ~bl_in_[t]) != 0) return -1;
  return 0;
}

bool Dbl::QueryInSlot(VertexId s, VertexId t, size_t slot) const {
  SearchWorkspace& ws = Workspace(slot);
  const auto to_t = [&](VertexId v) { return FilterVerdict(v, t); };
  return GuidedQuery(s, t, ws, overlay_.NumVertices(), to_t, [&] {
    return GuidedBiBfs(s, t, ws, overlay_.SupersetOut(),
                       overlay_.SupersetIn(), to_t,
                       [&](VertexId v) { return FilterVerdict(s, v); });
  });
}

UpdateResult Dbl::ApplyUpdate(const UpdateBatch& batch) {
  // DBL is insertion-only (class comment), so a batch with any delete is
  // rejected whole.
  return ApplyUpdateBatch(
      batch, overlay_.base(),
      [](const EdgeUpdate& update) {
        return update.IsDelete() ? "dbl is insertion-only (Table 1)"
                                 : nullptr;
      },
      [this](const EdgeUpdate& update) {
        return ApplyInsert(update.source, update.target);
      },
      /*damage=*/0, /*budget=*/0);
}

bool Dbl::ApplyInsert(VertexId s, VertexId t) {
  if (s == t || overlay_.Insert(s, t) == ArcInsert::kNoOp) return false;

  // Monotone worklist propagation: out-labels of everything reaching s
  // gain t's out-labels; in-labels of everything t reaches gain s's
  // in-labels. A vertex re-enters the worklist whenever it gains bits, so
  // cascaded gains (e.g., through cycles the new edge closes) propagate
  // fully; termination is guaranteed because each re-entry strictly adds
  // bits to a 128-bit budget per vertex.
  std::vector<VertexId> queue;
  if ((dl_out_[t] & ~dl_out_[s]) != 0 || (bl_out_[t] & ~bl_out_[s]) != 0) {
    dl_out_[s] |= dl_out_[t];
    bl_out_[s] |= bl_out_[t];
    queue.push_back(s);
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const VertexId v = queue[head];
    overlay_.SupersetIn()(v, [&](VertexId w) {
      const uint64_t new_dl = dl_out_[w] | dl_out_[v];
      const uint64_t new_bl = bl_out_[w] | bl_out_[v];
      if (new_dl == dl_out_[w] && new_bl == bl_out_[w]) return false;
      dl_out_[w] = new_dl;
      bl_out_[w] = new_bl;
      queue.push_back(w);
      return false;
    });
  }
  queue.clear();
  if ((dl_in_[s] & ~dl_in_[t]) != 0 || (bl_in_[s] & ~bl_in_[t]) != 0) {
    dl_in_[t] |= dl_in_[s];
    bl_in_[t] |= bl_in_[s];
    queue.push_back(t);
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const VertexId v = queue[head];
    overlay_.SupersetOut()(v, [&](VertexId w) {
      const uint64_t new_dl = dl_in_[w] | dl_in_[v];
      const uint64_t new_bl = bl_in_[w] | bl_in_[v];
      if (new_dl == dl_in_[w] && new_bl == bl_in_[w]) return false;
      dl_in_[w] = new_dl;
      bl_in_[w] = new_bl;
      queue.push_back(w);
      return false;
    });
  }
  return true;
}

size_t Dbl::IndexSizeBytes() const {
  return (dl_out_.size() + dl_in_.size() + bl_out_.size() + bl_in_.size() +
          hash_bit_.size()) *
         sizeof(uint64_t);
}

}  // namespace reach
