#ifndef REACH_TRAVERSAL_GUIDED_SEARCH_H_
#define REACH_TRAVERSAL_GUIDED_SEARCH_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "core/search_workspace.h"
#include "graph/digraph.h"
#include "graph/types.h"
#include "obs/query_probe.h"

namespace reach {

/// The one index-guided traversal of the survey's partial indexes
/// (Table 1, Type = partial): a label filter answers yes, no or maybe,
/// and a maybe falls back to a search that re-asks the filter about every
/// vertex it discovers (GRAIL, FERRARI, BFL, Feline, IP and DAGGER
/// through `GuidedDfs`, GRIPP through its breadth-first twin `GuidedBfs`,
/// O'Reach, PReaCH and DBL through `GuidedBiBfs`).
///
/// Verdicts are three-way with the sign convention of
/// `ObservationStack::Verdict`: +1 reachable, -1 unreachable, 0 maybe.
/// A decided verdict must be exact. A positive one ends the search; a
/// negative one prunes the vertex (counted as a `filter_prunes`); only
/// maybes join the frontier. Every discovered vertex is marked before its
/// verdict is asked, so no filter runs twice on one vertex per search.
///
/// Neighbours come from a callable `for_each(v, visit)` that calls
/// `visit(w)` for each neighbour w of v, stops as soon as `visit` returns
/// true, and returns whether it stopped; `OutArcs` / `InArcs` adapt a
/// `Digraph`, and the dynamic indexes pass their overlay adjacency.
///
/// The kernels record `vertices_visited` (vertices expanded),
/// `edges_scanned` and `filter_prunes` into `ws.probe()`; the label
/// filters record their own `labels_scanned`. `ws` must be `Prepare`d for
/// the graph's vertex count before each search.

/// `for_each_out` over a `Digraph`.
inline auto OutArcs(const Digraph& graph) {
  return [&graph](VertexId v, auto&& visit) {
    for (VertexId w : graph.OutNeighbors(v)) {
      if (visit(w)) return true;
    }
    return false;
  };
}

/// `for_each_in` over a `Digraph`.
inline auto InArcs(const Digraph& graph) {
  return [&graph](VertexId v, auto&& visit) {
    for (VertexId w : graph.InNeighbors(v)) {
      if (visit(w)) return true;
    }
    return false;
  };
}

/// `max_visits` of a search that may expand the whole graph.
inline constexpr size_t kUnboundedVisits = std::numeric_limits<size_t>::max();

namespace guided_search_internal {

// Traversal counts of one search, kept in locals so the hot loops do not
// store to the probe per edge; `AddTo` folds them in once at the end.
struct Counts {
  size_t visits = 0;
  size_t edges = 0;
  size_t prunes = 0;

  void AddTo([[maybe_unused]] QueryProbe& probe) const {
    REACH_PROBE_ADD(probe, vertices_visited, visits);
    REACH_PROBE_ADD(probe, edges_scanned, edges);
    REACH_PROBE_ADD(probe, filter_prunes, prunes);
  }
};

// Scans w, a neighbour just reached on one side: true when the search
// ends positively; otherwise w is marked and queued (maybe) or pruned.
template <bool kForward, typename Verdict>
bool Discover(VertexId w, SearchWorkspace& ws, std::vector<VertexId>& queue,
              Verdict& verdict, Counts& counts) {
  ++counts.edges;
  if (!(kForward ? ws.MarkForward(w) : ws.MarkBackward(w))) return false;
  const int wv = verdict(w);
  if (wv > 0) return true;
  if (wv < 0) {
    ++counts.prunes;
  } else {
    queue.push_back(w);
  }
  return false;
}

// Expands one full level of the forward (kForward) or backward frontier
// held in `frontier[head..]`. True when it meets the other side or a
// verdict settles the query positively.
template <bool kForward, typename ForEach, typename Verdict>
bool ExpandLevel(SearchWorkspace& ws, std::vector<VertexId>& frontier,
                 size_t& head, ForEach& for_each, Verdict& verdict,
                 Counts& counts) {
  const size_t level_end = frontier.size();
  for (; head < level_end; ++head) {
    ++counts.visits;
    const bool met = for_each(frontier[head], [&](VertexId w) {
      if (kForward ? ws.IsBackwardMarked(w) : ws.IsForwardMarked(w)) {
        ++counts.edges;
        return true;
      }
      return Discover<kForward>(w, ws, frontier, verdict, counts);
    });
    if (met) return true;
  }
  return false;
}

}  // namespace guided_search_internal

namespace guided_search_internal {

// One-directional search from s for t, depth-first (a stack) or
// breadth-first (a FIFO over the same vector).
template <bool kFifo, typename ForEachOut, typename Verdict>
int Search(VertexId s, VertexId t, SearchWorkspace& ws,
           ForEachOut& for_each_out, Verdict& verdict, size_t max_visits) {
  if (s == t) return 1;
  Counts counts;
  std::vector<VertexId>& frontier = ws.queue();
  ws.MarkForward(s);
  frontier.push_back(s);
  size_t head = 0;
  int answer = -1;
  while (kFifo ? head < frontier.size() : !frontier.empty()) {
    if (counts.visits == max_visits) {
      answer = 0;
      break;
    }
    VertexId v;
    if constexpr (kFifo) {
      v = frontier[head++];
    } else {
      v = frontier.back();
      frontier.pop_back();
    }
    ++counts.visits;
    const bool hit = for_each_out(v, [&](VertexId w) {
      if (w == t) {
        ++counts.edges;
        return true;
      }
      return Discover<true>(w, ws, frontier, verdict, counts);
    });
    if (hit) {
      answer = 1;
      break;
    }
  }
  counts.AddTo(ws.probe());
  return answer;
}

}  // namespace guided_search_internal

/// Depth-first search from `s` for `t`. `verdict(w)` answers "w reaches
/// t" for each newly discovered w. Returns +1 when `t` is reached or a
/// verdict proves it, -1 when the search is exhausted, and 0 when it
/// stopped after expanding `max_visits` vertices without an answer.
template <typename ForEachOut, typename Verdict>
int GuidedDfs(VertexId s, VertexId t, SearchWorkspace& ws,
              ForEachOut&& for_each_out, Verdict&& verdict,
              size_t max_visits = kUnboundedVisits) {
  return guided_search_internal::Search<false>(s, t, ws, for_each_out,
                                               verdict, max_visits);
}

/// `GuidedDfs` in breadth-first order and without a visit budget, for
/// searches whose nearest candidates are the likeliest hits: GRIPP's hop
/// instances, where a FIFO reaches t's instance sooner than a stack on
/// every bench_table1_plain graph family (about 12x on layered DAGs).
template <typename ForEachOut, typename Verdict>
int GuidedBfs(VertexId s, VertexId t, SearchWorkspace& ws,
              ForEachOut&& for_each_out, Verdict&& verdict) {
  return guided_search_internal::Search<true>(s, t, ws, for_each_out,
                                              verdict, kUnboundedVisits);
}

/// Bidirectional BFS between `s` and `t`: expands one full level of the
/// frontier with fewer queued vertices, forward from `s` over
/// `for_each_out` and backward from `t` over `for_each_in`, until the
/// two meet. `fwd_verdict(w)` answers "w reaches t" and `bwd_verdict(w)`
/// answers "s reaches w". A pruned vertex is marked on its side; exact
/// verdicts keep it off every path the other side can walk. Returns +1
/// or -1; it never stops early.
template <typename ForEachOut, typename ForEachIn, typename FwdVerdict,
          typename BwdVerdict>
int GuidedBiBfs(VertexId s, VertexId t, SearchWorkspace& ws,
                ForEachOut&& for_each_out, ForEachIn&& for_each_in,
                FwdVerdict&& fwd_verdict, BwdVerdict&& bwd_verdict) {
  if (s == t) return 1;
  guided_search_internal::Counts counts;
  std::vector<VertexId>& fwd = ws.queue();
  std::vector<VertexId>& bwd = ws.backward_queue();
  ws.MarkForward(s);
  ws.MarkBackward(t);
  fwd.push_back(s);
  bwd.push_back(t);
  size_t fwd_head = 0, bwd_head = 0;
  int answer = -1;
  while (fwd_head < fwd.size() && bwd_head < bwd.size()) {
    const bool met =
        fwd.size() - fwd_head <= bwd.size() - bwd_head
            ? guided_search_internal::ExpandLevel<true>(
                  ws, fwd, fwd_head, for_each_out, fwd_verdict, counts)
            : guided_search_internal::ExpandLevel<false>(
                  ws, bwd, bwd_head, for_each_in, bwd_verdict, counts);
    if (met) {
      answer = 1;
      break;
    }
  }
  counts.AddTo(ws.probe());
  return answer;
}

/// The query every partial index answers the same way: `verdict(s)` is
/// the label filter's answer for "s reaches t"; a maybe prepares `ws` for
/// `num_vertices` and returns `search()`, the guided traversal's verdict.
/// Records `queries`, `positives`, `label_rejections` and `fallbacks`.
template <typename Verdict, typename Search>
bool GuidedQuery(VertexId s, VertexId t, SearchWorkspace& ws,
                 size_t num_vertices, Verdict&& verdict, Search&& search) {
  [[maybe_unused]] QueryProbe& probe = ws.probe();
  REACH_PROBE_INC(probe, queries);
  int answer = s == t ? 1 : verdict(s);
  if (answer == 0) {
    REACH_PROBE_INC(probe, fallbacks);
    ws.Prepare(num_vertices);
    answer = search();
  } else if (answer < 0) {
    REACH_PROBE_INC(probe, label_rejections);
  }
  if (answer > 0) REACH_PROBE_INC(probe, positives);
  return answer > 0;
}

}  // namespace reach

#endif  // REACH_TRAVERSAL_GUIDED_SEARCH_H_
