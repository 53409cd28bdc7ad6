// A small command-line reachability service — the library as a downstream
// user would deploy it: load a SNAP-style edge list, build an index chosen
// by name, then answer queries from stdin. Demonstrates file I/O, the
// MakeIndex factory, LCR constraints, 2-hop persistence, and the
// observability layer (--metrics).
//
// Usage:
//   reach_cli [--metrics] [--threads N] [--trace=FILE] [--fastpath]
//             [--reorder=deg|bfs|none] <edge-list-file> [index-spec]
//   reach_cli [--metrics] [--threads N] --labeled <edge-list-file>
//   reach_cli [--metrics] [--threads N] [--reorder=deg|bfs|none]
//             --demo [index-spec]
//   reach_cli [--metrics] [--threads N] [--trace=FILE] [--slow-ms=N]
//             [--load=FILE] [--max-inflight=N] [--max-pending=N]
//             [--churn=N] --serve (<edge-list-file> | --demo) [index-spec]
//   reach_cli --help     (lists every index spec with its Param knobs and
//                         write capability: static / insert-only /
//                         insert+delete)
//
// --fastpath wraps the chosen index in the constant-time FastPathIndex
// layer (docs/FASTPATH.md) — equivalent to appending ":fastpath=1" to the
// index spec. With --metrics the fastpath.hit.{pos,neg} / fastpath.undecided
// counters show how many queries the observation stack short-circuited.
//
// --serve runs the snapshot-serving engine (src/serve/) instead of a
// one-shot index: queries are answered from an immutable snapshot while
// `+ <s> <t>` inserts and `del <s> <t>` deletes go into copies of the
// index. A spec whose index has no copy (a static one) is served
// read-only: every write is rejected. Each answer reports how it was
// produced (index, an updated copy, or the bounded search before the
// first index) and by which snapshot generation.
//
// --churn=N (--serve only) drives N random mixed insert/delete updates
// through ApplyUpdate in small batches before the REPL starts, with a
// query between batches — a smoke load for the decremental serve path;
// the serve.update.* counters are summarized to stderr when it finishes.
// A read-only spec fails with an error that names it.
//
// --load=FILE (--serve only) skips the startup build: the RCHX v2
// snapshot file (written by `snapsave`, docs/SNAPSHOTS.md) is mmap'd and
// published as the first indexed snapshot — near-instant failover, with
// queries index-backed and writes accepted from the first line of input.
// The snapshot must have been written for the served graph.
//
// --trace=FILE enables the span recorder (src/obs/trace.h) for the whole
// run and writes a Chrome-trace/Perfetto-compatible JSON timeline to FILE
// at exit: build phases, pool-worker task activity, and — under --serve —
// per-query stage spans and snapshot swaps (docs/TRACING.md).
//
// --slow-ms=N (--serve only) captures any query slower than N
// milliseconds into the bounded slow-query log; retained records (stage
// breakdown + probe counters) are dumped to stderr at shutdown.
// Deadline-degraded queries are captured regardless of N.
//
// --max-inflight=N / --max-pending=N (--serve only) arm the overload
// gates (docs/ROBUSTNESS.md): queries degrade tier by tier and shed once
// N are in flight; writes block at N updates logged for the replay of a
// running full build, until it ends. The `health` REPL command prints the readiness snapshot. Under
// --serve, SIGINT/SIGTERM shut down gracefully: in-flight queries drain
// and the usual shutdown reports (metrics, trace, slow log) are emitted.
//
// --threads N sets the process-wide default parallelism (the shared
// thread pool that parallel index builds draw from); without it the pool
// follows REACH_THREADS or the hardware concurrency.
//
// --reorder builds the index on a locality-renumbered copy of the graph
// (docs/QUERY_ENGINE.md) behind an id-translation shim; queries still use
// the file's vertex ids. save/load only works without --reorder (the
// persisted pll format stores no permutation).
//
// Query language on stdin, one per line:
//   <s> <t>              plain reachability Qr(s, t)
//   <s> <t> <l0,l1,...>  LCR query (labeled mode): labels allowed
//   save <file> / load <file>   persist / restore (pll indexes only)
//   snapsave <file> / snapload <file>   RCHX v2 snapshot write / zero-copy
//                        mmap restore (pll indexes only, docs/SNAPSHOTS.md)
//   + <s> <t> / del <s> <t> / flush   insert / delete an edge, wait for
//                        the running build (--serve only)
//
// With --metrics, a JSON metrics report (schema "reach.metrics.v1") is
// printed to stdout after stdin is exhausted: per-phase build timings,
// index size, peak build RSS, and the accumulated query probe counters.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define REACH_CLI_POSIX 1
#else
#define REACH_CLI_POSIX 0
#endif

#include "core/index_stats.h"
#include "core/reordering_index.h"
#include "graph/generators.h"
#include "graph/rng.h"
#include "graph/reorder.h"
#include "graph/graph_io.h"
#include "lcr/label_set.h"
#include "lcr/pruned_labeled_two_hop.h"
#include "obs/metrics_exporter.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "plain/pruned_two_hop.h"
#include "core/index_factory.h"
#include "serve/reach_service.h"

namespace {

// Prints the usage banner; with `roster` also lists every index spec the
// MakeIndex factory accepts together with its Param knobs.
void PrintUsage(FILE* out, bool roster) {
  std::fprintf(
      out,
      "usage: reach_cli [--metrics] [--threads N] [--trace=FILE] "
      "[--fastpath] [--reorder=deg|bfs|none] <edge-list> [index-spec]\n"
      "       reach_cli [--metrics] [--threads N] --labeled <edge-list>\n"
      "       reach_cli [--metrics] [--threads N] [--reorder=deg|bfs|none] "
      "--demo [index-spec]\n"
      "       reach_cli [--metrics] [--threads N] [--trace=FILE] "
      "[--slow-ms=N] [--load=SNAPSHOT] [--max-inflight=N] "
      "[--max-pending=N] [--churn=N] --serve (<edge-list> | --demo) "
      "[index-spec]\n"
      "       reach_cli --help\n");
  if (!roster) return;
  // One roster line per spec, with its write capability ("static",
  // "dynamic (insert-only)", "dynamic (insert+delete)"). Under --serve a
  // spec takes `+`/`del` only if its index has a copy.
  const auto print_family = [out](reach::IndexFamily family) {
    for (const reach::SpecDoc& doc : reach::DescribeIndexSpecs(family)) {
      std::fprintf(out, "  %-18s %s [%s]\n", doc.spec.c_str(),
                   doc.summary.c_str(), doc.caps.c_str());
      if (!doc.params.empty()) {
        std::fprintf(out, "  %-18s params: %s\n", "", doc.params.c_str());
      }
    }
  };
  std::fprintf(out,
               "\nindex specs (append :param=value to tune; defaults in "
               "parentheses):\n");
  print_family(reach::IndexFamily::kPlain);
  std::fprintf(out, "\nlabel-constrained specs (--labeled graphs):\n");
  print_family(reach::IndexFamily::kLcr);
}

// Emits the JSON metrics report for `index` on stdout.
template <typename Index>
void EmitMetrics(const Index& index) {
  reach::MetricsExporter exporter;
  exporter.Add(reach::MakeIndexReport(index));
  exporter.SetRegistrySnapshot(reach::MetricsRegistry::Global().Snapshot());
  std::fputs(exporter.ToJson().c_str(), stdout);
  std::fputc('\n', stdout);
}

int RunPlain(const reach::Digraph& graph, const std::string& spec,
             bool metrics, reach::ReorderStrategy reorder) {
  using namespace reach;
  MadeIndex made = MakeIndex(spec);
  if (made.plain == nullptr) {
    if (made) made.error = "'" + spec + "' is label-constrained; see --labeled";
    std::fprintf(stderr, "error: %s\n", made.error.c_str());
    return 1;
  }
  std::unique_ptr<ReachabilityIndex> index = std::move(made.plain);
  if (reorder != ReorderStrategy::kNone) {
    index = std::make_unique<ReorderingIndex>(std::move(index), reorder);
  }
  index->Build(graph);
  std::fprintf(stderr,
               "built %s in %.1f ms (%zu KiB) over %zu vertices / %zu "
               "edges; enter queries: <s> <t>\n",
               index->Name().c_str(), index->Stats().build_time.count() / 1e6,
               index->IndexSizeBytes() / 1024, graph.NumVertices(),
               graph.NumEdges());

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream fields(line);
    std::string first;
    if (!(fields >> first)) continue;
    if (first == "save" || first == "load" || first == "snapsave" ||
        first == "snapload") {
      auto* pll = dynamic_cast<PrunedTwoHop*>(index.get());
      std::string path;
      if (pll == nullptr || !(fields >> path)) {
        std::printf("error: %s needs a pll index and a path\n",
                    first.c_str());
        continue;
      }
      if (first == "save") {
        std::ofstream out(path, std::ios::binary);
        std::printf(pll->Save(out) ? "saved %s\n" : "error saving %s\n",
                    path.c_str());
      } else if (first == "load") {
        std::ifstream in(path, std::ios::binary);
        std::printf(pll->Load(in) ? "loaded %s\n" : "error loading %s\n",
                    path.c_str());
      } else if (first == "snapsave") {
        // Atomic path variant: temp file + fsync + rename, so a crash
        // mid-save never corrupts an existing snapshot at `path`.
        std::string save_error;
        if (pll->SaveSnapshot(path, &save_error)) {
          std::printf("snapshot saved %s\n", path.c_str());
        } else {
          std::printf("error saving %s: %s\n", path.c_str(),
                      save_error.c_str());
        }
      } else {
        const LoadResult result = pll->LoadSnapshot(path);
        if (result) {
          std::printf("snapshot mapped %s (%s storage)\n", path.c_str(),
                      pll->CompressedStorage() ? "compressed" : "flat");
        } else {
          std::printf("error loading %s: %s\n", path.c_str(),
                      LoadStatusMessage(result).c_str());
        }
      }
      continue;
    }
    VertexId s = 0, t = 0;
    try {
      s = static_cast<VertexId>(std::stoul(first));
    } catch (...) {
      std::printf("error: bad query '%s'\n", line.c_str());
      continue;
    }
    if (!(fields >> t) || s >= graph.NumVertices() ||
        t >= graph.NumVertices()) {
      std::printf("error: bad query '%s'\n", line.c_str());
      continue;
    }
    std::printf("%s\n", index->Query(s, t) ? "true" : "false");
  }
  if (metrics) EmitMetrics(*index);
  return 0;
}

int RunLabeled(const reach::LabeledDigraph& graph, bool metrics) {
  using namespace reach;
  PrunedLabeledTwoHop index;
  index.Build(graph);
  std::fprintf(stderr,
               "built p2h in %.1f ms (%zu entries) over %zu vertices / %zu "
               "labeled edges / %u labels; queries: <s> <t> <l0,l1,...>\n",
               index.Stats().build_time.count() / 1e6, index.TotalEntries(),
               graph.NumVertices(), graph.NumEdges(), graph.NumLabels());

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream fields(line);
    VertexId s = 0, t = 0;
    std::string labels;
    if (!(fields >> s >> t >> labels) || s >= graph.NumVertices() ||
        t >= graph.NumVertices()) {
      std::printf("error: bad query '%s'\n", line.c_str());
      continue;
    }
    LabelSet mask = 0;
    std::istringstream label_fields(labels);
    std::string token;
    bool ok = true;
    while (std::getline(label_fields, token, ',')) {
      try {
        const unsigned long l = std::stoul(token);
        if (l >= graph.NumLabels()) ok = false;
        if (ok) mask |= LabelBit(static_cast<Label>(l));
      } catch (...) {
        ok = false;
      }
    }
    if (!ok) {
      std::printf("error: bad labels '%s'\n", labels.c_str());
      continue;
    }
    std::printf("%s\n", index.Query(s, t, mask) ? "true" : "false");
  }
  if (metrics) EmitMetrics(index);
  return 0;
}

const char* SourceName(reach::AnswerSource source) {
  switch (source) {
    case reach::AnswerSource::kIndex:
      return "index";
    case reach::AnswerSource::kDelta:
      return "delta";
    case reach::AnswerSource::kFallbackBfs:
      return "bfs";
    case reach::AnswerSource::kShedded:
      return "shed";
  }
  return "?";
}

// Last shutdown signal caught by the --serve loop (0 = none). The handler
// only stores; the read loop notices because the interrupted read makes
// getline fail (handlers are installed without SA_RESTART).
std::atomic<int> g_shutdown_signal{0};

extern "C" void HandleShutdownSignal(int sig) {
  g_shutdown_signal.store(sig, std::memory_order_relaxed);
}

/// RAII install/restore of SIGINT+SIGTERM graceful-shutdown handlers
/// around the --serve REPL. On non-POSIX builds this is a no-op (the
/// default abrupt exit remains).
class ShutdownSignalScope {
 public:
  ShutdownSignalScope() {
#if REACH_CLI_POSIX
    struct sigaction action = {};
    action.sa_handler = HandleShutdownSignal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // no SA_RESTART: blocked reads must EINTR out
    ::sigaction(SIGINT, &action, &old_int_);
    ::sigaction(SIGTERM, &action, &old_term_);
#endif
  }
  ~ShutdownSignalScope() {
#if REACH_CLI_POSIX
    ::sigaction(SIGINT, &old_int_, nullptr);
    ::sigaction(SIGTERM, &old_term_, nullptr);
#endif
  }
  ShutdownSignalScope(const ShutdownSignalScope&) = delete;
  ShutdownSignalScope& operator=(const ShutdownSignalScope&) = delete;

 private:
#if REACH_CLI_POSIX
  struct sigaction old_int_ = {};
  struct sigaction old_term_ = {};
#endif
};

// Prints the service health/readiness snapshot, one field per line.
void PrintHealth(const reach::ReachService& service) {
  const reach::ServiceHealth h = service.Health();
  std::printf(
      "ready=%s accepting_writes=%s snapshot=v%llu\n"
      "pending=%zu/%zu (%.0f%%) inflight=%zu/%zu (%.0f%%)\n"
      "rebuild=%s consecutive_failures=%llu retries=%llu failures=%llu "
      "watchdog=%llu shed=%llu\n"
      "rebuild_rent=%llu/%llu\n",
      h.ready ? "true" : "false", h.accepting_writes ? "true" : "false",
      static_cast<unsigned long long>(h.snapshot_version), h.pending_edges,
      h.max_pending_edges, h.pending_fill * 100.0, h.inflight_queries,
      h.max_inflight_queries, h.inflight_fill * 100.0,
      reach::RebuildStateName(h.rebuild),
      static_cast<unsigned long long>(h.rebuild_consecutive_failures),
      static_cast<unsigned long long>(h.rebuild_retries),
      static_cast<unsigned long long>(h.rebuild_failures),
      static_cast<unsigned long long>(h.watchdog_fired),
      static_cast<unsigned long long>(h.shed),
      static_cast<unsigned long long>(h.rebuild_rent_paid),
      static_cast<unsigned long long>(h.rebuild_price));
  if (!h.last_rebuild_error.empty()) {
    std::printf("last_rebuild_error=%s\n", h.last_rebuild_error.c_str());
  }
}

// Dumps the retained slow queries, one line per record, to stderr.
void DumpSlowQueries(const reach::ReachService& service) {
  const std::vector<reach::SlowQueryRecord> slow = service.SlowQueries();
  if (slow.empty()) return;
  std::fprintf(stderr, "slow-query log (%zu retained):\n", slow.size());
  for (const reach::SlowQueryRecord& rec : slow) {
    std::string stages;
    for (size_t i = 0; i < reach::kNumServeStages; ++i) {
      if (rec.stage_ns[i] == 0) continue;
      char buf[64];
      std::snprintf(buf, sizeof(buf), " %s=%.3fms", reach::ServeStageName(i),
                    rec.stage_ns[i] / 1e6);
      stages += buf;
    }
    std::fprintf(stderr,
                 "  %u -> %u: %.3fms %s%s v%llu%s probes=%llu "
                 "bfs_visits=%llu |%s\n",
                 rec.s, rec.t, rec.total_ns / 1e6,
                 rec.reachable ? "true" : "false", rec.exact ? "" : "?",
                 static_cast<unsigned long long>(rec.snapshot_version),
                 rec.slot_waited ? " slot_waited" : "",
                 static_cast<unsigned long long>(rec.index_probes),
                 static_cast<unsigned long long>(rec.bfs_visits),
                 stages.c_str());
  }
}

// Drives `churn` random mixed insert/delete updates through
// `ApplyUpdate` in small batches, interleaved with queries — a smoke
// load for the decremental serve path, run before the REPL starts.
void DriveChurn(reach::ReachService& service, const reach::Digraph& graph,
                size_t churn) {
  using namespace reach;
  Xoshiro256ss rng(0xC4'52'4EULL);
  std::vector<Edge> live = graph.Edges();
  const VertexId n = static_cast<VertexId>(service.NumVertices());
  size_t sent = 0;
  while (sent < churn) {
    UpdateBatch batch;
    const size_t batch_size = std::min<size_t>(1 + rng.NextBounded(4),
                                               churn - sent);
    for (size_t i = 0; i < batch_size; ++i) {
      if (!live.empty() && rng.NextBounded(10) < 3) {
        const Edge e = live[rng.NextBounded(live.size())];
        batch.push_back(EdgeUpdate::Delete(e.source, e.target));
        std::erase(live, e);
      } else {
        const auto s = static_cast<VertexId>(rng.NextBounded(n));
        const auto t = static_cast<VertexId>(rng.NextBounded(n));
        if (s == t) continue;
        batch.push_back(EdgeUpdate::Insert(s, t));
        if (std::find(live.begin(), live.end(), Edge{s, t}) == live.end()) {
          live.push_back({s, t});
        }
      }
    }
    if (batch.empty()) continue;
    sent += batch.size();
    const UpdateResult result = service.ApplyUpdate(batch);
    if (!result.ok()) {
      std::fprintf(stderr, "churn: batch rejected: %s\n",
                   result.reason.c_str());
      continue;
    }
    // A read between every write batch keeps the serve path honest while
    // tombstones and inserts churn underneath it.
    service.Query(static_cast<VertexId>(rng.NextBounded(n)),
                  static_cast<VertexId>(rng.NextBounded(n)));
  }
  const ServeStats& stats = service.stats();
  std::fprintf(
      stderr,
      "churn: %zu updates applied (%llu inserts, %llu deletes, %llu "
      "batches, %llu rejected), %zu pending\n",
      sent, static_cast<unsigned long long>(stats.inserts.load()),
      static_cast<unsigned long long>(stats.deletes.load()),
      static_cast<unsigned long long>(stats.update_batches.load()),
      static_cast<unsigned long long>(stats.update_rejected.load()),
      service.PendingEdgeCount());
}

int RunServe(const reach::Digraph& graph, const std::string& spec,
             bool metrics, double slow_ms, const std::string& load_path,
             size_t max_inflight, size_t max_pending, size_t churn) {
  using namespace reach;
  ServiceOptions options;
  options.spec = spec;
  options.max_inflight_queries = max_inflight;
  options.max_pending_edges = max_pending;
  if (slow_ms >= 0) {
    // Clamp to 1ns: --slow-ms=0 means "capture every query", and a 0ns
    // threshold would disable capture instead.
    options.slow_query_threshold =
        std::max(std::chrono::nanoseconds(1),
                 std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::duration<double, std::milli>(slow_ms)));
  }
  ReachService service(graph, options);
  if (!load_path.empty()) {
    const LoadResult result = service.StartWithSnapshot(load_path);
    if (!result) {
      std::fprintf(stderr, "error: cannot serve snapshot %s: %s\n",
                   load_path.c_str(), LoadStatusMessage(result).c_str());
      return 1;
    }
    std::fprintf(stderr, "mapped snapshot %s as v%llu\n", load_path.c_str(),
                 static_cast<unsigned long long>(service.SnapshotVersion()));
  } else if (const LoadResult result = service.Start(); !result) {
    std::fprintf(stderr, "error: %s\n", result.detail.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "serving %zu vertices / %zu edges with '%s'; commands:\n"
               "  <s> <t>      query  (prints: <answer> <source> v<snapshot>)\n"
               "  + <s> <t>    insert edge\n"
               "  del <s> <t>  delete edge\n"
               "  flush        wait for the first index or a running build\n"
               "  health       print the readiness/health snapshot\n",
               graph.NumVertices(), graph.NumEdges(), spec.c_str());
  if (churn > 0) {
    if (!service.Health().accepting_writes) {
      std::fprintf(stderr,
                   "error: --churn needs a writable spec; '%s' is read-only "
                   "when served (its index has no copy)\n",
                   spec.c_str());
      service.Stop();
      return 1;
    }
    DriveChurn(service, graph, churn);
  }

  // Graceful SIGINT/SIGTERM: the handler interrupts the blocked getline,
  // the loop exits, and the normal shutdown path below still runs —
  // queries drain, the rebuild loop stops, and every report (metrics,
  // trace, slow-query log) is emitted as on EOF.
  ShutdownSignalScope signal_scope;
  std::string line;
  while (g_shutdown_signal.load(std::memory_order_relaxed) == 0 &&
         std::getline(std::cin, line)) {
    std::istringstream fields(line);
    std::string first;
    if (!(fields >> first)) continue;
    if (first == "health") {
      PrintHealth(service);
      continue;
    }
    if (first == "flush") {
      service.Flush();
      std::printf("flushed; snapshot v%llu\n",
                  static_cast<unsigned long long>(service.SnapshotVersion()));
      continue;
    }
    if (first == "+" || first == "del") {
      const bool is_delete = first == "del";
      VertexId s = 0, t = 0;
      if (!(fields >> s >> t)) {
        std::printf("error: bad %s '%s'\n", is_delete ? "delete" : "insert",
                    line.c_str());
        continue;
      }
      const UpdateResult result = service.ApplyUpdate(
          {is_delete ? EdgeUpdate::Delete(s, t) : EdgeUpdate::Insert(s, t)});
      if (!result.ok()) {
        std::printf("error: %s rejected: %s\n",
                    is_delete ? "delete" : "insert", result.reason.c_str());
        continue;
      }
      std::printf("%s %u -> %u (%zu pending)\n",
                  is_delete ? "deleted" : "inserted", s, t,
                  service.PendingEdgeCount());
      continue;
    }
    VertexId s = 0, t = 0;
    try {
      s = static_cast<VertexId>(std::stoul(first));
    } catch (...) {
      std::printf("error: bad query '%s'\n", line.c_str());
      continue;
    }
    if (!(fields >> t) || s >= service.NumVertices() ||
        t >= service.NumVertices()) {
      std::printf("error: bad query '%s'\n", line.c_str());
      continue;
    }
    const ServeAnswer answer = service.Query(s, t);
    std::printf("%s%s %s v%llu\n", answer.reachable ? "true" : "false",
                answer.exact ? "" : "?", SourceName(answer.source),
                static_cast<unsigned long long>(answer.snapshot_version));
  }
  const int caught = g_shutdown_signal.load(std::memory_order_relaxed);
  if (caught != 0) {
    std::fprintf(stderr, "caught %s, shutting down gracefully\n",
                 caught == SIGINT ? "SIGINT" : "SIGTERM");
  }
  service.Stop();
  const ServeStats& stats = service.stats();
  std::fprintf(
      stderr,
      "served %llu queries (%llu index, %llu delta, %llu bfs), "
      "%llu inserts, %llu deletes, %llu snapshots\n"
      "  %llu slow captured (%llu evicted)\n",
      static_cast<unsigned long long>(stats.queries.load()),
      static_cast<unsigned long long>(stats.index_answers.load()),
      static_cast<unsigned long long>(stats.delta_answers.load()),
      static_cast<unsigned long long>(stats.fallback_answers.load()),
      static_cast<unsigned long long>(stats.inserts.load()),
      static_cast<unsigned long long>(stats.deletes.load()),
      static_cast<unsigned long long>(stats.rebuilds.load()),
      static_cast<unsigned long long>(stats.slow_captured.load()),
      static_cast<unsigned long long>(stats.slow_dropped.load()));
  DumpSlowQueries(service);
  if (metrics) {
    MetricsExporter exporter;
    exporter.SetRegistrySnapshot(MetricsRegistry::Global().Snapshot());
    std::fputs(exporter.ToJson().c_str(), stdout);
    std::fputc('\n', stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace reach;
  bool metrics = false;
  bool serve = false;
  bool fastpath = false;
  std::string trace_path;
  std::string load_path;
  double slow_ms = -1;
  size_t max_inflight = 0;
  size_t max_pending = 0;
  size_t churn = 0;
  ReorderStrategy reorder = ReorderStrategy::kNone;
  std::vector<const char*> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      serve = true;
    } else if (std::strcmp(argv[i], "--fastpath") == 0) {
      fastpath = true;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      PrintUsage(stdout, /*roster=*/true);
      return 0;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
      if (trace_path.empty()) {
        std::fprintf(stderr, "error: --trace needs a file path\n");
        return 1;
      }
    } else if (std::strncmp(argv[i], "--load=", 7) == 0) {
      load_path = argv[i] + 7;
      if (load_path.empty()) {
        std::fprintf(stderr, "error: --load needs a snapshot file path\n");
        return 1;
      }
    } else if (std::strncmp(argv[i], "--slow-ms=", 10) == 0) {
      try {
        slow_ms = std::stod(argv[i] + 10);
      } catch (...) {
        slow_ms = -1;
      }
      if (slow_ms < 0) {
        std::fprintf(stderr,
                     "error: --slow-ms needs a non-negative number\n");
        return 1;
      }
    } else if (std::strncmp(argv[i], "--max-inflight=", 15) == 0) {
      try {
        max_inflight = std::stoul(argv[i] + 15);
      } catch (...) {
        max_inflight = 0;
      }
      if (max_inflight == 0) {
        std::fprintf(stderr,
                     "error: --max-inflight needs a positive integer\n");
        return 1;
      }
    } else if (std::strncmp(argv[i], "--churn=", 8) == 0) {
      try {
        churn = std::stoul(argv[i] + 8);
      } catch (...) {
        churn = 0;
      }
      if (churn == 0) {
        std::fprintf(stderr, "error: --churn needs a positive integer\n");
        return 1;
      }
    } else if (std::strncmp(argv[i], "--max-pending=", 14) == 0) {
      try {
        max_pending = std::stoul(argv[i] + 14);
      } catch (...) {
        max_pending = 0;
      }
      if (max_pending == 0) {
        std::fprintf(stderr,
                     "error: --max-pending needs a positive integer\n");
        return 1;
      }
    } else if (std::strncmp(argv[i], "--reorder=", 10) == 0) {
      const auto parsed = ParseReorderStrategy(argv[i] + 10);
      if (!parsed) {
        std::fprintf(stderr,
                     "error: --reorder wants deg, bfs, or none (got '%s')\n",
                     argv[i] + 10);
        return 1;
      }
      reorder = *parsed;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      unsigned long threads = 0;
      try {
        threads = std::stoul(argv[++i]);
      } catch (...) {
      }
      if (threads == 0) {
        std::fprintf(stderr, "error: --threads needs a positive integer\n");
        return 1;
      }
      SetDefaultThreads(threads);
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!load_path.empty() && !serve) {
    std::fprintf(stderr, "error: --load only applies with --serve\n");
    return 1;
  }
  if ((max_inflight > 0 || max_pending > 0) && !serve) {
    std::fprintf(stderr,
                 "error: --max-inflight/--max-pending only apply with "
                 "--serve\n");
    return 1;
  }
  if (churn > 0 && !serve) {
    std::fprintf(stderr, "error: --churn only applies with --serve\n");
    return 1;
  }
  if (!trace_path.empty()) {
    if (!kMetricsCompiled) {
      std::fprintf(stderr,
                   "warning: built with REACH_METRICS=OFF — the trace will "
                   "contain no spans\n");
    }
    TraceRecorder::Global().set_enabled(true);
    TraceRecorder::Global().SetCurrentThreadName("main");
  }

  // Dispatch through a lambda so the trace file is written on every exit
  // path (after the serve engine has stopped and workers have quiesced).
  const int rc = [&]() -> int {
    // --fastpath is sugar for the factory's :fastpath=1 spec param; a spec
    // that sets the key explicitly is left alone.
    const auto with_fastpath = [&](std::string spec) {
      if (fastpath && !IndexSpec(spec).params.contains("fastpath")) {
        spec += ":fastpath=1";
      }
      return spec;
    };
    if (!args.empty() && std::strcmp(args[0], "--demo") == 0) {
      const std::string spec =
          with_fastpath(args.size() > 1 ? args[1] : "pll");
      if (serve) {
        return RunServe(ScaleFreeDag(10000, 3, 1), spec, metrics, slow_ms,
                        load_path, max_inflight, max_pending, churn);
      }
      return RunPlain(ScaleFreeDag(10000, 3, 1), spec, metrics, reorder);
    }
    if (args.size() >= 2 && std::strcmp(args[0], "--labeled") == 0) {
      if (fastpath) {
        std::fprintf(stderr,
                     "warning: --fastpath only applies to plain reachability "
                     "specs; ignored under --labeled\n");
      }
      std::string error;
      auto graph = ReadLabeledEdgeListFile(args[1], &error);
      if (!graph) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
      }
      return RunLabeled(*graph, metrics);
    }
    if (!args.empty()) {
      std::string error;
      auto graph = ReadEdgeListFile(args[0], &error);
      if (!graph) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
      }
      const std::string spec =
          with_fastpath(args.size() > 1 ? args[1] : "pll");
      if (serve) {
        return RunServe(*graph, spec, metrics, slow_ms, load_path,
                        max_inflight, max_pending, churn);
      }
      return RunPlain(*graph, spec, metrics, reorder);
    }
    PrintUsage(stderr, /*roster=*/false);
    return 1;
  }();

  if (!trace_path.empty()) {
    // A task's completion signal can unblock us before its worker leaves
    // the task scope (where the pool.task span records) — drain the pool
    // so the export never misses the tail of the timeline.
    ThreadPool::Global().Quiesce();
    TraceExporter exporter;
    if (exporter.WriteChromeJsonFile(trace_path)) {
      std::fprintf(stderr, "trace written to %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "error: could not write trace to %s\n",
                   trace_path.c_str());
      return rc == 0 ? 1 : rc;
    }
  }
  return rc;
}
