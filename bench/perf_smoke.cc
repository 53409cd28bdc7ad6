// The CI perf-regression gate: a self-contained harness (no
// google-benchmark) that measures index build time, query latency
// percentiles, and — for the deletion-capable specs — the time to apply
// a fixed mixed insert/delete stream through `ApplyUpdate`, on small
// generator graphs, comparing against a committed baseline
// (bench/baselines/perf_smoke_seed.json).
//
// Absolute times are useless across machines, so every metric is
// normalized by a same-run calibration loop — a fixed amount of
// branch-light integer work whose duration tracks the machine's scalar
// speed. A metric regresses when
//
//   (metric / calibration) > (baseline_metric / baseline_calibration)
//                            * (1 + tolerance)
//
// Small graphs keep the gate under a few seconds; each measurement is the
// best of --repeat runs (default 3), and a failing comparison re-measures
// once before failing, so scheduler noise has to strike the same metric
// in two whole rounds (eight best-of runs) to produce a false alarm.
//
// Usage:
//   perf_smoke [--out FILE] [--baseline FILE] [--tolerance 0.25]
//              [--n 4096] [--repeat 3]
//
// With --out, results are written as JSON (schema "reach.bench.v1"; flat
// "key": number metrics, parseable by the loader below). With --baseline,
// the run gates: exit 0 when every shared metric is within tolerance,
// exit 1 with a per-metric report otherwise. See docs/TRACING.md.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/edge_update.h"
#include "core/index_factory.h"
#include "core/query_workload.h"
#include "core/reachability_index.h"
#include "graph/digraph.h"
#include "graph/generators.h"
#include "graph/rng.h"
#include "par/thread_pool.h"

namespace {

using reach::Digraph;
using reach::QueryPair;
using reach::VertexId;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kSeed = 0xbe9c;
constexpr char kSchema[] = "reach.bench.v1";

double ElapsedMs(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             end - begin)
      .count();
}

// A fixed quantum of integer work (xorshift mixing). Its wall time is the
// run's speed unit: every measured metric is divided by it before
// comparing against the baseline, absorbing machine-to-machine (and most
// run-to-run) frequency differences.
double CalibrationMs() {
  double best = 1e300;
  for (int run = 0; run < 3; ++run) {
    const auto begin = Clock::now();
    uint64_t x = kSeed | 1;
    uint64_t sink = 0;
    for (int i = 0; i < 40'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      sink += x;
    }
    const auto end = Clock::now();
    // `sink` must stay alive or the loop folds away.
    if (sink == 0) std::fprintf(stderr, "calibration sink hit zero\n");
    best = std::min(best, ElapsedMs(begin, end));
  }
  return best;
}

struct SmokeCase {
  std::string graph_name;
  Digraph graph;
  std::string spec;
};

std::vector<SmokeCase> Roster(VertexId n) {
  std::vector<SmokeCase> cases;
  Digraph er = reach::RandomDigraph(n, 4 * static_cast<size_t>(n), kSeed);
  Digraph dag = reach::RandomDag(n, 4 * static_cast<size_t>(n), kSeed + 1);
  cases.push_back({"er-cyclic-avg4", er, "pll"});
  cases.push_back({"er-cyclic-avg4", er, "pll:fastpath=1"});
  cases.push_back({"er-cyclic-avg4", er, "dagger"});
  cases.push_back({"er-cyclic-avg4", std::move(er), "grail"});
  cases.push_back({"dag-avg4", dag, "pll"});
  cases.push_back({"dag-avg4", dag, "pll:compress=1"});
  cases.push_back({"dag-avg4", std::move(dag), "grail"});
  return cases;
}

// Flat metric map: "<spec>/<graph>/<what>" -> value. Lower is better for
// every metric the gate compares.
using Metrics = std::map<std::string, double>;

double PercentileNs(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[static_cast<size_t>(p * (sorted.size() - 1))];
}

// One full measurement pass over the roster; each metric is the best of
// `repeat` runs (min — the cleanest observation of the machine).
Metrics Measure(VertexId n, int repeat) {
  Metrics metrics;
  for (const SmokeCase& c : Roster(n)) {
    const std::string key = c.spec + "/" + c.graph_name;
    double best_build_ms = 1e300;
    double best_p50_ns = 1e300;
    double best_p99_ns = 1e300;
    double best_churn_ms = 1e300;
    bool measured_churn = false;

    // A fixed mixed write stream (70/30 insert/delete over the case
    // graph) for the deletion-capable specs; identical every run. Applied
    // single-update like the serve drain loop applies its smallest
    // batches, rebuilding only when the index recommends it.
    // 64 updates keeps the whole gate in seconds. On `dag-avg4` the
    // inserts take most of the churn cost (each resumes a pruned sweep
    // from the new arc for every hop of its tail's Lin, and random arcs
    // into a random DAG connect many new pairs); on `er-cyclic-avg4` the
    // deletes' detour searches do.
    std::vector<reach::EdgeUpdate> churn;
    {
      reach::Xoshiro256ss rng(kSeed + 13);
      std::vector<reach::Edge> live = c.graph.Edges();
      while (churn.size() < 64) {
        if (!live.empty() && rng.NextBounded(10) < 3) {
          const size_t pick = rng.NextBounded(live.size());
          const reach::Edge e = live[pick];
          churn.push_back(reach::EdgeUpdate::Delete(e.source, e.target));
          live[pick] = live.back();
          live.pop_back();
        } else {
          const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
          const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
          if (u == v) continue;
          churn.push_back(reach::EdgeUpdate::Insert(u, v));
          live.push_back({u, v});
        }
      }
    }

    // A mixed workload, dominated by random pairs like the surveyed
    // evaluations; regenerated identically every run (fixed seeds).
    std::vector<QueryPair> queries = reach::RandomPairs(c.graph, 1500, kSeed + 10);
    const std::vector<QueryPair> pos =
        reach::ReachablePairs(c.graph, 250, kSeed + 11);
    const std::vector<QueryPair> neg =
        reach::UnreachablePairs(c.graph, 250, kSeed + 12);
    queries.insert(queries.end(), pos.begin(), pos.end());
    queries.insert(queries.end(), neg.begin(), neg.end());

    for (int run = 0; run < repeat; ++run) {
      reach::MadeIndex made = reach::MakeIndex(c.spec);
      std::unique_ptr<reach::ReachabilityIndex> index = std::move(made.plain);
      if (index == nullptr) {
        std::fprintf(stderr, "perf_smoke: unknown spec '%s'\n",
                     c.spec.c_str());
        std::exit(2);
      }
      const auto build_begin = Clock::now();
      index->Build(c.graph);
      best_build_ms =
          std::min(best_build_ms, ElapsedMs(build_begin, Clock::now()));

      // Per-query latency: batches of 32 between clock reads keep the
      // clock overhead out of the percentile while preserving enough
      // samples for a stable p50 on a 2000-query workload.
      constexpr size_t kBatch = 32;
      std::vector<double> batch_ns;
      batch_ns.reserve(queries.size() / kBatch + 1);
      size_t positives = 0;
      for (size_t i = 0; i < queries.size(); i += kBatch) {
        const size_t limit = std::min(i + kBatch, queries.size());
        const auto begin = Clock::now();
        for (size_t j = i; j < limit; ++j) {
          positives +=
              index->Query(queries[j].source, queries[j].target) ? 1 : 0;
        }
        const auto end = Clock::now();
        batch_ns.push_back(ElapsedMs(begin, end) * 1e6 /
                           static_cast<double>(limit - i));
      }
      if (positives == 0) {
        std::fprintf(stderr, "perf_smoke: %s answered nothing true\n",
                     key.c_str());
      }
      std::sort(batch_ns.begin(), batch_ns.end());
      best_p50_ns = std::min(best_p50_ns, PercentileNs(batch_ns, 0.50));
      best_p99_ns = std::min(best_p99_ns, PercentileNs(batch_ns, 0.99));

      // Decremental churn: apply the fixed mixed stream through the
      // batched write API. Runs after the query loop, so the query
      // percentiles above always describe the freshly built index.
      if (made.caps.decremental) {
        auto* dyn = dynamic_cast<reach::DynamicReachabilityIndex*>(index.get());
        if (dyn != nullptr) {
          const auto churn_begin = Clock::now();
          for (const reach::EdgeUpdate& u : churn) {
            if (dyn->ApplyUpdate({u}).rebuild_recommended) {
              dyn->RebuildFromUpdates();
            }
          }
          best_churn_ms =
              std::min(best_churn_ms, ElapsedMs(churn_begin, Clock::now()));
          measured_churn = true;
        }
      }
    }
    metrics[key + "/build_ms"] = best_build_ms;
    metrics[key + "/query_p50_ns"] = best_p50_ns;
    // p99 is informational (too noisy at this scale to gate on; the
    // loader below skips it — see GatedMetric).
    metrics[key + "/query_p99_ns"] = best_p99_ns;
    if (measured_churn) metrics[key + "/churn_ms"] = best_churn_ms;
  }
  return metrics;
}

// Build time, p50, and churn-stream time gate; p99 on a 4k-vertex graph
// is dominated by scheduler noise and is recorded for eyeballs only.
bool GatedMetric(const std::string& name) {
  return name.find("/build_ms") != std::string::npos ||
         name.find("/query_p50_ns") != std::string::npos ||
         name.find("/churn_ms") != std::string::npos;
}

struct Report {
  double calibration_ms = 0;
  Metrics metrics;
};

std::string ToJson(const Report& report) {
  std::ostringstream out;
  out.precision(6);
  out << std::fixed;
  out << "{\n  \"schema\": \"" << kSchema << "\",\n";
  out << "  \"calibration_ms\": " << report.calibration_ms << ",\n";
  out << "  \"metrics\": {\n";
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    if (!first) out << ",\n";
    first = false;
    out << "    \"" << name << "\": " << value;
  }
  out << "\n  }\n}\n";
  return out.str();
}

// Loads a report written by ToJson. Deliberately minimal: it only
// understands this tool's own flat `"key": number` output (plus the
// schema string, which it checks), not general JSON.
bool LoadReport(const std::string& path, Report* report, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::string line;
  bool saw_schema = false;
  while (std::getline(in, line)) {
    const size_t key_begin = line.find('"');
    if (key_begin == std::string::npos) continue;
    const size_t key_end = line.find('"', key_begin + 1);
    if (key_end == std::string::npos) continue;
    const std::string key = line.substr(key_begin + 1, key_end - key_begin - 1);
    const size_t colon = line.find(':', key_end);
    if (colon == std::string::npos) continue;
    std::string value = line.substr(colon + 1);
    while (!value.empty() && (value.back() == ',' || value.back() == ' ' ||
                              value.back() == '\r')) {
      value.pop_back();
    }
    if (key == "schema") {
      saw_schema = value.find(kSchema) != std::string::npos;
      continue;
    }
    if (key == "metrics") continue;
    char* end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == value.c_str()) continue;
    if (key == "calibration_ms") {
      report->calibration_ms = parsed;
    } else {
      report->metrics[key] = parsed;
    }
  }
  if (!saw_schema) {
    *error = path + " is not a " + std::string(kSchema) + " report";
    return false;
  }
  if (report->calibration_ms <= 0) {
    *error = path + " has no calibration_ms";
    return false;
  }
  return true;
}

// Returns the metrics (shared between both reports) whose normalized
// value regressed beyond `tolerance`.
std::vector<std::string> FindRegressions(const Report& baseline,
                                         const Report& current,
                                         double tolerance) {
  std::vector<std::string> regressed;
  for (const auto& [name, base_value] : baseline.metrics) {
    if (!GatedMetric(name)) continue;
    const auto it = current.metrics.find(name);
    if (it == current.metrics.end() || base_value <= 0) continue;
    const double base_norm = base_value / baseline.calibration_ms;
    const double cur_norm = it->second / current.calibration_ms;
    if (cur_norm > base_norm * (1.0 + tolerance)) regressed.push_back(name);
  }
  return regressed;
}

void PrintComparison(const Report& baseline, const Report& current,
                     double tolerance) {
  std::fprintf(stderr, "%-36s %12s %12s %8s\n", "metric", "baseline*",
               "current*", "ratio");
  for (const auto& [name, base_value] : baseline.metrics) {
    const auto it = current.metrics.find(name);
    if (it == current.metrics.end() || base_value <= 0) continue;
    const double base_norm = base_value / baseline.calibration_ms;
    const double cur_norm = it->second / current.calibration_ms;
    const double ratio = cur_norm / base_norm;
    std::fprintf(stderr, "%-36s %12.4f %12.4f %7.2fx%s%s\n", name.c_str(),
                 base_norm, cur_norm, ratio,
                 !GatedMetric(name) ? "  (not gated)" : "",
                 GatedMetric(name) && ratio > 1.0 + tolerance
                     ? "  <-- REGRESSED"
                     : "");
  }
  std::fprintf(stderr,
               "(* = per calibration unit; baseline calib %.1f ms, current "
               "%.1f ms; tolerance %.0f%%)\n",
               baseline.calibration_ms, current.calibration_ms,
               tolerance * 100);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string baseline_path;
  double tolerance = 0.25;
  VertexId n = 4096;
  int repeat = 3;
  for (int i = 1; i < argc; ++i) {
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--out") == 0) {
      out_path = need_value("--out");
    } else if (std::strcmp(argv[i], "--baseline") == 0) {
      baseline_path = need_value("--baseline");
    } else if (std::strcmp(argv[i], "--tolerance") == 0) {
      tolerance = std::strtod(need_value("--tolerance"), nullptr);
    } else if (std::strcmp(argv[i], "--n") == 0) {
      n = static_cast<VertexId>(std::strtoul(need_value("--n"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--repeat") == 0) {
      repeat = static_cast<int>(std::strtol(need_value("--repeat"), nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: perf_smoke [--out FILE] [--baseline FILE] "
                   "[--tolerance 0.25] [--n 4096] [--repeat 3]\n");
      return 2;
    }
  }
  if (n == 0 || repeat <= 0) {
    std::fprintf(stderr, "error: --n and --repeat must be positive\n");
    return 2;
  }
  // Single-threaded builds: the gate measures the code, not the CI
  // machine's core count.
  reach::SetDefaultThreads(1);

  Report current;
  current.calibration_ms = CalibrationMs();
  current.metrics = Measure(n, repeat);

  if (!baseline_path.empty()) {
    Report baseline;
    std::string error;
    if (!LoadReport(baseline_path, &baseline, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
    std::vector<std::string> regressed =
        FindRegressions(baseline, current, tolerance);
    if (!regressed.empty()) {
      // One retry: re-measure everything (calibration included) and keep
      // the per-metric best, so a transient stall must survive two full
      // rounds to fail the gate.
      std::fprintf(stderr,
                   "perf_smoke: %zu metric(s) regressed; re-measuring once\n",
                   regressed.size());
      Report second;
      second.calibration_ms = CalibrationMs();
      second.metrics = Measure(n, repeat);
      if (second.calibration_ms < current.calibration_ms) {
        current.calibration_ms = second.calibration_ms;
      }
      for (auto& [name, value] : current.metrics) {
        const auto it = second.metrics.find(name);
        if (it != second.metrics.end()) value = std::min(value, it->second);
      }
      regressed = FindRegressions(baseline, current, tolerance);
    }
    PrintComparison(baseline, current, tolerance);
    if (!regressed.empty()) {
      std::fprintf(stderr, "perf_smoke: FAIL — %zu metric(s) regressed\n",
                   regressed.size());
      return 1;
    }
    std::fprintf(stderr, "perf_smoke: OK\n");
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 2;
    }
    out << ToJson(current);
    std::fprintf(stderr, "perf_smoke: report written to %s\n",
                 out_path.c_str());
  } else if (baseline_path.empty()) {
    std::fputs(ToJson(current).c_str(), stdout);
  }
  return 0;
}
