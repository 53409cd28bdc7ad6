// Concurrent serving-engine suite (src/serve/). The headline test is the
// acceptance differential: eight reader threads and one writer sustain
// queries across several background snapshot swaps while every answer is
// checked against an independent BFS oracle via an insertion-log
// watermark protocol. The whole binary runs under TSan in CI.

#include "serve/reach_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <latch>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/failpoint.h"
#include "graph/figure1.h"
#include "graph/generators.h"
#include "graph/rng.h"
#include "graph/scc.h"
#include "obs/metrics_exporter.h"
#include "obs/metrics_registry.h"
#include "obs/query_probe.h"
#include "plain/pruned_two_hop.h"
#include "snapshot_files.h"

namespace reach {
namespace {

// Independent oracle: plain BFS over the base graph plus the first
// `watermark` entries of the insertion log. Deliberately shares no code
// with the service's own traversal paths.
bool OracleReachable(const Digraph& base, const std::vector<Edge>& log,
                     size_t watermark, VertexId s, VertexId t) {
  std::vector<std::vector<VertexId>> extra(base.NumVertices());
  for (size_t i = 0; i < watermark; ++i) {
    extra[log[i].source].push_back(log[i].target);
  }
  std::vector<uint8_t> seen(base.NumVertices(), 0);
  std::vector<VertexId> queue = {s};
  seen[s] = 1;
  for (size_t head = 0; head < queue.size(); ++head) {
    const VertexId v = queue[head];
    if (v == t) return true;
    for (VertexId n : base.OutNeighbors(v)) {
      if (!seen[n]) {
        seen[n] = 1;
        queue.push_back(n);
      }
    }
    for (VertexId n : extra[v]) {
      if (!seen[n]) {
        seen[n] = 1;
        queue.push_back(n);
      }
    }
  }
  return false;
}

// Live edge set after replaying the first `watermark` updates of `log`
// onto `base` (set semantics: a delete drops the pair, an insert adds it),
// as per-vertex out-lists. Shares no code with the service.
std::vector<std::vector<VertexId>> LiveAdjacency(
    const Digraph& base, const std::vector<EdgeUpdate>& log,
    size_t watermark) {
  std::set<Edge> live;
  for (const Edge& e : base.Edges()) live.insert(e);
  for (size_t i = 0; i < watermark; ++i) {
    const Edge e{log[i].source, log[i].target};
    if (log[i].IsInsert()) {
      live.insert(e);
    } else {
      live.erase(e);
    }
  }
  std::vector<std::vector<VertexId>> out(base.NumVertices());
  for (const Edge& e : live) out[e.source].push_back(e.target);
  return out;
}

// Vertices `s` reaches over `adj` (BFS, reflexive).
std::vector<uint8_t> ReachableFrom(
    const std::vector<std::vector<VertexId>>& adj, VertexId s) {
  std::vector<uint8_t> seen(adj.size(), 0);
  std::vector<VertexId> queue = {s};
  seen[s] = 1;
  for (size_t head = 0; head < queue.size(); ++head) {
    for (VertexId n : adj[queue[head]]) {
      if (!seen[n]) {
        seen[n] = 1;
        queue.push_back(n);
      }
    }
  }
  return seen;
}

// The acceptance differential. Watermark protocol: the writer publishes
// each edge into `log` *before* calling InsertEdge and bumps `inserted`
// *after* it returns. A reader samples `inserted` before its query and
// `published` after it:
//   * a positive answer must be justified by base + log[0, published_after)
//     — everything the service could possibly have seen;
//   * an exact negative must hold over base + log[0, inserted_before)
//     — everything definitely accepted before the query began.
TEST(ServeDifferentialTest, ConcurrentReadersAndWriterAcrossSwaps) {
  constexpr size_t kReaders = 8;
  constexpr size_t kInserts = 120;
  constexpr size_t kQueriesPerReader = 300;
  constexpr VertexId kN = 160;
  const Digraph base = RandomDigraph(kN, 320, 0xACE);

  ServiceOptions opts;
  opts.slots = kReaders;
  // The "serve.*" registry counters read the service's own ServeStats;
  // each one's delta over the test must equal its field exactly.
  const MetricsSnapshot registry_before = MetricsRegistry::Global().Snapshot();
  std::optional<ReachService> holder;
  ReachService& service = holder.emplace(base, opts);
  service.Start();

  std::vector<Edge> log(kInserts);
  std::atomic<size_t> published{0};  // slots written to `log`
  std::atomic<size_t> inserted{0};   // InsertEdge calls that returned
  std::atomic<uint64_t> wrong_positive{0};
  std::atomic<uint64_t> wrong_negative{0};
  std::atomic<uint64_t> inexact{0};
  std::atomic<uint64_t> rejected_inserts{0};

  std::thread writer([&] {
    Xoshiro256ss rng(0x5EED);
    for (size_t i = 0; i < kInserts; ++i) {
      const Edge e{static_cast<VertexId>(rng.NextBounded(kN)),
                   static_cast<VertexId>(rng.NextBounded(kN))};
      log[i] = e;
      published.store(i + 1, std::memory_order_release);
      if (!service.InsertEdge(e.source, e.target)) ++rejected_inserts;
      inserted.store(i + 1, std::memory_order_release);
      if ((i + 1) % 40 == 0) service.Flush();  // extra swaps mid-stream
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256ss rng(0x1000 + r);
      for (size_t q = 0; q < kQueriesPerReader; ++q) {
        const auto s = static_cast<VertexId>(rng.NextBounded(kN));
        const auto t = static_cast<VertexId>(rng.NextBounded(kN));
        const size_t w_before = inserted.load(std::memory_order_acquire);
        const ServeAnswer ans = service.Query(s, t);
        const size_t w_after = published.load(std::memory_order_acquire);
        if (!ans.exact) ++inexact;
        if (ans.reachable) {
          if (!OracleReachable(base, log, w_after, s, t)) ++wrong_positive;
        } else if (ans.exact) {
          if (OracleReachable(base, log, w_before, s, t)) ++wrong_negative;
        }
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  service.Flush();

  EXPECT_EQ(wrong_positive.load(), 0u);
  EXPECT_EQ(wrong_negative.load(), 0u);
  EXPECT_EQ(rejected_inserts.load(), 0u);
  // The visit budget comfortably covers a 160-vertex graph, so even
  // degraded answers are exact here.
  EXPECT_EQ(inexact.load(), 0u);
  EXPECT_GE(service.SnapshotVersion(), 4u);  // startup build + >= 3 swaps
  EXPECT_EQ(service.PendingEdgeCount(), 0u);

  const ServeStats& st = service.stats();
  EXPECT_EQ(st.queries.load(), kReaders * kQueriesPerReader);
  EXPECT_EQ(st.inserts.load(), kInserts);
  EXPECT_GE(st.rebuilds.load(), 4u);
  EXPECT_EQ(
      st.index_answers.load() + st.delta_answers.load() +
          st.fallback_answers.load(),
      st.queries.load());
  service.Stop();

  // Registry parity for every counter, while the service is alive and
  // after it is destroyed (detaching folds its counts into the registry).
  std::vector<std::pair<std::string, uint64_t>> fields;
  st.ForEachCounter([&](const char* name, const std::atomic<uint64_t>& c) {
    fields.emplace_back(name, c.load());
  });
  EXPECT_EQ(fields.size(), 24u);
  const auto expect_parity = [&](const char* when) {
    const MetricsSnapshot now = MetricsRegistry::Global().Snapshot();
    for (const auto& [name, value] : fields) {
      ASSERT_EQ(now.counters.count(name), 1u) << name;
      const auto before = registry_before.counters.find(name);
      const uint64_t base_value =
          before == registry_before.counters.end() ? 0 : before->second;
      EXPECT_EQ(now.counters.at(name) - base_value, value)
          << name << " " << when;
    }
  };
  expect_parity("while the service is alive");
  holder.reset();
  expect_parity("after the service is destroyed");

  // The registry counters and the latency histogram reach the
  // "reach.metrics.v1" export.
  MetricsExporter exporter;
  exporter.SetRegistrySnapshot(MetricsRegistry::Global().Snapshot());
  const std::string json = exporter.ToJson();
  EXPECT_NE(json.find("reach.metrics.v1"), std::string::npos);
  for (const auto& [name, value] : fields) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  EXPECT_NE(json.find("serve.query_ns"), std::string::npos);
}

// The differential above with deletes mixed in. The writer logs each
// update before applying it and bumps `applied` after; every update
// publishes an index copy mid-stream, and readers keep querying until the
// writer is done. Deletes break monotonicity, so the check is
// two-sided: a reader's exact answer must equal the live oracle at some
// update count in its [applied before, logged after] window.
TEST(ServeDifferentialTest, ConcurrentMixedUpdatesAcrossSwaps) {
  constexpr size_t kReaders = 8;
  constexpr size_t kUpdates = 160;
  constexpr size_t kQueriesPerReader = 300;
  constexpr VertexId kN = 160;
  const Digraph base = RandomDigraph(kN, 320, 0xD1CE);

  ServiceOptions opts;
  opts.slots = kReaders;
  ReachService service(base, opts);
  service.Start();
  service.Flush();

  std::vector<EdgeUpdate> log(kUpdates);
  std::atomic<size_t> logged{0};
  std::atomic<size_t> applied{0};
  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> wrong{0};
  std::atomic<uint64_t> inexact{0};
  std::atomic<uint64_t> rejected{0};

  std::thread writer([&] {
    Xoshiro256ss rng(0xFEED);
    std::vector<Edge> live = base.Edges();
    for (size_t i = 0; i < kUpdates; ++i) {
      EdgeUpdate u;
      if (!live.empty() && rng.NextBounded(2) == 0) {
        const size_t at = rng.NextBounded(live.size());
        u = EdgeUpdate::Delete(live[at].source, live[at].target);
        std::erase(live, live[at]);
      } else {
        u = EdgeUpdate::Insert(static_cast<VertexId>(rng.NextBounded(kN)),
                               static_cast<VertexId>(rng.NextBounded(kN)));
        live.push_back(Edge{u.source, u.target});
      }
      log[i] = u;
      logged.store(i + 1, std::memory_order_release);
      if (!service.ApplyUpdate({u}).ok()) ++rejected;
      applied.store(i + 1, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    writer_done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256ss rng(0x2000 + r);
      for (size_t q = 0; q < kQueriesPerReader ||
                         !writer_done.load(std::memory_order_acquire);
           ++q) {
        const auto s = static_cast<VertexId>(rng.NextBounded(kN));
        const auto t = static_cast<VertexId>(rng.NextBounded(kN));
        const size_t w_before = applied.load(std::memory_order_acquire);
        const ServeAnswer ans = service.Query(s, t);
        const size_t w_after = logged.load(std::memory_order_acquire);
        if (!ans.exact) {
          ++inexact;
          continue;
        }
        bool justified = false;
        for (size_t w = w_before; w <= w_after && !justified; ++w) {
          justified =
              ReachableFrom(LiveAdjacency(base, log, w), s)[t] ==
              static_cast<uint8_t>(ans.reachable);
        }
        if (!justified) ++wrong;
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  service.Flush();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(rejected.load(), 0u);
  EXPECT_EQ(inexact.load(), 0u);  // the visit budget covers 160 vertices
  EXPECT_GE(service.stats().rebuilds.load(), 4u);
  EXPECT_EQ(service.PendingEdgeCount(), 0u);
  const std::vector<std::vector<VertexId>> final_adj =
      LiveAdjacency(base, log, kUpdates);
  for (VertexId s = 0; s < kN; s += 7) {
    const std::vector<uint8_t> oracle = ReachableFrom(final_adj, s);
    for (VertexId t = 0; t < kN; ++t) {
      EXPECT_EQ(service.Query(s, t).reachable, oracle[t] != 0)
          << s << "->" << t;
    }
  }
  service.Stop();
}

// ---------------------------------------------------------------------
// The write path. The writer applies each batch to a copy of the
// published index, and a full build runs in the background only when the
// copy asks for one (its damaged queries paid the last build's price, its
// damage passed a `staleness` cap, or it grew past kIndexGrowthLimit times
// its last build); a spec without a copy is read-only when served. These
// tests drive one writer through seeded rounds of updates and
// check every pair against a BFS over the live edge set, both right after
// the round is applied and after the Flush that follows; the
// `full_builds` counter says when a build ran. Where a test counts on
// copies alone, the size bound must stay out of the way, so its base has
// one large strongly connected component, where most random inserts join
// pairs already connected and add no labels, or it only deletes.

// A seeded update stream over `base` with its log, which `LiveAdjacency`
// replays: random inserts, deletes of live edges, and resurrections of
// edges deleted earlier.
class UpdateLog {
 public:
  UpdateLog(const Digraph& base, uint64_t seed)
      : base_(base), rng_(seed), live_(base.Edges()) {}

  UpdateBatch Next(size_t inserts, size_t deletes, size_t resurrections) {
    UpdateBatch batch;
    const auto n = static_cast<VertexId>(base_.NumVertices());
    for (size_t i = 0; i < resurrections && !dead_.empty(); ++i) {
      const Edge e = dead_[rng_.NextBounded(dead_.size())];
      batch.push_back(EdgeUpdate::Insert(e.source, e.target));
      Record(batch.back());
    }
    for (size_t i = 0; i < deletes && !live_.empty(); ++i) {
      const Edge e = live_[rng_.NextBounded(live_.size())];
      batch.push_back(EdgeUpdate::Delete(e.source, e.target));
      Record(batch.back());
    }
    for (size_t i = 0; i < inserts; ++i) {
      batch.push_back(
          EdgeUpdate::Insert(static_cast<VertexId>(rng_.NextBounded(n)),
                             static_cast<VertexId>(rng_.NextBounded(n))));
      Record(batch.back());
    }
    return batch;
  }

  /// Logs a batch the test wrote itself.
  const UpdateBatch& Record(const UpdateBatch& batch) {
    for (const EdgeUpdate& u : batch) Record(u);
    return batch;
  }

  const Digraph& base() const { return base_; }
  const std::vector<EdgeUpdate>& log() const { return log_; }

 private:
  void Record(const EdgeUpdate& u) {
    const Edge e{u.source, u.target};
    std::erase(live_, e);
    std::erase(dead_, e);
    (u.IsInsert() ? live_ : dead_).push_back(e);
    log_.push_back(u);
  }

  const Digraph& base_;
  Xoshiro256ss rng_;
  std::vector<Edge> live_;
  std::vector<Edge> dead_;
  std::vector<EdgeUpdate> log_;
};

// Every pair's answer is exact and equals a BFS over the live edge set.
void ExpectAnswersMatchLive(const ReachService& service, const UpdateLog& log,
                            const std::string& when) {
  const std::vector<std::vector<VertexId>> adj =
      LiveAdjacency(log.base(), log.log(), log.log().size());
  for (VertexId s = 0; s < adj.size(); ++s) {
    const std::vector<uint8_t> oracle = ReachableFrom(adj, s);
    for (VertexId t = 0; t < adj.size(); ++t) {
      const ServeAnswer ans = service.Query(s, t);
      ASSERT_TRUE(ans.exact) << when << ": " << s << "->" << t;
      ASSERT_EQ(ans.reachable, oracle[t] != 0)
          << when << ": " << s << "->" << t;
    }
  }
}

// Applies `batch` (already in `log`), checks every pair, flushes, and
// checks every pair again.
void DrainAndCheck(ReachService& service, const UpdateLog& log,
                   const UpdateBatch& batch, const std::string& when) {
  ASSERT_TRUE(service.ApplyUpdate(batch).ok()) << when;
  ExpectAnswersMatchLive(service, log, when + " (applied)");
  service.Flush();
  EXPECT_EQ(service.PendingEdgeCount(), 0u) << when;
  ExpectAnswersMatchLive(service, log, when + " (drained)");
}

// A started service on `base` with its first build done. A failed build
// retries after about `backoff`.
std::unique_ptr<ReachService> StartAndBuild(
    const Digraph& base, const std::string& spec,
    std::chrono::milliseconds backoff = std::chrono::milliseconds(1)) {
  ServiceOptions opts;
  opts.spec = spec;
  opts.rebuild_backoff_initial = backoff;
  opts.rebuild_backoff_max = backoff;
  auto service = std::make_unique<ReachService>(base, opts);
  EXPECT_TRUE(service->Start());
  service->Flush();
  return service;
}

// Six rounds of at most four deletes on a graph dense with detours. The
// first five rounds' deletes all keep a detour, so the labels stay exact
// and no query pays rent; the last round's damage is paid for by the
// checks after it, but only a write asks for a build. So after the first
// build every batch publishes an updated copy of the index, and no Flush
// builds.
TEST(ServeIncrementalDrainTest, DrainsUnderTheBudgetRunNoFullBuild) {
  const Digraph base = RandomDigraph(64, 256, 0x1D2A);
  UpdateLog log(base, 0x1D2B);
  const auto service = StartAndBuild(base, "pll");
  const uint64_t drains = service->stats().rebuilds.load();
  for (int round = 0; round < 6; ++round) {
    DrainAndCheck(*service, log, log.Next(5, 4, 2),
                  "round " + std::to_string(round));
  }
  EXPECT_EQ(service->stats().rebuilds.load(), drains + 6);
  EXPECT_EQ(service->stats().full_builds.load(), 1u);
  service->Stop();
}

// Chain edges have no detour, so every deleted one damages the labels: the
// third crosses a staleness budget of 2, so that copy is published and a
// full build runs behind it, which clears the damage for the batches
// after it.
TEST(ServeIncrementalDrainTest, ADrainThatCrossesTheBudgetRunsAFullBuild) {
  const Digraph base = Chain(40);
  UpdateLog log(base, 0xC4A1);
  const auto service = StartAndBuild(base, "pll:staleness=2");
  const ServeStats& st = service->stats();
  const uint64_t drains = st.rebuilds.load();
  DrainAndCheck(*service, log,
                log.Record({EdgeUpdate::Delete(5, 6),
                            EdgeUpdate::Delete(20, 21)}),
                "two deletes");
  EXPECT_EQ(st.full_builds.load(), 1u);
  DrainAndCheck(*service, log,
                log.Record({EdgeUpdate::Delete(30, 31),
                            EdgeUpdate::Insert(5, 6)}),
                "a third delete and a resurrection");
  EXPECT_EQ(st.full_builds.load(), 2u);
  DrainAndCheck(*service, log,
                log.Record({EdgeUpdate::Delete(10, 11),
                            EdgeUpdate::Delete(12, 13)}),
                "two deletes after the build");
  EXPECT_EQ(st.full_builds.load(), 2u);
  EXPECT_EQ(st.rebuilds.load(), drains + 4);  // three copies and a build
  service->Stop();
}

// Resurrections: an edge deleted in one batch comes back in a later one
// (a tombstone drop in the index copy); an edge inserted after the build
// is deleted and inserted again, within one batch and across batches. No
// staleness cap, and every delete here keeps a detour, so no damaged
// query pays rent and no build runs.
TEST(ServeIncrementalDrainTest, ResurrectionsAcrossDrainsStayExact) {
  const Digraph base = RandomDigraph(48, 192, 0x2E5);
  UpdateLog log(base, 0x2E6);
  const auto service = StartAndBuild(base, "pll:staleness=0");
  const Edge old_edge = base.Edges()[7];
  DrainAndCheck(*service, log,
                log.Record({EdgeUpdate::Delete(old_edge.source,
                                               old_edge.target),
                            EdgeUpdate::Insert(3, 40)}),
                "delete a base edge, insert a new one");
  DrainAndCheck(*service, log,
                log.Record({EdgeUpdate::Insert(old_edge.source,
                                               old_edge.target),
                            EdgeUpdate::Delete(3, 40)}),
                "resurrect the base edge, delete the new one");
  DrainAndCheck(*service, log,
                log.Record({EdgeUpdate::Insert(3, 40),
                            EdgeUpdate::Delete(3, 40),
                            EdgeUpdate::Insert(3, 40)}),
                "the new edge back, through a delete in the same batch");
  for (int round = 0; round < 5; ++round) {
    DrainAndCheck(*service, log, log.Next(2, 3, 3),
                  "round " + std::to_string(round));
  }
  EXPECT_EQ(service->stats().full_builds.load(), 1u);
  service->Stop();
}

// The size bound counts label entries and arcs, not the chunks that hold
// them: one insert on a 10-vertex chain adds a few entries and publishes
// a copy, and the Flush after it runs no full build.
TEST(ServeIncrementalDrainTest, OneInsertOnASmallGraphBuildsNothing) {
  const Digraph base = Chain(10);
  UpdateLog log(base, 0xC10);
  const auto service = StartAndBuild(base, "pll");
  const uint64_t builds = service->stats().full_builds.load();
  DrainAndCheck(*service, log, log.Record(UpdateBatch{EdgeUpdate::Insert(9, 0)}),
                "9 -> 0 closes the chain");
  EXPECT_EQ(service->stats().full_builds.load(), builds);
  service->Stop();
}

// Health reports the published index's rebuild ledger: the price of its
// last full build, and the rent damaged queries paid since. A ring edge
// has no detour, so deleting it damages the labels, and every positive
// after it runs a live search. The queries pay the price, but only the
// next write asks for the build, which starts a new ledger. `grail` keeps
// none.
TEST(ServeIncrementalDrainTest, HealthReportsTheRentPaidAgainstTheBuildPrice) {
  constexpr VertexId kN = 64;
  std::vector<Edge> ring;
  for (VertexId v = 0; v < kN; ++v) ring.push_back({v, (v + 1) % kN});
  const Digraph base = Digraph::FromEdges(kN, ring);
  UpdateLog log(base, 0x4E17);
  const auto service = StartAndBuild(base, "pll");
  const ServeStats& st = service->stats();
  const ServiceHealth built = service->Health();
  EXPECT_EQ(built.rebuild_rent_paid, 0u);
  ASSERT_GT(built.rebuild_price, 0u);
  DrainAndCheck(*service, log, log.Record(UpdateBatch{EdgeUpdate::Delete(10, 11)}),
                "a ring edge deleted");
  const ServiceHealth paid = service->Health();
  EXPECT_EQ(paid.rebuild_price, built.rebuild_price);
  EXPECT_GE(paid.rebuild_rent_paid, paid.rebuild_price);
  EXPECT_EQ(st.full_builds.load(), 1u);
  DrainAndCheck(*service, log, log.Record(UpdateBatch{EdgeUpdate::Insert(10, 11)}),
                "the ring edge back");
  EXPECT_EQ(st.full_builds.load(), 2u);
  const ServiceHealth rebuilt = service->Health();
  EXPECT_EQ(rebuilt.rebuild_rent_paid, 0u);
  EXPECT_GT(rebuilt.rebuild_price, 0u);
  service->Stop();

  const auto grail = StartAndBuild(base, "grail");
  EXPECT_EQ(grail->Health().rebuild_rent_paid, 0u);
  EXPECT_EQ(grail->Health().rebuild_price, 0u);
  grail->Stop();
}

// A snapshot-loaded index takes writes into copies from the start. This
// snapshot records no build price, so the loaded index's price is 0: the
// first batch deletes the one arc into vertex 56, which damages the
// labels, so the copy it publishes at once asks for a full build. The
// batches after it go to copies of that build (which ask for another only
// once damaged queries paid its price).
TEST(ServeIncrementalDrainTest, SnapshotStartFallsBackToAFullBuildOnce) {
  std::vector<Edge> edges = RandomDigraph(56, 224, 0x5A7).Edges();
  edges.push_back({55, 56});
  const Digraph base = Digraph::FromEdges(57, std::move(edges));
  PrunedTwoHop built;
  built.Build(base);
  const std::string path = testing::TempDir() + "/incremental_drain.rchx";
  SaveSnapshotWithoutBuildPrice(built, path);
  UpdateLog log(base, 0x5A8);
  ReachService service(base);
  ASSERT_TRUE(service.StartWithSnapshot(path));
  ExpectAnswersMatchLive(service, log, "loaded");
  const ServeStats& st = service.stats();
  ASSERT_TRUE(service.ApplyUpdate(log.Record({EdgeUpdate::Delete(55, 56),
                                              EdgeUpdate::Insert(3, 40)}))
                  .ok());
  EXPECT_EQ(service.PendingEdgeCount(), 0u);
  ExpectAnswersMatchLive(service, log, "first batch (in a copy)");
  service.Flush();
  ExpectAnswersMatchLive(service, log, "first batch (built)");
  EXPECT_EQ(st.full_builds.load(), 1u);
  for (int round = 0; round < 3; ++round) {
    DrainAndCheck(service, log, log.Next(0, 3, 0),
                  "round " + std::to_string(round));
  }
  // One copy per batch; every other generation is a full build.
  EXPECT_EQ(st.rebuilds.load() - st.full_builds.load(), 4u);
  service.Stop();
}

// A snapshot records the price of its build, and a service started from
// it rents against that price as a built one does. Deleting the one arc
// into vertex 56 damages the labels but asks for no full build; the
// queries from 56's old ancestors pay rent through live searches, and
// once the rent reaches the recorded price the next write asks for the
// build.
TEST(ServeIncrementalDrainTest, SnapshotStartRentsUntilTheRecordedPrice) {
  constexpr VertexId kN = 57;
  std::vector<Edge> edges = RandomDigraph(kN - 1, 224, 0x5A7).Edges();
  edges.push_back({kN - 2, kN - 1});
  const Digraph base = Digraph::FromEdges(kN, std::move(edges));
  PrunedTwoHop built;
  built.Build(base);
  const uint64_t price = built.Rent().price;
  ASSERT_GT(price, 0u);
  const std::string path = testing::TempDir() + "/priced_snapshot.rchx";
  std::string error;
  ASSERT_TRUE(built.SaveSnapshot(path, &error)) << error;
  UpdateLog log(base, 0x5A9);
  ReachService service(base);
  ASSERT_TRUE(service.StartWithSnapshot(path));
  EXPECT_EQ(service.Health().rebuild_price, price);
  const ServeStats& st = service.stats();
  ASSERT_TRUE(service
                  .ApplyUpdate(log.Record(
                      UpdateBatch{EdgeUpdate::Delete(kN - 2, kN - 1)}))
                  .ok());
  service.Flush();
  EXPECT_EQ(st.full_builds.load(), 0u);
  EXPECT_EQ(service.Health().rebuild_rent_paid, 0u);
  for (int pass = 0; pass < 100 && service.Health().rebuild_rent_paid < price;
       ++pass) {
    for (VertexId s = 0; s + 1 < kN; ++s) {
      const ServeAnswer ans = service.Query(s, kN - 1);
      ASSERT_TRUE(ans.exact);
      ASSERT_FALSE(ans.reachable) << s;
    }
  }
  ASSERT_GE(service.Health().rebuild_rent_paid, price);
  EXPECT_EQ(st.full_builds.load(), 0u);
  DrainAndCheck(service, log,
                log.Record(UpdateBatch{EdgeUpdate::Insert(3, 40)}),
                "the write after the rent is due");
  EXPECT_EQ(st.full_builds.load(), 1u);
  EXPECT_EQ(service.Health().rebuild_rent_paid, 0u);
  service.Stop();
}

// `batch` on a read-only service: rejected with the spec's name, and
// nothing changes — the generation, the replay log, and every pair's
// answer (`log` holds the updates the service accepted: none).
void ExpectRejectedAsReadOnly(ReachService& service, const UpdateLog& log,
                              const UpdateBatch& batch,
                              const std::string& when) {
  const uint64_t version = service.SnapshotVersion();
  const uint64_t rejected = service.stats().update_rejected.load();
  const UpdateResult result = service.ApplyUpdate(batch);
  EXPECT_EQ(result.status, UpdateStatus::kRejected) << when;
  EXPECT_NE(result.reason.find(service.options().spec), std::string::npos)
      << when << ": " << result.reason;
  EXPECT_EQ(service.stats().update_rejected.load(), rejected + 1) << when;
  service.Flush();
  EXPECT_EQ(service.SnapshotVersion(), version) << when;
  EXPECT_EQ(service.PendingEdgeCount(), 0u) << when;
  EXPECT_FALSE(service.Health().accepting_writes) << when;
  ExpectAnswersMatchLive(service, log, when);
}

// An index without a copy (GRAIL is static) is read-only when served:
// every batch is rejected, and the first build's index keeps answering.
TEST(ServeIncrementalDrainTest, AnIndexWithoutACopyIsReadOnly) {
  const Digraph base = RandomDag(56, 130, 0x6A1);
  const UpdateLog accepted(base, 0x6A2);
  UpdateLog proposed(base, 0x6A2);
  const auto service = StartAndBuild(base, "grail");
  for (int round = 0; round < 3; ++round) {
    ExpectRejectedAsReadOnly(*service, accepted, proposed.Next(4, 3, 1),
                             "round " + std::to_string(round));
  }
  const ServeStats& st = service->stats();
  EXPECT_EQ(st.update_batches.load(), 0u);
  EXPECT_EQ(st.inserts.load() + st.deletes.load(), 0u);
  EXPECT_EQ(st.rebuilds.load(), 1u);
  EXPECT_EQ(st.full_builds.load(), 1u);
  service->Stop();
}

// The serve.rebuild failpoint fails the full build a copy asked for.
// While the build backs off, the copy that asked keeps serving every pair
// exactly; the retry then lands. Chain edges have no detour, so the
// second delete crosses a staleness budget of 1.
TEST(ServeIncrementalDrainTest, FailedIncrementalDrainRetriesAndLands) {
  if (!kFailpointsCompiled) GTEST_SKIP() << "REACH_FAILPOINTS is OFF";
  const Digraph base = Chain(40);
  UpdateLog log(base, 0x7F2);
  const auto service = StartAndBuild(base, "pll:staleness=1",
                                         std::chrono::milliseconds(400));
  DrainAndCheck(*service, log,
                log.Record(UpdateBatch{EdgeUpdate::Delete(5, 6)}),
                "before the fault");
  std::string error;
  ASSERT_TRUE(FailpointRegistry::Global().Arm("serve.rebuild",
                                              "error(times=1)", &error))
      << error;
  ASSERT_TRUE(service
                  ->ApplyUpdate(
                      log.Record(UpdateBatch{EdgeUpdate::Delete(20, 21)}))
                  .ok());
  const uint64_t copy_version = service->SnapshotVersion();
  std::thread flusher([&] { service->Flush(); });
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service->Health().rebuild != RebuildState::kBackoff &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  EXPECT_EQ(service->Health().rebuild, RebuildState::kBackoff);
  EXPECT_EQ(service->SnapshotVersion(), copy_version);
  ExpectAnswersMatchLive(*service, log, "while the build backs off");
  flusher.join();  // Flush returns once the retry has published
  FailpointRegistry::Global().DisarmAll();
  ExpectAnswersMatchLive(*service, log, "after the retry");
  const ServeStats& st = service->stats();
  EXPECT_EQ(st.rebuild_failures.load(), 1u);
  EXPECT_EQ(st.rebuild_retries.load(), 1u);
  EXPECT_GT(service->SnapshotVersion(), copy_version);
  EXPECT_EQ(st.full_builds.load(), 2u);
  service->Stop();
}

// Inserts widen 2-hop labels, and an insert-only stream damages nothing,
// so it pays no rent and passes no `staleness` cap (0, the default, is
// also spelled out). The size bound rebuilds it: a copy that passes
// kIndexGrowthLimit times the size of the last full build asks for a
// full build, which Flush waits for, so no index a Flush leaves behind
// exceeds that.
TEST(ServeIncrementalDrainTest, InsertOnlyStreamsRebuildAtTheSizeBound) {
  for (const char* spec : {"pll", "pll:staleness=0"}) {
    SCOPED_TRACE(spec);
    const Digraph base = RandomDag(64, 64, 0x1A5E);
    UpdateLog log(base, 0x1A5F);
    const auto service = StartAndBuild(base, spec);
    const ServeStats& st = service->stats();
    const uint64_t drains_before = st.rebuilds.load();
    const uint64_t builds_before = st.full_builds.load();
    size_t built = service->Health().index_bytes;
    ASSERT_GT(built, 0u);
    uint64_t builds = builds_before;
    for (int round = 0; round < 16; ++round) {
      const std::string when = "round " + std::to_string(round);
      DrainAndCheck(*service, log, log.Next(3, 0, 0), when);
      const size_t bytes = service->Health().index_bytes;
      if (st.full_builds.load() > builds) {
        builds = st.full_builds.load();
        built = bytes;
      } else {
        EXPECT_LE(bytes, kIndexGrowthLimit * built) << when;
      }
    }
    // One copy per round, and one generation per build.
    EXPECT_EQ(st.rebuilds.load() - drains_before,
              16u + (builds - builds_before));
    EXPECT_GT(builds, builds_before);  // the bound fired
    EXPECT_LT(builds - builds_before, 16u);  // and not on every batch
    service->Stop();
  }
}

// A pair connected only through an arc an earlier batch deleted, asked
// after another delete, from a source that reaches more than
// kFallbackVisitBudget vertices. The damaged copy verifies its own
// witness, so the negative is exact where a search bounded by that budget
// could not finish.
TEST(ServeIncrementalDrainTest, DamagedCopyNegativesStayExactPastTheBfsBudget) {
  constexpr VertexId kLeaves = kFallbackVisitBudget + 1024;
  // 0 -> 2 -> 1, and 0 -> each leaf 3 .. kLeaves + 2.
  std::vector<Edge> edges = {{0, 2}, {2, 1}};
  for (VertexId v = 3; v < kLeaves + 3; ++v) edges.push_back({0, v});
  const Digraph base = Digraph::FromEdges(kLeaves + 3, std::move(edges));
  const auto service = StartAndBuild(base, "pll");
  ASSERT_TRUE(service->ApplyUpdate({EdgeUpdate::Delete(2, 1)}).ok());
  service->Flush();
  EXPECT_EQ(service->stats().full_builds.load(), 1u);  // an updated copy
  EXPECT_EQ(service->PendingEdgeCount(), 0u);
  ASSERT_TRUE(service->ApplyUpdate({EdgeUpdate::Delete(0, 3)}).ok());
  const std::tuple<VertexId, VertexId, bool> pairs[] = {
      {0, 1, false}, {2, 1, false}, {0, 2, true}, {0, 4, true},
      {0, kLeaves + 2, true}};
  for (const auto& [s, t, reachable] : pairs) {
    const ServeAnswer ans = service->Query(s, t);
    EXPECT_TRUE(ans.exact) << s << "->" << t;
    EXPECT_EQ(ans.reachable, reachable) << s << "->" << t;
  }
  service->Stop();
}

// The seeded differential of the write path across full builds. A writer
// applies batches of 1-8 updates mixing inserts, deletes and
// resurrections on a scale-free DAG, where most deletes damage the
// labels, so a `staleness=2` cap asks for a full build every few batches
// and the writer's next batches land while it runs (and are replayed
// into it); plain `pll` rebuilds by rent alone. After each batch, and
// after each Flush, sampled pairs are checked against a BFS over the live
// edge set; concurrent readers check every exact answer against the live
// edge set at some batch boundary of their query's window. The last
// `pll` starts from a snapshot file.
// `grail` has no copy: it rejects every batch and keeps answering for the
// base graph.
TEST(ServeDifferentialTest, BatchesAcrossFullBuildsMatchLiveBfs) {
  constexpr VertexId kN = 1500;
  constexpr size_t kBatches = 60;
  constexpr size_t kReaders = 2;
  using Adjacency = std::vector<std::vector<VertexId>>;
  const auto reaches = [](const Adjacency& adj, VertexId s, VertexId t) {
    return ReachableFrom(adj, s)[t] != 0;
  };
  const Digraph base = ScaleFreeDag(kN, 3, 0xD1FF);
  struct Case {
    const char* spec;
    bool snapshot;
  };
  for (const auto& [spec, snapshot] :
       {Case{"pll", false}, Case{"pll:staleness=2", false},
        Case{"pll:fastpath=1:staleness=2", false},
        Case{"tfl:staleness=2", false}, Case{"dagger:staleness=2", false},
        Case{"pll:staleness=2", true}}) {
    SCOPED_TRACE(std::string(spec) + (snapshot ? " from a snapshot" : ""));
    UpdateLog log(base, 0xD200);
    ServiceOptions opts;
    opts.spec = spec;
    opts.slots = kReaders + 1;
    ReachService service(base, opts);
    if (snapshot) {
      PrunedTwoHop built;
      built.Build(base);
      const std::string path = testing::TempDir() + "/differential.rchx";
      std::string error;
      ASSERT_TRUE(built.SaveSnapshot(path, &error)) << error;
      ASSERT_TRUE(service.StartWithSnapshot(path));
    } else {
      ASSERT_TRUE(service.Start());
      service.Flush();
    }

    // states[w]: the live edge set after w batches, published before
    // batch w is applied.
    std::vector<std::shared_ptr<const Adjacency>> states(kBatches + 1);
    states[0] = std::make_shared<const Adjacency>(
        LiveAdjacency(base, log.log(), 0));
    std::atomic<size_t> logged{0};
    std::atomic<size_t> applied{0};
    std::atomic<bool> done{false};
    std::atomic<uint64_t> wrong{0};
    std::atomic<uint64_t> inexact{0};
    std::vector<std::thread> readers;
    for (size_t r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        Xoshiro256ss rng(0xD300 + r);
        while (!done.load(std::memory_order_acquire)) {
          const auto s = static_cast<VertexId>(rng.NextBounded(kN));
          const auto t = static_cast<VertexId>(rng.NextBounded(kN));
          const size_t w_before = applied.load(std::memory_order_acquire);
          const ServeAnswer ans = service.Query(s, t);
          const size_t w_after = logged.load(std::memory_order_acquire);
          if (!ans.exact) {
            ++inexact;
            continue;
          }
          bool justified = false;
          for (size_t w = w_before; w <= w_after && !justified; ++w) {
            justified = reaches(*states[w], s, t) == ans.reachable;
          }
          if (!justified) ++wrong;
        }
      });
    }

    Xoshiro256ss rng(0xD400);
    size_t most_pending = 0;
    const auto check = [&](const Adjacency& live, size_t pairs,
                           const std::string& when) {
      for (size_t i = 0; i < pairs; ++i) {
        const auto s = static_cast<VertexId>(rng.NextBounded(kN));
        const auto t = static_cast<VertexId>(rng.NextBounded(kN));
        const ServeAnswer ans = service.Query(s, t);
        ASSERT_TRUE(ans.exact) << when << ": " << s << "->" << t;
        ASSERT_EQ(ans.reachable, reaches(live, s, t))
            << when << ": " << s << "->" << t;
      }
    };
    for (size_t i = 0; i < kBatches; ++i) {
      const size_t size = 1 + rng.NextBounded(8);
      const size_t deletes = rng.NextBounded(size + 1);
      const size_t resurrections = rng.NextBounded(size - deletes + 1);
      const UpdateBatch batch =
          log.Next(size - deletes - resurrections, deletes, resurrections);
      states[i + 1] = std::make_shared<const Adjacency>(
          LiveAdjacency(base, log.log(), log.log().size()));
      logged.store(i + 1, std::memory_order_release);
      ASSERT_TRUE(service.ApplyUpdate(batch).ok());
      applied.store(i + 1, std::memory_order_release);
      most_pending = std::max(most_pending, service.PendingEdgeCount());
      const std::string when = "batch " + std::to_string(i);
      check(*states[i + 1], 16, when);
      if (i % 10 == 9) {
        service.Flush();
        EXPECT_EQ(service.PendingEdgeCount(), 0u) << when;
        check(*states[i + 1], 64, when + " (flushed)");
      }
    }
    done.store(true, std::memory_order_release);
    for (auto& th : readers) th.join();

    EXPECT_EQ(wrong.load(), 0u);
    EXPECT_EQ(inexact.load(), 0u);
    // Every batch went to a copy, and no query ran before an index.
    const ServeStats& st = service.stats();
    EXPECT_GT(st.delta_answers.load(), 0u);
    EXPECT_EQ(st.fallback_answers.load(), 0u);
    if (std::string(spec) != "pll") {
      // The staleness cap asked for full builds along the way.
      EXPECT_GT(st.full_builds.load(), snapshot ? 1u : 2u);
    }
    if (std::string(spec) == "pll:staleness=2" && !snapshot) {
      EXPECT_GT(st.full_builds.load(), 3u);
      // Batches landed while a full build ran, and were replayed into it.
      EXPECT_GT(most_pending, 0u);
    }
    service.Stop();
  }

  const auto grail = StartAndBuild(base, "grail");
  const Adjacency live = LiveAdjacency(base, {}, 0);
  UpdateLog proposed(base, 0xD200);
  Xoshiro256ss rng(0xD500);
  for (size_t i = 0; i < 3; ++i) {
    const std::string when = "grail batch " + std::to_string(i);
    const UpdateResult result = grail->ApplyUpdate(proposed.Next(3, 3, 2));
    EXPECT_EQ(result.status, UpdateStatus::kRejected) << when;
    EXPECT_NE(result.reason.find("grail"), std::string::npos) << when;
    EXPECT_EQ(grail->SnapshotVersion(), 1u) << when;
    for (size_t q = 0; q < 64; ++q) {
      const auto s = static_cast<VertexId>(rng.NextBounded(kN));
      const auto t = static_cast<VertexId>(rng.NextBounded(kN));
      const ServeAnswer ans = grail->Query(s, t);
      ASSERT_TRUE(ans.exact) << when;
      ASSERT_EQ(ans.reachable, reaches(live, s, t))
          << when << ": " << s << "->" << t;
    }
  }
  EXPECT_EQ(grail->stats().update_batches.load(), 0u);
  grail->Stop();
}

// ---------------------------------------------------------------------
// The search before the first index, read-only specs, the reader records
// and admission.

TEST(ServeFallbackTest, AnswersExactlyBeforeStartViaBoundedBfs) {
  const Digraph g = figure1::PlainGraph();
  ReachService service(g);  // never started: no index is ever built
  for (VertexId s = 0; s < g.NumVertices(); ++s) {
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      const ServeAnswer ans = service.Query(s, t);
      EXPECT_EQ(ans.reachable, OracleReachable(g, {}, 0, s, t))
          << s << "->" << t;
      EXPECT_TRUE(ans.exact);
      EXPECT_EQ(ans.source, AnswerSource::kFallbackBfs);
      EXPECT_EQ(ans.snapshot_version, 0u);
    }
  }
  EXPECT_EQ(service.stats().fallback_answers.load(),
            service.stats().queries.load());
}

// Before the first index a query searches the base graph within
// kFallbackVisitBudget expansions: a negative it could not settle in
// time is inexact, while a path found in time, or a search that ran out
// of vertices, is exact.
TEST(ServeFallbackTest, RespectsTheVisitBudget) {
  constexpr VertexId kN = kFallbackVisitBudget + 16;
  ReachService service(Chain(kN));  // never started: no index is ever built
  const ServeAnswer far = service.Query(0, kN - 1);
  EXPECT_FALSE(far.reachable);
  EXPECT_FALSE(far.exact);
  EXPECT_EQ(far.source, AnswerSource::kFallbackBfs);
  const ServeAnswer near = service.Query(0, 100);
  EXPECT_TRUE(near.reachable);
  EXPECT_TRUE(near.exact);
  const ServeAnswer backwards = service.Query(kN - 1, 0);
  EXPECT_FALSE(backwards.reachable);
  EXPECT_TRUE(backwards.exact);
  EXPECT_EQ(service.stats().inexact_answers.load(), 1u);
}

// Every update is in the published copy at once: nothing pends, and the
// copy's answers count as kDelta. The copy's few new label entries stay
// within kIndexGrowthLimit of its build, so Flush builds nothing: the copy
// stays published. `grail` has no copy, so it rejects the insert and
// keeps answering as before.
TEST(ServeDeltaTest, PendingEdgesAnsweredExactlyBeforeDrain) {
  const Digraph g = Chain(10);  // 0 -> 1 -> ... -> 9
  ReachService service(g);
  service.Start();
  service.Flush();  // wait for the index over the base chain
  ASSERT_GE(service.SnapshotVersion(), 1u);

  const ServeAnswer hit = service.Query(0, 9);
  EXPECT_TRUE(hit.reachable);
  EXPECT_EQ(hit.source, AnswerSource::kIndex);

  // 9 -> 0 closes the cycle: 5 now reaches 2 through the new edge.
  const uint64_t version = service.SnapshotVersion();
  ASSERT_TRUE(service.InsertEdge(9, 0));
  EXPECT_EQ(service.PendingEdgeCount(), 0u);
  const ServeAnswer via_update = service.Query(5, 2);
  EXPECT_TRUE(via_update.reachable);
  EXPECT_TRUE(via_update.exact);
  EXPECT_EQ(via_update.source, AnswerSource::kDelta);
  EXPECT_EQ(service.Query(0, 9).source, AnswerSource::kDelta);

  service.Flush();
  EXPECT_EQ(service.PendingEdgeCount(), 0u);
  EXPECT_EQ(service.stats().full_builds.load(), 1u);
  const ServeAnswer after = service.Query(5, 2);
  EXPECT_TRUE(after.reachable);
  EXPECT_EQ(after.source, AnswerSource::kDelta);
  EXPECT_EQ(after.snapshot_version, version + 1);
  service.Stop();

  ExpectRejectedAsReadOnly(*StartAndBuild(g, "grail"), UpdateLog(g, 0),
                           {EdgeUpdate::Insert(9, 0)}, "grail");
}

TEST(ServeDeltaTest, ChainedPendingEdgesAndExactNegatives) {
  const Digraph g = Chain(10);
  ReachService service(g);
  service.Start();
  service.Flush();

  // 8 reaches 1 only through *two* new edges, 9->4 then 4->1.
  ASSERT_TRUE(service.InsertEdge(9, 4));
  ASSERT_TRUE(service.InsertEdge(4, 1));
  const ServeAnswer two_hop = service.Query(8, 1);
  EXPECT_TRUE(two_hop.reachable);
  EXPECT_TRUE(two_hop.exact);
  EXPECT_EQ(two_hop.source, AnswerSource::kDelta);

  // 7 -> 0 stays unreachable even with both new edges (nothing ever
  // enters 0): an exact negative.
  const ServeAnswer negative = service.Query(7, 0);
  EXPECT_FALSE(negative.reachable);
  EXPECT_TRUE(negative.exact);
  EXPECT_EQ(negative.source, AnswerSource::kDelta);
  service.Stop();

  ExpectRejectedAsReadOnly(*StartAndBuild(g, "grail"), UpdateLog(g, 0),
                           {EdgeUpdate::Insert(9, 4), EdgeUpdate::Insert(4, 1)},
                           "grail");
}

TEST(ServeDeltaTest, PendingDeleteAnsweredExactlyAndSurvivesSwap) {
  const Digraph g = Chain(10);
  ReachService service(g);
  service.Start();
  service.Flush();
  ASSERT_TRUE(service.Query(0, 9).reachable);

  // Cut the chain in the middle: the copy knows the arc is gone.
  ASSERT_TRUE(service.DeleteEdge(4, 5));
  EXPECT_EQ(service.PendingEdgeCount(), 0u);
  const ServeAnswer cut = service.Query(0, 9);
  EXPECT_FALSE(cut.reachable);
  EXPECT_TRUE(cut.exact);
  EXPECT_GE(service.stats().deletes.load(), 1u);
  // Pairs on either side of the cut are unaffected.
  EXPECT_TRUE(service.Query(0, 4).reachable);
  EXPECT_TRUE(service.Query(5, 9).reachable);

  // After Flush, whatever index is published knows the arc is gone.
  service.Flush();
  EXPECT_EQ(service.PendingEdgeCount(), 0u);
  const ServeAnswer after = service.Query(0, 9);
  EXPECT_FALSE(after.reachable);
  EXPECT_TRUE(after.exact);

  // Re-inserting resurrects the path end-to-end.
  ASSERT_TRUE(service.InsertEdge(4, 5));
  EXPECT_TRUE(service.Query(0, 9).reachable);
  service.Flush();
  EXPECT_TRUE(service.Query(0, 9).reachable);
  service.Stop();

  ExpectRejectedAsReadOnly(*StartAndBuild(g, "grail"), UpdateLog(g, 0),
                           {EdgeUpdate::Delete(4, 5)}, "grail");
}

TEST(ServeUpdateTest, MixedBatchIsAtomicAndValidateFirst) {
  const Digraph g = Chain(6);
  ReachService service(g);
  service.Start();
  service.Flush();

  // One batch: cut 2->3 but bridge around it with 1->4.
  const UpdateBatch good = {EdgeUpdate::Delete(2, 3), EdgeUpdate::Insert(1, 4)};
  const UpdateResult result = service.ApplyUpdate(good);
  EXPECT_EQ(result.status, UpdateStatus::kApplied);
  EXPECT_EQ(result.applied, 2u);
  EXPECT_EQ(service.PendingEdgeCount(), 0u);
  const ServeAnswer detour = service.Query(0, 5);
  EXPECT_TRUE(detour.reachable);
  EXPECT_TRUE(detour.exact);
  const ServeAnswer severed = service.Query(2, 3);
  EXPECT_FALSE(severed.reachable);
  EXPECT_TRUE(severed.exact);

  // An out-of-range element rejects the whole batch before any of it
  // takes effect: the in-range delete ahead of it leaves no trace.
  const UpdateBatch bad = {EdgeUpdate::Delete(0, 1), EdgeUpdate::Insert(0, 99)};
  const uint64_t version = service.SnapshotVersion();
  const UpdateResult bounced = service.ApplyUpdate(bad);
  EXPECT_EQ(bounced.status, UpdateStatus::kRejected);
  EXPECT_FALSE(bounced.ok());
  EXPECT_FALSE(bounced.reason.empty());
  EXPECT_EQ(service.SnapshotVersion(), version);
  EXPECT_GE(service.stats().update_rejected.load(), 1u);
  EXPECT_TRUE(service.Query(0, 1).reachable);

  // Both effects of the good batch survive the Flush.
  service.Flush();
  EXPECT_TRUE(service.Query(0, 5).reachable);
  EXPECT_FALSE(service.Query(2, 3).reachable);
  service.Stop();

  // On a read-only spec both batches are rejected whole, the bad one
  // still by validation.
  const auto grail = StartAndBuild(g, "grail");
  ExpectRejectedAsReadOnly(*grail, UpdateLog(g, 0), good, "grail");
  EXPECT_EQ(grail->ApplyUpdate(bad).reason, bounced.reason);
}

// An insert is in the published index from the moment `ApplyUpdate`
// returns: a negative the index answered turns positive on the very next
// query, with no Flush in between.
TEST(ServeUpdateTest, NegativeTurnsPositiveOnTheQueryAfterAnInsert) {
  const Digraph g = Chain(10);
  ReachService service(g);
  service.Start();
  service.Flush();

  for (int i = 0; i < 2; ++i) {
    const ServeAnswer before = service.Query(3, 0);
    EXPECT_FALSE(before.reachable);
    EXPECT_TRUE(before.exact);
    EXPECT_EQ(before.source, AnswerSource::kIndex);
  }
  // 9 -> 4 closes a cycle that 0 is not on: still an exact negative.
  ASSERT_TRUE(service.InsertEdge(9, 4));
  const ServeAnswer unchanged = service.Query(3, 0);
  EXPECT_FALSE(unchanged.reachable);
  EXPECT_TRUE(unchanged.exact);
  EXPECT_EQ(unchanged.source, AnswerSource::kDelta);
  // 9 -> 0 makes 3 -> ... -> 9 -> 0 a path.
  ASSERT_TRUE(service.InsertEdge(9, 0));
  const ServeAnswer after = service.Query(3, 0);
  EXPECT_TRUE(after.reachable);
  EXPECT_TRUE(after.exact);
  EXPECT_EQ(after.source, AnswerSource::kDelta);
  EXPECT_EQ(service.stats().negcache_hits.load(), 0u);
  service.Stop();
}

// `Flush` waits for an owed build and publishes nothing itself: after a
// write into a copy that asked for no build, it leaves the published
// generation as it was.
TEST(ServeLifecycleTest, FlushPublishesNothingWhenNoBuildIsOwed) {
  const Digraph g = Chain(64);
  ReachService service(g);
  service.Start();
  service.Flush();

  ASSERT_TRUE(service.InsertEdge(2, 40));
  const uint64_t version = service.SnapshotVersion();
  const uint64_t rebuilds = service.stats().rebuilds.load();
  ASSERT_EQ(service.Health().rebuild, RebuildState::kIdle);
  service.Flush();
  EXPECT_EQ(service.SnapshotVersion(), version);
  EXPECT_EQ(service.stats().rebuilds.load(), rebuilds);
  EXPECT_EQ(service.stats().full_builds.load(), 1u);
  const ServeAnswer ans = service.Query(2, 63);
  EXPECT_TRUE(ans.reachable);
  EXPECT_EQ(ans.source, AnswerSource::kDelta);
  EXPECT_EQ(ans.snapshot_version, version);
  service.Stop();
}

TEST(ServeLifecycleTest, StopRejectsInsertsButKeepsServing) {
  const Digraph g = Chain(6);
  ReachService service(g);
  service.Start();
  service.Flush();
  service.Stop();
  service.Stop();  // idempotent
  EXPECT_FALSE(service.InsertEdge(0, 5));
  const ServeAnswer ans = service.Query(0, 5);
  EXPECT_TRUE(ans.reachable);  // still served from the last snapshot
  EXPECT_TRUE(ans.exact);
}

TEST(ServeLifecycleTest, OutOfRangeEndpointsAreRejected) {
  const Digraph g = Chain(4);
  ReachService service(g);
  service.Start();
  EXPECT_FALSE(service.InsertEdge(0, 99));
  EXPECT_FALSE(service.InsertEdge(99, 0));
  const ServeAnswer ans = service.Query(0, 99);
  EXPECT_FALSE(ans.reachable);
  EXPECT_TRUE(ans.exact);
  EXPECT_EQ(ans.source, AnswerSource::kIndex);
  EXPECT_FALSE(service.Query(99, 0).reachable);
  // Every query lands in exactly one answer counter, out-of-range ones
  // included (decided from the snapshot's vertex range).
  const ServeStats& st = service.stats();
  EXPECT_EQ(st.queries.load(), 2u);
  EXPECT_EQ(st.index_answers.load() + st.delta_answers.load() +
                st.fallback_answers.load() + st.shed.load(),
            st.queries.load());
  service.Stop();
}

TEST(ServeLifecycleTest, RejectedSpecFailsStartAndPublishesNoIndex) {
  const Digraph g = figure1::PlainGraph();
  for (const char* spec : {"definitely-not-an-index", "pll:compres=1",
                           "lcr:pll"}) {
    ServiceOptions opts;
    opts.spec = spec;
    ReachService service(g, opts);
    const LoadResult result = service.Start();
    EXPECT_FALSE(result) << spec;
    EXPECT_EQ(result.status, LoadStatus::kUnsupported) << spec;
    EXPECT_NE(result.detail.find(spec), std::string::npos) << result.detail;
    EXPECT_FALSE(service.StartWithSnapshot("no-such.rchx")) << spec;
    service.Flush();  // nothing pending, nothing scheduled
    EXPECT_EQ(service.SnapshotVersion(), 0u) << spec;
    // Unindexed, queries still answer through the bounded BFS.
    EXPECT_TRUE(service.Query(figure1::kA, figure1::kG).reachable) << spec;
    service.Stop();
  }
}

// A service that never started runs no build, so Flush must not wait for
// one, and it takes no write, since no index will ever carry it: neither
// without a Start() call nor after a Start() that failed. Flush runs on a
// thread with a bounded wait, so a regression fails here instead of
// hanging the suite (Stop() releases a hung Flush).
TEST(ServeLifecycleTest, FlushOnUnstartedServiceReturns) {
  for (const char* spec : {"pll", "lcr:pll"}) {
    SCOPED_TRACE(spec);
    ServiceOptions opts;
    opts.spec = spec;
    ReachService service(Chain(6), opts);
    if (std::string(spec) != "pll") {
      EXPECT_FALSE(service.Start());
    }
    const UpdateResult write = service.ApplyUpdate({EdgeUpdate::Insert(5, 1)});
    EXPECT_EQ(write.status, UpdateStatus::kRejected);
    EXPECT_NE(write.reason.find("not started"), std::string::npos)
        << write.reason;
    EXPECT_FALSE(service.Health().accepting_writes);
    std::promise<void> flushed;
    std::thread flusher([&] {
      service.Flush();
      flushed.set_value();
    });
    EXPECT_EQ(flushed.get_future().wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    service.Stop();
    flusher.join();
    // The base chain still answers, through the search.
    EXPECT_EQ(service.PendingEdgeCount(), 0u);
    EXPECT_FALSE(service.Query(4, 2).reachable);
    EXPECT_TRUE(service.Query(2, 4).reachable);
  }
}

// A write made right after Start waits for the first index, which the
// serve.rebuild delay holds open: it returns only once that build has
// published, and its copy answers at once.
TEST(ServeLifecycleTest, AWriteBeforeTheFirstIndexWaitsForIt) {
  if (!kFailpointsCompiled) GTEST_SKIP() << "REACH_FAILPOINTS is OFF";
  std::string error;
  ASSERT_TRUE(FailpointRegistry::Global().Arm(
      "serve.rebuild", "delay(ms=100,times=1)", &error))
      << error;
  ReachService service(Chain(10));
  ASSERT_TRUE(service.Start());
  EXPECT_TRUE(service.Health().accepting_writes);
  const ServeAnswer before = service.Query(5, 2);
  EXPECT_FALSE(before.reachable);
  EXPECT_EQ(before.source, AnswerSource::kFallbackBfs);
  EXPECT_EQ(before.snapshot_version, 0u);
  ASSERT_TRUE(service.InsertEdge(9, 0));
  FailpointRegistry::Global().DisarmAll();
  EXPECT_EQ(service.stats().full_builds.load(), 1u);
  EXPECT_EQ(service.SnapshotVersion(), 2u);  // the build, then the copy
  const ServeAnswer after = service.Query(5, 2);
  EXPECT_TRUE(after.reachable);
  EXPECT_TRUE(after.exact);
  EXPECT_EQ(after.source, AnswerSource::kDelta);
  service.Stop();
}

// Flush schedules a build only when one is owed: with the first build
// published, it returns without publishing another generation (for
// grail, another full build).
TEST(ServeLifecycleTest, FlushWithNothingPendingPublishesNothing) {
  ServiceOptions opts;
  opts.spec = "grail";
  ReachService service(Chain(40), opts);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(service.Start());
    service.Flush();
    EXPECT_EQ(service.stats().rebuilds.load(), 1u) << i;
    const uint64_t version = service.SnapshotVersion();
    service.Flush();
    EXPECT_EQ(service.SnapshotVersion(), version) << i;
  }
  EXPECT_EQ(service.stats().full_builds.load(), 1u);
  service.Stop();
}

// ---------------------------------------------------------------------
// Reader records (serve/serve_snapshot.h): the per-thread cached view,
// in-flight flag and latency sampling.

// A reader that keeps its cached view between queries still sees a
// write another thread made, as soon as that ApplyUpdate returned, and
// what Flush left once it returned. Each batch publishes a new
// generation; a read-only spec rejects the write, and the reader keeps
// its generation and its answer.
TEST(ServeReaderTest, CachedViewSeesInsertOnceApplyReturnsAndSwapAfterFlush) {
  for (const char* spec : {"pll", "grail"}) {
    SCOPED_TRACE(spec);
    const bool copies = std::string(spec) == "pll";
    const Digraph g = Chain(10);
    ServiceOptions opts;
    opts.spec = spec;
    ReachService service(g, opts);
    service.Start();
    service.Flush();

    std::promise<void> inserted;
    std::promise<void> flushed;
    std::promise<ServeAnswer> before;
    std::promise<ServeAnswer> after_insert;
    std::promise<ServeAnswer> after_flush;
    std::thread reader([&] {
      before.set_value(service.Query(9, 0));
      inserted.get_future().wait();
      after_insert.set_value(service.Query(9, 0));
      flushed.get_future().wait();
      after_flush.set_value(service.Query(9, 0));
    });
    const ServeAnswer a = before.get_future().get();
    EXPECT_FALSE(a.reachable);
    EXPECT_EQ(service.InsertEdge(9, 0), copies);
    inserted.set_value();
    const ServeAnswer b = after_insert.get_future().get();
    EXPECT_EQ(b.reachable, copies);
    EXPECT_TRUE(b.exact);
    EXPECT_EQ(b.snapshot_version > a.snapshot_version, copies);
    // The copy the insert published answers, and asks for no build.
    EXPECT_EQ(b.source, copies ? AnswerSource::kDelta : AnswerSource::kIndex);
    service.Flush();
    flushed.set_value();
    const ServeAnswer c = after_flush.get_future().get();
    EXPECT_EQ(c.reachable, copies);
    EXPECT_EQ(c.source, b.source);
    EXPECT_EQ(c.snapshot_version, b.snapshot_version);
    reader.join();
    service.Stop();
  }
}

// A thread finds its record by the service's id, not its address: a new
// service in the storage of a destroyed one answers for its own graph.
TEST(ServeReaderTest, NewServiceAtADestroyedOnesAddressAnswersForItsGraph) {
  std::optional<ReachService> holder;
  holder.emplace(Chain(8));
  holder->Start();
  holder->Flush();
  EXPECT_TRUE(holder->Query(0, 7).reachable);
  EXPECT_FALSE(holder->Query(7, 0).reachable);
  const ReachService* const first = &*holder;
  holder.reset();

  std::vector<Edge> reversed;
  for (VertexId v = 0; v + 1 < 8; ++v) reversed.push_back({v + 1, v});
  holder.emplace(Digraph::FromEdges(8, reversed));
  ASSERT_EQ(&*holder, first);
  holder->Start();
  holder->Flush();
  EXPECT_FALSE(holder->Query(0, 7).reachable);
  EXPECT_TRUE(holder->Query(7, 0).reachable);
}

// Short-lived reader threads: each exit frees the thread's record for
// the next thread, and leaves no in-flight flag behind.
TEST(ServeReaderTest, ShortLivedThreadsReuseRecordsAndLeaveNoneInFlight) {
  ServiceOptions opts;
  opts.max_inflight_queries = 64;  // the gated path scans the records
  ReachService service(Chain(16), opts);
  service.Start();
  service.Flush();
  for (int i = 0; i < 64; ++i) {
    std::thread([&] {
      EXPECT_TRUE(service.Query(0, 15).reachable);
      EXPECT_FALSE(service.Query(15, 0).reachable);
    }).join();
  }
  EXPECT_EQ(service.InflightQueries(), 0u);
  EXPECT_EQ(service.Health().inflight_queries, 0u);
  service.Stop();

  // The same lookup on a bare record list: 64 threads one after another
  // share one record, and eight waves of eight live threads share eight.
  const auto records = std::make_shared<ReaderRecords>();
  for (int i = 0; i < 64; ++i) {
    std::thread([&] { records->Local(); }).join();
  }
  EXPECT_EQ(records->size(), 1u);
  for (int wave = 0; wave < 8; ++wave) {
    std::latch all_hold_one(8);
    std::latch all_counted(8);
    std::vector<std::thread> threads;
    for (int i = 0; i < 8; ++i) {
      threads.emplace_back([&] {
        records->Local().inflight.store(true);
        all_hold_one.arrive_and_wait();
        EXPECT_EQ(records->InFlight(), 8u);
        all_counted.arrive_and_wait();
        records->Local().inflight.store(false);
      });
    }
    for (auto& th : threads) th.join();
  }
  EXPECT_EQ(records->size(), 8u);
  EXPECT_EQ(records->InFlight(), 0u);
}

TEST(ServeReaderTest, QueryLatencyIsSampledOneQueryIn64PerThread) {
  if (!kMetricsCompiled) GTEST_SKIP() << "REACH_METRICS is OFF";
  ReachService service(Chain(8));
  service.Start();
  service.Flush();
  const auto sampled = [] {
    const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
    const auto it = snap.histograms.find("serve.query_ns");
    return it == snap.histograms.end() ? uint64_t{0} : it->second.count;
  };
  const uint64_t before = sampled();
  for (VertexId i = 0; i < 640; ++i) service.Query(i % 8, (i * 3) % 8);
  EXPECT_EQ(sampled() - before, 10u);
  service.Stop();
}

// The admission scan under contention, no failpoint: eight readers
// against a gate of four. Whatever tier a query lands on, its answer
// stays sound against the chain oracle (reachable iff s <= t).
TEST(ServeAdmissionTest, EightReadersAgainstAGateOfFourStaySound) {
  constexpr VertexId kN = 64;
  constexpr size_t kReaders = 8;
  constexpr size_t kQueriesPerReader = 2000;
  ServiceOptions opts;
  opts.max_inflight_queries = 4;
  opts.slots = kReaders;
  ReachService service(Chain(kN), opts);
  service.Start();
  service.Flush();

  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256ss rng(0xAD00 + r);
      for (size_t q = 0; q < kQueriesPerReader; ++q) {
        const auto s = static_cast<VertexId>(rng.NextBounded(kN));
        const auto t = static_cast<VertexId>(rng.NextBounded(kN));
        const ServeAnswer ans = service.Query(s, t);
        if (ans.source == AnswerSource::kShedded) {
          if (ans.exact || ans.reachable) ++wrong;
          continue;
        }
        if (ans.reachable && s > t) ++wrong;
        if (!ans.reachable && ans.exact && s <= t) ++wrong;
      }
    });
  }
  for (auto& th : readers) th.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(service.InflightQueries(), 0u);
  const ServeStats& st = service.stats();
  EXPECT_EQ(st.queries.load(), kReaders * kQueriesPerReader);
  EXPECT_EQ(st.index_answers.load() + st.delta_answers.load() +
                st.fallback_answers.load() + st.shed.load(),
            st.queries.load());
  service.Stop();
}

// Differential under concurrency: an unreachable-biased repeated-query
// mix across live inserts and background snapshot swaps. Every exact
// negative is checked against the insertion-log watermark of the inserts
// whose `ApplyUpdate` had returned before the query began, so a reader
// that missed one surfaces as `wrong_negative`. The binary runs under
// TSan in CI, which additionally vets the lock-free reader protocol.
TEST(ServeReaderTest, ConcurrentReadersSeeEveryInsertOnceApplyReturns) {
  constexpr size_t kReaders = 4;
  constexpr size_t kInserts = 60;
  constexpr size_t kQueriesPerReader = 800;
  constexpr VertexId kN = 48;
  // Sparse: most pairs are unreachable.
  const Digraph base = RandomDigraph(kN, 60, 0xBEEF);

  ServiceOptions opts;
  opts.slots = kReaders;
  ReachService service(base, opts);
  service.Start();

  std::vector<Edge> log(kInserts);
  std::atomic<size_t> published{0};
  std::atomic<size_t> inserted{0};
  std::atomic<uint64_t> wrong_positive{0};
  std::atomic<uint64_t> wrong_negative{0};

  std::thread writer([&] {
    Xoshiro256ss rng(0xCAFE);
    for (size_t i = 0; i < kInserts; ++i) {
      const Edge e{static_cast<VertexId>(rng.NextBounded(kN)),
                   static_cast<VertexId>(rng.NextBounded(kN))};
      log[i] = e;
      published.store(i + 1, std::memory_order_release);
      ASSERT_TRUE(service.InsertEdge(e.source, e.target));
      inserted.store(i + 1, std::memory_order_release);
      if ((i + 1) % 20 == 0) service.Flush();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256ss rng(0x2000 + r);
      for (size_t q = 0; q < kQueriesPerReader; ++q) {
        // Small pair space: the same pair is asked again across inserts.
        const auto s = static_cast<VertexId>(rng.NextBounded(kN));
        const auto t = static_cast<VertexId>(rng.NextBounded(kN));
        const size_t w_before = inserted.load(std::memory_order_acquire);
        const ServeAnswer ans = service.Query(s, t);
        const size_t w_after = published.load(std::memory_order_acquire);
        if (ans.reachable) {
          if (!OracleReachable(base, log, w_after, s, t)) ++wrong_positive;
        } else if (ans.exact) {
          if (OracleReachable(base, log, w_before, s, t)) ++wrong_negative;
        }
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  service.Flush();

  EXPECT_EQ(wrong_positive.load(), 0u);
  EXPECT_EQ(wrong_negative.load(), 0u);
  const ServeStats& st = service.stats();
  EXPECT_EQ(st.queries.load(), kReaders * kQueriesPerReader);
  EXPECT_EQ(st.index_answers.load() + st.delta_answers.load() +
                st.fallback_answers.load() + st.shed.load(),
            st.queries.load());

  // Once the edge set is quiescent, every pair answers exactly as the
  // oracle over the whole log does, asked twice.
  for (VertexId s = 0; s < kN; ++s) {
    for (VertexId t = 0; t < kN; ++t) {
      const bool expected = OracleReachable(base, log, kInserts, s, t);
      for (int i = 0; i < 2; ++i) {
        const ServeAnswer ans = service.Query(s, t);
        ASSERT_EQ(ans.reachable, expected) << s << " -> " << t;
        ASSERT_TRUE(ans.exact) << s << " -> " << t;
      }
    }
  }
  service.Stop();

  if (kMetricsCompiled) {
    MetricsExporter exporter;
    exporter.SetRegistrySnapshot(MetricsRegistry::Global().Snapshot());
    const std::string json = exporter.ToJson();
    EXPECT_NE(json.find("serve.delta_answers"), std::string::npos);
    EXPECT_EQ(json.find("serve.negcache"), std::string::npos);
  }
}

// Mutual exclusion of slot leases: with a single granted slot the pool
// must serialize critical sections; the unsynchronized counter would be
// torn (and flagged by TSan) otherwise.
TEST(SlotPoolTest, SingleSlotSerializesCriticalSections) {
  SlotPool pool;
  pool.Reset(1);
  uint64_t unguarded = 0;
  constexpr size_t kThreads = 4;
  constexpr size_t kIters = 2000;
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (size_t k = 0; k < kIters; ++k) {
        const size_t slot = pool.Acquire();
        ASSERT_EQ(slot, 0u);
        ++unguarded;
        pool.Release(slot);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(unguarded, kThreads * kIters);
}

TEST(SlotPoolTest, DistinctSlotsUntilExhausted) {
  SlotPool pool;
  pool.Reset(3);
  EXPECT_EQ(pool.size(), 3u);
  bool waited = false;
  const size_t a = pool.Acquire(&waited);
  const size_t b = pool.Acquire(&waited);
  const size_t c = pool.Acquire(&waited);
  EXPECT_FALSE(waited);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, c);
  pool.Release(b);
  EXPECT_EQ(pool.Acquire(&waited), b);  // the only free slot comes back
  EXPECT_FALSE(waited);
  pool.Release(a);
  pool.Release(b);
  pool.Release(c);
}

}  // namespace
}  // namespace reach
