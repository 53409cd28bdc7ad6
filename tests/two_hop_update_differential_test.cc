// Seeded differential of the 2-hop write path (`TwoHopCore`): sequences of
// `ApplyUpdate` batches on chains of copies, checked after every batch
// against a BFS over the live edge set. The batches mix inserts of new
// arcs, deletes (damaging and redundant), resurrections of deleted arcs,
// re-deletes of resurrected arcs and no-ops; a batch that asks for a full
// build gets `RebuildFromUpdates`. Every few batches the index is copied,
// and the updates go on in the copy while the source must keep answering
// as it did. Replay a failure from the spec, the seed and the step in the
// assertion message.

#include <algorithm>
#include <cctype>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/index_factory.h"
#include "graph/generators.h"
#include "graph/rng.h"
#include "lcr/pruned_labeled_two_hop.h"
#include "plain/pruned_two_hop.h"

namespace reach {
namespace {

constexpr VertexId kN = 40;
constexpr Label kLabels = 3;
// The label sets labeled answers are checked under.
constexpr LabelSet kLabeledMasks[] = {0b111, 0b001, 0b011, 0b110};
constexpr LabelSet kPlainMasks[] = {0b1};

// One arc of either graph kind; a plain arc has label 0.
struct Arc {
  VertexId source = 0;
  VertexId target = 0;
  Label label = 0;
  friend auto operator<=>(const Arc&, const Arc&) = default;
};

struct Update {
  bool insert = true;
  Arc arc;
};

// Answers of every (mask, s, t) triple, row-major, for `masks`.
using Answers = std::vector<uint8_t>;

// What the live edge set `live` answers, by one BFS per source and mask.
Answers LiveAnswers(const std::set<Arc>& live,
                    std::span<const LabelSet> masks) {
  std::vector<std::vector<Arc>> out(kN);
  for (const Arc& arc : live) out[arc.source].push_back(arc);
  Answers answers;
  answers.reserve(masks.size() * kN * kN);
  std::vector<uint8_t> seen(kN);
  std::vector<VertexId> queue;
  for (const LabelSet mask : masks) {
    for (VertexId s = 0; s < kN; ++s) {
      std::fill(seen.begin(), seen.end(), 0);
      queue.assign(1, s);
      seen[s] = 1;
      for (size_t head = 0; head < queue.size(); ++head) {
        for (const Arc& arc : out[queue[head]]) {
          if ((LabelBit(arc.label) & mask) == 0 || seen[arc.target]) continue;
          seen[arc.target] = 1;
          queue.push_back(arc.target);
        }
      }
      answers.insert(answers.end(), seen.begin(), seen.end());
    }
  }
  return answers;
}

// The index under test behind one interface, plain or labeled.
class Subject {
 public:
  virtual ~Subject() = default;
  virtual UpdateResult Apply(const std::vector<Update>& batch) = 0;
  virtual bool Rebuild() = 0;
  virtual std::unique_ptr<Subject> Clone() const = 0;
  virtual Answers AllAnswers() const = 0;
};

class PlainSubject : public Subject {
 public:
  explicit PlainSubject(std::unique_ptr<DynamicReachabilityIndex> index)
      : index_(std::move(index)) {}
  UpdateResult Apply(const std::vector<Update>& batch) override {
    UpdateBatch updates;
    for (const Update& u : batch) {
      updates.push_back(u.insert
                            ? EdgeUpdate::Insert(u.arc.source, u.arc.target)
                            : EdgeUpdate::Delete(u.arc.source, u.arc.target));
    }
    return index_->ApplyUpdate(updates);
  }
  bool Rebuild() override { return index_->RebuildFromUpdates(); }
  std::unique_ptr<Subject> Clone() const override {
    std::unique_ptr<DynamicReachabilityIndex> copy = index_->Clone();
    return copy == nullptr ? nullptr
                           : std::make_unique<PlainSubject>(std::move(copy));
  }
  Answers AllAnswers() const override {
    Answers answers;
    for (VertexId s = 0; s < kN; ++s) {
      for (VertexId t = 0; t < kN; ++t) answers.push_back(index_->Query(s, t));
    }
    return answers;
  }

 private:
  std::unique_ptr<DynamicReachabilityIndex> index_;
};

class LabeledSubject : public Subject {
 public:
  explicit LabeledSubject(std::unique_ptr<PrunedLabeledTwoHop> index)
      : index_(std::move(index)) {}
  UpdateResult Apply(const std::vector<Update>& batch) override {
    LabeledUpdateBatch updates;
    for (const Update& u : batch) {
      const Arc& a = u.arc;
      updates.push_back(
          u.insert ? LabeledEdgeUpdate::Insert(a.source, a.target, a.label)
                   : LabeledEdgeUpdate::Delete(a.source, a.target, a.label));
    }
    return index_->ApplyUpdate(updates);
  }
  bool Rebuild() override { return index_->RebuildFromUpdates(); }
  std::unique_ptr<Subject> Clone() const override {
    return std::make_unique<LabeledSubject>(
        std::make_unique<PrunedLabeledTwoHop>(*index_));
  }
  Answers AllAnswers() const override {
    Answers answers;
    for (const LabelSet mask : kLabeledMasks) {
      for (VertexId s = 0; s < kN; ++s) {
        for (VertexId t = 0; t < kN; ++t) {
          answers.push_back(index_->Query(s, t, mask));
        }
      }
    }
    return answers;
  }

 private:
  std::unique_ptr<PrunedLabeledTwoHop> index_;
};

// The update state a sequence has driven the index into: the live arcs,
// the arcs deleted and not re-inserted (`dead`), and the arcs deleted at
// least once since the last build (`cut`).
struct Model {
  std::set<Arc> live, dead, cut;

  void Apply(const Update& u) {
    if (u.insert) {
      if (live.insert(u.arc).second) dead.erase(u.arc);
    } else if (live.erase(u.arc) != 0) {
      dead.insert(u.arc);
      cut.insert(u.arc);
    }
  }
  // After a full build the built graph is the live one.
  void Rebuilt() {
    dead.clear();
    cut.clear();
  }
};

template <typename Set>
Arc PickFrom(const Set& arcs, Xoshiro256ss& rng) {
  auto it = arcs.begin();
  std::advance(it, rng.NextBounded(arcs.size()));
  return *it;
}

// The update mixes a sequence draws from.
enum class Mix {
  // Every kind the header lists; a quarter are inserts of random arcs.
  kMixed,
  // 85% inserts of new arcs, the rest drawn as in `kMixed`, so few
  // deletes: inserts stack on earlier inserts' delta entries with no
  // full build between them.
  kInsertHeavy,
};

// Whether `u` inserts an arc that `model` has never seen.
bool InsertsNewArc(const Model& model, const Update& u) {
  return u.insert && model.live.count(u.arc) == 0 &&
         model.dead.count(u.arc) == 0;
}

// One random update of the kinds the header lists, in the proportions of
// `mix`.
Update NextUpdate(const Model& model, bool labeled, Mix mix,
                  Xoshiro256ss& rng) {
  const auto random_arc = [&] {
    Arc arc;
    arc.source = static_cast<VertexId>(rng.NextBounded(kN));
    do {
      arc.target = static_cast<VertexId>(rng.NextBounded(kN));
    } while (arc.target == arc.source);
    arc.label = labeled ? static_cast<Label>(rng.NextBounded(kLabels)) : 0;
    return arc;
  };
  if (mix == Mix::kInsertHeavy && rng.NextBounded(100) < 85) {
    Update u{true, random_arc()};
    while (!InsertsNewArc(model, u)) u.arc = random_arc();
    return u;
  }
  std::vector<Arc> resurrected;
  for (const Arc& arc : model.cut) {
    if (model.live.count(arc) != 0) resurrected.push_back(arc);
  }
  const uint64_t roll = rng.NextBounded(100);
  if (roll < 25) return {true, random_arc()};  // mostly new arcs
  if (roll < 55 && !model.live.empty()) {
    return {false, PickFrom(model.live, rng)};
  }
  if (roll < 70 && !model.dead.empty()) {
    return {true, PickFrom(model.dead, rng)};  // resurrection
  }
  if (roll < 90 && !resurrected.empty()) {
    return {false, PickFrom(resurrected, rng)};  // re-delete
  }
  if (roll < 95 && !model.live.empty()) {
    return {true, PickFrom(model.live, rng)};  // no-op insert
  }
  return {false, random_arc()};  // mostly absent: a no-op delete
}

struct Stats {
  size_t batches = 0;
  size_t copies = 0;
  size_t rebuilds = 0;
  size_t damaged_batches = 0;
  // The most inserts of new arcs one sequence applied with no full build
  // between them.
  size_t stacked_inserts = 0;
};

// Runs one seeded sequence of `steps` batches from `subject`, built over
// the arcs of `model.live`.
void RunSequence(std::unique_ptr<Subject> subject, Model model, bool labeled,
                 Mix mix, uint64_t seed, int steps,
                 const std::string& context, Stats* stats) {
  const std::span<const LabelSet> masks =
      labeled ? std::span<const LabelSet>(kLabeledMasks)
              : std::span<const LabelSet>(kPlainMasks);
  Xoshiro256ss rng(seed);
  std::unique_ptr<Subject> source;  // the last copy's source
  Answers source_answers;
  ASSERT_EQ(subject->AllAnswers(), LiveAnswers(model.live, masks)) << context;
  size_t stacked = 0;  // new-arc inserts since the last full build
  for (int step = 0; step < steps; ++step) {
    const std::string where =
        context + " seed " + std::to_string(seed) + " step " +
        std::to_string(step);
    if (rng.NextBounded(5) == 0) {
      std::unique_ptr<Subject> copy = subject->Clone();
      ASSERT_NE(copy, nullptr) << where;
      source = std::move(subject);
      source_answers = LiveAnswers(model.live, masks);
      subject = std::move(copy);
      ++stats->copies;
    }
    std::vector<Update> batch(1 + rng.NextBounded(3));
    for (Update& u : batch) {
      u = NextUpdate(model, labeled, mix, rng);
      if (InsertsNewArc(model, u)) ++stacked;
      model.Apply(u);
    }
    stats->stacked_inserts = std::max(stats->stacked_inserts, stacked);
    const UpdateResult result = subject->Apply(batch);
    ASSERT_NE(result.status, UpdateStatus::kRejected)
        << where << ": " << result.reason;
    ++stats->batches;
    if (result.damage > 0) ++stats->damaged_batches;
    const Answers live = LiveAnswers(model.live, masks);
    ASSERT_EQ(subject->AllAnswers(), live) << where;
    if (result.status == UpdateStatus::kDeferredRebuild) {
      ASSERT_TRUE(subject->Rebuild()) << where;
      model.Rebuilt();
      stacked = 0;
      ++stats->rebuilds;
      ASSERT_EQ(subject->AllAnswers(), live) << where << " rebuilt";
    }
    if (source != nullptr) {
      ASSERT_EQ(source->AllAnswers(), source_answers) << where << " source";
    }
  }
}

std::string SpecName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

class TwoHopUpdateDifferentialTest
    : public ::testing::TestWithParam<std::string> {};

// Cyclic and acyclic inputs, four seeds each, under both mixes. The mixed
// sequences must have seen damage, copies and at least one rent-triggered
// full build; the insert-heavy ones copies and a stack of at least 20
// new-arc inserts.
TEST_P(TwoHopUpdateDifferentialTest, CopyChainsMatchLiveBfs) {
  const std::string spec = GetParam();
  const bool labeled = spec.starts_with("lcr:");
  for (const Mix mix : {Mix::kMixed, Mix::kInsertHeavy}) {
    const std::string mix_name =
        mix == Mix::kMixed ? " mixed" : " insert-heavy";
    Stats stats;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      const bool dag = seed % 2 == 0;
      const Digraph shape = dag ? RandomDag(kN, 2 * kN, 0xD1F0 + seed)
                                : RandomDigraph(kN, 3 * kN, 0xD1F0 + seed);
      Model model;
      std::unique_ptr<Subject> subject;
      // The graph outlives the index and every copy (their overlays point
      // into it until a full build materializes a graph of their own).
      std::shared_ptr<const void> graph;
      MadeIndex made = MakeIndex(spec);
      ASSERT_TRUE(made) << made.error;
      if (labeled) {
        auto g = std::make_shared<const LabeledDigraph>(
            WithUniformLabels(shape, kLabels, 0x1AB + seed));
        for (const LabeledEdge& e : g->Edges()) {
          model.live.insert({e.source, e.target, e.label});
        }
        auto* index = dynamic_cast<PrunedLabeledTwoHop*>(made.lcr.get());
        ASSERT_NE(index, nullptr) << spec;
        made.lcr.release();
        index->Build(*g);
        subject = std::make_unique<LabeledSubject>(
            std::unique_ptr<PrunedLabeledTwoHop>(index));
        graph = g;
      } else {
        auto g = std::make_shared<const Digraph>(shape);
        for (const Edge& e : g->Edges()) {
          model.live.insert({e.source, e.target, 0});
        }
        auto* index =
            dynamic_cast<DynamicReachabilityIndex*>(made.plain.get());
        ASSERT_NE(index, nullptr) << spec;
        made.plain.release();
        index->Build(*g);
        subject = std::make_unique<PlainSubject>(
            std::unique_ptr<DynamicReachabilityIndex>(index));
        graph = g;
      }
      RunSequence(std::move(subject), std::move(model), labeled, mix, seed,
                  /*steps=*/60, spec + mix_name + (dag ? " dag" : " cyclic"),
                  &stats);
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(stats.copies, 0u) << mix_name;
    if (mix == Mix::kMixed) {
      EXPECT_GT(stats.damaged_batches, 0u);
      EXPECT_GT(stats.rebuilds, 0u);
    } else {
      EXPECT_GE(stats.stacked_inserts, 20u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Specs, TwoHopUpdateDifferentialTest,
                         ::testing::Values("pll", "tfl", "pll:compress=1",
                                           "lcr:pll"),
                         SpecName);

// Arcs s->u, u->v, s->w, w->v, v->t. Delete (u, v), re-insert it, delete
// (w, v), then delete (u, v) again: s no longer reaches t. The last
// delete is a re-delete of an arc cut already, so it changes no damage
// state; only state recorded by the earlier deletes can make the answer
// exact. Reachability sets taken over the live graph at each delete would
// miss s: (u, v) was live when (w, v) was cut.
TEST(TwoHopLostSetTest, RedeleteAfterAnotherCutLosesAPair) {
  constexpr VertexId s = 0, u = 1, v = 2, w = 3, t = 4;
  const Digraph g =
      Digraph::FromEdges(5, {{s, u}, {u, v}, {s, w}, {w, v}, {v, t}});
  PrunedTwoHop index;
  index.Build(g);
  ASSERT_TRUE(index.ApplyUpdate({EdgeUpdate::Delete(u, v)}).ok());
  EXPECT_TRUE(index.Query(s, t));
  EXPECT_FALSE(index.Query(u, t));
  ASSERT_TRUE(index.ApplyUpdate({EdgeUpdate::Insert(u, v)}).ok());
  EXPECT_TRUE(index.Query(u, t));
  ASSERT_TRUE(index.ApplyUpdate({EdgeUpdate::Delete(w, v)}).ok());
  EXPECT_TRUE(index.Query(s, t));
  EXPECT_FALSE(index.Query(w, t));
  ASSERT_TRUE(index.ApplyUpdate({EdgeUpdate::Delete(u, v)}).ok());
  EXPECT_FALSE(index.Query(s, t));
  EXPECT_FALSE(index.Query(s, v));
  EXPECT_FALSE(index.Query(u, t));
  EXPECT_TRUE(index.Query(s, w));
  EXPECT_TRUE(index.Query(v, t));
}

}  // namespace
}  // namespace reach
