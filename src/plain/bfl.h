#ifndef REACH_PLAIN_BFL_H_
#define REACH_PLAIN_BFL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/reachability_index.h"
#include "core/workspace_pool.h"
#include "graph/digraph.h"

namespace reach {

/// BFL [41] (paper §3.3): the Bloom-filter approximate transitive closure,
/// "one of the state-of-the-art techniques for plain reachability
/// indexing".
///
/// Every vertex hashes to one bit of an s-bit Bloom filter;
/// BloomOut(v) = filter of v's entire reachable set (computed by one
/// reverse-topological sweep), BloomIn(v) dually. The contra-positive
/// containment of §3.3 gives a no-false-negative rejection test:
/// BloomOut(t) ⊄ BloomOut(s) or BloomIn(s) ⊄ BloomIn(t) proves t is not
/// reachable from s. A DFS spanning-forest interval provides an O(1)
/// positive certificate. Undecided queries run the guided DFS the paper
/// describes ("if all the neighbors of v do not reach the target vertex,
/// then v can be skipped in the traversal") as `GuidedDfs`
/// (traversal/guided_search.h) with the same verdict.
///
/// Input must be a DAG (wrap in `SccCondensingIndex`).
class Bfl : public PooledSearchIndex<Bfl, ReachabilityIndex> {
 public:
  /// `filter_bits` is rounded up to a multiple of 64. `num_threads`
  /// parallelizes the two Bloom sweeps over dependency levels of the DAG
  /// (word-wise ORs commute, so the filters are bit-identical to a serial
  /// build). 0 = `DefaultThreads()`, 1 = serial.
  explicit Bfl(size_t filter_bits = 256, uint64_t seed = 0x62'66'6cULL,
               size_t num_threads = 0)
      : words_((filter_bits + 63) / 64),
        seed_(seed),
        num_threads_(num_threads) {
    if (words_ == 0) words_ = 1;
  }

  void Build(const Digraph& graph) override;
  bool QueryInSlot(VertexId s, VertexId t, size_t slot) const override;
  size_t IndexSizeBytes() const override;
  bool IsComplete() const override { return false; }
  std::string Name() const override {
    return "bfl(bits=" + std::to_string(words_ * 64) + ")";
  }

  /// Pure-filter verdict: +1 reachable (tree interval), -1 unreachable
  /// (Bloom containment violated), 0 undecided. Counts nothing.
  int FilterVerdict(VertexId s, VertexId t) const {
    QueryProbe uncounted;
    return FilterVerdictCounted(s, t, uncounted);
  }

 private:
  int FilterVerdictCounted(VertexId s, VertexId t, QueryProbe& probe) const;
  bool BloomConsistent(VertexId s, VertexId t) const;

  size_t words_;
  uint64_t seed_;
  size_t num_threads_;
  const Digraph* graph_ = nullptr;
  std::vector<uint64_t> bloom_out_;  // n * words_
  std::vector<uint64_t> bloom_in_;
  std::vector<uint32_t> post_;         // DFS intervals (positive cert)
  std::vector<uint32_t> subtree_low_;
};

}  // namespace reach

#endif  // REACH_PLAIN_BFL_H_
