// Load-balancer-side prefix tree (paper §3.2, "SkyWalker with regional
// snapshot").
//
// A compressed trie over token ids where every node carries the set of
// load-balancing targets (replicas or remote LBs) that previously served a
// request whose prompt passes through that node. By construction a child's
// target set is a subset of its parent's, so a traversal can terminate early
// the moment no *available* target remains (paper's early-exit optimization).
//
// Memory is bounded: when total stored tokens exceed the capacity, leaves are
// evicted starting from the earliest-inserted records (paper §3.2).
//
// Memory layout (ISSUE 3): like PrefixCache, nodes live in a slab arena
// linked by 32-bit ids, children and per-node target sets are sorted inline
// small-vectors, and edge labels are TokenSlice views into a shared
// TokenPool. The match walk itself does not allocate; each MatchBest still
// allocates once for the returned candidates vector. Inserts allocate only
// when the interned sequence opens a new pool chunk or the arena grows.
// Observable behavior is bit-identical to the seed std::map implementation.

#ifndef SKYWALKER_CACHE_ROUTING_TRIE_H_
#define SKYWALKER_CACHE_ROUTING_TRIE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/cache/small_map.h"
#include "src/cache/token_pool.h"
#include "src/cache/tokens.h"
#include "src/common/slab.h"

namespace skywalker {

// Identifies a load-balancing target: replica id or remote-LB id depending
// on which trie this is (local-replica trie vs regional snapshot trie).
using TargetId = int32_t;
inline constexpr TargetId kInvalidTarget = -1;

// Token capacity of every balancer's routing trie: SGL's per-worker trie
// and SkyWalker's replica and regional snapshot tries.
inline constexpr int64_t kBalancerTrieCapacityTokens = 4'000'000;

class RoutingTrie {
 public:
  explicit RoutingTrie(int64_t capacity_tokens);
  ~RoutingTrie();

  RoutingTrie(const RoutingTrie&) = delete;
  RoutingTrie& operator=(const RoutingTrie&) = delete;

  // Availability predicate supplied by the load balancer (§3.3): targets
  // failing it are skipped during matching.
  using TargetPredicate = std::function<bool(TargetId)>;

  // Records that `target` served a request with prompt `seq`.
  void Insert(const TokenSeq& seq, TargetId target);

  struct Match {
    int64_t match_len = 0;               // Depth of the deepest usable node.
    std::vector<TargetId> candidates;    // Available targets at that node,
                                         // most-recently-inserted first.
  };

  // Longest-prefix match constrained to available targets: walks down while
  // the next node still contains a target satisfying `pred`, then returns
  // the available targets recorded at the deepest usable node. With no
  // usable node at all (even the first token diverges or no available
  // target anywhere on the path) returns match_len == 0 and the available
  // targets of the root (i.e. every known target that passes `pred`).
  Match MatchBest(const TokenSeq& seq, const TargetPredicate& pred) const;

  // Forgets a target everywhere (replica teardown / LB failure). Nodes whose
  // target set becomes empty are pruned.
  void RemoveTarget(TargetId target);

  int64_t size_tokens() const { return size_tokens_; }
  int64_t capacity_tokens() const { return capacity_tokens_; }
  size_t num_nodes() const { return num_nodes_; }

  bool CheckInvariants() const;

 private:
  struct Node {
    TokenSlice edge;
    SmallSortedMap<Token, SlabId> children;
    SlabId parent = kNilSlabId;
    // target -> generation of the most recent insert touching this node.
    SmallSortedMap<TargetId, uint64_t> targets;
    uint64_t last_insert_gen = 0;
  };

  // Splits the edge of `id` at `keep` tokens by inserting a new node above
  // it (same scheme as PrefixCache::SplitAbove). Returns the upper node.
  SlabId SplitAbove(SlabId id, size_t keep);

  void EvictToCapacity();
  void RemoveLeaf(SlabId leaf);
  void FillAvailable(SlabId id, const TargetPredicate& pred,
                     std::vector<TargetId>* out) const;

  Node& node(SlabId id) { return nodes_[id]; }
  const Node& node(SlabId id) const { return nodes_[id]; }

  int64_t capacity_tokens_;
  Slab<Node, 6> nodes_;  // 64-node chunks: cheap short-lived instances.
  TokenPool pool_;
  SlabId root_;
  int64_t size_tokens_ = 0;
  size_t num_nodes_ = 0;
  uint64_t next_gen_ = 1;
};

}  // namespace skywalker

#endif  // SKYWALKER_CACHE_ROUTING_TRIE_H_
