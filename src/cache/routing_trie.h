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
//
// Unlike PrefixCache, the trie copies what it indexes rather than borrowing
// the inserting request's buffer: each ToT node's buffer repeats its
// parent's context, and a 4M-token trie holding every buffer it indexed
// alive costs more memory than its own chunks (ROADMAP item 13).

#ifndef SKYWALKER_CACHE_ROUTING_TRIE_H_
#define SKYWALKER_CACHE_ROUTING_TRIE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
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

  // Records that `target` served a request with prompt `seq`.
  void Insert(TokenSpan seq, TargetId target);

  struct Match {
    int64_t match_len = 0;               // Depth of the deepest usable node.
    std::vector<TargetId> candidates;    // Available targets at that node,
                                         // most-recently-inserted first.
  };

  // Longest-prefix match constrained to available targets: walks down while
  // the next node still contains a target satisfying `available` (the load
  // balancer's availability predicate, §3.3, any callable taking a
  // TargetId), then returns the available targets recorded at the deepest
  // usable node. With no usable node at all (even the first token diverges
  // or no available target anywhere on the path) returns match_len == 0 and
  // the available targets of the root (i.e. every known target that passes
  // `available`). The predicate is a template parameter so the balancers'
  // lambdas inline into the walk.
  template <typename Available>
  Match MatchBest(TokenSpan seq, const Available& available) const;
  // Every target is available.
  Match MatchBest(TokenSpan seq, std::nullptr_t) const {
    return MatchBest(seq, [](TargetId) { return true; });
  }

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
  template <typename Available>
  void FillAvailable(SlabId id, const Available& available,
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

template <typename Available>
void RoutingTrie::FillAvailable(SlabId id, const Available& available,
                                std::vector<TargetId>* out) const {
  out->clear();
  // Most-recently-inserted first, so callers preferring fresh caches can
  // take the front. Deployments have a few dozen targets at most, so the
  // (gen, target) sort scratch lives on the stack; only the returned
  // candidate vector allocates.
  constexpr size_t kInlineAvail = 64;
  std::pair<uint64_t, TargetId> inline_avail[kInlineAvail];
  std::vector<std::pair<uint64_t, TargetId>> spill;
  std::pair<uint64_t, TargetId>* avail = inline_avail;
  const auto& targets = node(id).targets;
  if (targets.size() > kInlineAvail) {
    spill.resize(targets.size());
    avail = spill.data();
  }
  size_t count = 0;
  for (const auto& [target, gen] : targets) {
    if (available(target)) {
      avail[count++] = {gen, target};
    }
  }
  std::sort(avail, avail + count,
            [](const auto& a, const auto& b) { return a.first > b.first; });
  out->reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out->push_back(avail[i].second);
  }
}

template <typename Available>
RoutingTrie::Match RoutingTrie::MatchBest(TokenSpan seq,
                                          const Available& available) const {
  Match result;
  SlabId best = root_;
  int64_t best_len = 0;

  Slab<Node, 6>::ConstCursor cursor(&nodes_);
  const Node* cur_node = &node(root_);
  size_t pos = 0;
  while (pos < seq.size()) {
    const SlabId* child_slot = cur_node->children.Find(seq[pos]);
    if (child_slot == nullptr) {
      break;
    }
    const SlabId child = *child_slot;
    const Node& c = *cursor.Deref(child);
    const size_t n = std::min<size_t>(c.edge.size(), seq.size() - pos);
    // First token is the child's map key: known equal, skip it.
    size_t matched = 1;
    if (n > 1) {
      matched += CommonPrefixLenRaw(c.edge.data + 1, seq.data() + pos + 1,
                                    n - 1);
    }
    // Early exit (paper §3.2): child target sets are subsets of the
    // parent's, so once no available target remains there is nothing
    // deeper worth visiting.
    bool any_available = false;
    for (const auto& [target, gen] : c.targets) {
      (void)gen;
      if (available(target)) {
        any_available = true;
        break;
      }
    }
    if (!any_available) {
      break;
    }
    pos += matched;
    best = child;
    best_len = static_cast<int64_t>(pos);
    if (matched < c.edge.size()) {
      break;  // Diverged inside this edge; partial tokens still matched.
    }
    cur_node = &c;
  }

  result.match_len = best_len;
  FillAvailable(best, available, &result.candidates);
  return result;
}

}  // namespace skywalker

#endif  // SKYWALKER_CACHE_ROUTING_TRIE_H_
