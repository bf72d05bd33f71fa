// Replica-side KV prefix cache: a compressed radix tree over token ids,
// mirroring the RadixAttention cache in SGLang (paper §2.1, §3.2).
//
// Running requests pin the cached prefix they reuse so eviction cannot free
// memory that is still referenced by the continuous batch; completed
// sequences are inserted and become evictable (LRU) once unpinned.
//
// Pin lifecycle:
//   auto [cached_len, pin] = cache.MatchAndRef(prompt, now);
//   ... request runs, using `cached_len` tokens of cached KV ...
//   cache.Insert(full_sequence, now);   // prompt + generated tokens
//   cache.Unref(pin);
//
// Invariant maintained across edge splits: a node's ref_count equals the
// number of active pins whose pinned length fully covers the node's edge.
// MatchAndRef splits edges at its boundary, splits copy the count to both
// halves, and nodes are never merged, so the invariant survives concurrent
// pins.
//
// Memory layout (ISSUE 3): nodes live in a slab arena linked by 32-bit ids
// with children in a sorted inline small-vector, and edge labels are
// TokenSlice views into a shared TokenPool instead of per-node
// std::vector<Token> copies — a walk is sequential index math over
// contiguous slabs, an edge split is slice arithmetic, and steady-state
// churn (evict + reinsert, splits) recycles nodes and chunks through free
// lists without touching the heap. Pins are generation-checked handles onto
// the deepest covered node; Unref unwinds by walking parent links, which
// stays correct across splits because a split inserts the new (upper) node
// *above* the surviving one, preserving the identity of every node a pin
// can reference.
//
// Block-native cache (ISSUE 5): the tree is a *view over the paged KV block
// pool*. Each node owns a span of BlockAllocator block ids covering its
// edge's token positions in root-path coordinates (position d lives in path
// page floor(d / block_size)); publishing a prompt at prefill completion
// transfers references from the sequence's path-aligned BlockTable into the
// new node, so cached prefixes and live sequences refcount the same pages.
// Edge splits share the straddled boundary page between both halves (one
// extra reference, zero new pages), and LRU eviction releases the victim's
// page references — a page straddling into a surviving node or a running
// sequence survives until its last holder drops it. The KvController's
// cache charge is therefore exactly the pages these nodes hold: there is no
// parallel token-rounded accounting anywhere. With block_size == 1 every
// position is page-aligned, no page is ever shared, and all block
// quantities equal the seed token counters (coarse compatibility mode).
//
// Counted pools (BlockAllocator file comment): on a pool that counts its
// one-token pages a node holds no span — its pages are the tokens of its
// edge — and insert, split and eviction are O(1) in the edge length. The
// cache asks the pool which kind it has. What a count cannot infer is the
// co-held window: a donor Insert references pages the publishing sequence
// still holds, so the cache remembers the co-holding leaf and tells the
// pool when it evicts it; the pages it shares with the sequence survive
// that eviction, as their named refcounts would.
//
// Probe occupancy: in paged mode the tree takes and drops every
// page reference through the allocator's cache-holder calls, naming the
// holding node's pin state, and reports each node's pin-count transitions
// (0 <-> 1) for its whole span; the allocator keeps the held/evictable page
// totals current from that, so CountBlocks() is two loads, not a scan.
//
// Observable behavior (match lengths, eviction order, counters) is
// bit-identical to the seed std::map implementation; only the layout
// changed. tests/prefix_structures_property_test.cc fuzzes this equivalence
// against a copy of the seed code.

#ifndef SKYWALKER_CACHE_PREFIX_CACHE_H_
#define SKYWALKER_CACHE_PREFIX_CACHE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cache/small_map.h"
#include "src/cache/token_pool.h"
#include "src/cache/tokens.h"
#include "src/common/chunk_pool.h"
#include "src/common/gen_slot_pool.h"
#include "src/common/sim_time.h"
#include "src/common/slab.h"
#include "src/memory/block_allocator.h"
#include "src/memory/block_table.h"

namespace skywalker {

using PinId = int64_t;
inline constexpr PinId kInvalidPin = -1;

using BlockSlice = PoolSlice<BlockId>;
using BlockPool = ChunkPool<BlockId>;

// Victim selection under memory pressure (ISSUE 8).
//
//  * kLruLeaf (default): the behavior-frozen seed policy — repeatedly scan
//    the whole tree for the least-recently-accessed unpinned leaf and evict
//    it. O(nodes) per victim; byte-identical to every committed golden.
//  * kColdSubtree: maintain per-node subtree aggregates (pages owned, max
//    last-access, decayed hit count) incrementally and, on pressure, evict
//    whole *cold* subtrees — maximal unpinned subtrees whose newest access
//    is older than kColdSubtreeAgeUs — ranked by pages-reclaimed-per-
//    expected-future-hit. One ledger release per subtree node, one ancestor
//    aggregate fix-up per subtree, O(victims) amortized instead of a full
//    rescan per leaf. Anything the cold pass cannot satisfy falls back to
//    the LRU-leaf scan, so reclaim always makes the same progress the seed
//    policy guarantees.
enum class EvictionPolicy : uint8_t {
  kLruLeaf,
  kColdSubtree,
};

// A subtree is cold when its newest access is at least this much older than
// the newest access the cache has seen anywhere (sim microseconds). Half a
// second is several probe intervals and tens of engine steps: long enough
// that an active conversation tree is never a victim, short enough that
// abandoned ToT branches turn cold within a few steps.
inline constexpr SimDuration kColdSubtreeAgeUs = 500'000;
// Half-life of the per-subtree decayed hit count (sim microseconds). Decay
// is quantized to whole half-lives (exact power-of-two scaling via ldexp),
// so scoring is bit-deterministic across platforms and libm versions.
inline constexpr SimDuration kColdSubtreeHitHalfLifeUs = 4'000'000;

class PrefixCache {
 public:
  // `alloc` is the shared paged-KV pool the cache charges its pages to
  // (borrowed; must outlive the cache). Passing nullptr gives the cache a
  // private allocator — the standalone mode unit tests and microbenchmarks
  // use. `block_size_tokens` == 1 is the coarse compatibility mode.
  explicit PrefixCache(int64_t capacity_tokens,
                       BlockAllocator* alloc = nullptr,
                       int32_t block_size_tokens = 1,
                       EvictionPolicy policy = EvictionPolicy::kLruLeaf);
  ~PrefixCache();

  PrefixCache(const PrefixCache&) = delete;
  PrefixCache& operator=(const PrefixCache&) = delete;

  struct MatchRef {
    int64_t cached_len = 0;  // Longest cached prefix, in tokens.
    PinId pin = kInvalidPin;
  };

  // Longest cached prefix of `seq`; pins it against eviction. Also refreshes
  // LRU timestamps along the path. Always returns a valid pin (possibly of
  // length zero).
  MatchRef MatchAndRef(const TokenSeq& seq, SimTime now);

  // Longest cached prefix without pinning (read-only probe; refreshes LRU).
  int64_t MatchPrefix(const TokenSeq& seq, SimTime now);

  // Releases a pin obtained from MatchAndRef. Pin ids are single-use.
  void Unref(PinId pin);

  // Inserts `seq`; returns the number of tokens newly stored. Evicts
  // unpinned LRU entries as needed to respect capacity; if pinned content
  // prevents full compliance the cache may transiently exceed capacity
  // (the replica's admission control keeps global residency bounded).
  //
  // When `donor` is given (the publishing sequence's path-aligned block
  // table, whose first token sits at path position `donor_base`), the new
  // node takes references on the donor's pages covering the inserted span
  // instead of allocating fresh ones — the publish-is-a-reference-transfer
  // contract of the unified ledger. Positions the donor does not cover
  // (re-publish after eviction) get fresh pages. On a counted pool the
  // donor's next release must follow before any other release or split of
  // the new node (the co-held window).
  int64_t Insert(const TokenSeq& seq, SimTime now,
                 const BlockTable* donor = nullptr, int64_t donor_base = 0);

  // Evicts unpinned entries until at least `blocks` pages have returned to
  // the allocator's free list or nothing evictable remains. The unit is
  // *blocks* — what the allocator actually frees — so callers can subtract
  // the return value from a block deficit directly instead of re-reading
  // the ledger after every eviction round (ISSUE 8; with block_size == 1 a
  // block is a token and this is exactly the seed token-based eviction).
  // Victim selection follows eviction_policy(); page references shared with
  // pinned paths or live sequences are dropped but free nothing, which the
  // return value reflects truthfully.
  int64_t Evict(int64_t blocks);

  // Drops all unpinned content.
  void Clear();

  int64_t size_tokens() const { return size_tokens_; }
  int64_t capacity_tokens() const { return capacity_tokens_; }
  // Tokens currently pinned by at least one active pin (upper bound of
  // unevictable content). O(1): maintained at the 0<->1 refcount
  // transitions; edge splits conserve the total (both halves inherit the
  // original refcount). Verified against the tree by CheckInvariants().
  int64_t pinned_tokens() const { return pinned_tokens_; }
  size_t num_nodes() const { return num_nodes_; }
  size_t active_pins() const { return pins_.live(); }
  int32_t block_size_tokens() const { return block_size_; }

  // Fixed at construction.
  EvictionPolicy eviction_policy() const { return policy_; }

  // Cumulative eviction statistics: rounds is the number of Evict() calls
  // that removed at least one node, victims the nodes removed, and
  // freed_blocks the pages those removals returned to the allocator
  // (pages-reclaimed-per-eviction = freed_blocks / victims).
  struct EvictionStats {
    int64_t rounds = 0;
    int64_t victims = 0;
    int64_t freed_blocks = 0;
  };
  const EvictionStats& eviction_stats() const { return eviction_stats_; }

  // Page references held by tree nodes (a straddled page counts once per
  // covering node). The exact cache charge in unique pages is
  // CountBlocks().held_blocks.
  int64_t block_refs() const { return block_refs_; }

  // Exact page occupancy of the tree: `held_blocks` is the number of
  // distinct pages some node references; `evictable_blocks` counts pages
  // that would return to the free list if every unpinned node were evicted
  // — i.e. pages whose every allocator reference comes from an unpinned
  // node (pages also held by pinned paths or live sequences are not
  // evictable). O(1), so heartbeat probes can call it freely: in paged mode
  // both figures are the allocator's running cache-holder totals (the tree
  // reports every span reference and every node pin transition to it); in
  // coarse mode a one-token page can never straddle a node boundary or
  // hold both cache and sequence content between events, so occupancy is
  // exactly the token counters.
  struct BlockOccupancy {
    int64_t held_blocks = 0;
    int64_t evictable_blocks = 0;
  };
  BlockOccupancy CountBlocks() const {
    if (block_size_ == 1) {
      return BlockOccupancy{size_tokens_, size_tokens_ - pinned_tokens_};
    }
    return BlockOccupancy{alloc_->cache_held_blocks(),
                          alloc_->cache_evictable_blocks()};
  }
  // The same figures by full traversal of every node's page span (of
  // every node's edge on a counted pool) — the oracle CheckInvariants and
  // the differential tests compare CountBlocks against. O(page
  // references); allocates.
  BlockOccupancy CountBlocksSlow() const;

  // Cumulative statistics (for cache-hit-rate reporting).
  int64_t lookup_tokens() const { return lookup_tokens_; }
  int64_t hit_tokens() const { return hit_tokens_; }
  double HitRate() const {
    return lookup_tokens_ == 0
               ? 0.0
               : static_cast<double>(hit_tokens_) /
                     static_cast<double>(lookup_tokens_);
  }

  // Validates tree structural invariants (tests / debug builds).
  bool CheckInvariants() const;

 private:
  // Two cache lines. The first line is everything a walk touches — edge
  // slice (16) + child map with two inline entries (32) + parent (4) +
  // ref_count (4) + last_access (8) — so trie walks still load one line per
  // node. The second line holds the node's KV page span (16) plus the
  // kColdSubtree aggregates (24), touched only by insert/split/evict — and
  // the aggregates only when that policy is active, so the default-policy
  // walk and eviction paths never read them.
  struct alignas(64) Node {
    TokenSlice edge;  // Label on the edge from parent to this node.
    SmallSortedMap<Token, SlabId, 2> children;
    SlabId parent = kNilSlabId;
    // Pins in flight are bounded by the replica batch size; 2^31 is ample.
    int32_t ref_count = 0;
    SimTime last_access = 0;
    // --- second line: the paged-KV span (cold for walks) ---
    BlockSlice blocks;  // Pages covering the edge, path-aligned (none on a
                        // counted pool: the pages are the edge's tokens).
    // kColdSubtree aggregates, maintained incrementally when that is the
    // policy (root included):
    //   sub_blocks      — Σ blocks.size() over this subtree (span refs, so
    //                     a straddled page counts once per covering node);
    //   sub_last_access — upper bound on max last_access in the subtree
    //                     (exact until a descendant eviction; never lower
    //                     than the true maximum, so a "cold" verdict is
    //                     always sound);
    //   sub_hits        — decayed count of accesses into the subtree
    //                     (decay reference time is sub_hit_stamp).
    int32_t sub_blocks = 0;
    float sub_hits = 0.0f;
    SimTime sub_last_access = 0;
    SimTime sub_hit_stamp = 0;
  };
  static_assert(sizeof(Node) == 128, "Node must stay two cache lines");

  // Walks `seq`, splitting any edge that straddles the match end so the
  // match boundary is node-aligned. Returns matched length; `*deepest` gets
  // the deepest fully matched node (root if nothing matched). The full
  // matched path is exactly the parent chain of `*deepest`.
  int64_t WalkAndSplit(const TokenSeq& seq, SimTime now, SlabId* deepest);

  // Splits the edge of `id` (whose edge starts at absolute path depth
  // `start`) at `keep` tokens by inserting a new node ABOVE it: the new
  // node takes the first `keep` tokens, `id` keeps the rest (and its
  // children, refcount, pins). A page straddling the split point is shared
  // by both halves (one extra reference). Returns the new upper node.
  SlabId SplitAbove(SlabId id, size_t keep, int64_t start);

  // Removes an unpinned leaf, releasing its page references. Returns the
  // pages actually freed in the allocator.
  int64_t RemoveLeaf(SlabId leaf);

  // Pages node `n` holds: its span, or on a counted pool its edge's tokens.
  int64_t NodePages(const Node& n) const {
    return named_ ? static_cast<int64_t>(n.blocks.size())
                  : static_cast<int64_t>(n.edge.size());
  }
  // Drops node `id`'s page references (the node is going away). Returns the
  // pages actually freed in the allocator.
  int64_t ReleasePages(SlabId id, Node& n, bool pinned);
  // Whether `id` is the node of the counted pool's open co-held window.
  bool CoHolds(SlabId id) const {
    return id == coheld_leaf_ && alloc_->coheld_blocks() > 0;
  }

  // The seed LRU-leaf eviction loop (kLruLeaf, and the kColdSubtree
  // fallback pass): full-tree scan per victim, oldest unpinned leaf first.
  int64_t EvictLruLeaves(int64_t blocks);

  // kColdSubtree machinery (ISSUE 8) -----------------------------------
  // One cold pass: collect maximal unpinned-and-cold subtree roots, rank
  // them by pages-per-expected-future-hit (descending; ties oldest subtree
  // first, then smallest id — all deterministic), and evict greedily until
  // `blocks` pages have freed or the candidates run out.
  int64_t EvictColdSubtrees(int64_t blocks);
  // Removes the whole subtree rooted at `id` (every node unpinned, which
  // ref_count == 0 at the root guarantees: pins cover root paths, so a
  // pinned descendant would pin `id` too). Returns pages freed.
  int64_t RemoveSubtree(SlabId id);
  // `sub_hits` decayed to `now` in whole half-lives (exact ldexp scaling).
  static float DecayedHits(const Node& n, SimTime now);

  // Recomputes the pinned-token sum by full-tree walk (the pre-ISSUE-10
  // definition); CheckInvariants compares it against pinned_tokens_.
  int64_t PinnedTokensSlow() const;
  // Per page id, the references node spans hold and how many of those come
  // from pinned nodes, by full-tree walk (the oracle for the allocator's
  // cache-holder counts). Sized to the largest id the tree holds.
  std::vector<BlockAllocator::CacheHolders> TallyPageHolders() const;
  // Adds `delta` to sub_blocks on every ancestor of `id`, root included.
  void PropagateSubBlocks(SlabId id, int64_t delta);
  // Refreshes the access-side aggregates of a path node during a walk.
  void TouchAggregates(Node& n, SimTime now);

  Node& node(SlabId id) { return nodes_[id]; }
  const Node& node(SlabId id) const { return nodes_[id]; }

  int64_t capacity_tokens_;
  int32_t block_size_;
  const EvictionPolicy policy_;
  // Whether aggregates are maintained (== policy is kColdSubtree), hoisted
  // into a bool so walk-path checks stay a single flag test.
  const bool maintain_aggregates_;
  // Newest access timestamp ever observed (MatchAndRef/MatchPrefix/Insert).
  // Eviction has no clock parameter, so coldness is judged against this.
  SimTime newest_access_ = 0;
  std::unique_ptr<BlockAllocator> owned_alloc_;  // Standalone mode only.
  BlockAllocator* alloc_;                        // Shared paged-KV pool.
  bool named_ = true;  // alloc_->named(): nodes hold page spans.
  // The leaf of the last donor Insert that co-held pages (CoHolds).
  SlabId coheld_leaf_ = kNilSlabId;
  Slab<Node, 6> nodes_;  // 64-node chunks: cheap short-lived instances.
  TokenPool pool_;
  BlockPool block_pool_;
  SlabId root_;
  int64_t size_tokens_ = 0;
  size_t num_nodes_ = 0;  // Excludes root.
  int64_t block_refs_ = 0;
  // Running sum of edge lengths of nodes with ref_count > 0; see
  // pinned_tokens(). Updated only at pin 0->1 / unpin 1->0 transitions.
  int64_t pinned_tokens_ = 0;

  // Pins are generation-stamped handles so stale/double Unrefs are caught;
  // the slot payload is the deepest node covered by the pin.
  GenSlotPool<SlabId> pins_;

  // Reused scratch: eviction's DFS stack and Insert's span assembly buffer
  // (steady-state allocation freedom).
  std::vector<SlabId> evict_stack_;
  std::vector<BlockId> span_scratch_;
  // Cold-pass candidate list (score precomputed; reused across passes).
  struct ColdCandidate {
    double score = 0.0;
    SimTime sub_last_access = 0;
    SlabId id = kNilSlabId;
  };
  std::vector<ColdCandidate> cold_candidates_;
  EvictionStats eviction_stats_;

  int64_t lookup_tokens_ = 0;
  int64_t hit_tokens_ = 0;
};

}  // namespace skywalker

#endif  // SKYWALKER_CACHE_PREFIX_CACHE_H_
