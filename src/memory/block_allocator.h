// Fixed-size KV page allocator (vLLM-style PagedAttention pool, ISSUE 4).
//
// The GPU's KV budget is carved into pages of `block_size_tokens` tokens;
// every live token of KV state — shared prefix-cache content and per-
// sequence private state alike — occupies exactly one slot of exactly one
// block. Blocks are refcounted so copy-on-write forks (shared prompt
// prefixes, beam/parallel-sampling style) map to shared references instead
// of token copies, and a freed block returns to a LIFO free list so
// steady-state churn (admit/decode/evict/preempt cycles) recycles ids
// without touching the heap (tests/kv_memory_alloc_test.cc pins this).
//
// Blocks here are *bookkeeping*, not storage — the simulator never holds
// real KV bytes — so allocation past `capacity_blocks` is permitted and
// simply drives free_blocks() negative. This mirrors the replica engine's
// semantics, where force-admission and decode growth may transiently
// overshoot the budget and the reclaim path (eviction, then preemption)
// restores the invariant after the step. Admission control is the layer
// that keeps overshoot bounded; the allocator just counts truthfully.
//
// Named or counted. A pool of one-token pages — the coarse compatibility
// mode that keeps historical BENCH_*.json goldens byte-identical (DESIGN.md
// §9) — need not name its pages: a coarse page is one token, its id decides
// nothing, and no two holders share one between events. A *counted* pool
// (`named` = false at construction; KvController builds one for one-token
// pages) keeps no refcounts, ids or free list, only the totals, so every
// ledger call costs O(1) whatever its token count. Its one shared state is
// the *co-held window*: a donor PrefixCache::Insert references pages the
// publishing sequence still holds, until that sequence's next release
// (ReleaseSeqPrefix at prefill completion, ReleaseSeq at completion). The
// pool counts those pages and names their sequence (`PageHolder`); the
// cache names the co-holding node. If the cache evicts that node inside the
// window, the co-held pages survive it and free at the sequence's release,
// exactly as the named refcounts would have it, so Evict's freed counts
// match the named ledger's. CHECKs keep the window simple: one co-holder at
// a time, its next release covers the co-held pages, and no edge split
// touches the co-holding node. Named pools (every block size, and one-token
// pools under KvController::set_named_pages_oracle) stay the reference
// implementation; forks and truncation exist only there.
//
// Cache-holder counts (paged mode): the prefix cache reports
// which references it holds, so the allocator keeps per page the number of
// references held by cache nodes and by *pinned* cache nodes, plus two
// running totals — pages with a cache reference (`cache_held_blocks`) and
// pages whose every reference comes from an unpinned cache node
// (`cache_evictable_blocks`: a full eviction would free them). Every
// refcount change re-evaluates its one page in O(1), sequence-side
// AddRef/Release/CoW on a cache-held page included, which makes the probe's
// occupancy figures O(1) instead of a radix-tree scan. Coarse mode never
// enables the counts: its occupancy is the cache's token counters.

#ifndef SKYWALKER_MEMORY_BLOCK_ALLOCATOR_H_
#define SKYWALKER_MEMORY_BLOCK_ALLOCATOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/logging.h"

namespace skywalker {

using BlockId = int32_t;
inline constexpr BlockId kInvalidBlockId = -1;

// Names the sequence table holding pages of a counted pool (KvController
// uses the sequence's SeqId), for the co-held window's checks.
using PageHolder = int32_t;
inline constexpr PageHolder kNoPageHolder = -1;

struct BlockAllocatorStats {
  int64_t allocated = 0;   // Cumulative pages allocated.
  int64_t freed = 0;       // Cumulative pages freed.
  int64_t cow_copies = 0;  // Copy-on-write duplications (BlockTable).
  int64_t peak_used_blocks = 0;
};

class BlockAllocator {
 public:
  // `named` = false makes a counted pool of one-token pages (file comment).
  explicit BlockAllocator(int64_t capacity_blocks, bool named = true);

  BlockAllocator(const BlockAllocator&) = delete;
  BlockAllocator& operator=(const BlockAllocator&) = delete;

  // Whether pages have ids, refcounts and a free list (every call below up
  // to Reserve), or are only counted (the counted-pool calls).
  bool named() const { return named_; }

  // Returns a block with ref_count == 1. Never fails (see file comment);
  // callers gate on free_blocks() for admission decisions.
  BlockId Allocate();

  // Shares an existing block (copy-on-write fork).
  void AddRef(BlockId id);

  // Drops one reference; returns true when the block became free.
  bool Release(BlockId id);

  // Release() over ids[0..n), in order, with the cache-holder test hoisted
  // out of the loop (publish's prefix drop and completion release spans).
  void ReleaseSpan(const BlockId* ids, int64_t n);

  // --- references held by prefix-cache node spans -----------------------
  // The radix cache takes and drops its page references only through these
  // calls, telling the allocator whether the holding node is pinned. Without
  // EnableCacheHolders() they are the plain refcount operations.

  // Turns on the per-page cache-holder counts (paged mode; idempotent).
  // Pages already live count as sequence-held.
  void EnableCacheHolders();

  // Fills out[0..n) with fresh single-reference blocks for a new, unpinned
  // cache node — id-for-id the same sequence n Allocate() calls would
  // return, with the bookkeeping updated once.
  void AllocateCacheSpan(int64_t n, BlockId* out);

  // A cache node takes one more reference on a live block (publish by
  // reference transfer, or the straddled page of an edge split).
  void AddCacheRef(BlockId id, bool pinned);

  // A cache node drops its references on ids[0..n) (eviction / teardown).
  // Returns how many blocks actually became free — the figure eviction
  // accounting wants, since references shared with surviving holders free
  // nothing.
  int64_t ReleaseCacheSpan(const BlockId* ids, int64_t n, bool pinned);

  // A cache node's pin count went 0 -> 1 (`delta` = +1) or 1 -> 0 (-1):
  // its references on ids[0..n) change class. Only valid while the counts
  // are enabled.
  void PinCacheSpan(const BlockId* ids, int64_t n, int32_t delta);

  // Pre-sizes metadata and the free list so later Allocate/Release cycles
  // below `blocks` live blocks never allocate heap memory. A counted pool
  // has nothing to size.
  void Reserve(int64_t blocks);

  // --- counted pool (named() == false) -----------------------------------
  // `n` fresh pages, for a sequence table or a cache node.
  void AllocateCount(int64_t n);

  // The table of `holder` drops `n` pages. Inside the holder's co-held
  // window the co-held pages keep the cache's reference and the window
  // closes. Returns how many pages became free.
  int64_t ReleaseCount(PageHolder holder, int64_t n);

  // A cache node takes a second reference on `n` pages the table of
  // `holder` still holds, the last of them at table offset `end` - 1: the
  // co-held window opens.
  void CoHold(PageHolder holder, int64_t n, int64_t end);

  // A cache node drops its `n` pages; `co_holder` says it is the node of an
  // open co-held window, whose co-held pages then stay with the sequence.
  // Returns how many pages became free.
  int64_t ReleaseCacheCount(int64_t n, bool co_holder);

  // Pages of the open co-held window (0 when none is open; always 0 on a
  // named pool).
  int64_t coheld_blocks() const { return coheld_; }

  int64_t capacity_blocks() const { return capacity_blocks_; }
  int64_t used_blocks() const { return used_blocks_; }
  // May be negative during transient overshoot (see file comment).
  int64_t free_blocks() const { return capacity_blocks_ - used_blocks_; }

  // Named pools only.
  int32_t ref_count(BlockId id) const {
    return refs_[static_cast<size_t>(id)];
  }

  // Per-page references held by cache nodes, and by pinned cache nodes.
  struct CacheHolders {
    int32_t refs = 0;
    int32_t pinned = 0;
  };
  bool tracks_cache_holders() const { return track_cache_; }
  // Zero for every page while the counts are off.
  CacheHolders cache_holders(BlockId id) const {
    return track_cache_ ? cache_holders_[static_cast<size_t>(id)]
                        : CacheHolders{};
  }
  // Pages with at least one cache reference, and pages whose every
  // reference comes from an unpinned cache node. O(1); zero while the
  // counts are off.
  int64_t cache_held_blocks() const { return cache_held_; }
  int64_t cache_evictable_blocks() const { return cache_evictable_; }

  // Sum of all reference counts (each shared block counted once per holder).
  // O(ids ever allocated) — a test/diagnostics view for the conservation
  // invariant (cache-held + sequence-held refs == live_refs), not a hot-path
  // quantity. A counted pool's is used pages plus co-held pages.
  int64_t live_refs() const;

  const BlockAllocatorStats& stats() const { return stats_; }
  void NoteCowCopy() { ++stats_.cow_copies; }

  // Structural soundness: used_blocks matches the number of ids with a
  // positive refcount and the free list holds exactly the zero-ref ids;
  // with cache-holder counts on, 0 <= pinned <= cache refs <= refs on every
  // page and both running totals match a recount. A counted pool holds no
  // per-page state and at most its used pages co-held.
  bool CheckInvariants() const;

 private:
  // Adds `sign` times page `id`'s contribution to the two cache totals.
  // Every change to a page with cache references is bracketed by
  // TallyCachePage(id, -1) / TallyCachePage(id, +1), so the totals track
  // exactly the page that changed.
  void TallyCachePage(BlockId id, int64_t sign) {
    const CacheHolders& h = cache_holders_[static_cast<size_t>(id)];
    if (h.refs > 0) {
      cache_held_ += sign;
      if (h.pinned == 0 && h.refs == refs_[static_cast<size_t>(id)]) {
        cache_evictable_ += sign;
      }
    }
  }
  // Whether a sequence-side refcount change on `id` can move the totals.
  bool CacheHeld(BlockId id) const {
    return track_cache_ && cache_holders_[static_cast<size_t>(id)].refs > 0;
  }
  // Release() for a page whose refcount change cannot move the totals.
  bool ReleaseUncounted(BlockId id);

  // Counts `freed` pages off the used total.
  void NoteFreed(int64_t freed) {
    used_blocks_ -= freed;
    stats_.freed += freed;
  }

  int64_t capacity_blocks_;
  bool named_;
  std::vector<int32_t> refs_;       // Indexed by BlockId.
  std::vector<BlockId> free_list_;  // LIFO: deterministic, cache-friendly.
  int64_t used_blocks_ = 0;
  BlockAllocatorStats stats_;
  // Cache-holder counts (empty unless enabled); grows with refs_.
  bool track_cache_ = false;
  std::vector<CacheHolders> cache_holders_;
  int64_t cache_held_ = 0;
  int64_t cache_evictable_ = 0;
  // The co-held window (counted pools): pages, the holder's table offset
  // one past the last of them, and the holder.
  int64_t coheld_ = 0;
  int64_t coheld_end_ = 0;
  PageHolder coheld_holder_ = kNoPageHolder;
};

// Inline: the counted-pool calls run once per decoded token on coarse
// replicas, and Allocate/AddRef/Release once per page on paged ones (their
// cross-TU call overhead was measurable when coarse pools named their
// pages).
inline void BlockAllocator::AllocateCount(int64_t n) {
  used_blocks_ += n;
  stats_.allocated += n;
  stats_.peak_used_blocks = std::max(stats_.peak_used_blocks, used_blocks_);
}

inline int64_t BlockAllocator::ReleaseCount(PageHolder holder, int64_t n) {
  int64_t freed = n;
  if (coheld_ > 0) {
    SKYWALKER_CHECK(holder == coheld_holder_)
        << "a release inside another sequence's co-held window";
    SKYWALKER_CHECK(n >= coheld_end_)
        << "the co-holder's release must cover its co-held pages";
    freed -= coheld_;
    coheld_ = 0;
  }
  NoteFreed(freed);
  return freed;
}

inline BlockId BlockAllocator::Allocate() {
  BlockId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
  } else {
    id = static_cast<BlockId>(refs_.size());
    refs_.push_back(0);
    if (track_cache_) {
      cache_holders_.emplace_back();
    }
  }
  // A free page has no cache holders (cache refs <= refs), so a fresh
  // sequence page never moves the cache totals.
  refs_[static_cast<size_t>(id)] = 1;
  ++used_blocks_;
  ++stats_.allocated;
  stats_.peak_used_blocks = std::max(stats_.peak_used_blocks, used_blocks_);
  return id;
}

inline void BlockAllocator::AddRef(BlockId id) {
  SKYWALKER_CHECK(refs_[static_cast<size_t>(id)] > 0) << "addref dead block";
  if (CacheHeld(id)) {
    // A sequence sharing a cache page makes it unevictable.
    TallyCachePage(id, -1);
    ++refs_[static_cast<size_t>(id)];
    TallyCachePage(id, +1);
    return;
  }
  ++refs_[static_cast<size_t>(id)];
}

// Inline like AddRef: a publish transfers one reference per page.
inline void BlockAllocator::AddCacheRef(BlockId id, bool pinned) {
  int32_t& ref = refs_[static_cast<size_t>(id)];
  SKYWALKER_CHECK(ref > 0) << "addref dead block";
  if (!track_cache_) {
    ++ref;
    return;
  }
  TallyCachePage(id, -1);
  ++ref;
  CacheHolders& h = cache_holders_[static_cast<size_t>(id)];
  ++h.refs;
  h.pinned += pinned ? 1 : 0;
  TallyCachePage(id, +1);
}

inline bool BlockAllocator::Release(BlockId id) {
  if (CacheHeld(id)) {
    // A sequence dropping its claim on a cache page (publish, completion,
    // CoW): the cache's references keep it live, and it may have just
    // become evictable.
    TallyCachePage(id, -1);
    --refs_[static_cast<size_t>(id)];
    TallyCachePage(id, +1);
    return false;
  }
  return ReleaseUncounted(id);
}

inline bool BlockAllocator::ReleaseUncounted(BlockId id) {
  int32_t& ref = refs_[static_cast<size_t>(id)];
  SKYWALKER_CHECK(ref > 0) << "release dead block";
  if (--ref > 0) {
    return false;
  }
  free_list_.push_back(id);
  --used_blocks_;
  ++stats_.freed;
  return true;
}

inline void BlockAllocator::ReleaseSpan(const BlockId* ids, int64_t n) {
  if (track_cache_) {
    for (int64_t i = 0; i < n; ++i) {
      Release(ids[i]);
    }
    return;
  }
  for (int64_t i = 0; i < n; ++i) {
    ReleaseUncounted(ids[i]);
  }
}

}  // namespace skywalker

#endif  // SKYWALKER_MEMORY_BLOCK_ALLOCATOR_H_
