#include "src/cache/prefix_cache.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <utility>

#include "src/common/logging.h"

namespace skywalker {

namespace {
// Path-page index of the first page covering positions >= d.
inline int64_t PageFloor(int64_t d, int32_t block_size) {
  return d / block_size;
}
// Path-page index one past the last page covering positions < d.
inline int64_t PageCeil(int64_t d, int32_t block_size) {
  return (d + block_size - 1) / block_size;
}
}  // namespace

PrefixCache::PrefixCache(int64_t capacity_tokens, BlockAllocator* alloc,
                         int32_t block_size_tokens, EvictionPolicy)
    : capacity_tokens_(capacity_tokens), block_size_(block_size_tokens) {
  SKYWALKER_CHECK(block_size_ >= 1) << "block size";
  if (alloc == nullptr) {
    owned_alloc_ = std::make_unique<BlockAllocator>(
        std::max<int64_t>(1, capacity_tokens / block_size_));
    alloc = owned_alloc_.get();
  }
  alloc_ = alloc;
  named_ = alloc_->named();
  SKYWALKER_CHECK(named_ || block_size_ == 1)
      << "a counted pool holds one-token pages";
  if (block_size_ > 1) {
    alloc_->EnableCacheHolders();  // O(1) CountBlocks (paged mode).
  }
  root_ = nodes_.Alloc();
}

PrefixCache::~PrefixCache() {
  // Return every page reference to the (possibly shared) allocator so a
  // replica teardown leaves the pool consistent. Span slices die with the
  // owned pool, and borrowed buffers with the nodes that hold them.
  std::vector<SlabId> stack{root_};
  while (!stack.empty()) {
    SlabId id = stack.back();
    stack.pop_back();
    Node& n = node(id);
    for (const auto& [token, child] : n.children) {
      (void)token;
      stack.push_back(child);
    }
    ReleasePages(id, n, n.ref_count > 0);
  }
}

SlabId PrefixCache::SplitAbove(SlabId id, size_t keep, int64_t start) {
  // Each half would co-hold part of the window's pages, which one count
  // cannot say.
  SKYWALKER_CHECK(!CoHolds(id)) << "split of a co-holding node";
  SlabId top = nodes_.Alloc();
  Node& lower = node(id);
  Node& upper = node(top);
  assert(keep > 0 && keep < lower.edge.size());

  upper.edge = TokenSpan(lower.edge.data(), keep);
  upper.owner = lower.owner;  // Both halves view the one buffer.
  upper.parent = lower.parent;
  // Both halves are covered by exactly the pins that covered the original
  // node (pin boundaries are node-aligned, so no pin ends strictly inside);
  // pins keep referencing `id`, which stays the deepest covered node.
  upper.ref_count = lower.ref_count;
  upper.last_access = lower.last_access;
  upper.children.Clear();
  upper.children.Set(lower.edge[keep], id);

  // Split the page span at the same point. Pages are path-aligned, so the
  // upper half keeps pages up to PageCeil(mid) and the lower half keeps
  // pages from PageFloor(mid); a page straddling `mid` appears in both
  // spans and gains one allocator reference — a split costs zero new pages.
  const int64_t first = PageFloor(start, block_size_);
  const int64_t mid = start + static_cast<int64_t>(keep);
  const int64_t upper_len = PageCeil(mid, block_size_) - first;
  const int64_t lower_from = PageFloor(mid, block_size_) - first;
  if (named_) {
    upper.blocks = lower.blocks.Prefix(static_cast<size_t>(upper_len));
    block_pool_.AddRef(upper.blocks);  // One slice view became two.
    if (mid % block_size_ != 0) {
      // Both halves carry the original pin count, so the straddle page's
      // new reference is pinned exactly when the old one was.
      alloc_->AddCacheRef(lower.blocks[static_cast<size_t>(lower_from)],
                          lower.ref_count > 0);
      ++block_refs_;
    }
    lower.blocks = lower.blocks.Suffix(static_cast<size_t>(lower_from));
  }

  *node(lower.parent).children.Find(lower.edge[0]) = top;
  lower.edge = TokenSpan(lower.edge.data() + keep, lower.edge.size() - keep);
  lower.parent = top;
  ++num_nodes_;  // Token count is unchanged; one extra node exists.
  return top;
}

int64_t PrefixCache::WalkAndSplit(TokenSpan seq, SimTime now, PinId held,
                                  SlabId* deepest) {
  SlabId cur = root_;
  size_t pos = 0;
  if (held != kInvalidPin) {
    const uint64_t handle = static_cast<uint64_t>(held);
    SKYWALKER_CHECK(pins_.IsValid(handle))
        << "resume from invalid pin " << held;
    const SlabId pinned = pins_[GenSlotPool<SlabId>::HandleSlot(handle)];
    if (pinned != kNilSlabId) {
      // The pin's chain spells seq[0, depth): a walk from the root would
      // match every edge on it whole, split none and stamp each node, so
      // stamp them here and start below. Pinned nodes cannot be evicted,
      // and splits insert above them, so the chain is intact.
      for (SlabId n = pinned; n != root_; n = node(n).parent) {
        Node& nd = node(n);
        nd.last_access = now;
        pos += nd.edge.size();
      }
      SKYWALKER_CHECK(pos <= seq.size())
          << "held pin longer than its sequence";
      cur = pinned;
    }
  }
  // The walk carries a raw node pointer alongside the id (slab chunks have
  // stable addresses) and derefs ids through a chunk-caching cursor.
  Slab<Node, 6>::Cursor cursor(&nodes_);
  Node* cur_node = &node(cur);
  while (pos < seq.size()) {
    const SlabId* child_slot = cur_node->children.Find(seq[pos]);
    if (child_slot == nullptr) {
      break;
    }
    SlabId child = *child_slot;
    Node* child_node = cursor.Deref(child);
    const size_t n =
        std::min<size_t>(child_node->edge.size(), seq.size() - pos);
    // The child is keyed by its edge's first token, so that token is already
    // known equal — single-token edges (deep chains) skip the compare (and
    // the edge-data load) entirely.
    size_t matched = 1;
    if (n > 1) {
      matched += CommonPrefixLenRaw(child_node->edge.data() + 1,
                                    seq.data() + pos + 1, n - 1);
    }
    if (matched < child_node->edge.size()) {
      // Partial edge match: split so the boundary is node-aligned. The
      // fully-matched half is the new upper node. The child's edge starts
      // at absolute depth `pos`.
      child = SplitAbove(child, matched, static_cast<int64_t>(pos));
      child_node = &node(child);
    }
    child_node->last_access = now;
    pos += matched;
    cur = child;
    cur_node = child_node;
  }
  *deepest = cur;
  return static_cast<int64_t>(pos);
}

PrefixCache::MatchRef PrefixCache::MatchAndRef(TokenSpan seq, SimTime now,
                                               PinId held) {
  SlabId deepest = root_;
  int64_t len = WalkAndSplit(seq, now, held, &deepest);
  for (SlabId n = deepest; n != root_; n = node(n).parent) {
    Node& nd = node(n);
    if (nd.ref_count == 0) {
      pinned_tokens_ += static_cast<int64_t>(nd.edge.size());
      if (block_size_ > 1) {
        alloc_->PinCacheSpan(nd.blocks.data,
                             static_cast<int64_t>(nd.blocks.size()), +1);
      }
    }
    ++nd.ref_count;
  }

  uint32_t slot = pins_.Acquire();
  pins_[slot] = deepest == root_ ? kNilSlabId : deepest;
  PinId id = static_cast<PinId>(pins_.MakeHandle(slot));

  lookup_tokens_ += static_cast<int64_t>(seq.size());
  hit_tokens_ += len;
  return MatchRef{len, id};
}

int64_t PrefixCache::MatchPrefix(TokenSpan seq, SimTime now) {
  SlabId deepest = root_;
  return WalkAndSplit(seq, now, kInvalidPin, &deepest);
}

void PrefixCache::Unref(PinId pin) {
  const uint64_t handle = static_cast<uint64_t>(pin);
  SKYWALKER_CHECK(pin != kInvalidPin && pins_.IsValid(handle))
      << "double Unref or invalid pin " << pin;
  const uint32_t slot = GenSlotPool<SlabId>::HandleSlot(handle);
  // Every node from the pin's deepest covered node up to the root is covered
  // by it (splits insert nodes above survivors, so the chain stays intact).
  SlabId cur = pins_[slot];
  while (cur != kNilSlabId && cur != root_) {
    Node& n = node(cur);
    --n.ref_count;
    SKYWALKER_CHECK(n.ref_count >= 0) << "negative refcount";
    if (n.ref_count == 0) {
      pinned_tokens_ -= static_cast<int64_t>(n.edge.size());
      if (block_size_ > 1) {
        alloc_->PinCacheSpan(n.blocks.data,
                             static_cast<int64_t>(n.blocks.size()), -1);
      }
    }
    cur = n.parent;
  }
  pins_[slot] = kNilSlabId;
  pins_.Release(slot);
}

int64_t PrefixCache::Insert(const SharedTokens& seq, SimTime now,
                            const BlockTable* donor, int64_t donor_base,
                            PinId held) {
  SlabId parent = root_;
  int64_t matched = WalkAndSplit(seq, now, held, &parent);
  int64_t added = 0;
  if (matched < static_cast<int64_t>(seq.size())) {
    SlabId leaf = nodes_.Alloc();
    Node& n = node(leaf);
    n.edge = TokenSpan(seq.data() + matched,
                       seq.size() - static_cast<size_t>(matched));
    n.owner = seq.buffer();
    n.children.Clear();
    n.parent = parent;
    n.ref_count = 0;
    n.last_access = now;
    added = static_cast<int64_t>(n.edge.size());

    // Assemble the leaf's page span over path pages [matched, seq.size()).
    // Pages the donor (the publishing sequence's path-aligned table) covers
    // are reference-transferred; the rest — bare inserts and re-publish
    // after eviction — get fresh pages. An unaligned head page's leading
    // slots duplicate the parent's tail content: that is the boundary cost
    // paged mode pays, visible as fragmentation.
    const int64_t first = PageFloor(matched, block_size_);
    const int64_t last = PageCeil(static_cast<int64_t>(seq.size()),
                                  block_size_);
    const int64_t pages = last - first;
    if (!named_) {
      // One-token pages: the donor covers path positions [donor_base,
      // donor_base + its tokens), and the leaf co-holds their overlap.
      int64_t shared = 0;
      int64_t end = 0;
      if (donor != nullptr) {
        end = std::min(last, donor_base + donor->num_blocks());
        shared = std::max<int64_t>(0, end - std::max(first, donor_base));
      }
      alloc_->AllocateCount(pages - shared);
      if (shared > 0) {
        alloc_->CoHold(donor->holder(), shared, end - donor_base);
        coheld_leaf_ = leaf;
      }
    } else {
      span_scratch_.resize(static_cast<size_t>(pages));
      if (donor == nullptr) {
        // Bare insert: a whole span of fresh pages in one allocator pass.
        alloc_->AllocateCacheSpan(pages, span_scratch_.data());
      } else {
        const int64_t donor_first = PageFloor(donor_base, block_size_);
        for (int64_t j = first; j < last; ++j) {
          BlockId id = kInvalidBlockId;
          const int64_t di = j - donor_first;
          if (di >= 0 && di < donor->num_blocks()) {
            id = donor->blocks()[static_cast<size_t>(di)];
            alloc_->AddCacheRef(id, /*pinned=*/false);
          }
          if (id == kInvalidBlockId) {
            // Re-publish after eviction: the donor no longer covers this
            // position; it gets a fresh page (rare corner, single alloc).
            alloc_->AllocateCacheSpan(1, &id);
          }
          span_scratch_[static_cast<size_t>(j - first)] = id;
        }
      }
      n.blocks =
          block_pool_.Intern(span_scratch_.data(), span_scratch_.size());
    }
    block_refs_ += pages;

    node(parent).children.Set(n.edge[0], leaf);
    ++num_nodes_;
    size_tokens_ += added;
  }
  if (size_tokens_ > capacity_tokens_) {
    Evict(PageCeil(size_tokens_ - capacity_tokens_, block_size_));
  }
  return added;
}

int64_t PrefixCache::Evict(int64_t blocks) {
  const size_t nodes_before = num_nodes_;
  const int64_t freed = EvictLruLeaves(blocks);
  if (num_nodes_ < nodes_before) {
    ++eviction_stats_.rounds;
    eviction_stats_.victims +=
        static_cast<int64_t>(nodes_before - num_nodes_);
    eviction_stats_.freed_blocks += freed;
  }
  return freed;
}

int64_t PrefixCache::EvictLruLeaves(int64_t blocks) {
  int64_t freed = 0;
  std::vector<SlabId>& stack = evict_stack_;
  while (freed < blocks) {
    // LRU leaf scan. The slab keeps nodes contiguous, so the scan streams
    // through a few cache lines per chunk; trees here hold a few thousand
    // nodes at most (micro-benchmarked in bench/).
    SlabId victim = kNilSlabId;
    SimTime oldest = std::numeric_limits<SimTime>::max();
    stack.clear();
    stack.push_back(root_);
    while (!stack.empty()) {
      SlabId id = stack.back();
      stack.pop_back();
      const Node& n = node(id);
      for (const auto& [token, child] : n.children) {
        (void)token;
        stack.push_back(child);
      }
      if (id != root_ && n.children.empty() && n.ref_count == 0 &&
          n.last_access < oldest) {
        oldest = n.last_access;
        victim = id;
      }
    }
    if (victim == kNilSlabId) {
      break;  // Everything evictable is gone (rest is pinned or interior).
    }
    freed += RemoveLeaf(victim);
  }
  return freed;
}

int64_t PrefixCache::RemoveLeaf(SlabId leaf) {
  Node& n = node(leaf);
  assert(n.children.empty() && n.ref_count == 0);
  size_tokens_ -= static_cast<int64_t>(n.edge.size());
  --num_nodes_;
  node(n.parent).children.Erase(n.edge[0]);
  // Release the victim's page references. Pages straddling into the parent
  // (or still referenced by a running sequence's table) survive in the
  // allocator until their last holder lets go — the return value counts
  // only what actually hit the free list.
  const int64_t freed = ReleasePages(leaf, n, false);
  n.edge = TokenSpan{};
  n.owner.reset();  // The buffer goes with its last viewing edge.
  n.parent = kNilSlabId;
  n.last_access = 0;
  nodes_.Free(leaf);  // children map already empty; its capacity is kept.
  return freed;
}

int64_t PrefixCache::ReleasePages(SlabId id, Node& n, bool pinned) {
  const int64_t pages = NodePages(n);
  block_refs_ -= pages;
  if (!named_) {
    return alloc_->ReleaseCacheCount(pages, CoHolds(id));
  }
  const int64_t freed = alloc_->ReleaseCacheSpan(n.blocks.data, pages, pinned);
  block_pool_.Release(n.blocks);
  n.blocks = BlockSlice{};
  return freed;
}

void PrefixCache::Clear() {
  // Evict everything evictable; pinned paths survive.
  Evict(std::numeric_limits<int64_t>::max());
}

int64_t PrefixCache::PinnedTokensSlow() const {
  // Sum of edge lengths of nodes with ref_count > 0.
  int64_t total = 0;
  std::vector<SlabId> stack{root_};
  while (!stack.empty()) {
    const Node& n = node(stack.back());
    stack.pop_back();
    for (const auto& [token, child] : n.children) {
      (void)token;
      stack.push_back(child);
    }
    if (n.ref_count > 0) {
      total += static_cast<int64_t>(n.edge.size());
    }
  }
  return total;
}

std::vector<BlockAllocator::CacheHolders> PrefixCache::TallyPageHolders()
    const {
  std::vector<BlockAllocator::CacheHolders> pages;
  std::vector<SlabId> stack{root_};
  while (!stack.empty()) {
    const Node& n = node(stack.back());
    stack.pop_back();
    for (const auto& [token, child] : n.children) {
      (void)token;
      stack.push_back(child);
    }
    for (size_t i = 0; i < n.blocks.size(); ++i) {
      const size_t id = static_cast<size_t>(n.blocks[i]);
      if (id >= pages.size()) {
        pages.resize(id + 1);
      }
      ++pages[id].refs;
      pages[id].pinned += n.ref_count > 0 ? 1 : 0;
    }
  }
  return pages;
}

PrefixCache::BlockOccupancy PrefixCache::CountBlocksSlow() const {
  BlockOccupancy occ;
  if (!named_) {
    // Every node's pages are its edge's own; a page is evictable unless its
    // node is pinned or a sequence co-holds it.
    std::vector<SlabId> stack{root_};
    while (!stack.empty()) {
      const SlabId id = stack.back();
      stack.pop_back();
      const Node& n = node(id);
      for (const auto& [token, child] : n.children) {
        (void)token;
        stack.push_back(child);
      }
      occ.held_blocks += NodePages(n);
      if (n.ref_count == 0) {
        occ.evictable_blocks +=
            NodePages(n) - (CoHolds(id) ? alloc_->coheld_blocks() : 0);
      }
    }
    return occ;
  }
  const std::vector<BlockAllocator::CacheHolders> pages = TallyPageHolders();
  for (size_t id = 0; id < pages.size(); ++id) {
    const BlockAllocator::CacheHolders& h = pages[id];
    if (h.refs == 0) {
      continue;
    }
    ++occ.held_blocks;
    // A page returns to the free list under full eviction iff every one of
    // its allocator references comes from an unpinned node.
    if (h.pinned == 0 &&
        h.refs == alloc_->ref_count(static_cast<BlockId>(id))) {
      ++occ.evictable_blocks;
    }
  }
  return occ;
}

bool PrefixCache::CheckInvariants() const {
  int64_t tokens = 0;
  size_t nodes = 0;
  int64_t block_refs = 0;
  bool ok = true;
  // DFS carrying each node's absolute start depth for span-coverage checks.
  std::vector<std::pair<SlabId, int64_t>> stack{{root_, 0}};
  while (!stack.empty()) {
    auto [id, depth] = stack.back();
    stack.pop_back();
    const Node& n = node(id);
    const int64_t end = depth + static_cast<int64_t>(n.edge.size());
    if (id != root_) {
      tokens += static_cast<int64_t>(n.edge.size());
      ++nodes;
      if (n.edge.empty()) {
        ok = false;  // Non-root nodes must have a non-empty edge.
      }
      // Every non-root node holds a buffer, and its edge lies inside it.
      const std::less_equal<const Token*> le;
      if (n.owner == nullptr || !le(n.owner->data(), n.edge.data()) ||
          !le(n.edge.data() + n.edge.size(),
              n.owner->data() + n.owner->size())) {
        ok = false;
      }
      // A child's refcount never exceeds its parent's (refcounts are
      // per-pin-coverage and pins cover prefixes).
      if (n.parent != root_ && n.ref_count > node(n.parent).ref_count) {
        ok = false;
      }
      // The page span covers exactly the edge's path positions (a counted
      // pool's nodes hold none), and every page in it is live in the
      // allocator.
      const int64_t want =
          named_ ? PageCeil(end, block_size_) - PageFloor(depth, block_size_)
                 : 0;
      if (static_cast<int64_t>(n.blocks.size()) != want) {
        ok = false;
      }
      block_refs += NodePages(n);
      for (size_t i = 0; i < n.blocks.size(); ++i) {
        if (alloc_->ref_count(n.blocks[i]) <= 0) {
          ok = false;
        }
      }
    }
    for (const auto& [token, child] : n.children) {
      const Node& c = node(child);
      if (c.edge.empty() || c.edge[0] != token || c.parent != id) {
        ok = false;
      }
      stack.emplace_back(child, end);
    }
  }
  if (tokens != size_tokens_ || nodes != num_nodes_ ||
      block_refs != block_refs_) {
    ok = false;
  }
  // The incremental pinned-token counter must match the tree's truth.
  if (PinnedTokensSlow() != pinned_tokens_) {
    ok = false;
  }
  // So must the O(1) occupancy figures; in paged mode the allocator's
  // per-page holder counts must match the tree page by page (together with
  // the held total, no page carries cache counts the tree does not hold).
  const BlockOccupancy fast = CountBlocks();
  const BlockOccupancy slow = CountBlocksSlow();
  if (fast.held_blocks != slow.held_blocks ||
      fast.evictable_blocks != slow.evictable_blocks) {
    ok = false;
  }
  if (block_size_ > 1) {
    const std::vector<BlockAllocator::CacheHolders> pages =
        TallyPageHolders();
    for (size_t id = 0; id < pages.size(); ++id) {
      const BlockAllocator::CacheHolders counted =
          alloc_->cache_holders(static_cast<BlockId>(id));
      if (pages[id].refs > 0 && (counted.refs != pages[id].refs ||
                                 counted.pinned != pages[id].pinned)) {
        ok = false;
      }
    }
  }
  // Arena accounting: every tree node is live in the slab (plus the root),
  // and on a named pool every non-root node holds one block-pool reference.
  if (nodes_.live() != num_nodes_ + 1 ||
      block_pool_.live_refs() !=
          (named_ ? static_cast<int64_t>(num_nodes_) : 0)) {
    ok = false;
  }
  return ok;
}

}  // namespace skywalker
