#include "src/memory/block_allocator.h"

#include <algorithm>

#include "src/common/logging.h"

namespace skywalker {

BlockAllocator::BlockAllocator(int64_t capacity_blocks, bool named)
    : capacity_blocks_(capacity_blocks), named_(named) {
  SKYWALKER_CHECK(capacity_blocks > 0) << "allocator needs capacity";
}

void BlockAllocator::Reserve(int64_t blocks) {
  if (!named_) {
    return;
  }
  refs_.reserve(static_cast<size_t>(blocks));
  free_list_.reserve(static_cast<size_t>(blocks));
  if (track_cache_) {
    cache_holders_.reserve(static_cast<size_t>(blocks));
  }
}

void BlockAllocator::EnableCacheHolders() {
  SKYWALKER_CHECK(named_) << "cache-holder counts need named pages";
  if (track_cache_) {
    return;
  }
  track_cache_ = true;
  cache_holders_.reserve(refs_.capacity());  // Keeps a prior Reserve().
  cache_holders_.resize(refs_.size());
}

void BlockAllocator::AllocateCacheSpan(int64_t n, BlockId* out) {
  int64_t i = 0;
  const int64_t from_free =
      std::min<int64_t>(n, static_cast<int64_t>(free_list_.size()));
  for (; i < from_free; ++i) {
    BlockId id = free_list_.back();
    free_list_.pop_back();
    refs_[static_cast<size_t>(id)] = 1;
    out[i] = id;
  }
  for (; i < n; ++i) {
    BlockId id = static_cast<BlockId>(refs_.size());
    refs_.push_back(1);
    if (track_cache_) {
      cache_holders_.emplace_back();
    }
    out[i] = id;
  }
  if (track_cache_) {
    // The node is new, hence unpinned, and the sole holder of every page:
    // each page is held and evictable.
    for (i = 0; i < n; ++i) {
      cache_holders_[static_cast<size_t>(out[i])].refs = 1;
    }
    cache_held_ += n;
    cache_evictable_ += n;
  }
  used_blocks_ += n;
  stats_.allocated += n;
  stats_.peak_used_blocks = std::max(stats_.peak_used_blocks, used_blocks_);
}

int64_t BlockAllocator::ReleaseCacheSpan(const BlockId* ids, int64_t n,
                                         bool pinned) {
  const int64_t freed_before = stats_.freed;
  if (!track_cache_) {
    // Coarse mode evicts one page per token: keep the flag test out of the
    // loop.
    for (int64_t i = 0; i < n; ++i) {
      ReleaseUncounted(ids[i]);
    }
    return stats_.freed - freed_before;
  }
  for (int64_t i = 0; i < n; ++i) {
    const BlockId id = ids[i];
    SKYWALKER_CHECK(refs_[static_cast<size_t>(id)] > 0)
        << "release dead block";
    TallyCachePage(id, -1);
    CacheHolders& h = cache_holders_[static_cast<size_t>(id)];
    --h.refs;
    h.pinned -= pinned ? 1 : 0;
    if (--refs_[static_cast<size_t>(id)] == 0) {
      free_list_.push_back(id);
      --used_blocks_;
      ++stats_.freed;
    }
    TallyCachePage(id, +1);
  }
  return stats_.freed - freed_before;
}

void BlockAllocator::PinCacheSpan(const BlockId* ids, int64_t n,
                                  int32_t delta) {
  SKYWALKER_CHECK(track_cache_) << "cache-holder counts are off";
  // No refcount moves, so every page stays held; only its evictability can
  // flip (TallyCachePage's bracket, minus the held total it leaves alone).
  for (int64_t i = 0; i < n; ++i) {
    const size_t id = static_cast<size_t>(ids[i]);
    CacheHolders& h = cache_holders_[id];
    const bool whole = h.refs == refs_[id];
    cache_evictable_ -= whole && h.pinned == 0 ? 1 : 0;
    h.pinned += delta;
    cache_evictable_ += whole && h.pinned == 0 ? 1 : 0;
  }
}

void BlockAllocator::CoHold(PageHolder holder, int64_t n, int64_t end) {
  SKYWALKER_CHECK(coheld_ == 0) << "one co-held window at a time";
  SKYWALKER_CHECK(holder != kNoPageHolder && n > 0 && end >= n)
      << "a co-held window needs a named holder and pages";
  coheld_ = n;
  coheld_end_ = end;
  coheld_holder_ = holder;
}

int64_t BlockAllocator::ReleaseCacheCount(int64_t n, bool co_holder) {
  int64_t freed = n;
  if (co_holder) {
    // The sequence's reference keeps the co-held pages; its next release
    // frees them like any other of its pages.
    SKYWALKER_CHECK(n >= coheld_) << "the co-holder holds its co-held pages";
    freed -= coheld_;
    coheld_ = 0;
  }
  NoteFreed(freed);
  return freed;
}

int64_t BlockAllocator::live_refs() const {
  if (!named_) {
    return used_blocks_ + coheld_;
  }
  int64_t total = 0;
  for (int32_t ref : refs_) {
    total += ref;
  }
  return total;
}

bool BlockAllocator::CheckInvariants() const {
  if (!named_) {
    return refs_.empty() && free_list_.empty() && !track_cache_ &&
           used_blocks_ >= 0 && coheld_ >= 0 && coheld_ <= used_blocks_;
  }
  int64_t live = 0;
  for (int32_t ref : refs_) {
    if (ref < 0) {
      return false;
    }
    if (ref > 0) {
      ++live;
    }
  }
  if (live != used_blocks_) {
    return false;
  }
  if (free_list_.size() != refs_.size() - static_cast<size_t>(live)) {
    return false;
  }
  for (BlockId id : free_list_) {
    if (refs_[static_cast<size_t>(id)] != 0) {
      return false;
    }
  }
  if (!track_cache_) {
    return cache_holders_.empty() && cache_held_ == 0 &&
           cache_evictable_ == 0;
  }
  if (cache_holders_.size() != refs_.size()) {
    return false;
  }
  int64_t held = 0;
  int64_t evictable = 0;
  for (size_t id = 0; id < refs_.size(); ++id) {
    const CacheHolders& h = cache_holders_[id];
    if (h.pinned < 0 || h.pinned > h.refs || h.refs > refs_[id]) {
      return false;
    }
    if (h.refs > 0) {
      ++held;
      if (h.pinned == 0 && h.refs == refs_[id]) {
        ++evictable;
      }
    }
  }
  return held == cache_held_ && evictable == cache_evictable_;
}

}  // namespace skywalker
