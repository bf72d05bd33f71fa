// Steady-state allocation regression test for the paged KV subsystem, in
// the mold of tests/event_queue_alloc_test.cc.
//
// The block free list, sequence-slot free list, and block-table vectors all
// recycle: once warmed to a high-water mark, admit/prefill/decode/publish/
// release churn must not touch the heap, and neither must a counted pool's
// whole publish/evict cycle. Allocations are
// counted with a global operator new/delete replacement (standard-
// sanctioned, composes with ASan); counters are only asserted inside
// windows the test controls.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

#include "src/cache/prefix_cache.h"
#include "src/memory/block_allocator.h"
#include "src/memory/block_table.h"
#include "src/memory/kv_controller.h"

// GCC's inliner pierces the replaced operators and then flags the
// malloc/free pairing inside them as mismatched new/delete — a false
// positive for allocation-function replacements, which the standard requires
// to be callable this way. Keep them out of line and mute the warning.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#define SKYWALKER_NOINLINE __attribute__((noinline))
#else
#define SKYWALKER_NOINLINE
#endif

namespace {
std::atomic<long long> g_news{0};
}  // namespace

SKYWALKER_NOINLINE void* operator new(size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
SKYWALKER_NOINLINE void* operator new[](size_t size) { return ::operator new(size); }
SKYWALKER_NOINLINE void* operator new(size_t size, std::align_val_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  void* p = std::aligned_alloc(static_cast<size_t>(align),
                               (size + static_cast<size_t>(align) - 1) &
                                   ~(static_cast<size_t>(align) - 1));
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
SKYWALKER_NOINLINE void* operator new[](size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
SKYWALKER_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
SKYWALKER_NOINLINE void operator delete[](void* p) noexcept { ::operator delete(p); }
SKYWALKER_NOINLINE void operator delete(void* p, size_t) noexcept {
  ::operator delete(p);
}
SKYWALKER_NOINLINE void operator delete[](void* p, size_t) noexcept {
  ::operator delete(p);
}
SKYWALKER_NOINLINE void operator delete(void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
SKYWALKER_NOINLINE void operator delete[](void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
SKYWALKER_NOINLINE void operator delete(void* p, size_t,
                                        std::align_val_t) noexcept {
  ::operator delete(p);
}
SKYWALKER_NOINLINE void operator delete[](void* p, size_t,
                                          std::align_val_t) noexcept {
  ::operator delete(p);
}

namespace skywalker {
namespace {

long long NewCount() { return g_news.load(std::memory_order_relaxed); }

TEST(KvMemoryAllocTest, BlockFreeListSteadyStateDoesNotAllocate) {
  constexpr int32_t kBs = 16;
  constexpr int64_t kBlocks = 1 << 16;
  BlockAllocator alloc(kBlocks);

  // Warm-up: grow a table to the high-water mark, then drain — every id is
  // now on the free list and every vector holds its capacity.
  BlockTable warm;
  warm.Append(alloc, kBs, (kBlocks - 16) * kBs);
  warm.Clear(alloc);

  // Phase 1: refill the full backlog off the free list: zero allocations.
  long long baseline = NewCount();
  warm.Append(alloc, kBs, (kBlocks - 16) * kBs);
  EXPECT_EQ(NewCount() - baseline, 0)
      << "append against warm capacity must not allocate";
  warm.Clear(alloc);

  // Phase 2: append / front-drop churn at varying granularity (the
  // replica's decode/publish steady state; the drop skews the table).
  baseline = NewCount();
  for (int64_t i = 0; i < 200'000; ++i) {
    warm.Append(alloc, kBs, 7 + (i & 63));
    if (warm.num_tokens() > 10'000 * kBs) {
      warm.ReleasePrefix(alloc, kBs, warm.num_tokens() / 2);
    }
  }
  EXPECT_EQ(NewCount() - baseline, 0)
      << "steady-state append/prefix-release churn must not allocate";
  warm.Clear(alloc);
}

TEST(KvMemoryAllocTest, ControllerSeqChurnDoesNotAllocateWhenWarm) {
  KvConfig config;
  config.capacity_tokens = 1 << 20;
  config.block_size_tokens = 16;
  KvController kv(config);

  // Warm: drive every slot, table and the page pool to the high-water mark
  // once.
  std::vector<KvController::SeqId> ids;
  for (int i = 0; i < 128; ++i) {
    ids.push_back(kv.AdmitSeq(1024, 128));
    kv.OnPrefillChunk(ids.back(), 1024);
    for (int d = 0; d < 128; ++d) {
      kv.OnDecodeToken(ids.back());
    }
  }
  for (KvController::SeqId id : ids) {
    kv.ReleaseSeq(id);
  }
  ids.clear();

  // Steady state: the same admit/prefill/decode/publish/release pattern
  // must come entirely off the free lists (ReleaseSeqPrefix is the
  // publish-time front drop of the unified ledger).
  long long baseline = NewCount();
  for (int round = 0; round < 500; ++round) {
    for (int i = 0; i < 128; ++i) {
      ids.push_back(kv.AdmitSeq(1024, 128, /*skew=*/round & 7));
    }
    for (KvController::SeqId id : ids) {
      kv.OnPrefillChunk(id, 1024);
      for (int d = 0; d < 16; ++d) {
        kv.OnDecodeToken(id);
      }
      kv.ReleaseSeqPrefix(id, 1024);
    }
    for (KvController::SeqId id : ids) {
      kv.ReleaseSeq(id);
    }
    ids.clear();
  }
  EXPECT_EQ(NewCount() - baseline, 0)
      << "controller sequence churn must not allocate at steady state";
  EXPECT_TRUE(kv.CheckConsistency());
}

TEST(KvMemoryAllocTest, CountedPoolChurnDoesNotAllocateWhenWarm) {
  // A coarse replica's ledger counts its one-token pages, so pages never
  // touch the heap; admit, chunked prefill, publish (a donor Insert, then
  // the prefix drop), single-token and stable-stretch decode, completion
  // (a donor Insert, then the release) and eviction, some of it inside a
  // donor's co-held window, must recycle sequence slots, cache nodes and
  // token chunks once warm.
  KvConfig config;
  config.capacity_tokens = 1 << 20;
  KvController kv(config);
  ASSERT_FALSE(kv.allocator().named());
  // A budget below one round's content, so publishes evict.
  PrefixCache cache(2000, &kv.allocator(), 1);

  constexpr int kSeqs = 32;
  constexpr int64_t kStretch = 8;
  constexpr int64_t kOutput = 1 + kStretch + 2;
  std::vector<TokenSeq> prompts;
  std::vector<TokenSeq> completions;
  for (int k = 0; k < kSeqs; ++k) {
    TokenSeq prompt;
    for (Token t = 0; t < 300; ++t) {
      prompt.push_back(t);  // Shared prefix.
    }
    for (Token t = 0; t < 50 + k; ++t) {
      prompt.push_back(10'000 + k * 1'000 + t);
    }
    TokenSeq completion = prompt;
    for (Token t = 0; t < kOutput; ++t) {
      completion.push_back(900'000 + k * 1'000 + t);
    }
    prompts.push_back(std::move(prompt));
    completions.push_back(std::move(completion));
  }
  std::vector<KvController::SeqId> ids(kSeqs);
  std::vector<PinId> pins(kSeqs);
  std::vector<int64_t> bases(kSeqs);
  std::vector<KvController::DecodeRun> runs;
  runs.reserve(kSeqs);

  SimTime now = 0;
  auto churn = [&] {
    for (int k = 0; k < kSeqs; ++k) {
      const TokenSeq& prompt = prompts[static_cast<size_t>(k)];
      const int64_t prompt_len = static_cast<int64_t>(prompt.size());
      const PrefixCache::MatchRef match = cache.MatchAndRef(prompt, ++now);
      const int64_t base = std::min(match.cached_len, prompt_len - 1);
      const int64_t prefill = prompt_len - base;
      const KvController::SeqId id = kv.AdmitSeq(prefill, kOutput);
      kv.OnPrefillChunk(id, prefill / 2);
      kv.OnPrefillChunk(id, prefill - prefill / 2);
      kv.OnDecodeToken(id);  // The final chunk's first output token.
      // Publish as Replica::OnPrefillComplete does.
      cache.Insert(prompt, ++now, &kv.table(id), base);
      cache.Unref(match.pin);
      const PrefixCache::MatchRef published = cache.MatchAndRef(prompt, ++now);
      kv.ReleaseSeqPrefix(id, published.cached_len - base);
      ids[static_cast<size_t>(k)] = id;
      pins[static_cast<size_t>(k)] = published.pin;
      bases[static_cast<size_t>(k)] = published.cached_len;
    }
    runs.clear();
    for (KvController::SeqId id : ids) {
      runs.push_back(kv.PlanDecode(id));
    }
    kv.OnDecodeSteps(&runs, kStretch);
    for (int k = 0; k < kSeqs; ++k) {
      const size_t i = static_cast<size_t>(k);
      kv.OnDecodeToken(ids[i]);
      kv.OnDecodeToken(ids[i]);
      // Complete as Replica::CompleteSeq does.
      cache.Insert(completions[i], ++now, &kv.table(ids[i]), bases[i]);
      cache.Unref(pins[i]);
      kv.ReleaseSeq(ids[i]);
    }
    cache.Evict(std::numeric_limits<int64_t>::max());
  };
  // Warm-up: beyond the pools' high-water marks, the shared prefix's node
  // is a recycled slab node whose child map must already have spilled to
  // 32 entries, which takes a few dozen rounds of LIFO reuse.
  for (int i = 0; i < 80; ++i) {
    churn();
  }

  const long long baseline = NewCount();
  for (int round = 0; round < 200; ++round) {
    churn();
  }
  EXPECT_EQ(NewCount() - baseline, 0)
      << "counted-pool churn must not allocate at steady state";
  EXPECT_GT(cache.eviction_stats().victims, 0);
  EXPECT_EQ(kv.used_blocks(), 0);
  EXPECT_EQ(kv.live_seqs(), 0);
  EXPECT_TRUE(kv.CheckConsistency());
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(KvMemoryAllocTest, BlockNativeEvictionSteadyStateDoesNotAllocate) {
  // The ISSUE 5 eviction path: LRU leaf scans, page-span release, and
  // publish/re-insert churn against a shared allocator must recycle nodes,
  // token chunks, page-span chunks, and pages without touching the heap
  // once warm — with overlapping pins, unpins, and probes of the O(1)
  // occupancy figures in the loop, so the per-page cache-holder counts
  // are exercised on every path.
  constexpr int32_t kBs = 16;
  BlockAllocator alloc(1 << 16);
  PrefixCache cache(1 << 20, &alloc, kBs);  // Capacity: never auto-evicts.

  // Shared prefix with unaligned length (straddled pages at the branch
  // point) plus a fixed cycle of divergent suffixes.
  std::vector<TokenSeq> seqs;
  for (int k = 0; k < 32; ++k) {
    TokenSeq seq;
    for (Token t = 0; t < 517; ++t) {
      seq.push_back(t);
    }
    for (Token t = 0; t < 100 + k; ++t) {
      seq.push_back(10'000 + k * 1'000 + t);
    }
    seqs.push_back(std::move(seq));
  }

  SimTime now = 0;
  int64_t probe_sum = 0;
  auto churn = [&] {
    PinId held = kInvalidPin;  // A second, overlapping pin (0->1->2->1).
    for (const TokenSeq& seq : seqs) {
      auto ref = cache.MatchAndRef(seq, ++now);
      cache.Insert(seq, ++now);
      if (held != kInvalidPin) {
        cache.Unref(held);
      }
      held = cache.MatchAndRef(seq, ++now).pin;
      cache.Unref(ref.pin);
      const PrefixCache::BlockOccupancy occ = cache.CountBlocks();
      probe_sum += occ.held_blocks + occ.evictable_blocks;
    }
    cache.Unref(held);
    cache.Evict(std::numeric_limits<int64_t>::max());
  };
  // Warm-up: node slab, token/page-span chunk pools, pin slots, child-map
  // spill capacities, and the page pool's refcounts, cache-holder counts
  // and free list must all reach their high-water marks. The page-span pool is the slow one: spans are a few
  // entries each, so its first 16K-entry chunk only seals (forcing the
  // second, steady-state chunk into existence) after ~55 cycles.
  for (int i = 0; i < 80; ++i) {
    churn();
  }

  long long baseline = NewCount();
  for (int round = 0; round < 200; ++round) {
    churn();
  }
  EXPECT_EQ(NewCount() - baseline, 0)
      << "block-native eviction churn must not allocate at steady state";
  EXPECT_GT(probe_sum, 0);
  EXPECT_EQ(alloc.used_blocks(), 0);
  EXPECT_EQ(cache.CountBlocks().held_blocks, 0);
  EXPECT_TRUE(cache.CheckInvariants());
  EXPECT_TRUE(alloc.CheckInvariants());
}

}  // namespace
}  // namespace skywalker
