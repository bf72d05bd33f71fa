// Unit and property tests for the replica-side radix-tree prefix cache:
// match/insert semantics, pin-protected eviction, edge splitting under
// concurrent pins, and structural invariants under randomized workloads.

#include <gtest/gtest.h>

#include <map>

#include "src/cache/prefix_cache.h"
#include "src/common/rng.h"

namespace skywalker {
namespace {

TokenSeq Seq(std::initializer_list<Token> tokens) { return TokenSeq(tokens); }

TEST(PrefixCacheTest, EmptyCacheMatchesNothing) {
  PrefixCache cache(1000);
  EXPECT_EQ(cache.MatchPrefix(Seq({1, 2, 3}), 0), 0);
  EXPECT_EQ(cache.size_tokens(), 0);
}

TEST(PrefixCacheTest, InsertThenFullMatch) {
  PrefixCache cache(1000);
  EXPECT_EQ(cache.Insert(Seq({1, 2, 3, 4}), 0), 4);
  EXPECT_EQ(cache.MatchPrefix(Seq({1, 2, 3, 4}), 1), 4);
  EXPECT_EQ(cache.size_tokens(), 4);
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(PrefixCacheTest, PartialMatchInsideEdge) {
  PrefixCache cache(1000);
  cache.Insert(Seq({1, 2, 3, 4}), 0);
  EXPECT_EQ(cache.MatchPrefix(Seq({1, 2, 9}), 1), 2);
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(PrefixCacheTest, ExtensionInsertAddsOnlySuffix) {
  PrefixCache cache(1000);
  cache.Insert(Seq({1, 2, 3}), 0);
  EXPECT_EQ(cache.Insert(Seq({1, 2, 3, 4, 5}), 1), 2);
  EXPECT_EQ(cache.size_tokens(), 5);
  EXPECT_EQ(cache.MatchPrefix(Seq({1, 2, 3, 4, 5}), 2), 5);
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(PrefixCacheTest, DivergentInsertSplitsEdge) {
  PrefixCache cache(1000);
  cache.Insert(Seq({1, 2, 3, 4}), 0);
  cache.Insert(Seq({1, 2, 7, 8}), 1);
  EXPECT_EQ(cache.size_tokens(), 6);  // 1,2 shared; 3,4 and 7,8 branches.
  EXPECT_EQ(cache.MatchPrefix(Seq({1, 2, 3, 4}), 2), 4);
  EXPECT_EQ(cache.MatchPrefix(Seq({1, 2, 7, 8}), 2), 4);
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(PrefixCacheTest, DuplicateInsertAddsNothing) {
  PrefixCache cache(1000);
  cache.Insert(Seq({1, 2, 3}), 0);
  EXPECT_EQ(cache.Insert(Seq({1, 2, 3}), 1), 0);
  EXPECT_EQ(cache.size_tokens(), 3);
}

TEST(PrefixCacheTest, MatchAndRefPinsAgainstEviction) {
  PrefixCache cache(1000);
  cache.Insert(Seq({1, 2, 3, 4}), 0);
  auto ref = cache.MatchAndRef(Seq({1, 2, 3, 4}), 1);
  EXPECT_EQ(ref.cached_len, 4);
  EXPECT_EQ(cache.Evict(1000), 0);  // Fully pinned: nothing evictable.
  EXPECT_EQ(cache.size_tokens(), 4);
  cache.Unref(ref.pin);
  EXPECT_EQ(cache.Evict(1000), 4);  // Now evictable.
  EXPECT_EQ(cache.size_tokens(), 0);
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(PrefixCacheTest, PartialPinLeavesSuffixEvictable) {
  PrefixCache cache(1000);
  cache.Insert(Seq({1, 2, 3, 4, 5, 6}), 0);
  // Pin only the first 3 tokens (splits the edge at the pin boundary).
  auto ref = cache.MatchAndRef(Seq({1, 2, 3}), 1);
  EXPECT_EQ(ref.cached_len, 3);
  int64_t freed = cache.Evict(1000);
  EXPECT_EQ(freed, 3);  // Tokens 4,5,6 evicted; pinned prefix survives.
  EXPECT_EQ(cache.MatchPrefix(Seq({1, 2, 3}), 2), 3);
  cache.Unref(ref.pin);
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(PrefixCacheTest, LruEvictionOrder) {
  PrefixCache cache(1000);
  cache.Insert(Seq({1, 10, 11}), /*now=*/100);
  cache.Insert(Seq({2, 20, 21}), /*now=*/200);
  cache.Insert(Seq({3, 30, 31}), /*now=*/300);
  // Touch the oldest to refresh it.
  cache.MatchPrefix(Seq({1, 10, 11}), /*now=*/400);
  EXPECT_EQ(cache.Evict(3), 3);  // Should evict branch "2" (oldest access).
  EXPECT_EQ(cache.MatchPrefix(Seq({2, 20, 21}), 500), 0);
  EXPECT_EQ(cache.MatchPrefix(Seq({1, 10, 11}), 500), 3);
  EXPECT_EQ(cache.MatchPrefix(Seq({3, 30, 31}), 500), 3);
}

TEST(PrefixCacheTest, CapacityEnforcedOnInsert) {
  PrefixCache cache(10);
  TokenSeq a;
  TokenSeq b;
  for (Token t = 0; t < 8; ++t) {
    a.push_back(t);
    b.push_back(t + 100);
  }
  cache.Insert(a, 1);
  cache.Insert(b, 2);
  EXPECT_LE(cache.size_tokens(), 10);
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(PrefixCacheTest, ConcurrentPinsWithSplits) {
  PrefixCache cache(1000);
  cache.Insert(Seq({1, 2, 3, 4, 5, 6}), 0);
  auto long_ref = cache.MatchAndRef(Seq({1, 2, 3, 4, 5, 6}), 1);
  // Second pin splits the path at token 2.
  auto short_ref = cache.MatchAndRef(Seq({1, 2}), 2);
  EXPECT_EQ(long_ref.cached_len, 6);
  EXPECT_EQ(short_ref.cached_len, 2);
  // Unref in either order must restore refcounts exactly.
  cache.Unref(long_ref.pin);
  EXPECT_EQ(cache.Evict(1000), 4);  // Suffix (3..6) evictable now.
  cache.Unref(short_ref.pin);
  EXPECT_EQ(cache.Evict(1000), 2);
  EXPECT_EQ(cache.size_tokens(), 0);
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(PrefixCacheTest, HitRateAccounting) {
  PrefixCache cache(1000);
  cache.Insert(Seq({1, 2, 3, 4}), 0);
  auto ref = cache.MatchAndRef(Seq({1, 2, 3, 4, 5, 6, 7, 8}), 1);
  EXPECT_EQ(ref.cached_len, 4);
  EXPECT_EQ(cache.lookup_tokens(), 8);
  EXPECT_EQ(cache.hit_tokens(), 4);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 0.5);
  cache.Unref(ref.pin);
}

TEST(PrefixCacheTest, ClearKeepsPinnedContent) {
  PrefixCache cache(1000);
  cache.Insert(Seq({1, 2, 3}), 0);
  cache.Insert(Seq({9, 8, 7}), 0);
  auto ref = cache.MatchAndRef(Seq({1, 2, 3}), 1);
  cache.Clear();
  EXPECT_EQ(cache.size_tokens(), 3);  // Pinned branch survives.
  cache.Unref(ref.pin);
  cache.Clear();
  EXPECT_EQ(cache.size_tokens(), 0);
}

// Property test: randomized inserts/matches/pins against a brute-force
// reference model of "set of inserted sequences".
class PrefixCachePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrefixCachePropertyTest, MatchesBruteForceReference) {
  Rng rng(GetParam());
  PrefixCache cache(1'000'000);  // Effectively unbounded: no eviction.
  std::vector<TokenSeq> inserted;

  auto random_seq = [&rng](const std::vector<TokenSeq>& pool) {
    TokenSeq seq;
    if (!pool.empty() && rng.Bernoulli(0.6)) {
      // Extend or truncate an existing sequence to force prefix structure.
      const TokenSeq& base =
          pool[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(pool.size()) - 1))];
      size_t keep = static_cast<size_t>(
          rng.UniformInt(1, static_cast<int64_t>(base.size())));
      seq.assign(base.begin(), base.begin() + static_cast<ptrdiff_t>(keep));
      int64_t extra = rng.UniformInt(0, 6);
      for (int64_t i = 0; i < extra; ++i) {
        seq.push_back(static_cast<Token>(rng.UniformInt(0, 12)));
      }
    } else {
      int64_t len = rng.UniformInt(1, 12);
      for (int64_t i = 0; i < len; ++i) {
        seq.push_back(static_cast<Token>(rng.UniformInt(0, 12)));
      }
    }
    return seq;
  };

  for (int step = 0; step < 400; ++step) {
    TokenSeq seq = random_seq(inserted);
    if (rng.Bernoulli(0.5)) {
      cache.Insert(seq, step);
      inserted.push_back(seq);
    } else {
      int64_t got = cache.MatchPrefix(seq, step);
      // Reference: longest common prefix against any inserted sequence.
      int64_t expected = 0;
      for (const TokenSeq& s : inserted) {
        expected = std::max(
            expected, static_cast<int64_t>(CommonPrefixLen(s, seq)));
      }
      ASSERT_EQ(got, expected) << "step " << step;
    }
    ASSERT_TRUE(cache.CheckInvariants()) << "step " << step;
  }
}

TEST_P(PrefixCachePropertyTest, PinUnpinNeverCorruptsTree) {
  Rng rng(GetParam() ^ 0xabcdef);
  PrefixCache cache(200);  // Small: eviction constantly active.
  std::vector<PinId> pins;
  for (int step = 0; step < 600; ++step) {
    double roll = rng.NextDouble();
    if (roll < 0.45) {
      TokenSeq seq;
      int64_t len = rng.UniformInt(1, 30);
      Token base = static_cast<Token>(rng.UniformInt(0, 5));
      for (int64_t i = 0; i < len; ++i) {
        seq.push_back(base * 100 + static_cast<Token>(i));
      }
      cache.Insert(seq, step);
    } else if (roll < 0.75) {
      TokenSeq seq;
      int64_t len = rng.UniformInt(1, 30);
      Token base = static_cast<Token>(rng.UniformInt(0, 5));
      for (int64_t i = 0; i < len; ++i) {
        seq.push_back(base * 100 + static_cast<Token>(i));
      }
      pins.push_back(cache.MatchAndRef(seq, step).pin);
    } else if (!pins.empty()) {
      size_t idx = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(pins.size()) - 1));
      cache.Unref(pins[idx]);
      pins.erase(pins.begin() + static_cast<ptrdiff_t>(idx));
    }
    ASSERT_TRUE(cache.CheckInvariants()) << "step " << step;
  }
  for (PinId pin : pins) {
    cache.Unref(pin);
  }
  // With all pins released the cache must fully drain.
  cache.Evict(1 << 20);
  EXPECT_EQ(cache.size_tokens(), 0);
  EXPECT_TRUE(cache.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixCachePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 99, 12345));

// --- Block-native cache (ISSUE 5) ----------------------------------------

TokenSeq Iota(int64_t n, Token base = 0) {
  TokenSeq seq;
  for (int64_t i = 0; i < n; ++i) {
    seq.push_back(base + static_cast<Token>(i));
  }
  return seq;
}

TEST(PrefixCacheBlockTest, InsertChargesExactPathAlignedSpans) {
  BlockAllocator alloc(1024);
  PrefixCache cache(16384, &alloc, 16);
  // 40 tokens -> pages 0..2 (ceil(40/16) == 3), owned by one node.
  cache.Insert(Iota(40), 1);
  EXPECT_EQ(alloc.used_blocks(), 3);
  EXPECT_EQ(cache.block_refs(), 3);
  // A divergent branch at unaligned depth 24: split shares the straddled
  // page between the two halves (no new page), and the sibling pays a
  // fresh boundary page for positions [24, 32) plus one for [32, 50).
  TokenSeq branch = Iota(24);
  for (Token t = 0; t < 26; ++t) {
    branch.push_back(9000 + t);
  }
  cache.Insert(branch, 2);
  // Pages: shared path 2 (0..23 -> pages 0,1 shared at the split), original
  // suffix keeps pages 1,2; branch adds ceil(50/16)=4 minus floor(24/16)=1
  // -> pages 1..3 where page 1 is a fresh boundary copy: 3 new pages.
  EXPECT_EQ(alloc.used_blocks(), 6);
  EXPECT_EQ(cache.size_tokens(), 40 + 26);
  // Refs: page 1 (straddle) is held by split-upper and split-lower; the
  // branch holds its own copies.
  EXPECT_EQ(cache.block_refs(), 7);
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(PrefixCacheBlockTest, EvictionFreesPagesButStraddlesSurvive) {
  BlockAllocator alloc(1024);
  PrefixCache cache(16384, &alloc, 16);
  cache.Insert(Iota(40), 1);          // Pages 0,1,2.
  cache.MatchPrefix(Iota(24), 2);     // Splits at 24: page 1 straddles.
  const int64_t used_before = alloc.used_blocks();
  EXPECT_EQ(used_before, 3);
  // Ask for one page back: the LRU leaf (tokens 24..40, pages 1,2) goes;
  // page 2 frees — which is what Evict reports — while page 1 survives via
  // the upper node's reference and is not counted.
  EXPECT_EQ(cache.Evict(1), 1);
  EXPECT_EQ(cache.size_tokens(), 24);
  EXPECT_EQ(alloc.used_blocks(), 2);
  EXPECT_TRUE(cache.CheckInvariants());
  // Evicting the rest returns every page.
  cache.Evict(1 << 20);
  EXPECT_EQ(alloc.used_blocks(), 0);
}

TEST(PrefixCacheBlockTest, DonorInsertTransfersSequencePages) {
  // The publish contract: a path-aligned table donates its pages to the new
  // node by reference; no fresh pages are allocated for covered positions.
  BlockAllocator alloc(1024);
  PrefixCache cache(16384, &alloc, 16);
  BlockTable table;
  table.Append(alloc, 16, 40);  // A sequence's prompt, base 0.
  const int64_t used_before = alloc.used_blocks();
  cache.Insert(Iota(40), 1, &table, /*donor_base=*/0);
  EXPECT_EQ(alloc.used_blocks(), used_before);  // Pure reference transfer.
  EXPECT_EQ(alloc.ref_count(table.blocks()[0]), 2);
  // The sequence publishes and keeps nothing: its refs drop, the cache's
  // survive.
  table.Clear(alloc);
  EXPECT_EQ(alloc.used_blocks(), used_before);
  cache.Evict(1 << 20);
  EXPECT_EQ(alloc.used_blocks(), 0);
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(PrefixCacheBlockTest, PagesSharedWithSequencesAreNotEvictable) {
  BlockAllocator alloc(1024);
  PrefixCache cache(16384, &alloc, 16);
  BlockTable table;
  table.Append(alloc, 16, 40);  // Tail page 2 covers tokens [32, 40).
  cache.Insert(Iota(40), 1, &table, 0);
  // The sequence keeps its claim on the boundary page only (as after
  // ReleasePrefix at a 40-token prompt with generated tokens in page 2).
  table.ReleasePrefix(alloc, 16, 33);
  PrefixCache::BlockOccupancy occ = cache.CountBlocks();
  EXPECT_EQ(occ.held_blocks, 3);
  // Pages 0,1 would free under full eviction; page 2 is sequence-shared.
  EXPECT_EQ(occ.evictable_blocks, 2);
  // Pinning the path makes nothing evictable.
  auto ref = cache.MatchAndRef(Iota(40), 2);
  EXPECT_EQ(cache.CountBlocks().evictable_blocks, 0);
  cache.Unref(ref.pin);
  // Eviction under the shared page: the cache lets go of all three, but the
  // allocator keeps page 2 alive for the sequence.
  cache.Evict(1 << 20);
  EXPECT_EQ(cache.size_tokens(), 0);
  EXPECT_EQ(alloc.used_blocks(), 1);
  table.Clear(alloc);
  EXPECT_EQ(alloc.used_blocks(), 0);
  EXPECT_TRUE(cache.CheckInvariants());
}

// Asserts the probe's O(1) occupancy figures and that the full-scan oracle
// agrees with them.
void ExpectOccupancy(const PrefixCache& cache, int64_t held,
                     int64_t evictable) {
  const PrefixCache::BlockOccupancy fast = cache.CountBlocks();
  const PrefixCache::BlockOccupancy slow = cache.CountBlocksSlow();
  EXPECT_EQ(fast.held_blocks, held);
  EXPECT_EQ(fast.evictable_blocks, evictable);
  EXPECT_EQ(slow.held_blocks, held);
  EXPECT_EQ(slow.evictable_blocks, evictable);
}

TEST(PrefixCacheBlockTest, PageSharedByThreeShortEdgesCountsOnce) {
  // Edges shorter than a page: splits at 10 and 5 leave one 16-token page
  // referenced by three nodes. It is held once, and evictable only while
  // none of the three is pinned and no sequence shares it.
  BlockAllocator alloc(64);
  PrefixCache cache(1024, &alloc, 16);
  cache.Insert(Iota(16), 1);       // One node on page 0.
  cache.MatchPrefix(Iota(10), 2);  // Split at 10: page 0 straddles.
  cache.MatchPrefix(Iota(5), 3);   // Split at 5: it straddles again.
  const BlockId page = 0;
  EXPECT_EQ(cache.num_nodes(), 3u);
  EXPECT_EQ(alloc.used_blocks(), 1);
  EXPECT_EQ(alloc.ref_count(page), 3);
  EXPECT_EQ(alloc.cache_holders(page).refs, 3);
  ExpectOccupancy(cache, 1, 1);
  // Pinning [0, 10) pins two of the three references.
  auto ref = cache.MatchAndRef(Iota(10), 4);
  EXPECT_EQ(alloc.cache_holders(page).pinned, 2);
  ExpectOccupancy(cache, 1, 0);
  // The unpinned leaf goes, dropping one reference and freeing nothing.
  EXPECT_EQ(cache.Evict(1), 0);
  EXPECT_EQ(cache.num_nodes(), 2u);
  EXPECT_EQ(alloc.cache_holders(page).refs, 2);
  ExpectOccupancy(cache, 1, 0);
  // A sequence sharing the page keeps it unevictable after the unpin...
  alloc.AddRef(page);
  cache.Unref(ref.pin);
  EXPECT_EQ(alloc.cache_holders(page).pinned, 0);
  ExpectOccupancy(cache, 1, 0);
  // ...until it lets go.
  EXPECT_FALSE(alloc.Release(page));
  ExpectOccupancy(cache, 1, 1);
  EXPECT_TRUE(cache.CheckInvariants());
  EXPECT_TRUE(alloc.CheckInvariants());
  cache.Evict(1 << 20);
  EXPECT_EQ(alloc.used_blocks(), 0);
  ExpectOccupancy(cache, 0, 0);
  EXPECT_TRUE(alloc.CheckInvariants());
}

TEST(PrefixCacheBlockTest, PinSpanningSplitKeepsStraddleCountsExact) {
  // A split under an active pin: the new upper half inherits the pin, so
  // the straddled page's new reference is a pinned one.
  BlockAllocator alloc(64);
  PrefixCache cache(1024, &alloc, 16);
  cache.Insert(Iota(40), 1);  // One node on pages 0, 1, 2.
  auto pin = cache.MatchAndRef(Iota(40), 2);
  ExpectOccupancy(cache, 3, 0);
  cache.MatchPrefix(Iota(24), 3);  // Split at 24: page 1 straddles.
  EXPECT_EQ(cache.num_nodes(), 2u);
  EXPECT_EQ(alloc.cache_holders(1).refs, 2);
  EXPECT_EQ(alloc.cache_holders(1).pinned, 2);
  ExpectOccupancy(cache, 3, 0);
  EXPECT_TRUE(cache.CheckInvariants());
  // One pin covered both halves; releasing it unpins both.
  cache.Unref(pin.pin);
  EXPECT_EQ(alloc.cache_holders(1).pinned, 0);
  ExpectOccupancy(cache, 3, 3);
  // Pin only the upper half: page 1 is half pinned, page 2 may go.
  auto upper = cache.MatchAndRef(Iota(24), 4);
  EXPECT_EQ(alloc.cache_holders(1).pinned, 1);
  ExpectOccupancy(cache, 3, 1);
  // The lower leaf goes: page 2 frees, page 1 survives through the upper.
  EXPECT_EQ(cache.Evict(1), 1);
  EXPECT_EQ(alloc.cache_holders(1).refs, 1);
  ExpectOccupancy(cache, 2, 0);
  cache.Unref(upper.pin);
  ExpectOccupancy(cache, 2, 2);
  EXPECT_TRUE(cache.CheckInvariants());
  EXPECT_TRUE(alloc.CheckInvariants());
}

// --- Cold-subtree eviction (ISSUE 8) -------------------------------------

TEST(ColdSubtreeTest, EvictsWholeColdSubtreeBeforeHotContent) {
  BlockAllocator alloc(4096);
  PrefixCache cache(65536, &alloc, 16, EvictionPolicy::kColdSubtree);
  // An abandoned ToT-style branch pair under a shared prefix, last touched
  // at t=1000...
  TokenSeq shared = Iota(32);
  TokenSeq cold_a = shared;
  TokenSeq cold_b = shared;
  for (Token t = 0; t < 32; ++t) {
    cold_a.push_back(1000 + t);
    cold_b.push_back(2000 + t);
  }
  cache.Insert(cold_a, 1000);
  cache.Insert(cold_b, 1000);
  // ...and a hot conversation accessed now (well past kColdSubtreeAgeUs).
  TokenSeq hot = Iota(48, 5000);
  cache.Insert(hot, 900);
  cache.MatchPrefix(hot, 2'000'000);
  ASSERT_TRUE(cache.CheckInvariants());

  // The hot branch is the LRU-oldest *insert*, but the cold pass ignores
  // recency-of-insert and takes the whole abandoned subtree — shared prefix
  // and both branches, three nodes in one round.
  const int64_t freed = cache.Evict(1);
  EXPECT_GT(freed, 0);
  EXPECT_EQ(cache.MatchPrefix(cold_a, 2'000'001), 0);
  EXPECT_EQ(cache.MatchPrefix(cold_b, 2'000'002), 0);
  EXPECT_EQ(cache.MatchPrefix(hot, 2'000'003), 48);
  EXPECT_EQ(cache.eviction_stats().rounds, 1);
  EXPECT_EQ(cache.eviction_stats().victims, 3);
  EXPECT_EQ(cache.eviction_stats().freed_blocks, freed);
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(ColdSubtreeTest, PinnedSubtreeIsNeverACandidate) {
  BlockAllocator alloc(4096);
  PrefixCache cache(65536, &alloc, 16, EvictionPolicy::kColdSubtree);
  TokenSeq old_seq = Iota(64);
  cache.Insert(old_seq, 1);
  auto ref = cache.MatchAndRef(old_seq, 2);
  cache.Insert(Iota(64, 9000), 2'000'000);  // Advances the coldness clock.
  // The old branch is ancient but pinned: neither the cold pass nor the
  // LRU fallback may touch it. (The fresh unpinned branch is fair game for
  // the fallback — 4 pages — but the pinned 4 must survive.)
  EXPECT_LE(cache.Evict(1 << 20), 4);
  EXPECT_EQ(cache.MatchPrefix(old_seq, 2'000'001), 64);
  cache.Unref(ref.pin);
  cache.Evict(1 << 20);
  EXPECT_EQ(cache.size_tokens(), 0);
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(ColdSubtreeTest, FallsBackToLruLeafWhenNothingIsCold) {
  BlockAllocator alloc(4096);
  PrefixCache cache(65536, &alloc, 16, EvictionPolicy::kColdSubtree);
  // Three disjoint branches, all accessed within the coldness window.
  cache.Insert(Iota(32, 100), 1000);
  cache.Insert(Iota(32, 200), 2000);
  cache.Insert(Iota(32, 300), 3000);
  // Nothing is cold relative to newest_access (3000), so the fallback LRU
  // pass must evict exactly the oldest leaf, like the seed policy.
  EXPECT_EQ(cache.Evict(1), 2);  // One 32-token node = 2 pages.
  EXPECT_EQ(cache.MatchPrefix(Iota(32, 100), 4000), 0);
  EXPECT_EQ(cache.MatchPrefix(Iota(32, 200), 4001), 32);
  EXPECT_EQ(cache.MatchPrefix(Iota(32, 300), 4002), 32);
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(ColdSubtreeTest, ScorePrefersFewHitsPerPage) {
  BlockAllocator alloc(4096);
  PrefixCache cache(65536, &alloc, 16, EvictionPolicy::kColdSubtree);
  // Two equally old, equally sized branches; one was hit many times while
  // live, the other never re-read. Pages-per-expected-future-hit evicts the
  // never-re-read branch first.
  TokenSeq popular = Iota(32, 100);
  TokenSeq unloved = Iota(32, 200);
  cache.Insert(popular, 1000);
  cache.Insert(unloved, 1000);
  for (SimTime t = 1001; t < 1011; ++t) {
    cache.MatchPrefix(popular, t);
  }
  cache.Insert(Iota(16, 300), 2'000'000);  // Coldness clock advances.
  EXPECT_EQ(cache.Evict(1), 2);
  EXPECT_EQ(cache.MatchPrefix(unloved, 2'000'001), 0);
  EXPECT_EQ(cache.MatchPrefix(popular, 2'000'002), 32);
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(ColdSubtreeTest, ColdSubtreeReclaimsMorePagesPerVictimScan) {
  // The mechanism claim behind the micro cell: under a skewed hot/cold
  // tree, cold-subtree eviction reclaims whole branches in one round while
  // LRU-leaf eviction walks the tree once per leaf.
  for (EvictionPolicy policy :
       {EvictionPolicy::kLruLeaf, EvictionPolicy::kColdSubtree}) {
    BlockAllocator alloc(65536);
    PrefixCache cache(1 << 20, &alloc, 16, policy);
    TokenSeq trunk = Iota(64);
    for (Token branch = 0; branch < 8; ++branch) {
      TokenSeq seq = trunk;
      for (Token t = 0; t < 64; ++t) {
        seq.push_back(1000 * (branch + 1) + t);
      }
      cache.Insert(seq, 100 + branch);
    }
    cache.Insert(Iota(32, 500'000), 3'000'000);  // Hot marker.
    const int64_t target = 16;
    cache.Evict(target);
    EXPECT_GE(cache.eviction_stats().freed_blocks, target);
    if (policy == EvictionPolicy::kColdSubtree) {
      // One round took whole subtrees.
      EXPECT_EQ(cache.eviction_stats().rounds, 1);
      EXPECT_GT(cache.eviction_stats().victims, 1);
    }
    EXPECT_TRUE(cache.CheckInvariants());
  }
}

TEST(PrefixCacheBlockTest, CoarseModeIsTokenGranular) {
  // block_size 1: every token is its own page, no page is ever shared, and
  // the pool mirrors size_tokens exactly — the coarse compatibility mode.
  BlockAllocator alloc(4096);
  PrefixCache cache(4096, &alloc, 1);
  cache.Insert(Iota(100), 1);
  cache.MatchPrefix(Iota(60), 2);  // Split: still no page sharing at B=1.
  EXPECT_EQ(alloc.used_blocks(), 100);
  EXPECT_EQ(cache.block_refs(), 100);
  // Occupancy is the token counters; the page scan agrees.
  ExpectOccupancy(cache, 100, 100);
  auto ref = cache.MatchAndRef(Iota(60), 3);
  ExpectOccupancy(cache, 100, 40);
  cache.Unref(ref.pin);
  // Coarse mode keeps no per-page holder arrays.
  EXPECT_FALSE(alloc.tracks_cache_holders());
  cache.Evict(40);
  EXPECT_EQ(alloc.used_blocks(), cache.size_tokens());
  EXPECT_TRUE(cache.CheckInvariants());
}

}  // namespace
}  // namespace skywalker
