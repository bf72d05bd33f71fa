// Unit and property tests for the replica-side radix-tree prefix cache:
// match/insert semantics, pin-protected eviction, edge splitting under
// concurrent pins, and structural invariants under randomized workloads.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

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

TEST(PrefixCacheTest, EdgesHoldTheirBufferUntilTheLastOneIsEvicted) {
  // An edge views the buffer of the slice that inserted it and keeps it
  // alive: through a split (both halves view it) and until the last edge
  // viewing it is evicted.
  PrefixCache cache(1000);
  std::weak_ptr<const TokenSeq> watch;
  {
    const SharedTokens seq(Seq({1, 2, 3, 4, 5, 6}));
    watch = seq.buffer();
    cache.Insert(seq, 1);
  }
  EXPECT_FALSE(watch.expired());
  // Split at 3: [1, 2, 3] above [4, 5, 6], both in the buffer; [9] comes
  // from a buffer of its own.
  EXPECT_EQ(cache.Insert(Seq({1, 2, 3, 9}), 2), 1);
  EXPECT_EQ(cache.num_nodes(), 3u);
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(cache.CheckInvariants());
  // The oldest leaf, [4, 5, 6], goes; the upper half still holds the
  // buffer, and its tokens still match.
  EXPECT_EQ(cache.Evict(1), 3);
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(cache.MatchPrefix(Seq({1, 2, 3, 4}), 3), 3);
  // [9] goes, then [1, 2, 3], the last edge viewing the buffer.
  EXPECT_EQ(cache.Evict(1), 1);
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(cache.Evict(1), 3);
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(cache.num_nodes(), 0u);
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(PrefixCacheTest, ResumingAtAHeldPinRefreshesItsChain) {
  // A walk resumed at a held pin stamps the pinned chain as a walk from the
  // root would, so LRU order is unchanged: [1, 2] is re-pinned at 5, after
  // [5, 6]'s last use at 4, and outlives it.
  PrefixCache cache(1000);
  cache.Insert(Seq({1, 2}), 1);
  cache.Insert(Seq({5, 6}), 2);
  auto pin = cache.MatchAndRef(Seq({1, 2}), 3);
  EXPECT_EQ(cache.MatchPrefix(Seq({5, 6}), 4), 2);
  auto repin = cache.MatchAndRef(Seq({1, 2, 3}), 5, pin.pin);
  EXPECT_EQ(repin.cached_len, 2);
  cache.Unref(pin.pin);
  cache.Unref(repin.pin);
  EXPECT_EQ(cache.Evict(1), 2);
  EXPECT_EQ(cache.MatchPrefix(Seq({5, 6}), 6), 0);
  EXPECT_EQ(cache.MatchPrefix(Seq({1, 2}), 6), 2);
  // An insert resumed at a pin adds only what lies below it.
  auto held = cache.MatchAndRef(Seq({1, 2}), 7);
  EXPECT_EQ(cache.Insert(Seq({1, 2, 3, 4}), 8, nullptr, 0, held.pin), 2);
  cache.Unref(held.pin);
  EXPECT_EQ(cache.MatchPrefix(Seq({1, 2, 3, 4}), 9), 4);
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
  BlockTable seq;  // The publishing sequence keeps its page at first.
  seq.Append(alloc, 16, 16);
  cache.Insert(Iota(16), 1, &seq, 0);  // One node on the sequence's page 0.
  cache.MatchPrefix(Iota(10), 2);      // Split at 10: page 0 straddles.
  cache.MatchPrefix(Iota(5), 3);       // Split at 5: it straddles again.
  const BlockId page = 0;
  EXPECT_EQ(cache.num_nodes(), 3u);
  EXPECT_EQ(alloc.used_blocks(), 1);
  EXPECT_EQ(alloc.ref_count(page), 4);
  EXPECT_EQ(alloc.cache_holders(page).refs, 3);
  EXPECT_EQ(alloc.cache_holders(page).pinned, 0);
  // The sequence sharing the page keeps it unevictable...
  ExpectOccupancy(cache, 1, 0);
  // ...until it lets go: three unpinned references count as one page.
  EXPECT_EQ(seq.Clear(alloc), 1);
  EXPECT_EQ(alloc.ref_count(page), 3);
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
  // The unpin makes it evictable again.
  cache.Unref(ref.pin);
  EXPECT_EQ(alloc.cache_holders(page).pinned, 0);
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

TEST(PrefixCacheBlockTest, LruEvictionTakesTheOldestWholeBranchesFirst) {
  // Eight page-aligned 4-page branches off one trunk, inserted oldest
  // first, plus a newer marker: a 16-page deficit takes the four oldest
  // branches, one leaf per scan, in one eviction round.
  BlockAllocator alloc(65536);
  PrefixCache cache(1 << 20, &alloc, 16);
  TokenSeq trunk = Iota(64);
  std::vector<TokenSeq> branches;
  for (Token branch = 0; branch < 8; ++branch) {
    TokenSeq seq = trunk;
    for (Token t = 0; t < 64; ++t) {
      seq.push_back(1000 * (branch + 1) + t);
    }
    cache.Insert(seq, 100 + branch);
    branches.push_back(std::move(seq));
  }
  cache.Insert(Iota(32, 500'000), 3'000'000);  // Newest content.
  EXPECT_EQ(cache.Evict(16), 16);
  EXPECT_EQ(cache.eviction_stats().rounds, 1);
  EXPECT_EQ(cache.eviction_stats().victims, 4);
  EXPECT_EQ(cache.eviction_stats().freed_blocks, 16);
  for (size_t b = 0; b < branches.size(); ++b) {
    EXPECT_EQ(cache.MatchPrefix(branches[b], 4'000'000), b < 4 ? 64 : 128)
        << "branch " << b;
  }
  EXPECT_EQ(cache.MatchPrefix(Iota(32, 500'000), 4'000'001), 32);
  EXPECT_TRUE(cache.CheckInvariants());
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
