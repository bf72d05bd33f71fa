// Unit tests for the paged KV memory subsystem (src/memory/):
// BlockAllocator refcounting and free-list recycling, BlockTable growth and
// prefix release, and KvController admission, commitment, watermark, and
// swap-ledger arithmetic.

#include <gtest/gtest.h>

#include "src/cache/prefix_cache.h"
#include "src/memory/block_allocator.h"
#include "src/memory/block_table.h"
#include "src/memory/kv_controller.h"

namespace skywalker {
namespace {

TEST(BlockAllocatorTest, AllocateReleaseRecyclesIds) {
  BlockAllocator alloc(8);
  BlockId a = alloc.Allocate();
  BlockId b = alloc.Allocate();
  EXPECT_NE(a, b);
  EXPECT_EQ(alloc.used_blocks(), 2);
  EXPECT_EQ(alloc.free_blocks(), 6);
  EXPECT_TRUE(alloc.Release(b));
  // LIFO free list: the freed id comes straight back.
  EXPECT_EQ(alloc.Allocate(), b);
  EXPECT_TRUE(alloc.Release(a));
  EXPECT_TRUE(alloc.Release(b));
  EXPECT_EQ(alloc.used_blocks(), 0);
  EXPECT_TRUE(alloc.CheckInvariants());
}

TEST(BlockAllocatorTest, RefcountSharingDelaysFree) {
  BlockAllocator alloc(4);
  BlockId a = alloc.Allocate();
  alloc.AddCacheRef(a, /*pinned=*/false);
  EXPECT_EQ(alloc.ref_count(a), 2);
  EXPECT_FALSE(alloc.Release(a));  // Still shared.
  EXPECT_EQ(alloc.used_blocks(), 1);
  EXPECT_TRUE(alloc.Release(a));
  EXPECT_EQ(alloc.used_blocks(), 0);
}

TEST(BlockAllocatorTest, OvercommitGoesNegativeButCounts) {
  // Blocks are bookkeeping: allocation past capacity must succeed (the
  // replica's force-admit path relies on it) and free_blocks goes negative.
  BlockAllocator alloc(2);
  for (int i = 0; i < 5; ++i) {
    alloc.Allocate();
  }
  EXPECT_EQ(alloc.used_blocks(), 5);
  EXPECT_EQ(alloc.free_blocks(), -3);
  EXPECT_EQ(alloc.stats().peak_used_blocks, 5);
  EXPECT_TRUE(alloc.CheckInvariants());
}

TEST(BlockTableTest, AppendPacksPartialTail) {
  BlockAllocator alloc(64);
  BlockTable table;
  EXPECT_EQ(table.Append(alloc, 16, 10), 1);  // One block, 6 slots spare.
  EXPECT_EQ(table.fragmentation_tokens(16), 6);
  EXPECT_EQ(table.Append(alloc, 16, 6), 0);  // Fills the tail, no alloc.
  EXPECT_EQ(table.fragmentation_tokens(16), 0);
  EXPECT_EQ(table.Append(alloc, 16, 33), 3);  // 2 full + 1 partial.
  EXPECT_EQ(table.num_tokens(), 49);
  EXPECT_EQ(table.num_blocks(), 4);
  table.Clear(alloc);
  EXPECT_EQ(alloc.used_blocks(), 0);
}

TEST(BlockTableTest, BlockSizeOneIsTokenGranular) {
  BlockAllocator alloc(1024);
  BlockTable table;
  table.Append(alloc, 1, 100);
  EXPECT_EQ(table.num_blocks(), 100);
  EXPECT_EQ(table.fragmentation_tokens(1), 0);
  EXPECT_EQ(table.ReleasePrefix(alloc, 1, 40), 40);
  EXPECT_EQ(table.num_blocks(), 60);
  EXPECT_EQ(table.skew(), 0);  // One-token pages never skew.
  EXPECT_EQ(alloc.used_blocks(), 60);
  table.Clear(alloc);
}

TEST(BlockTableTest, SkewPathAlignsTheFirstBlock) {
  // A table starting at path position 10 (skew 10) holds only 6 slots in
  // its first page — its pages sit at the positions the radix tree would
  // charge them, so publishing is a reference transfer.
  BlockAllocator alloc(64);
  BlockTable table;
  table.SetSkew(10);
  EXPECT_EQ(table.Append(alloc, 16, 6), 1);  // Fills the first page.
  EXPECT_EQ(table.fragmentation_tokens(16), 0);
  EXPECT_EQ(table.Append(alloc, 16, 1), 1);  // Next page.
  EXPECT_EQ(table.num_blocks(), 2);
  EXPECT_EQ(table.num_tokens(), 7);
  table.Clear(alloc);
  EXPECT_EQ(table.skew(), 0);  // Clear resets alignment.
  EXPECT_EQ(alloc.used_blocks(), 0);
}

TEST(BlockTableTest, SkewedFirstAppendCountsTheSkewSlots) {
  // A table at path position 10 has 6 free slots in its first page, so 7
  // tokens cross into a second page; a 30-token swap-in restore at skew 10
  // needs ceil(40 / 16) = 3 pages.
  BlockAllocator alloc(64);
  BlockTable table;
  table.SetSkew(10);
  EXPECT_EQ(table.Append(alloc, 16, 7), 2);
  EXPECT_EQ(table.tail_free(16), 15);
  EXPECT_EQ(table.fragmentation_tokens(16), 15);
  table.Clear(alloc);
  table.SetSkew(10);
  EXPECT_EQ(table.Append(alloc, 16, 30), 3);
  EXPECT_EQ(table.Append(alloc, 16, 8), 0);  // Fills the third page.
  EXPECT_EQ(table.num_blocks(), 3);
  table.Clear(alloc);
  EXPECT_EQ(alloc.used_blocks(), 0);

  KvConfig config;
  config.capacity_tokens = 1024;
  config.block_size_tokens = 16;
  KvController kv(config);
  SimDuration transfer = 0;
  const KvController::SeqId id = kv.BeginSwapIn(30, 0, 8, 10, &transfer);
  EXPECT_EQ(kv.table(id).num_blocks(), 3);
  EXPECT_TRUE(kv.CheckConsistency());
  const KvController::SeqId fresh = kv.AdmitSeq(7, 8, /*skew=*/10);
  kv.OnPrefillChunk(fresh, 7);
  EXPECT_EQ(kv.table(fresh).num_blocks(), 2);
  EXPECT_TRUE(kv.CheckConsistency());
  kv.ReleaseSeq(id);
  kv.ReleaseSeq(fresh);
  EXPECT_EQ(kv.used_blocks(), 0);
}

TEST(BlockTableTest, ReleasePrefixKeepsTheStraddledBoundaryPage) {
  BlockAllocator alloc(64);
  BlockTable table;
  table.Append(alloc, 16, 40);  // Pages [0,16) [16,32) [32,40).
  // Publish the first 20 tokens: page 0 drops, page 1 straddles the new
  // start (tokens 20..31 are still ours) and must survive.
  BlockId straddle = table.blocks()[1];
  EXPECT_EQ(table.ReleasePrefix(alloc, 16, 20), 1);
  EXPECT_EQ(table.num_tokens(), 20);
  EXPECT_EQ(table.skew(), 4);
  EXPECT_EQ(table.num_blocks(), 2);
  EXPECT_EQ(table.blocks()[0], straddle);
  // Dropping everything releases even the straddled page, but the path
  // alignment advances past the dropped span: a token re-materialized into
  // the empty table must land at its true path position (40 % 16 == 8).
  EXPECT_EQ(table.ReleasePrefix(alloc, 16, 20), 2);
  EXPECT_EQ(alloc.used_blocks(), 0);
  EXPECT_EQ(table.skew(), 8);
  // Appending from the emptied-but-skewed state opens a page with only the
  // remaining 8 slots.
  EXPECT_EQ(table.Append(alloc, 16, 8), 1);
  EXPECT_EQ(table.Append(alloc, 16, 1), 1);
  table.Clear(alloc);
  EXPECT_EQ(table.skew(), 0);  // Clear is the full reset.
  EXPECT_EQ(alloc.used_blocks(), 0);
}

TEST(BlockTableTest, AppendFillsTheCacheSharedTailWithoutAllocating) {
  // After publish the cache references the page holding the prompt's last
  // token; decode appends into its free slots, which the cache never reads,
  // so the page is neither copied nor replaced.
  BlockAllocator alloc(64);
  BlockTable table;
  table.Append(alloc, 16, 20);  // Pages 0, 1; the tail holds 4 tokens.
  const BlockId shared = table.blocks()[1];
  alloc.AddCacheRef(shared, /*pinned=*/false);  // The cache's reference.
  EXPECT_EQ(table.Append(alloc, 16, 12), 0);    // Fills the shared tail.
  EXPECT_EQ(table.blocks()[1], shared);
  EXPECT_EQ(table.num_blocks(), 2);
  EXPECT_EQ(alloc.used_blocks(), 2);
  EXPECT_EQ(alloc.ref_count(shared), 2);
  EXPECT_EQ(table.Append(alloc, 16, 1), 1);  // Only a full tail allocates.
  table.Clear(alloc);
  EXPECT_EQ(alloc.used_blocks(), 1);  // The cache's page survives.
  EXPECT_EQ(alloc.ReleaseCacheSpan(&shared, 1, /*pinned=*/false), 1);
  EXPECT_EQ(alloc.used_blocks(), 0);
  EXPECT_TRUE(alloc.CheckInvariants());
}

// --- KvController ------------------------------------------------------

TEST(KvControllerTest, CoarseModeMatchesSeedArithmetic) {
  // block_size 1, no watermark: CanAdmit must be exactly
  // need <= capacity - resident - committed. The cache side charges the
  // shared allocator directly (here emulated by an external table).
  KvConfig config;
  config.capacity_tokens = 1000;
  KvController kv(config);
  BlockTable cache_side;
  cache_side.Append(kv.allocator(), 1, 300);
  KvController::SeqId seq = kv.AdmitSeq(200, 100);
  EXPECT_EQ(kv.used_blocks(), 300);
  EXPECT_EQ(kv.committed_tokens(), 300);
  // free = 1000 - 300 - 300 = 400.
  EXPECT_TRUE(kv.CanAdmit(300, 100));
  EXPECT_FALSE(kv.CanAdmit(301, 100));
  EXPECT_EQ(kv.AdmissionDeficitBlocks(301, 100), 1);

  kv.OnPrefillChunk(seq, 200);  // Committed -> resident, free unchanged.
  EXPECT_EQ(kv.used_blocks(), 500);
  EXPECT_EQ(kv.seq_resident_tokens(), 200);
  EXPECT_EQ(kv.committed_tokens(), 100);
  EXPECT_TRUE(kv.CanAdmit(300, 100));
  EXPECT_FALSE(kv.CanAdmit(301, 100));

  kv.OnDecodeToken(seq);  // Reserve shrinks as output materializes.
  EXPECT_EQ(kv.used_blocks(), 501);
  EXPECT_EQ(kv.committed_reserve_tokens(), 99);

  EXPECT_EQ(kv.ReleaseSeq(seq), 201);
  EXPECT_EQ(kv.committed_tokens(), 0);
  EXPECT_EQ(kv.used_blocks(), 300);
  EXPECT_TRUE(kv.CheckConsistency());
  cache_side.Clear(kv.allocator());
}

TEST(KvControllerTest, PagedCeilsPerSequence) {
  KvConfig config;
  config.capacity_tokens = 160;  // 10 blocks of 16.
  config.block_size_tokens = 16;
  KvController kv(config);
  EXPECT_EQ(kv.total_blocks(), 10);
  // 17 prefill -> 2 blocks, 17 reserve -> 2 blocks: 4 of 10.
  KvController::SeqId seq = kv.AdmitSeq(17, 17);
  EXPECT_EQ(kv.committed_blocks(), 4);
  // Another identical admission fits (8 of 10); a third does not.
  EXPECT_TRUE(kv.CanAdmit(17, 17));
  KvController::SeqId seq2 = kv.AdmitSeq(17, 17);
  EXPECT_FALSE(kv.CanAdmit(17, 17));
  EXPECT_EQ(kv.AdmissionDeficitBlocks(17, 17), 2);  // Deficit in blocks.

  // Prefill materializes into real blocks; fragmentation appears.
  kv.OnPrefillChunk(seq, 17);
  EXPECT_EQ(kv.used_blocks(), 2);
  EXPECT_EQ(kv.used_blocks() * 16 - kv.seq_resident_tokens(), 2 * 16 - 17);
  kv.ReleaseSeq(seq);
  kv.ReleaseSeq(seq2);
  EXPECT_TRUE(kv.CheckConsistency());
}

TEST(KvControllerTest, WatermarkHoldsBlocksBack) {
  KvConfig config;
  config.capacity_tokens = 160;
  config.block_size_tokens = 16;
  config.watermark_blocks = 4;
  KvController kv(config);
  // 6 blocks of need fits only if 6 + 4 <= 10.
  EXPECT_TRUE(kv.CanAdmit(48, 48));
  EXPECT_FALSE(kv.CanAdmit(48, 64));
  EXPECT_TRUE(kv.CanAdmitIgnoringWatermark(48, 64));
}

TEST(KvControllerTest, SwapLedgerModelsPcieTime) {
  KvConfig config;
  config.capacity_tokens = 1000;
  config.swap_us_per_token = 5.0;
  KvController kv(config);
  KvController::SeqId seq = kv.AdmitSeq(100, 50);
  kv.OnPrefillChunk(seq, 100);
  ASSERT_EQ(kv.SeqTokens(seq), 100);

  SimDuration out = kv.SwapOut(seq);
  EXPECT_EQ(out, 500);  // 100 tokens * 5 us.
  EXPECT_EQ(kv.seq_resident_tokens(), 0);
  EXPECT_EQ(kv.committed_tokens(), 0);  // Reserve returned on swap-out.
  EXPECT_EQ(kv.counters().preempt_swap, 1);
  EXPECT_EQ(kv.counters().swapped_out_tokens, 100);

  SimDuration in = 0;
  KvController::SeqId restored = kv.BeginSwapIn(100, 0, 50, /*skew=*/0, &in);
  EXPECT_EQ(in, 500);
  EXPECT_EQ(kv.SeqTokens(restored), 100);
  EXPECT_EQ(kv.committed_reserve_tokens(), 50);
  EXPECT_EQ(kv.counters().swap_ins, 1);
  EXPECT_DOUBLE_EQ(kv.counters().swap_transfer_us, 1000.0);
  kv.ReleaseSeq(restored);
  EXPECT_TRUE(kv.CheckConsistency());
}

TEST(KvControllerTest, CacheChargesTheSharedAllocatorDirectly) {
  // ISSUE 5: no shadow cache table — the radix cache's node spans ARE the
  // cache charge, visible to admission through used_blocks().
  KvConfig config;
  config.capacity_tokens = 320;
  config.block_size_tokens = 16;
  KvController kv(config);
  PrefixCache cache(320, &kv.allocator(), 16);
  TokenSeq seq;
  for (Token t = 0; t < 100; ++t) {
    seq.push_back(t);
  }
  cache.Insert(seq, 1);
  EXPECT_EQ(kv.used_blocks(), 7);  // ceil(100/16), exactly one node's span.
  EXPECT_EQ(cache.block_refs(), 7);
  EXPECT_EQ(cache.CountBlocks().held_blocks, 7);
  // Admission sees the cache charge with no reconciliation step.
  EXPECT_TRUE(kv.CanAdmit(16 * 13, 0));
  EXPECT_FALSE(kv.CanAdmit(16 * 13 + 1, 0));
  cache.Evict(100);
  EXPECT_EQ(kv.used_blocks(), 0);
  EXPECT_TRUE(kv.CheckConsistency());
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(KvControllerTest, ReclaimNeededAfterOvercommit) {
  KvConfig config;
  config.capacity_tokens = 64;
  config.block_size_tokens = 16;
  KvController kv(config);
  KvController::SeqId seq = kv.AdmitSeq(100, 0);  // Force-admit analogue.
  kv.OnPrefillChunk(seq, 100);
  EXPECT_EQ(kv.used_blocks(), 7);
  EXPECT_EQ(kv.ReclaimNeededBlocks(), 3);  // 7 used over a 4-block budget.
  kv.ReleaseSeq(seq);
  EXPECT_EQ(kv.ReclaimNeededBlocks(), 0);
}

TEST(KvControllerTest, SlotReuseKeepsLedgerConsistent) {
  KvConfig config;
  config.capacity_tokens = 10000;
  config.block_size_tokens = 16;
  KvController kv(config);
  for (int round = 0; round < 50; ++round) {
    KvController::SeqId a = kv.AdmitSeq(33, 20);
    KvController::SeqId b = kv.AdmitSeq(7, 20);
    kv.OnPrefillChunk(a, 33);
    kv.OnPrefillChunk(b, 7);
    for (int i = 0; i < 20; ++i) {
      kv.OnDecodeToken(a);
    }
    kv.ReleaseSeqPrefix(a, 48);  // Publish: drop to 5 private tokens.
    EXPECT_EQ(kv.SeqTokens(a), 5);
    kv.ReleaseSeq(a);
    kv.ReleaseSeq(b);
  }
  EXPECT_EQ(kv.live_seqs(), 0);
  EXPECT_EQ(kv.seq_resident_tokens(), 0);
  EXPECT_EQ(kv.committed_tokens(), 0);
  EXPECT_EQ(kv.used_blocks(), 0);
  EXPECT_TRUE(kv.CheckConsistency());
}

}  // namespace
}  // namespace skywalker
