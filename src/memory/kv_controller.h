// Paged KV memory controller (ISSUE 4/5): the sequence-side ledger and
// preemption policy the replica engine runs its memory decisions through.
//
// The controller owns the BlockAllocator — the one page pool the whole
// replica shares. Since ISSUE 5 the prefix cache charges that pool
// *directly* (each radix node owns a span of page ids, src/cache), so the
// controller's admission arithmetic sees the exact unified occupancy in
// `used_blocks()` and keeps no parallel cache accounting of its own. What
// it does track:
//   * per-sequence path-aligned block tables for private KV (prefill chunks
//     and generated tokens; `skew` aligns a table's pages with the radix
//     path so publishing a prompt is a reference transfer into the cache),
//   * committed future — prefill still to compute plus the unconsumed
//     output reserve of each admitted sequence, counted per sequence in
//     ceil-blocks. This is the explicit `reserved_tokens` lifecycle: the
//     reserve is charged at admission, consumed token-by-token as decode
//     proceeds, and returned exactly once when the sequence completes, is
//     preempted, or aborts (tests/replica_test.cc pins return-on-
//     completion; the property test pins the arithmetic).
//
// Admission asks CanAdmit(prefill, reserve): the ceil-block need must fit
// under total - used - committed - watermark. With block_size_tokens == 1
// and watermark_blocks == 0 every ceil is the identity and the check
// reduces exactly to the seed replica's token arithmetic
// (need <= capacity - Resident() - CommittedFuture()) — the coarse
// compatibility mode that keeps historical BENCH goldens byte-identical.
// A controller built for one-token pages gets a counted pool
// (BlockAllocator file comment): its tables hold page counts, not ids, so
// every ledger call is O(1) and a stable stretch's OnDecodeSteps is
// O(sequences). set_named_pages_oracle gives tests the named pool instead.
//
// Preemption policy selects what a reclaim victim costs:
//   * kRecompute — drop the victim's blocks; it re-prefills from scratch on
//     re-admission (the seed behavior, usually cheap under a warm prefix
//     cache).
//   * kSwap — the victim's private blocks move to host memory over PCIe
//     (modeled: swap_us_per_token each direction; ~5 us/token ≈ 128 KiB of
//     KV over ~24 GiB/s effective PCIe 4.0 x16) and restore later without
//     recomputation. The controller owns the transfer-time model and the
//     swap counters; the replica owns victim choice and scheduling.

#ifndef SKYWALKER_MEMORY_KV_CONTROLLER_H_
#define SKYWALKER_MEMORY_KV_CONTROLLER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/logging.h"
#include "src/common/sim_time.h"
#include "src/memory/block_allocator.h"
#include "src/memory/block_table.h"

namespace skywalker {

enum class PreemptPolicy {
  kRecompute,  // Drop KV; re-prefill on re-admission (seed behavior).
  kSwap,       // Move KV to host over PCIe; restore without recompute.
};

struct KvConfig {
  int64_t capacity_tokens = 49152;

  // 1 = coarse compatibility mode: token-granular pages, every block
  // quantity reduces to the seed token-counter arithmetic.
  int32_t block_size_tokens = 1;

  // Admission keeps at least this many blocks free (decode headroom).
  int64_t watermark_blocks = 0;

  PreemptPolicy preempt_policy = PreemptPolicy::kRecompute;

  // Host<->device transfer cost per token, each direction. Default models
  // 128 KiB/token KV over ~24 GiB/s effective PCIe 4.0 x16.
  double swap_us_per_token = 5.2;
};

struct KvCounters {
  int64_t preempt_recompute = 0;
  int64_t preempt_swap = 0;      // Swap-outs.
  int64_t swap_ins = 0;
  int64_t swapped_out_tokens = 0;
  int64_t swapped_in_tokens = 0;
  double swap_transfer_us = 0;   // Modeled PCIe time, both directions.
  int64_t watermark_rejections = 0;
  int64_t peak_fragmentation_tokens = 0;
};

// Element-wise sum for fleet-level metric rows.
KvCounters& operator+=(KvCounters& lhs, const KvCounters& rhs);

class KvController {
 public:
  using SeqId = int32_t;
  static constexpr SeqId kInvalidSeq = -1;

  explicit KvController(const KvConfig& config);

  KvController(const KvController&) = delete;
  KvController& operator=(const KvController&) = delete;

  // Test-only reference arm: controllers constructed while this is on give
  // one-token pages named ids, refcounts and a free list, as every larger
  // block size has, instead of counting them. Process-wide so whole fleets
  // built by Run can take it; set it before building them.
  static void set_named_pages_oracle(bool on);

  // The shared page pool. The prefix cache borrows this and charges its
  // per-node spans straight into it — there is exactly one ledger.
  BlockAllocator& allocator() { return alloc_; }
  const BlockAllocator& allocator() const { return alloc_; }

  // --- sequence ledger -------------------------------------------------
  // Registers an admitted sequence: `prefill_tokens` still to compute and
  // `reserve_tokens` of unconsumed output reserve become committed future.
  // `skew` = (cached prefix length) % block_size path-aligns the sequence's
  // table with the radix tree. No blocks are held yet; they materialize as
  // compute proceeds.
  SeqId AdmitSeq(int64_t prefill_tokens, int64_t reserve_tokens,
                 int32_t skew = 0);

  // A prefill chunk materialized: tokens move from committed to resident.
  void OnPrefillChunk(SeqId id, int64_t tokens);

  // One output token materialized: consumes one token of reserve (floor 0)
  // and grows the sequence's table.
  void OnDecodeToken(SeqId id);

  // Prefill completion published the prompt to the shared cache: drop the
  // first `tokens` of the sequence's span. References the cache now also
  // holds (the transferred pages, including a straddled boundary page)
  // survive in the allocator; pages only this sequence used are freed.
  void ReleaseSeqPrefix(SeqId id, int64_t tokens);

  // Marks the page the sequence may extend without copy-on-write (the
  // boundary page shared with the cache after publish; slot-disjoint).
  void SetCowExempt(SeqId id, BlockId block);

  // Re-materializes `tokens` already-generated output tokens into the
  // sequence's table without touching committed future (a recompute-
  // preemption victim's first output token re-appears this way at publish:
  // its reserve was consumed in its first life and the seed accounting
  // never re-charges it).
  void RestoreDecodedTokens(SeqId id, int64_t tokens);

  // --- stable decode stretches (DESIGN.md §13) -------------------------
  // One sequence of a stretch, where every step decodes one token per
  // sequence and nothing else touches the ledger. What its ledger does over
  // the next j steps follows from two numbers.
  struct DecodeRun {
    SeqId id = kInvalidSeq;
    int32_t tail_free = 0;  // Free tail slots; always 0 in coarse mode.
    int64_t reserve = 0;    // Committed output reserve, in tokens.
  };

  // What j decode steps of a stretch's runs change in the ledger.
  struct DecodeGrowth {
    int64_t tokens = 0;          // Resident sequence tokens gained.
    int64_t blocks = 0;          // Pages allocated.
    int64_t reserve_tokens = 0;  // Committed reserve consumed, in tokens,
    int64_t reserve_blocks = 0;  // and in committed ceil-blocks.
  };

  // The sequence's run, or false when its first decode token would copy a
  // shared tail page (a stretch cannot project the copy).
  bool PlanDecode(SeqId id, DecodeRun* run) const;

  // Pages `steps` decode steps of `runs` allocate:
  // Σ ceil(max(0, steps - tail_free)), which is steps · runs in coarse mode.
  int64_t DecodeBlocks(const std::vector<DecodeRun>& runs,
                       int64_t steps) const;

  // The ledger change of `steps` decode steps of `runs`: every sequence
  // gains `steps` tokens and consumes min(steps, reserve) of its reserve,
  // and the pages are DecodeBlocks.
  DecodeGrowth ProjectDecode(const std::vector<DecodeRun>& runs,
                             int64_t steps) const;

  // Materializes `steps` decode steps of `runs`: one entry lookup and one
  // commitment update per sequence. A named pool allocates step-major (each
  // step appends one token to every sequence in order), so page ids match
  // `steps` rounds of OnDecodeToken; a counted pool has no ids to order and
  // appends `steps` tokens per sequence. Re-plans each run from its new
  // state.
  void OnDecodeSteps(std::vector<DecodeRun>* runs, int64_t steps);

  int64_t SeqTokens(SeqId id) const;
  const BlockTable& table(SeqId id) const { return entry(id).table; }

  // Completion / abort / recompute-preemption: frees the sequence's blocks
  // and returns its committed future (the reserve comes back here, exactly
  // once). Returns the resident tokens freed.
  int64_t ReleaseSeq(SeqId id);

  // --- swap ledger (kSwap policy) --------------------------------------
  // Swap-out: frees the victim's blocks now, records the transfer, and
  // returns the modeled PCIe time (the caller gates swap-in eligibility on
  // it). The slot is released; swap-in creates a fresh one.
  SimDuration SwapOut(SeqId id);

  // Swap-in admission: re-charges `tokens` of restored KV immediately plus
  // the remaining committed future; `*transfer` gets the restore latency.
  // Restored KV lands in fresh pages at the sequence's original path
  // alignment (`skew`); a page formerly shared with the cache cannot be
  // re-merged.
  SeqId BeginSwapIn(int64_t tokens, int64_t prefill_remaining,
                    int64_t reserve_remaining, int32_t skew,
                    SimDuration* transfer);

  // --- admission / reclaim arithmetic ----------------------------------
  int64_t total_blocks() const { return total_blocks_; }
  int64_t used_blocks() const { return alloc_.used_blocks(); }
  int64_t free_blocks() const { return alloc_.free_blocks(); }
  int64_t committed_blocks() const { return committed_blocks_total_; }

  // Token-granular views of the sequence side. The cache side lives in the
  // radix tree (cache.size_tokens / cache.block_refs); the replica owns the
  // combined figures.
  int64_t seq_resident_tokens() const { return seq_tokens_total_; }
  int64_t committed_tokens() const {
    return committed_prefill_total_ + committed_reserve_total_;
  }
  int64_t committed_reserve_tokens() const {
    return committed_reserve_total_;
  }

  // Whether `prefill` + `reserve` fits under the watermark right now.
  bool CanAdmit(int64_t prefill_tokens, int64_t reserve_tokens) const;
  // Same, ignoring the watermark (distinguishes watermark rejections from
  // genuine capacity exhaustion for the counters).
  bool CanAdmitIgnoringWatermark(int64_t prefill_tokens,
                                 int64_t reserve_tokens) const;
  void NoteWatermarkRejection() { ++counters_.watermark_rejections; }
  void NoteRecomputePreemption() { ++counters_.preempt_recompute; }
  // Peak-tracks the replica-computed exact fragmentation figure
  // (used_blocks * block_size - cache tokens - sequence tokens).
  void NoteFragmentationSample(int64_t fragmentation_tokens);

  // Cache *blocks* to free before the need fits (0 when it already fits) —
  // the unit PrefixCache::Evict takes and returns, so the replica subtracts
  // eviction results from the deficit directly instead of re-reading the
  // ledger (ISSUE 8). Coarse mode: one block is one token, seed arithmetic.
  int64_t AdmissionDeficitBlocks(int64_t prefill_tokens,
                                 int64_t reserve_tokens) const;

  // Swap-in admission check/deficit, priced exactly as BeginSwapIn charges:
  // restored resident tokens, remaining prefill, and remaining reserve each
  // ceil to blocks separately. The deficit is in blocks (see above).
  bool CanAdmitRestore(int64_t tokens, int64_t prefill_remaining,
                       int64_t reserve_remaining) const;
  int64_t RestoreDeficitBlocks(int64_t tokens, int64_t prefill_remaining,
                               int64_t reserve_remaining) const;

  // Blocks over hard capacity — the reclaim target after a step.
  int64_t ReclaimNeededBlocks() const;

  SimDuration SwapDuration(int64_t tokens) const;

  const KvConfig& config() const { return config_; }
  const KvCounters& counters() const { return counters_; }
  const BlockAllocatorStats& allocator_stats() const { return alloc_.stats(); }
  int64_t live_seqs() const { return live_seqs_; }
  // Page references held by live sequence tables (conservation checks).
  int64_t seq_block_refs() const;

  // Pre-sizes slots, tables, and the allocator for allocation-free reuse.
  void Reserve(int64_t seqs, int64_t blocks);

  // Validates ledger totals against a full rescan (tests / debug).
  bool CheckConsistency() const;

 private:
  struct SeqEntry {
    BlockTable table;
    int64_t committed_prefill = 0;
    int64_t committed_reserve = 0;
    bool live = false;
  };

  int64_t CeilBlocks(int64_t tokens) const {
    // Coarse compatibility mode (block_size_tokens == 1, every fleet-scale
    // config) makes ceil the identity; skipping the integer divide matters
    // at one SetCommitted call per decoded token.
    if (config_.block_size_tokens == 1) {
      return tokens;
    }
    return (tokens + config_.block_size_tokens - 1) / config_.block_size_tokens;
  }
  // Free blocks after committed future, before the watermark.
  int64_t FreeBlocksForAdmission() const {
    return total_blocks_ - used_blocks() - committed_blocks_total_;
  }
  SeqEntry& entry(SeqId id);
  const SeqEntry& entry(SeqId id) const;
  // Adjusts the committed totals (tokens and ceil-blocks) for one entry.
  void SetCommitted(SeqEntry& e, int64_t prefill, int64_t reserve);

  KvConfig config_;
  int64_t total_blocks_;
  BlockAllocator alloc_;
  std::vector<SeqEntry> seqs_;
  std::vector<SeqId> free_slots_;
  int64_t live_seqs_ = 0;
  int64_t seq_tokens_total_ = 0;
  int64_t committed_prefill_total_ = 0;
  int64_t committed_reserve_total_ = 0;
  int64_t committed_blocks_total_ = 0;
  KvCounters counters_;
};

// The per-token ledger operations are defined inline: the
// decode loop runs entry lookup + committed adjustment + table append once
// per generated token of every sequence a step decodes outside a stable
// stretch, and the cross-TU call overhead was measurable.
inline KvController::SeqEntry& KvController::entry(SeqId id) {
  SeqEntry& e = seqs_[static_cast<size_t>(id)];
  SKYWALKER_CHECK(e.live) << "dead sequence slot";
  return e;
}

inline const KvController::SeqEntry& KvController::entry(SeqId id) const {
  const SeqEntry& e = seqs_[static_cast<size_t>(id)];
  SKYWALKER_CHECK(e.live) << "dead sequence slot";
  return e;
}

inline void KvController::SetCommitted(SeqEntry& e, int64_t prefill,
                                       int64_t reserve) {
  committed_prefill_total_ += prefill - e.committed_prefill;
  committed_reserve_total_ += reserve - e.committed_reserve;
  committed_blocks_total_ +=
      (CeilBlocks(prefill) + CeilBlocks(reserve)) -
      (CeilBlocks(e.committed_prefill) + CeilBlocks(e.committed_reserve));
  e.committed_prefill = prefill;
  e.committed_reserve = reserve;
}

inline void KvController::OnPrefillChunk(SeqId id, int64_t tokens) {
  SeqEntry& e = entry(id);
  SKYWALKER_CHECK(tokens <= e.committed_prefill) << "chunk beyond commitment";
  SetCommitted(e, e.committed_prefill - tokens, e.committed_reserve);
  e.table.Append(alloc_, config_.block_size_tokens, tokens);
  seq_tokens_total_ += tokens;
}

inline void KvController::OnDecodeToken(SeqId id) {
  SeqEntry& e = entry(id);
  if (e.committed_reserve > 0) {
    SetCommitted(e, e.committed_prefill, e.committed_reserve - 1);
  }
  e.table.Append(alloc_, config_.block_size_tokens, 1);
  seq_tokens_total_ += 1;
}

// Inline: stretch planning evaluates DecodeBlocks per candidate length,
// materialization per step, and probes project at every heartbeat
// (DESIGN.md §13.3).
inline int64_t KvController::DecodeBlocks(const std::vector<DecodeRun>& runs,
                                          int64_t steps) const {
  int64_t blocks = 0;
  for (const DecodeRun& run : runs) {
    blocks += CeilBlocks(std::max<int64_t>(0, steps - run.tail_free));
  }
  return blocks;
}

inline KvController::DecodeGrowth KvController::ProjectDecode(
    const std::vector<DecodeRun>& runs, int64_t steps) const {
  DecodeGrowth growth;
  growth.tokens = steps * static_cast<int64_t>(runs.size());
  growth.blocks = DecodeBlocks(runs, steps);
  for (const DecodeRun& run : runs) {
    const int64_t left = std::max<int64_t>(0, run.reserve - steps);
    growth.reserve_tokens += run.reserve - left;
    growth.reserve_blocks += CeilBlocks(run.reserve) - CeilBlocks(left);
  }
  return growth;
}

}  // namespace skywalker

#endif  // SKYWALKER_MEMORY_KV_CONTROLLER_H_
