#include "src/memory/kv_controller.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "src/common/logging.h"

namespace skywalker {

namespace {

std::atomic<bool> g_named_pages_oracle{false};

}  // namespace

void KvController::set_named_pages_oracle(bool on) {
  g_named_pages_oracle.store(on, std::memory_order_relaxed);
}

KvCounters& operator+=(KvCounters& lhs, const KvCounters& rhs) {
  lhs.preempt_recompute += rhs.preempt_recompute;
  lhs.preempt_swap += rhs.preempt_swap;
  lhs.swap_ins += rhs.swap_ins;
  lhs.swapped_out_tokens += rhs.swapped_out_tokens;
  lhs.swapped_in_tokens += rhs.swapped_in_tokens;
  lhs.swap_transfer_us += rhs.swap_transfer_us;
  lhs.watermark_rejections += rhs.watermark_rejections;
  lhs.peak_fragmentation_tokens += rhs.peak_fragmentation_tokens;
  return lhs;
}

KvController::KvController(const KvConfig& config)
    : config_(config),
      total_blocks_(config.capacity_tokens / config.block_size_tokens),
      alloc_(total_blocks_,
             /*named=*/config.block_size_tokens > 1 ||
                 g_named_pages_oracle.load(std::memory_order_relaxed)) {
  SKYWALKER_CHECK(config.block_size_tokens >= 1) << "block size";
  SKYWALKER_CHECK(config.watermark_blocks >= 0) << "watermark";
  SKYWALKER_CHECK(total_blocks_ > 0) << "capacity below one block";
}

void KvController::NoteFragmentationSample(int64_t fragmentation_tokens) {
  counters_.peak_fragmentation_tokens =
      std::max(counters_.peak_fragmentation_tokens, fragmentation_tokens);
}

KvController::SeqId KvController::AdmitSeq(int64_t prefill_tokens,
                                           int64_t reserve_tokens,
                                           int32_t skew) {
  SeqId id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
  } else {
    id = static_cast<SeqId>(seqs_.size());
    seqs_.emplace_back().table.set_holder(id);
  }
  SeqEntry& e = seqs_[static_cast<size_t>(id)];
  e.live = true;
  e.table.SetSkew(skew);
  SetCommitted(e, prefill_tokens, reserve_tokens);
  ++live_seqs_;
  return id;
}

void KvController::ReleaseSeqPrefix(SeqId id, int64_t tokens) {
  SeqEntry& e = entry(id);
  e.table.ReleasePrefix(alloc_, config_.block_size_tokens, tokens);
  seq_tokens_total_ -= tokens;
}

void KvController::RestoreDecodedTokens(SeqId id, int64_t tokens) {
  SeqEntry& e = entry(id);
  e.table.Append(alloc_, config_.block_size_tokens, tokens);
  seq_tokens_total_ += tokens;
}

KvController::DecodeRun KvController::PlanDecode(SeqId id) const {
  const SeqEntry& e = entry(id);
  DecodeRun run;
  run.id = id;
  run.tail_free =
      static_cast<int32_t>(e.table.tail_free(config_.block_size_tokens));
  run.reserve = e.committed_reserve;
  return run;
}

void KvController::OnDecodeSteps(std::vector<DecodeRun>* runs,
                                 int64_t steps) {
  if (steps == 0) {
    return;
  }
  const bool named = alloc_.named();
  for (const DecodeRun& run : *runs) {
    SeqEntry& e = entry(run.id);
    SetCommitted(e, e.committed_prefill,
                 std::max<int64_t>(0, e.committed_reserve - steps));
    if (!named) {
      e.table.Append(alloc_, config_.block_size_tokens, steps);
    }
  }
  if (named) {
    for (int64_t step = 0; step < steps; ++step) {
      for (const DecodeRun& run : *runs) {
        seqs_[static_cast<size_t>(run.id)].table.Append(
            alloc_, config_.block_size_tokens, 1);
      }
    }
  }
  seq_tokens_total_ += steps * static_cast<int64_t>(runs->size());
  for (DecodeRun& run : *runs) {
    run = PlanDecode(run.id);
  }
}

int64_t KvController::SeqTokens(SeqId id) const {
  return entry(id).table.num_tokens();
}

int64_t KvController::ReleaseSeq(SeqId id) {
  SeqEntry& e = entry(id);
  int64_t tokens = e.table.num_tokens();
  e.table.Clear(alloc_);
  seq_tokens_total_ -= tokens;
  SetCommitted(e, 0, 0);
  e.live = false;
  --live_seqs_;
  free_slots_.push_back(id);
  return tokens;
}

SimDuration KvController::SwapOut(SeqId id) {
  int64_t tokens = SeqTokens(id);
  ReleaseSeq(id);
  ++counters_.preempt_swap;
  counters_.swapped_out_tokens += tokens;
  SimDuration transfer = SwapDuration(tokens);
  counters_.swap_transfer_us += static_cast<double>(transfer);
  return transfer;
}

KvController::SeqId KvController::BeginSwapIn(int64_t tokens,
                                              int64_t prefill_remaining,
                                              int64_t reserve_remaining,
                                              int32_t skew,
                                              SimDuration* transfer) {
  SeqId id = AdmitSeq(prefill_remaining, reserve_remaining, skew);
  SeqEntry& e = entry(id);
  e.table.Append(alloc_, config_.block_size_tokens, tokens);
  seq_tokens_total_ += tokens;
  ++counters_.swap_ins;
  counters_.swapped_in_tokens += tokens;
  *transfer = SwapDuration(tokens);
  counters_.swap_transfer_us += static_cast<double>(*transfer);
  return id;
}

bool KvController::CanAdmit(int64_t prefill_tokens,
                            int64_t reserve_tokens) const {
  return CeilBlocks(prefill_tokens) + CeilBlocks(reserve_tokens) +
             config_.watermark_blocks <=
         FreeBlocksForAdmission();
}

bool KvController::CanAdmitIgnoringWatermark(int64_t prefill_tokens,
                                             int64_t reserve_tokens) const {
  return CeilBlocks(prefill_tokens) + CeilBlocks(reserve_tokens) <=
         FreeBlocksForAdmission();
}

int64_t KvController::AdmissionDeficitBlocks(int64_t prefill_tokens,
                                             int64_t reserve_tokens) const {
  int64_t deficit_blocks = CeilBlocks(prefill_tokens) +
                           CeilBlocks(reserve_tokens) +
                           config_.watermark_blocks -
                           FreeBlocksForAdmission();
  return std::max<int64_t>(0, deficit_blocks);
}

bool KvController::CanAdmitRestore(int64_t tokens, int64_t prefill_remaining,
                                   int64_t reserve_remaining) const {
  return CeilBlocks(tokens) + CeilBlocks(prefill_remaining) +
             CeilBlocks(reserve_remaining) + config_.watermark_blocks <=
         FreeBlocksForAdmission();
}

int64_t KvController::RestoreDeficitBlocks(int64_t tokens,
                                           int64_t prefill_remaining,
                                           int64_t reserve_remaining) const {
  int64_t deficit_blocks =
      CeilBlocks(tokens) + CeilBlocks(prefill_remaining) +
      CeilBlocks(reserve_remaining) + config_.watermark_blocks -
      FreeBlocksForAdmission();
  return std::max<int64_t>(0, deficit_blocks);
}

int64_t KvController::ReclaimNeededBlocks() const {
  return std::max<int64_t>(0, used_blocks() - total_blocks_);
}

SimDuration KvController::SwapDuration(int64_t tokens) const {
  return static_cast<SimDuration>(
      std::llround(static_cast<double>(tokens) * config_.swap_us_per_token));
}

int64_t KvController::seq_block_refs() const {
  int64_t refs = 0;
  for (const SeqEntry& e : seqs_) {
    if (e.live) {
      refs += e.table.num_blocks();
    }
  }
  return refs;
}

bool KvController::CheckConsistency() const {
  int64_t seq_tokens = 0;
  int64_t prefill = 0;
  int64_t reserve = 0;
  int64_t committed_blocks = 0;
  int64_t live = 0;
  std::vector<BlockId> seq_pages;  // Named pools: every live table's ids.
  for (const SeqEntry& e : seqs_) {
    if (!e.live) {
      continue;
    }
    ++live;
    seq_pages.insert(seq_pages.end(), e.table.blocks().begin(),
                     e.table.blocks().end());
    seq_tokens += e.table.num_tokens();
    prefill += e.committed_prefill;
    reserve += e.committed_reserve;
    committed_blocks +=
        CeilBlocks(e.committed_prefill) + CeilBlocks(e.committed_reserve);
    // Every table's span must cover its tokens exactly (path-aligned).
    if (e.table.num_blocks() !=
        (e.table.skew() + e.table.num_tokens() + config_.block_size_tokens -
         1) /
                config_.block_size_tokens &&
        !(e.table.num_tokens() == 0 && e.table.num_blocks() == 0)) {
      return false;
    }
  }
  // No page sits in two sequence tables (the only page a table shares is
  // the cache's boundary page), so an append writes only into slots no
  // other holder reads.
  std::sort(seq_pages.begin(), seq_pages.end());
  if (std::adjacent_find(seq_pages.begin(), seq_pages.end()) !=
      seq_pages.end()) {
    return false;
  }
  // The allocator is shared with the prefix cache, so sequence-held pages
  // are a subset of used pages; exact conservation (cache refs + sequence
  // refs == allocator refs) is asserted by the property tests that see both
  // sides.
  return live == live_seqs_ && seq_tokens == seq_tokens_total_ &&
         prefill == committed_prefill_total_ &&
         reserve == committed_reserve_total_ &&
         committed_blocks == committed_blocks_total_ &&
         seq_block_refs() <= alloc_.live_refs() && alloc_.CheckInvariants();
}

}  // namespace skywalker
