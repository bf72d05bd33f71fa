// Differential + structural property tests for the unified block ledger.
//
// The seed replica accounted memory with bare token counters:
//   Resident   = cache.size_tokens + Σ running private_tokens
//   Committed  = Σ running (prefill_remaining + max(0, reserve - generated))
//   admit iff  need <= capacity - Resident - Committed
//   reclaim    = max(0, Resident - capacity)
// `RefModel` below is a verbatim transcription of that arithmetic. The
// coarse test drives randomized admit / prefill / decode / cache-churn /
// preempt / complete traces through the reference and the *real* unified
// ledger — a KvController plus a block-native PrefixCache sharing its
// allocator — in coarse mode (block_size 1, no watermark), asserting
// identical admission decisions and identical resident/committed series at
// every step: the contract that keeps the historical BENCH goldens
// byte-identical now that the cache charge is the sum of node-held pages.
//
// The unified-ledger test then replays the full replica publish protocol
// (admit with pin + skew, chunked prefill, publish-by-reference-transfer,
// decode into the shared boundary page, complete, recompute or swap
// preemption, swap-in, evict) at real block sizes, asserting after every op
// the unified ledger's block-conservation invariant:
//     cache-held refs + sequence-held refs == allocator refs,
//     every used page has a holder, free pages have none,
// plus tree/ledger self-consistency (no page in two sequence tables
// included), non-negative exact fragmentation, and that the O(1) probe
// occupancy (PrefixCache::CountBlocks, the allocator's
// incremental cache-holder totals in paged mode) equals the full-scan
// oracle CountBlocksSlow.
//
// At block size 1 the protocol runs on both kinds of one-token pool: the
// named pool (KvController::set_named_pages_oracle, the reference) and the
// counted pool every coarse replica uses, which must agree with it op for
// op on every count either can report. The
// co-held window test pins the one state a count must carry: a donor
// Insert whose over-capacity eviction removes its own new leaf.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/cache/prefix_cache.h"
#include "src/common/rng.h"
#include "src/memory/kv_controller.h"

namespace skywalker {
namespace {

// Verbatim seed accounting (src/replica/replica.cc before ISSUE 4).
struct RefSeq {
  int64_t prefill_remaining = 0;
  int64_t generated = 0;
  int64_t private_tokens = 0;
  int64_t id = 0;
};

struct RefModel {
  int64_t capacity;
  int64_t reserve;
  int64_t cache_tokens = 0;
  std::vector<RefSeq> running;

  explicit RefModel(int64_t capacity_tokens, int64_t reserve_tokens)
      : capacity(capacity_tokens), reserve(reserve_tokens) {}

  int64_t Resident() const {
    int64_t resident = cache_tokens;
    for (const RefSeq& seq : running) {
      resident += seq.private_tokens;
    }
    return resident;
  }

  int64_t CommittedFuture() const {
    int64_t committed = 0;
    for (const RefSeq& seq : running) {
      committed += seq.prefill_remaining;
      committed += std::max<int64_t>(0, reserve - seq.generated);
    }
    return committed;
  }

  bool CanAdmit(int64_t need) const {
    return need <= capacity - Resident() - CommittedFuture();
  }
};

struct TraceConfig {
  int64_t capacity = 8192;
  int64_t reserve = 128;
  int ops = 4000;
  uint64_t seed = 1;
};

// One generated trace step, interpreted identically by both models.
enum class Op { kTryAdmit, kPrefillChunk, kDecode, kComplete, kPreempt,
                kCacheGrow, kCacheShrink };

class CoarseDifferentialTest : public ::testing::TestWithParam<TraceConfig> {};

TEST_P(CoarseDifferentialTest, AdmissionAndSeriesMatchSeedAccounting) {
  const TraceConfig trace = GetParam();
  Rng rng(trace.seed);

  RefModel ref(trace.capacity, trace.reserve);
  KvConfig config;
  config.capacity_tokens = trace.capacity;
  config.block_size_tokens = 1;  // Coarse compatibility mode.
  KvController kv(config);
  // The pool every coarse replica runs on.
  ASSERT_FALSE(kv.allocator().named());
  // The real cache side: node pages charge kv's allocator directly.
  PrefixCache cache(trace.capacity, &kv.allocator(), 1);

  // Paired sequence handles: ref.running[i] <-> kv_ids[i].
  std::vector<KvController::SeqId> kv_ids;
  int64_t next_id = 1;
  Token next_cache_token = 1'000'000;
  SimTime now = 0;
  std::vector<int64_t> resident_series;
  std::vector<int64_t> committed_series;
  auto resident = [&] {
    return cache.size_tokens() + kv.seq_resident_tokens();
  };

  for (int step = 0; step < trace.ops; ++step) {
    Op op = static_cast<Op>(rng.UniformInt(0, 6));
    switch (op) {
      case Op::kTryAdmit: {
        int64_t prompt = rng.UniformInt(8, 900);
        int64_t cached = rng.UniformInt(0, prompt - 1);
        int64_t prefill = prompt - cached;
        int64_t need = prefill + trace.reserve;
        bool ref_admits = ref.CanAdmit(need);
        bool kv_admits = kv.CanAdmit(prefill, trace.reserve);
        ASSERT_EQ(ref_admits, kv_admits)
            << "admission decisions diverged at op " << step;
        ASSERT_EQ(need - (trace.capacity - ref.Resident() -
                          ref.CommittedFuture()) >
                      0,
                  kv.AdmissionDeficitBlocks(prefill, trace.reserve) > 0);
        // Admit anyway when the batch is empty (force-admit path).
        if (ref_admits || ref.running.empty()) {
          RefSeq seq;
          seq.prefill_remaining = prefill;
          seq.id = next_id++;
          ref.running.push_back(seq);
          kv_ids.push_back(kv.AdmitSeq(prefill, trace.reserve));
        }
        break;
      }
      case Op::kPrefillChunk: {
        if (ref.running.empty()) {
          break;
        }
        size_t i = static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(ref.running.size()) - 1));
        RefSeq& seq = ref.running[i];
        if (seq.prefill_remaining == 0) {
          break;
        }
        int64_t chunk =
            rng.UniformInt(1, std::min<int64_t>(seq.prefill_remaining, 256));
        seq.prefill_remaining -= chunk;
        seq.private_tokens += chunk;
        kv.OnPrefillChunk(kv_ids[i], chunk);
        break;
      }
      case Op::kDecode: {
        if (ref.running.empty()) {
          break;
        }
        size_t i = static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(ref.running.size()) - 1));
        RefSeq& seq = ref.running[i];
        if (seq.prefill_remaining > 0) {
          break;  // Decode only after prefill, as in the engine.
        }
        ++seq.generated;
        ++seq.private_tokens;
        kv.OnDecodeToken(kv_ids[i]);
        break;
      }
      case Op::kComplete: {
        if (ref.running.empty()) {
          break;
        }
        size_t i = static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(ref.running.size()) - 1));
        ref.running.erase(ref.running.begin() +
                          static_cast<std::ptrdiff_t>(i));
        kv.ReleaseSeq(kv_ids[i]);
        kv_ids.erase(kv_ids.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      case Op::kPreempt: {
        // Seed ReclaimMemory: youngest victim, memory dropped entirely.
        if (ref.running.size() < 2) {
          break;
        }
        ref.running.pop_back();
        kv.ReleaseSeq(kv_ids.back());
        kv_ids.pop_back();
        break;
      }
      case Op::kCacheGrow: {
        // A fresh sequence lands in the cache; node pages charge the shared
        // allocator on insert (auto-evicting past capacity, like the real
        // cache under a smaller budget than the pool's).
        int64_t grow = rng.UniformInt(1, 512);
        TokenSeq seq;
        for (int64_t t = 0; t < grow; ++t) {
          seq.push_back(next_cache_token++);
        }
        cache.Insert(seq, ++now);
        ref.cache_tokens = cache.size_tokens();
        break;
      }
      case Op::kCacheShrink: {
        int64_t shrink = rng.UniformInt(0, cache.size_tokens());
        cache.Evict(shrink);
        ref.cache_tokens = cache.size_tokens();
        break;
      }
    }
    ASSERT_EQ(ref.Resident(), resident()) << "op " << step;
    ASSERT_EQ(ref.CommittedFuture(), kv.committed_tokens()) << "op " << step;
    // Coarse mode: a block is a token, so the block-unit reclaim target is
    // exactly the seed token arithmetic.
    ASSERT_EQ(std::max<int64_t>(0, ref.Resident() - ref.capacity),
              kv.ReclaimNeededBlocks())
        << "op " << step;
    resident_series.push_back(resident());
    committed_series.push_back(kv.committed_tokens());
  }

  // Coarse mode never fragments and both ledgers stay sound; every
  // allocator reference is owned by exactly one holder.
  EXPECT_EQ(kv.used_blocks(), resident());
  EXPECT_EQ(cache.block_refs() + kv.seq_block_refs(),
            kv.allocator().live_refs());
  EXPECT_TRUE(kv.CheckConsistency());
  EXPECT_TRUE(cache.CheckInvariants());

  // Replaying the recorded series through a fresh reference must reproduce
  // it (series are a pure function of the trace — determinism guard).
  ASSERT_EQ(resident_series.size(), static_cast<size_t>(trace.ops));
  ASSERT_EQ(committed_series.size(), static_cast<size_t>(trace.ops));
}

INSTANTIATE_TEST_SUITE_P(
    Traces, CoarseDifferentialTest,
    ::testing::Values(TraceConfig{8192, 128, 4000, 1},
                      TraceConfig{8192, 128, 4000, 2},
                      TraceConfig{2048, 256, 4000, 3},   // Memory-starved.
                      TraceConfig{49152, 128, 4000, 4},  // Default L4.
                      TraceConfig{512, 64, 2000, 5}));   // Pathological.

// --- Unified-ledger conservation under the full publish protocol ---------

struct LiveSeq {
  KvController::SeqId id = KvController::kInvalidSeq;
  PinId pin = kInvalidPin;
  TokenSeq prompt;
  int64_t base = 0;  // Path position of the table's first token.
  int64_t prefill_left = 0;
  int64_t generated = 0;
  int64_t swapped_tokens = 0;  // Private KV on the host while swapped out.
  bool published = false;
};

// Block size, trace seed, eviction policy, preemption policy.
using LedgerCase = std::tuple<int32_t, uint64_t, EvictionPolicy, PreemptPolicy>;

// Replays the publish protocol against one ledger (a one-token pool named
// when `named`; larger pages always are), asserting conservation after
// every op. `observed` gets one line per op of every figure a named and a
// counted pool must agree on.
void ReplayPublishProtocol(const LedgerCase& ledger_case, bool named,
                           std::vector<std::string>* observed) {
  auto [block_size, seed, policy, preempt] = ledger_case;
  Rng rng(seed);
  KvConfig config;
  config.capacity_tokens = 8192;
  config.block_size_tokens = block_size;
  config.watermark_blocks = block_size > 1 ? 4 : 0;
  config.preempt_policy = preempt;
  KvController::set_named_pages_oracle(named);
  KvController kv(config);
  KvController::set_named_pages_oracle(false);
  ASSERT_EQ(kv.allocator().named(), named || block_size > 1);
  // The kColdSubtree replays exercise subtree eviction (plus its LRU-leaf
  // fallback) under the full publish protocol: conservation and aggregate
  // soundness (CheckInvariants validates the subtree aggregates whenever
  // the policy maintains them) must hold after every eviction.
  PrefixCache cache(config.capacity_tokens, &kv.allocator(), block_size,
                    policy);
  const int64_t reserve = 96;

  std::vector<LiveSeq> live;
  std::vector<LiveSeq> swapped;  // Swap-out order; victims keep their pin.
  std::vector<TokenSeq> history;  // Prompt pool; extensions share prefixes.
  Token next_token = 1;
  Token next_output = 50'000'000;
  SimTime now = 0;

  auto check = [&](int step) {
    // ISSUE 5 conservation: every allocator reference is held by exactly
    // one owner — a cache node span or a sequence table. (Pages shared at
    // boundaries carry one ref per owner; free pages carry none, which
    // BlockAllocator::CheckInvariants pins.)
    ASSERT_EQ(cache.block_refs() + kv.seq_block_refs(),
              kv.allocator().live_refs())
        << "conservation broke at op " << step;
    // The probe's O(1) occupancy equals the full-scan oracle.
    const PrefixCache::BlockOccupancy fast = cache.CountBlocks();
    const PrefixCache::BlockOccupancy slow = cache.CountBlocksSlow();
    ASSERT_EQ(fast.held_blocks, slow.held_blocks) << "op " << step;
    ASSERT_EQ(fast.evictable_blocks, slow.evictable_blocks) << "op " << step;
    ASSERT_TRUE(cache.CheckInvariants()) << "op " << step;
    ASSERT_TRUE(kv.CheckConsistency()) << "op " << step;
    // Exact fragmentation is non-negative: pages hold at least as many
    // slots as the tokens occupying them (token positions are disjoint
    // across the cache and sequence sides of a shared page).
    ASSERT_GE(kv.used_blocks() * block_size -
                  (cache.size_tokens() + kv.seq_resident_tokens()),
              0)
        << "op " << step;
  };
  int64_t evict_freed = 0;  // The last explicit Evict's return value.
  auto observe = [&](int step, int op) {
    const BlockAllocatorStats& a = kv.allocator_stats();
    const PrefixCache::EvictionStats& e = cache.eviction_stats();
    const PrefixCache::BlockOccupancy occ = cache.CountBlocks();
    std::ostringstream os;
    os << step << " op " << op << " used " << kv.used_blocks() << " refs "
       << kv.allocator().live_refs() << " alloc " << a.allocated << ' '
       << a.freed << ' ' << a.peak_used_blocks << " evict " << evict_freed
       << ' ' << e.rounds << ' ' << e.victims << ' ' << e.freed_blocks
       << " cache " << cache.size_tokens() << ' ' << cache.num_nodes() << ' '
       << cache.block_refs() << ' ' << occ.held_blocks << ' '
       << occ.evictable_blocks << " seqs " << kv.seq_resident_tokens() << ' '
       << kv.seq_block_refs() << ' ' << kv.committed_tokens() << ' '
       << kv.live_seqs();
    observed->push_back(os.str());
  };

  auto publish = [&](LiveSeq& s) {
    // Mirror Replica::OnPrefillComplete: first output token, then publish
    // by reference transfer, re-pin, drop the published span.
    s.generated = 1;
    kv.OnDecodeToken(s.id);
    cache.Insert(s.prompt, ++now, &kv.table(s.id), s.base);
    cache.Unref(s.pin);
    auto m = cache.MatchAndRef(s.prompt, ++now);
    s.pin = m.pin;
    const int64_t prompt_len = static_cast<int64_t>(s.prompt.size());
    const int64_t target = (prompt_len - m.cached_len) + s.generated;
    const int64_t current = kv.SeqTokens(s.id);
    ASSERT_LE(target, current);
    kv.ReleaseSeqPrefix(s.id, current - target);
    s.base += current - target;
    s.published = true;
  };

  for (int step = 0; step < 3000; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 6));
    if (op == 0 && live.size() < 24) {  // Admit.
      LiveSeq s;
      if (!history.empty() && rng.UniformInt(0, 1) == 0) {
        // Conversation turn: extend a previous prompt (shared prefix).
        s.prompt = history[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(history.size()) - 1))];
      }
      const int64_t extra = rng.UniformInt(5, 300);
      for (int64_t t = 0; t < extra; ++t) {
        s.prompt.push_back(next_token++);
      }
      auto m = cache.MatchAndRef(s.prompt, ++now);
      const int64_t cached = std::min(
          m.cached_len, static_cast<int64_t>(s.prompt.size()) - 1);
      s.pin = m.pin;
      s.base = cached;
      s.prefill_left = static_cast<int64_t>(s.prompt.size()) - cached;
      if (!kv.CanAdmit(s.prefill_left, reserve)) {
        evict_freed =
            cache.Evict(kv.AdmissionDeficitBlocks(s.prefill_left, reserve));
      }
      if (!kv.CanAdmit(s.prefill_left, reserve) && !live.empty()) {
        cache.Unref(s.pin);  // Stay pending (dropped here).
      } else {
        s.id = kv.AdmitSeq(s.prefill_left, reserve,
                           static_cast<int32_t>(cached % block_size));
        history.push_back(s.prompt);
        live.push_back(std::move(s));
      }
    } else if (op == 1 && !live.empty()) {  // Prefill chunk (+publish).
      LiveSeq& s = live[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
      if (s.prefill_left > 0) {
        const int64_t chunk =
            rng.UniformInt(1, std::min<int64_t>(s.prefill_left, 256));
        s.prefill_left -= chunk;
        kv.OnPrefillChunk(s.id, chunk);
        if (s.prefill_left == 0) {
          publish(s);
        }
      }
    } else if (op == 2 && !live.empty()) {  // Decode.
      LiveSeq& s = live[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
      if (s.published) {
        ++s.generated;
        kv.OnDecodeToken(s.id);
      }
    } else if (op == 3 && !live.empty()) {  // Complete.
      const size_t i = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      LiveSeq s = std::move(live[i]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      if (s.published) {
        TokenSeq full = s.prompt;
        for (int64_t t = 0; t < s.generated; ++t) {
          full.push_back(next_output++);
        }
        cache.Insert(full, ++now, &kv.table(s.id), s.base);
      }
      cache.Unref(s.pin);
      kv.ReleaseSeq(s.id);
    } else if (op == 4 && live.size() > 1) {  // Preempt the youngest.
      LiveSeq s = std::move(live.back());
      live.pop_back();
      if (preempt == PreemptPolicy::kSwap) {
        // Mirror Replica::ReclaimMemory's swap arm: private KV leaves the
        // device, the prefix-cache pin stays.
        s.swapped_tokens = kv.SeqTokens(s.id);
        kv.SwapOut(s.id);
        s.id = KvController::kInvalidSeq;
        swapped.push_back(std::move(s));
      } else {
        cache.Unref(s.pin);
        kv.ReleaseSeq(s.id);
        kv.NoteRecomputePreemption();
      }
    } else if (op == 6 && !swapped.empty()) {  // Swap-in, oldest first.
      LiveSeq s = std::move(swapped.front());
      swapped.erase(swapped.begin());
      SimDuration transfer = 0;
      // Restored KV lands in fresh pages at the original path alignment.
      s.id = kv.BeginSwapIn(s.swapped_tokens, s.prefill_left,
                            std::max<int64_t>(0, reserve - s.generated),
                            static_cast<int32_t>(s.base % block_size),
                            &transfer);
      live.push_back(std::move(s));
    } else if (op == 5) {  // Eviction pressure (Evict takes blocks now).
      evict_freed = cache.Evict(rng.UniformInt(0, 2048) / block_size);
    }
    check(step);
    observe(step, op);
  }

  // Drain: complete everything, drop the cache, and the pool must be empty.
  for (LiveSeq& s : live) {
    cache.Unref(s.pin);
    kv.ReleaseSeq(s.id);
  }
  live.clear();
  for (LiveSeq& s : swapped) {
    cache.Unref(s.pin);
  }
  swapped.clear();
  cache.Clear();
  EXPECT_EQ(cache.size_tokens(), 0);
  EXPECT_EQ(kv.used_blocks(), 0);
  EXPECT_EQ(kv.allocator().live_refs(), 0);
  EXPECT_EQ(cache.CountBlocks().held_blocks, 0);
  EXPECT_EQ(kv.allocator().cache_held_blocks(), 0);
  EXPECT_EQ(kv.allocator().cache_evictable_blocks(), 0);
  EXPECT_TRUE(kv.CheckConsistency());
  EXPECT_TRUE(cache.CheckInvariants());
}

// Named pools: every block size, one-token pages through the oracle switch.
class UnifiedLedgerPropertyTest
    : public ::testing::TestWithParam<LedgerCase> {};

TEST_P(UnifiedLedgerPropertyTest, BlockConservationHoldsUnderChurn) {
  std::vector<std::string> observed;
  ReplayPublishProtocol(GetParam(), /*named=*/true, &observed);
}

INSTANTIATE_TEST_SUITE_P(
    Blocks, UnifiedLedgerPropertyTest,
    ::testing::Combine(::testing::Values(int32_t{1}, int32_t{16},
                                         int32_t{32}),
                       ::testing::Values(11u, 12u, 13u),
                       ::testing::Values(EvictionPolicy::kLruLeaf,
                                         EvictionPolicy::kColdSubtree),
                       ::testing::Values(PreemptPolicy::kRecompute,
                                         PreemptPolicy::kSwap)));

// Counted one-token pools: conservation on their own, and every count equal
// to the named pool's after every op of the same trace.
class CountedLedgerPropertyTest
    : public ::testing::TestWithParam<LedgerCase> {};

TEST_P(CountedLedgerPropertyTest, BlockConservationHoldsUnderChurn) {
  std::vector<std::string> observed;
  ReplayPublishProtocol(GetParam(), /*named=*/false, &observed);
}

TEST_P(CountedLedgerPropertyTest, MatchesNamedPagesOpForOp) {
  std::vector<std::string> named;
  std::vector<std::string> counted;
  ReplayPublishProtocol(GetParam(), /*named=*/true, &named);
  ASSERT_FALSE(HasFatalFailure());
  ReplayPublishProtocol(GetParam(), /*named=*/false, &counted);
  ASSERT_FALSE(HasFatalFailure());
  ASSERT_EQ(counted.size(), named.size());
  for (size_t i = 0; i < named.size(); ++i) {
    ASSERT_EQ(counted[i], named[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Coarse, CountedLedgerPropertyTest,
    ::testing::Combine(::testing::Values(int32_t{1}),
                       ::testing::Values(11u, 12u, 13u),
                       ::testing::Values(EvictionPolicy::kLruLeaf,
                                         EvictionPolicy::kColdSubtree),
                       ::testing::Values(PreemptPolicy::kRecompute,
                                         PreemptPolicy::kSwap)));

// --- The co-held window ---------------------------------------------------

TokenSeq Iota(int64_t n, Token base) {
  TokenSeq seq;
  for (int64_t i = 0; i < n; ++i) {
    seq.push_back(base + static_cast<Token>(i));
  }
  return seq;
}

TokenSeq Concat(TokenSeq head, const TokenSeq& tail) {
  head.insert(head.end(), tail.begin(), tail.end());
  return head;
}

// Two publishes by reference transfer against a 100-token cache budget on a
// 4096-token pool: a completion whose over-capacity eviction removes its
// own new leaf, then a prompt publish whose leaf outlives the donor's
// release. One line per step: Evict's return value (-1 where the step makes
// no explicit call), eviction_stats(), used pages, live references.
std::vector<std::string> RunCoHeldWindow(bool named, EvictionPolicy policy) {
  KvConfig config;
  config.capacity_tokens = 4096;
  KvController::set_named_pages_oracle(named);
  KvController kv(config);
  KvController::set_named_pages_oracle(false);
  EXPECT_EQ(kv.allocator().named(), named);
  PrefixCache cache(100, &kv.allocator(), 1, policy);
  std::vector<std::string> lines;
  auto observe = [&](const std::string& what, int64_t evict_freed) {
    const PrefixCache::EvictionStats& e = cache.eviction_stats();
    std::ostringstream os;
    os << what << ": evict " << evict_freed << ' ' << e.rounds << ' '
       << e.victims << ' ' << e.freed_blocks << " used " << kv.used_blocks()
       << " refs " << kv.allocator().live_refs();
    lines.push_back(os.str());
  };

  // A pinned 60-token prefix both sequences extend.
  const TokenSeq shared = Iota(60, 0);
  cache.Insert(shared, 1);
  const PinId held = cache.MatchAndRef(shared, 2).pin;

  // Sequence 1 holds path positions [60, 121): 60 prompt tokens and its
  // first output token. Its completion publishes the prompt and 10 output
  // tokens, so the new leaf spans [60, 130): 61 pages co-held with the
  // table, 9 fresh. 130 tokens overflow the budget and the new leaf is the
  // only unpinned leaf, so it goes, freeing only its 9 fresh pages; the
  // co-held ones free with the donor.
  const TokenSeq prompt = Concat(shared, Iota(60, 1000));
  PrefixCache::MatchRef match = cache.MatchAndRef(prompt, 3);
  EXPECT_EQ(match.cached_len, 60);
  KvController::SeqId seq = kv.AdmitSeq(60, 16);
  kv.OnPrefillChunk(seq, 60);
  kv.OnDecodeToken(seq);
  observe("admitted", -1);
  cache.Insert(Concat(prompt, Iota(10, 2000)), 4, &kv.table(seq), 60);
  observe("insert evicted its leaf", -1);
  cache.Unref(match.pin);
  kv.ReleaseSeq(seq);
  observe("donor released", -1);
  EXPECT_TRUE(cache.CheckInvariants());
  EXPECT_TRUE(kv.CheckConsistency());

  // Sequence 2 holds [60, 81); its prompt publish co-holds [60, 80), which
  // fits the budget. The donor then drops the published span, as
  // Replica::OnPrefillComplete does, and the cache keeps those pages.
  const TokenSeq prompt2 = Concat(shared, Iota(20, 3000));
  match = cache.MatchAndRef(prompt2, 5);
  seq = kv.AdmitSeq(20, 16);
  kv.OnPrefillChunk(seq, 20);
  kv.OnDecodeToken(seq);
  cache.Insert(prompt2, 6, &kv.table(seq), 60);
  observe("insert kept its leaf", -1);
  cache.Unref(match.pin);
  match = cache.MatchAndRef(prompt2, 7);
  kv.ReleaseSeqPrefix(seq, match.cached_len - 60);
  observe("donor dropped the published span", -1);
  kv.ReleaseSeq(seq);
  cache.Unref(match.pin);
  cache.Unref(held);
  observe("evicted everything", cache.Evict(1 << 20));
  EXPECT_TRUE(cache.CheckInvariants());
  EXPECT_TRUE(kv.CheckConsistency());
  return lines;
}

class CoHeldWindowTest : public ::testing::TestWithParam<EvictionPolicy> {};

TEST_P(CoHeldWindowTest, CountedPoolMatchesNamedPoolAtEveryStep) {
  const std::vector<std::string> named = RunCoHeldWindow(true, GetParam());
  const std::vector<std::string> counted = RunCoHeldWindow(false, GetParam());
  // The named refcounts' verdicts (both policies fall back to the LRU leaf
  // scan: nothing is cold).
  const std::vector<std::string> expected = {
      "admitted: evict -1 0 0 0 used 121 refs 121",
      "insert evicted its leaf: evict -1 1 1 9 used 121 refs 121",
      "donor released: evict -1 1 1 9 used 60 refs 60",
      "insert kept its leaf: evict -1 1 1 9 used 81 refs 101",
      "donor dropped the published span: evict -1 1 1 9 used 81 refs 81",
      "evicted everything: evict 80 2 3 89 used 0 refs 0",
  };
  EXPECT_EQ(named, expected);
  EXPECT_EQ(counted, expected);
}

INSTANTIATE_TEST_SUITE_P(Policies, CoHeldWindowTest,
                         ::testing::Values(EvictionPolicy::kLruLeaf,
                                           EvictionPolicy::kColdSubtree));

}  // namespace
}  // namespace skywalker
