// Unit tests for the replica simulator: prefill/decode timing, continuous
// batching, pending-queue semantics (the SP-P signal), prefix-cache reuse,
// memory-pressure behaviour, and the paper's calibration targets.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/obs/trace.h"
#include "src/replica/replica.h"
#include "src/sim/simulator.h"
#include "src/workload/conversation.h"

namespace skywalker {
namespace {

Request MakeRequest(RequestId id, int64_t prompt_len, int64_t output_len,
                    Token prompt_base = 0) {
  Request req;
  req.id = id;
  req.client_region = 0;
  TokenSeq prompt;
  for (int64_t i = 0; i < prompt_len; ++i) {
    prompt.push_back(prompt_base + static_cast<Token>(i));
  }
  TokenSeq output;
  for (int64_t i = 0; i < output_len; ++i) {
    output.push_back(1'000'000 + prompt_base + static_cast<Token>(i));
  }
  req.prompt = std::move(prompt);
  req.output = std::move(output);
  return req;
}

struct Completion {
  SimTime first_token = -1;
  SimTime completed = -1;
  int64_t cached = -1;
};

Replica::Handlers Record(Simulator* sim, Completion* out) {
  Replica::Handlers handlers;
  handlers.on_first_token = [sim, out](const Request&, int64_t cached) {
    out->first_token = sim->now();
    out->cached = cached;
  };
  handlers.on_complete = [sim, out](const Request&, int64_t /*cached*/) {
    out->completed = sim->now();
  };
  return handlers;
}

TEST(ReplicaTest, PrefillLatencyMatchesPaperCalibration) {
  // Paper §2.1: 512-token prompt on an L4 -> ~300 ms prefill.
  Simulator sim;
  Replica replica(&sim, 0, 0, ReplicaConfig{});
  Completion c;
  replica.Enqueue(MakeRequest(1, 512, 1), Record(&sim, &c));
  sim.Run();
  ASSERT_GT(c.first_token, 0);
  EXPECT_GT(c.first_token, Milliseconds(250));
  EXPECT_LT(c.first_token, Milliseconds(400));
}

TEST(ReplicaTest, FirstTokenPrecedesCompletion) {
  Simulator sim;
  Replica replica(&sim, 0, 0, ReplicaConfig{});
  Completion c;
  replica.Enqueue(MakeRequest(1, 100, 50), Record(&sim, &c));
  sim.Run();
  ASSERT_GT(c.first_token, 0);
  ASSERT_GT(c.completed, 0);
  EXPECT_LT(c.first_token, c.completed);
  EXPECT_EQ(replica.stats().completed, 1);
  EXPECT_EQ(replica.stats().output_tokens_generated, 50);
}

TEST(ReplicaTest, DecodeRateIsTensOfMsPerToken) {
  Simulator sim;
  Replica replica(&sim, 0, 0, ReplicaConfig{});
  Completion c;
  const int64_t kOutput = 100;
  replica.Enqueue(MakeRequest(1, 64, kOutput), Record(&sim, &c));
  sim.Run();
  double per_token_ms =
      ToMilliseconds(c.completed - c.first_token) / static_cast<double>(kOutput);
  EXPECT_GT(per_token_ms, 5.0);
  EXPECT_LT(per_token_ms, 60.0);
}

TEST(ReplicaTest, PrefixCacheCutsPrefillTime) {
  Simulator sim;
  Replica replica(&sim, 0, 0, ReplicaConfig{});

  Completion first;
  replica.Enqueue(MakeRequest(1, 512, 4), Record(&sim, &first));
  sim.Run();
  SimTime t0 = sim.now();

  // Same prompt extended slightly: should hit the cache for 516 tokens.
  Request follow = MakeRequest(2, 512, 4);
  TokenSeq extended = follow.prompt;
  extended.push_back(9999);
  extended.push_back(9998);
  follow.prompt = std::move(extended);
  Completion second;
  replica.Enqueue(follow, Record(&sim, &second));
  sim.Run();

  ASSERT_GT(second.first_token, t0);
  EXPECT_GE(second.cached, 500);
  // TTFT for the cached request must be far below the cold 300 ms prefill.
  EXPECT_LT(second.first_token - t0, Milliseconds(100));
  EXPECT_GT(replica.cache().HitRate(), 0.3);
}

TEST(ReplicaTest, FullyCachedPromptStillProducesToken) {
  Simulator sim;
  Replica replica(&sim, 0, 0, ReplicaConfig{});
  Completion a;
  replica.Enqueue(MakeRequest(1, 64, 4), Record(&sim, &a));
  sim.Run();
  // Identical prompt: everything cached; engine must still emit tokens.
  Completion b;
  replica.Enqueue(MakeRequest(2, 64, 4), Record(&sim, &b));
  sim.Run();
  EXPECT_GT(b.first_token, a.completed);
  EXPECT_GT(b.completed, b.first_token);
  EXPECT_EQ(b.cached, 63);  // prompt_len - 1: last token recomputed.
}

TEST(ReplicaTest, PendingQueueSignalsFullBatch) {
  Simulator sim;
  ReplicaConfig config;
  config.kv_capacity_tokens = 2048;  // Tiny: few concurrent requests.
  config.output_reserve_tokens = 256;
  Replica replica(&sim, 0, 0, config);

  std::vector<Completion> done(16);
  for (int i = 0; i < 16; ++i) {
    replica.Enqueue(MakeRequest(static_cast<RequestId>(i), 256, 64,
                                static_cast<Token>(i) * 10000),
                    Record(&sim, &done[static_cast<size_t>(i)]));
  }
  // Before running: everything pending (nothing admitted synchronously
  // beyond what memory allows after the first step planning).
  sim.RunFor(Milliseconds(50));
  EXPECT_GT(replica.pending_count(), 0)
      << "memory pressure must leave requests in the pending queue";
  sim.Run();
  EXPECT_EQ(replica.pending_count(), 0);
  EXPECT_EQ(replica.stats().completed, 16);
  for (const auto& c : done) {
    EXPECT_GT(c.completed, 0);
  }
}

TEST(ReplicaTest, ConcurrentRequestsInPaperBand) {
  // Paper §3.3: Llama-3.1-8B on an L4 sustains 20-50 concurrent requests.
  Simulator sim;
  Replica replica(&sim, 0, 0, ReplicaConfig{});
  std::vector<Completion> done(80);
  for (int i = 0; i < 80; ++i) {
    // Typical conversation-sized requests: ~700 prompt + 300 output tokens.
    replica.Enqueue(MakeRequest(static_cast<RequestId>(i), 700, 300,
                                static_cast<Token>(i) * 100000),
                    Record(&sim, &done[static_cast<size_t>(i)]));
  }
  sim.Run();
  EXPECT_GE(replica.stats().peak_running, 20);
  EXPECT_LE(replica.stats().peak_running, 64);
  EXPECT_EQ(replica.stats().completed, 80);
}

TEST(ReplicaTest, MemoryNeverExceedsCapacityAfterReclaim) {
  Simulator sim;
  ReplicaConfig config;
  config.kv_capacity_tokens = 4096;
  Replica replica(&sim, 0, 0, config);
  std::vector<Completion> done(32);
  for (int i = 0; i < 32; ++i) {
    replica.Enqueue(MakeRequest(static_cast<RequestId>(i), 300, 400,
                                static_cast<Token>(i) * 10000),
                    Record(&sim, &done[static_cast<size_t>(i)]));
  }
  sim.Run();
  EXPECT_EQ(replica.stats().completed, 32);
  // Peak utilization may transiently exceed 1.0 slightly around a step
  // boundary but must stay bounded.
  EXPECT_LT(replica.stats().peak_memory_utilization, 1.3);
}

TEST(ReplicaTest, SharedPrefixAdmitsMoreConcurrency) {
  // ToT-style: many requests sharing a large prompt should batch wider than
  // the same requests with disjoint prompts (shared KV counted once).
  auto run = [](bool shared) {
    Simulator sim;
    ReplicaConfig config;
    config.kv_capacity_tokens = 8192;
    Replica replica(&sim, 0, 0, config);
    std::vector<Completion> done(24);
    for (int i = 0; i < 24; ++i) {
      Token base = shared ? 0 : static_cast<Token>(i) * 100000;
      Request req = MakeRequest(static_cast<RequestId>(i), 600, 60, base);
      if (shared) {
        TokenSeq output;
        for (int64_t k = 0; k < 60; ++k) {
          output.push_back(5'000'000 + static_cast<Token>(i) * 1000 +
                           static_cast<Token>(k));
        }
        req.output = std::move(output);
      }
      replica.Enqueue(req, Record(&sim, &done[static_cast<size_t>(i)]));
    }
    sim.Run();
    return replica.stats();
  };
  Replica::Stats shared = run(true);
  Replica::Stats disjoint = run(false);
  EXPECT_EQ(shared.completed, 24);
  EXPECT_EQ(disjoint.completed, 24);
  EXPECT_GT(shared.peak_running, disjoint.peak_running);
  EXPECT_GT(shared.cached_tokens_reused, disjoint.cached_tokens_reused);
}

// Completion publishes prompt ⊕ output as a view when the output continues
// the prompt in one buffer (generated requests) and as a fresh
// concatenation when the two are separate vectors. Both must leave the same
// cache behind, through evictions, on coarse and paged KV.
TEST(ReplicaTest, PublishIsTheSameForSplitAndContiguousTokens) {
  struct Outcome {
    std::vector<int64_t> cached;  // Per completion, in completion order.
    int64_t size_tokens = 0;
    size_t nodes = 0;
    int64_t block_refs = 0;
    PrefixCache::EvictionStats evictions;
  };
  auto run = [](int32_t block, bool split) {
    Simulator sim;
    ReplicaConfig config;
    config.kv_capacity_tokens = 4096;
    config.kv_block_size_tokens = block;
    Replica replica(&sim, 0, 0, config);
    ConversationGenerator gen(ConversationWorkloadConfig::Arena(), 1, 17);
    std::vector<ConversationGenerator::Conversation> convs;
    for (int u = 0; u < 6; ++u) {
      convs.push_back(gen.MakeConversation(gen.MakeUser(0)));
    }
    Outcome out;
    // Each conversation's next turn follows its previous turn's completion.
    std::function<void(size_t, size_t)> issue = [&](size_t c, size_t t) {
      const ConversationGenerator::Turn& turn = convs[c].turns[t];
      Request req;
      req.id = static_cast<RequestId>(c * 100 + t + 1);
      req.prompt = turn.prompt;
      req.output = turn.output;
      if (split) {
        req.prompt = TokenSeq(turn.prompt);
        req.output = TokenSeq(turn.output);
      }
      EXPECT_EQ(req.output.Continues(req.prompt), !split);
      Replica::Handlers handlers;
      handlers.on_complete = [&, c, t](const Request&, int64_t cached) {
        out.cached.push_back(cached);
        if (t + 1 < convs[c].turns.size()) {
          sim.ScheduleAfter(Milliseconds(10), [&, c, t] { issue(c, t + 1); });
        }
      };
      replica.Enqueue(std::move(req), std::move(handlers));
    };
    for (size_t c = 0; c < convs.size(); ++c) {
      issue(c, 0);
    }
    sim.Run();
    out.size_tokens = replica.cache().size_tokens();
    out.nodes = replica.cache().num_nodes();
    out.block_refs = replica.cache().block_refs();
    out.evictions = replica.cache().eviction_stats();
    return out;
  };
  for (int32_t block : {1, 16}) {
    SCOPED_TRACE("block=" + std::to_string(block));
    const Outcome contiguous = run(block, /*split=*/false);
    const Outcome split = run(block, /*split=*/true);
    ASSERT_GT(contiguous.evictions.victims, 0);
    EXPECT_EQ(split.cached, contiguous.cached);
    EXPECT_EQ(split.size_tokens, contiguous.size_tokens);
    EXPECT_EQ(split.nodes, contiguous.nodes);
    EXPECT_EQ(split.block_refs, contiguous.block_refs);
    EXPECT_EQ(split.evictions.rounds, contiguous.evictions.rounds);
    EXPECT_EQ(split.evictions.victims, contiguous.evictions.victims);
    EXPECT_EQ(split.evictions.freed_blocks,
              contiguous.evictions.freed_blocks);
  }
}

TEST(ReplicaTest, DisabledCacheNeverReuses) {
  Simulator sim;
  ReplicaConfig config;
  config.enable_prefix_cache = false;
  Replica replica(&sim, 0, 0, config);
  Completion a;
  Completion b;
  replica.Enqueue(MakeRequest(1, 128, 4), Record(&sim, &a));
  sim.Run();
  replica.Enqueue(MakeRequest(2, 128, 4), Record(&sim, &b));
  sim.Run();
  EXPECT_EQ(b.cached, 0);
  EXPECT_EQ(replica.stats().cached_tokens_reused, 0);
}

TEST(ReplicaTest, BatchingAmortizesStepOverhead) {
  // Total time for N concurrent decodes must be far below N * serial time.
  auto elapsed = [](int n) {
    Simulator sim;
    Replica replica(&sim, 0, 0, ReplicaConfig{});
    std::vector<Completion> done(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      replica.Enqueue(MakeRequest(static_cast<RequestId>(i), 32, 100,
                                  static_cast<Token>(i) * 10000),
                      Record(&sim, &done[static_cast<size_t>(i)]));
    }
    sim.Run();
    return sim.now();
  };
  SimTime one = elapsed(1);
  SimTime sixteen = elapsed(16);
  EXPECT_LT(sixteen, 4 * one) << "continuous batching should amortize steps";
}

TEST(ReplicaTest, MemorySeriesIsSampled) {
  Simulator sim;
  Replica replica(&sim, 0, 0, ReplicaConfig{});
  Completion c;
  replica.Enqueue(MakeRequest(1, 256, 64), Record(&sim, &c));
  sim.Run();
  EXPECT_FALSE(replica.memory_series().empty());
  for (const auto& [t, util] : replica.memory_series()) {
    EXPECT_GE(util, 0.0);
  }
}

TEST(ReplicaTest, CrashDropsAllWork) {
  Simulator sim;
  Replica replica(&sim, 0, 0, ReplicaConfig{});
  Completion c;
  replica.Enqueue(MakeRequest(1, 256, 64), Record(&sim, &c));
  sim.RunFor(Milliseconds(50));
  replica.Crash();
  sim.Run();
  EXPECT_EQ(c.completed, -1);  // No completion callback after crash.
  EXPECT_EQ(replica.running_count(), 0);
  EXPECT_EQ(replica.pending_count(), 0);
  EXPECT_EQ(replica.memory_used_tokens(), 0);
}

// --- Reserved-memory lifecycle (ISSUE 4 regression) ----------------------

TEST(ReplicaReserveTest, ReserveReturnedWhenSequenceFinishesEarly) {
  // A request generating far fewer tokens than output_reserve_tokens must
  // hand its unconsumed reserve back exactly once at completion: the
  // committed ledger returns to zero, never double-counts, and admission
  // headroom fully recovers.
  Simulator sim;
  ReplicaConfig config;
  config.output_reserve_tokens = 256;
  Replica replica(&sim, 0, 0, config);
  EXPECT_EQ(replica.reserved_future_tokens(), 0);

  Completion c;
  replica.Enqueue(MakeRequest(1, 128, 4), Record(&sim, &c));
  sim.RunFor(Milliseconds(30));  // Mid-flight: reserve is committed.
  EXPECT_GT(replica.reserved_future_tokens(), 0);
  EXPECT_LE(replica.reserved_future_tokens(), 256);
  sim.Run();
  ASSERT_GT(c.completed, 0);
  EXPECT_EQ(replica.reserved_future_tokens(), 0)
      << "unconsumed output reserve must be returned at completion";
  EXPECT_EQ(replica.kv().committed_tokens(), 0);
  // Resident is now cache-only: no sequence KV left behind.
  EXPECT_EQ(replica.kv().seq_resident_tokens(), 0);
  EXPECT_TRUE(replica.kv().CheckConsistency());
}

TEST(ReplicaReserveTest, ReserveReturnedOnCrashAbort) {
  Simulator sim;
  ReplicaConfig config;
  config.output_reserve_tokens = 256;
  Replica replica(&sim, 0, 0, config);
  for (int i = 0; i < 8; ++i) {
    replica.Enqueue(MakeRequest(static_cast<RequestId>(i), 300, 200,
                                static_cast<Token>(i) * 10000),
                    {});
  }
  sim.RunFor(Milliseconds(80));
  EXPECT_GT(replica.reserved_future_tokens(), 0);
  replica.Crash();
  EXPECT_EQ(replica.reserved_future_tokens(), 0)
      << "aborted sequences must return their reserve";
  EXPECT_EQ(replica.kv().committed_tokens(), 0);
  EXPECT_EQ(replica.memory_used_tokens(), 0);
  EXPECT_TRUE(replica.kv().CheckConsistency());
}

TEST(ReplicaReserveTest, PreemptionReturnsReserveExactlyOnce) {
  // Recompute preemption drops the victim back to pending; its reserve must
  // leave the ledger with it and be re-charged on re-admission — never held
  // twice. Conservation check: after everything completes the ledger is
  // empty even though preemptions occurred.
  Simulator sim;
  ReplicaConfig config;
  config.kv_capacity_tokens = 4096;
  config.output_reserve_tokens = 128;
  Replica replica(&sim, 0, 0, config);
  std::vector<Completion> done(32);
  for (int i = 0; i < 32; ++i) {
    replica.Enqueue(MakeRequest(static_cast<RequestId>(i), 300, 400,
                                static_cast<Token>(i) * 10000),
                    Record(&sim, &done[static_cast<size_t>(i)]));
  }
  sim.Run();
  EXPECT_EQ(replica.stats().completed, 32);
  EXPECT_GT(replica.stats().preemptions, 0);
  EXPECT_EQ(replica.reserved_future_tokens(), 0);
  EXPECT_EQ(replica.kv().committed_tokens(), 0);
  EXPECT_EQ(replica.kv().live_seqs(), 0);
  EXPECT_TRUE(replica.kv().CheckConsistency());
}

// --- Paged mode (block_size > 1) -----------------------------------------

TEST(ReplicaPagedTest, CoarseDefaultIsTokenGranular) {
  Simulator sim;
  Replica replica(&sim, 0, 0, ReplicaConfig{});
  EXPECT_EQ(replica.kv().total_blocks(),
            replica.config().kv_capacity_tokens);
  EXPECT_EQ(replica.kv().config().block_size_tokens, 1);
}

TEST(ReplicaPagedTest, PagedModeCompletesWorkWithPreemptions) {
  Simulator sim;
  ReplicaConfig config;
  config.kv_capacity_tokens = 4096;
  config.kv_block_size_tokens = 16;
  config.output_reserve_tokens = 64;
  Replica replica(&sim, 0, 0, config);
  EXPECT_EQ(replica.kv().total_blocks(), 256);
  std::vector<Completion> done(32);
  for (int i = 0; i < 32; ++i) {
    replica.Enqueue(MakeRequest(static_cast<RequestId>(i), 300, 400,
                                static_cast<Token>(i) * 10000),
                    Record(&sim, &done[static_cast<size_t>(i)]));
  }
  sim.Run();
  EXPECT_EQ(replica.stats().completed, 32);
  EXPECT_GT(replica.stats().preemptions, 0);
  for (const auto& c : done) {
    EXPECT_GT(c.completed, 0);
  }
  // Paged bookkeeping saw real fragmentation at some point.
  EXPECT_GT(replica.kv().counters().peak_fragmentation_tokens, 0);
  EXPECT_TRUE(replica.kv().CheckConsistency());
}

TEST(ReplicaPagedTest, WatermarkThrottlesAdmissionButCompletes) {
  Simulator sim;
  ReplicaConfig config;
  config.kv_capacity_tokens = 4096;
  config.kv_block_size_tokens = 16;
  config.kv_watermark_blocks = 32;  // Hold back 512 tokens of headroom.
  config.output_reserve_tokens = 64;
  Replica replica(&sim, 0, 0, config);
  std::vector<Completion> done(24);
  for (int i = 0; i < 24; ++i) {
    replica.Enqueue(MakeRequest(static_cast<RequestId>(i), 256, 128,
                                static_cast<Token>(i) * 10000),
                    Record(&sim, &done[static_cast<size_t>(i)]));
  }
  sim.Run();
  EXPECT_EQ(replica.stats().completed, 24);
  EXPECT_GT(replica.kv().counters().watermark_rejections, 0);
}

TEST(ReplicaPagedTest, SwapPolicyRoundTripsSequences) {
  Simulator sim;
  ReplicaConfig config;
  config.kv_capacity_tokens = 4096;
  config.kv_block_size_tokens = 16;
  config.kv_preempt_policy = PreemptPolicy::kSwap;
  config.output_reserve_tokens = 64;
  Replica replica(&sim, 0, 0, config);
  std::vector<Completion> done(32);
  for (int i = 0; i < 32; ++i) {
    replica.Enqueue(MakeRequest(static_cast<RequestId>(i), 300, 400,
                                static_cast<Token>(i) * 10000),
                    Record(&sim, &done[static_cast<size_t>(i)]));
  }
  sim.Run();
  EXPECT_EQ(replica.stats().completed, 32);
  for (const auto& c : done) {
    EXPECT_GT(c.completed, 0);
  }
  const KvCounters& kv = replica.kv().counters();
  EXPECT_GT(kv.preempt_swap, 0);
  EXPECT_EQ(kv.swap_ins, kv.preempt_swap)
      << "every swapped-out sequence must be restored";
  EXPECT_EQ(kv.swapped_in_tokens, kv.swapped_out_tokens);
  EXPECT_GT(kv.swap_transfer_us, 0);
  EXPECT_EQ(replica.swapped_count(), 0);
  EXPECT_EQ(replica.kv().live_seqs(), 0);
  EXPECT_TRUE(replica.kv().CheckConsistency());
}

TEST(ReplicaPagedTest, SwapPolicyCrashMidFlight) {
  // Crash with sequences swapped out / restoring must not fire callbacks or
  // leak pins, blocks, or reserve.
  Simulator sim;
  ReplicaConfig config;
  config.kv_capacity_tokens = 2048;
  config.kv_block_size_tokens = 16;
  config.kv_preempt_policy = PreemptPolicy::kSwap;
  config.output_reserve_tokens = 64;
  Replica replica(&sim, 0, 0, config);
  std::vector<Completion> done(24);
  for (int i = 0; i < 24; ++i) {
    replica.Enqueue(MakeRequest(static_cast<RequestId>(i), 200, 300,
                                static_cast<Token>(i) * 10000),
                    Record(&sim, &done[static_cast<size_t>(i)]));
  }
  sim.RunFor(Seconds(3));
  replica.Crash();
  sim.Run();
  EXPECT_EQ(replica.memory_used_tokens(), 0);
  EXPECT_EQ(replica.swapped_count(), 0);
  EXPECT_EQ(replica.reserved_future_tokens(), 0);
  EXPECT_EQ(replica.cache().active_pins(), 0u);
  EXPECT_TRUE(replica.kv().CheckConsistency());
}

TEST(ReplicaPagedTest, SnapshotReportsHeadroomSignals) {
  Simulator sim;
  ReplicaConfig config;
  config.kv_capacity_tokens = 4096;
  config.kv_block_size_tokens = 16;
  Replica replica(&sim, 0, 0, config);
  Replica::LoadSnapshot idle = replica.Snapshot();
  EXPECT_EQ(idle.total_blocks, 256);
  EXPECT_EQ(idle.free_blocks, 256);
  EXPECT_EQ(idle.pending, 0);

  std::vector<Completion> done(16);
  for (int i = 0; i < 16; ++i) {
    replica.Enqueue(MakeRequest(static_cast<RequestId>(i), 300, 200,
                                static_cast<Token>(i) * 10000),
                    Record(&sim, &done[static_cast<size_t>(i)]));
  }
  sim.RunFor(Seconds(1));
  Replica::LoadSnapshot busy = replica.Snapshot();
  EXPECT_LT(busy.free_blocks, idle.free_blocks);
  EXPECT_GT(busy.running, 0);
  sim.Run();
  Replica::LoadSnapshot drained = replica.Snapshot();
  // Evictable cache counts as free again once sequences drain.
  EXPECT_EQ(drained.free_blocks, 256);
  EXPECT_EQ(drained.preemptions, replica.stats().preemptions);
}

// --- Cache eviction policy -----------------------------------------------

TEST(ReplicaEvictionTest, ColdSubtreeReplicaDrainsSaturatedLoad) {
  // End-to-end: a paged replica under sustained pressure with the new
  // eviction policy completes everything and keeps the unified ledger
  // consistent.
  Simulator sim;
  ReplicaConfig config;
  config.kv_capacity_tokens = 4096;
  config.kv_block_size_tokens = 16;
  config.output_reserve_tokens = 64;
  config.cache_eviction_policy = EvictionPolicy::kColdSubtree;
  Replica replica(&sim, 0, 0, config);
  std::vector<Completion> done(32);
  for (int i = 0; i < 32; ++i) {
    replica.Enqueue(MakeRequest(static_cast<RequestId>(i), 300, 400,
                                static_cast<Token>(i) * 10000),
                    Record(&sim, &done[static_cast<size_t>(i)]));
  }
  sim.Run();
  EXPECT_EQ(replica.stats().completed, 32);
  for (const auto& c : done) {
    EXPECT_GT(c.completed, 0);
  }
  EXPECT_TRUE(replica.cache().CheckInvariants());
  EXPECT_TRUE(replica.kv().CheckConsistency());
}

TEST(ReplicaEvictionTest, CrashEvictionsAreTraced) {
  // Every path that evicts from the prefix cache — a crash's Clear here —
  // emits kCacheEvict records, so their victims add up to the cache's own
  // count.
  Simulator sim;
  Tracer tracer(1);
  sim.SetTracer(&tracer);
  Replica replica(&sim, 0, 0, ReplicaConfig{});
  Completion a, b;
  replica.Enqueue(MakeRequest(1, 64, 4), Record(&sim, &a));
  replica.Enqueue(MakeRequest(2, 64, 4, 10000), Record(&sim, &b));
  sim.Run();
  ASSERT_GT(b.completed, 0);
  ASSERT_GT(replica.cache().size_tokens(), 0);
  replica.Crash();
  int64_t traced_victims = 0;
  for (const TraceRecord& r : tracer.Merged()) {
    if (r.type == static_cast<uint16_t>(TraceEventType::kCacheEvict)) {
      traced_victims += r.a;
    }
  }
  EXPECT_GT(replica.cache().eviction_stats().victims, 0);
  EXPECT_EQ(traced_victims, replica.cache().eviction_stats().victims);
}

// --- Probe payload -------------------------------------------------------

TEST(ReplicaProbeTest, EwmaOnlyFoldsStepsThatDecoded) {
  // ISSUE 8 fix: prefill-only steps must not grow the probe-visible decode
  // EWMA sample count. One sequence, 1536-token prompt (two chunked prefill
  // steps), 20 output tokens: exactly 20 decode steps fold in.
  Simulator sim;
  Replica replica(&sim, 0, 0, ReplicaConfig{});
  Completion c;
  replica.Enqueue(MakeRequest(1, 1536, 20), Record(&sim, &c));
  sim.Run();
  ASSERT_GT(c.completed, 0);
  ProbePayload probe = replica.Probe();
  // 19 decode steps (the first output token rides the prefill-completion
  // step); the two prefill-only steps are exactly the ones not folded.
  EXPECT_EQ(probe.latency_samples, 19);
  EXPECT_GT(probe.ewma_decode_us_per_token, 0.0);
  EXPECT_EQ(replica.stats().engine_steps, probe.latency_samples + 2);
}

TEST(ReplicaProbeTest, FreeCapacityRunningSumMatchesBatchLoop) {
  // FreeCapacity reads a running sum of (prompt - cached) over the
  // batch; Replica::CheckInvariants recomputes it with the loop it
  // replaced. Step event by event through admissions, completions,
  // recompute or swap preemptions, swap-ins, and a mid-flight crash, in
  // coarse and paged mode.
  for (int32_t block_size : {int32_t{1}, int32_t{16}}) {
    for (PreemptPolicy policy :
         {PreemptPolicy::kRecompute, PreemptPolicy::kSwap}) {
      SCOPED_TRACE(testing::Message() << "block " << block_size << " swap "
                                      << (policy == PreemptPolicy::kSwap));
      Simulator sim;
      ReplicaConfig config;
      config.kv_capacity_tokens = 4096;
      config.kv_block_size_tokens = block_size;
      config.kv_preempt_policy = policy;
      config.output_reserve_tokens = 64;
      Replica replica(&sim, 0, 0, config);
      for (int i = 0; i < 32; ++i) {
        // Pairs share a prompt, so admission-time cache hits vary.
        replica.Enqueue(MakeRequest(static_cast<RequestId>(i), 300,
                                    100 + (i % 4) * 100,
                                    static_cast<Token>(i / 2) * 10000),
                        {});
      }
      int64_t events = 0;
      while (sim.now() < Seconds(12) && sim.Step()) {
        ASSERT_TRUE(replica.CheckInvariants()) << "event " << events;
        ++events;
      }
      EXPECT_GT(replica.stats().completed, 0);
      EXPECT_GT(replica.stats().preemptions, 0);
      if (policy == PreemptPolicy::kSwap) {
        EXPECT_GT(replica.kv().counters().swap_ins, 0);
      }
      ASSERT_GT(replica.running_count(), 0);
      replica.Crash();
      EXPECT_TRUE(replica.CheckInvariants());
      EXPECT_EQ(replica.running_count(), 0);
      sim.Run();
      EXPECT_TRUE(replica.CheckInvariants());
    }
  }
}

TEST(ReplicaProbeTest, MidStepArrivalCountsAsPending) {
  // A request that arrives while a step is in flight is admittable at the
  // next step boundary, but until then the probe counts it as pending: that
  // sensitivity to mid-step queueing is the load signal SP-P routes on.
  Simulator sim;
  Replica replica(&sim, 0, 0, ReplicaConfig{});
  Completion a, b;
  replica.Enqueue(MakeRequest(1, 512, 8), Record(&sim, &a));
  sim.RunFor(Milliseconds(1));  // Prefill step (~300 ms) now in flight.
  replica.Enqueue(MakeRequest(2, 512, 8, 10000), Record(&sim, &b));
  ProbePayload probe = replica.Probe();
  EXPECT_EQ(probe.pending, 1);
  sim.Run();  // The arrival still admits and completes normally.
  EXPECT_EQ(replica.stats().completed, 2);
}

TEST(ReplicaProbeTest, MidStretchProbeWalksBoundariesOnce) {
  // One 200-token decode runs as a stretch of 199 steps after its prefill
  // step. A probe mid-stretch walks the boundaries that have run, once
  // each: one kEngineStep record and one EWMA sample per boundary. Only
  // the KV ledger waits for a reference reader (DESIGN.md §13.3). Paged,
  // with an unaligned prompt, so the ledger's pages and slack move.
  Simulator sim;
  Tracer tracer(1);
  sim.SetTracer(&tracer);
  ReplicaConfig config;
  config.kv_block_size_tokens = 16;
  Replica replica(&sim, 0, 0, config);
  Completion c;
  replica.Enqueue(MakeRequest(1, 70, 200), Record(&sim, &c));
  sim.RunFor(Seconds(2));  // ~20 ms steps: about half the stretch has run.
  auto traced_steps = [&tracer] {
    int64_t steps = 0;
    for (const TraceRecord& r : tracer.Merged()) {
      steps += r.type == static_cast<uint16_t>(TraceEventType::kEngineStep);
    }
    return steps;
  };
  // Only the prefill step has run as an event.
  ASSERT_EQ(traced_steps(), 1);
  const ProbePayload probe = replica.Probe();
  const int64_t walked = traced_steps() - 1;
  EXPECT_GT(walked, 10);
  EXPECT_LT(walked, 199);
  // The prefill step decoded nothing, so every sample is a walked boundary.
  EXPECT_EQ(probe.latency_samples, walked);

  // A second probe at the same instant walks nothing and reads the same.
  const int64_t records = tracer.size();
  const ProbePayload again = replica.Probe();
  EXPECT_EQ(tracer.size(), records);
  EXPECT_EQ(again.version, probe.version + 1);
  EXPECT_EQ(again.pending, probe.pending);
  EXPECT_EQ(again.running, probe.running);
  EXPECT_EQ(again.free_capacity, probe.free_capacity);
  EXPECT_EQ(again.free_blocks, probe.free_blocks);
  EXPECT_EQ(again.total_blocks, probe.total_blocks);
  EXPECT_EQ(again.swapped, probe.swapped);
  EXPECT_EQ(again.ewma_decode_us_per_token, probe.ewma_decode_us_per_token);
  EXPECT_EQ(again.latency_samples, probe.latency_samples);
  const Replica::LoadSnapshot snap = replica.Snapshot();

  // stats() applies the ledger and emits nothing: the walk counted.
  const Replica::Stats& stats = replica.stats();
  EXPECT_EQ(tracer.size(), records);
  EXPECT_EQ(stats.engine_steps, 1 + walked);
  EXPECT_EQ(stats.output_tokens_generated, 1 + walked);
  // What the probe added to the ledger is what the ledger then applied.
  const Replica::LoadSnapshot applied = replica.Snapshot();
  EXPECT_EQ(applied.free_capacity, probe.free_capacity);
  EXPECT_EQ(applied.free_blocks, probe.free_blocks);
  EXPECT_EQ(applied.fragmentation_tokens, snap.fragmentation_tokens);
  EXPECT_GT(applied.fragmentation_tokens, 0);
  EXPECT_TRUE(replica.CheckInvariants());
  sim.Run();
  EXPECT_GT(c.completed, 0);
}

TEST(ReplicaProbeTest, MemoryBlockedPendingStaysVisible) {
  // Genuine saturation is visible too: once an admission pass fails on
  // memory, the probe reports the blocked queue.
  Simulator sim;
  ReplicaConfig config;
  config.kv_capacity_tokens = 1024;
  config.kv_block_size_tokens = 16;
  Replica replica(&sim, 0, 0, config);
  Completion a, b;
  replica.Enqueue(MakeRequest(1, 768, 256), Record(&sim, &a));
  replica.Enqueue(MakeRequest(2, 768, 256, 10000), Record(&sim, &b));
  // Several step boundaries pass; each Admit() finds request 2 blocked on
  // memory (768 + reserve won't fit beside request 1's footprint).
  sim.RunFor(Milliseconds(500));
  ASSERT_EQ(replica.running_count(), 1);
  ASSERT_EQ(replica.pending_count(), 1);
  ProbePayload probe = replica.Probe();
  EXPECT_EQ(probe.pending, 1);
  sim.Run();
  EXPECT_EQ(replica.stats().completed, 2);
}

}  // namespace
}  // namespace skywalker
