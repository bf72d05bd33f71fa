// Property tests for the replica engine: conservation (every enqueued
// request completes exactly once, first-token precedes completion), memory
// boundedness, and cache-accounting invariants, swept across engine
// configurations and workload shapes with parameterized gtest.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/replica/replica.h"
#include "src/sim/simulator.h"

namespace skywalker {
namespace {

struct SweepConfig {
  int64_t kv_capacity;
  int max_running;
  int64_t prefill_chunk;
  double share_probability;  // Chance a request reuses another's prefix.
};

class ReplicaSweepTest
    : public ::testing::TestWithParam<std::tuple<SweepConfig, uint64_t>> {};

TEST_P(ReplicaSweepTest, ConservationAndInvariants) {
  auto [sweep, seed] = GetParam();
  Simulator sim;
  ReplicaConfig config;
  config.kv_capacity_tokens = sweep.kv_capacity;
  config.max_running_requests = sweep.max_running;
  config.max_prefill_tokens_per_step = sweep.prefill_chunk;
  Replica replica(&sim, 0, 0, config);

  Rng rng(seed);
  const int kRequests = 60;
  std::map<RequestId, SimTime> first_token;
  std::map<RequestId, SimTime> completed;
  std::vector<TokenSeq> prior_prompts;

  Token fresh = 1;
  for (int i = 0; i < kRequests; ++i) {
    Request req;
    req.id = static_cast<RequestId>(i + 1);
    req.client_region = 0;
    if (!prior_prompts.empty() && rng.Bernoulli(sweep.share_probability)) {
      // Extend a previous request's prompt (conversation-style reuse).
      const TokenSeq& base = prior_prompts[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(prior_prompts.size()) - 1))];
      req.prompt = base;
    }
    int64_t extra = rng.UniformInt(8, 400);
    for (int64_t k = 0; k < extra; ++k) {
      req.prompt.push_back(fresh++);
    }
    int64_t out = rng.UniformInt(1, 120);
    for (int64_t k = 0; k < out; ++k) {
      req.output.push_back(fresh++);
    }
    prior_prompts.push_back(req.prompt);

    Replica::Handlers handlers;
    handlers.on_first_token = [&first_token, &sim](const Request& r,
                                                   int64_t cached) {
      // Exactly one first token per request.
      ASSERT_EQ(first_token.count(r.id), 0u);
      first_token[r.id] = sim.now();
      ASSERT_GE(cached, 0);
      ASSERT_LT(cached, r.prompt_tokens());
    };
    handlers.on_complete = [&completed, &sim](const Request& r,
                                              int64_t /*cached*/) {
      ASSERT_EQ(completed.count(r.id), 0u);
      completed[r.id] = sim.now();
    };
    // Staggered arrivals keep the pending queue exercised.
    sim.ScheduleAfter(static_cast<SimDuration>(rng.Exponential(1.0) * 3e5),
                      [&replica, req = std::move(req),
                       handlers = std::move(handlers)]() mutable {
                        replica.Enqueue(std::move(req), std::move(handlers));
                      });
  }
  sim.Run();

  // Conservation: everything completes exactly once, in order.
  EXPECT_EQ(completed.size(), static_cast<size_t>(kRequests));
  EXPECT_EQ(first_token.size(), static_cast<size_t>(kRequests));
  for (const auto& [id, done] : completed) {
    ASSERT_TRUE(first_token.count(id));
    EXPECT_LE(first_token[id], done);
  }
  EXPECT_EQ(replica.stats().completed, kRequests);
  EXPECT_EQ(replica.stats().enqueued, kRequests);
  EXPECT_EQ(replica.pending_count(), 0);
  EXPECT_EQ(replica.running_count(), 0);

  // Memory: nothing pinned remains; cache within capacity; structure sound.
  EXPECT_EQ(replica.cache().active_pins(), 0u);
  EXPECT_LE(replica.cache().size_tokens(), config.kv_capacity_tokens);
  EXPECT_TRUE(replica.cache().CheckInvariants());

  // Work accounting: computed + reused covers every prompt token at least
  // once (preemption may recompute, so >= rather than ==).
  int64_t total_prompt = 0;
  for (const TokenSeq& p : prior_prompts) {
    total_prompt += static_cast<int64_t>(p.size());
  }
  EXPECT_GE(replica.stats().prefill_tokens_computed +
                replica.stats().cached_tokens_reused,
            total_prompt);
  EXPECT_GE(replica.stats().output_tokens_generated, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReplicaSweepTest,
    ::testing::Combine(
        ::testing::Values(
            SweepConfig{49152, 64, 1024, 0.5},   // Default L4.
            SweepConfig{4096, 64, 1024, 0.5},    // Memory-starved.
            SweepConfig{49152, 4, 1024, 0.5},    // Slot-starved.
            SweepConfig{8192, 16, 128, 0.8},     // Tiny chunks, heavy reuse.
            SweepConfig{8192, 16, 4096, 0.0}),   // No sharing at all.
        ::testing::Values(1u, 2u, 3u)));

// Heartbeat probes against the full-scan oracle: every Probe() during a
// memory-starved run with shared prefixes (evictions, straddled pages,
// pins, recompute or swap preemptions) must report exactly the free-block
// headroom recomputed from PrefixCache::CountBlocksSlow, in coarse and
// paged mode.
class ReplicaProbeOracleTest
    : public ::testing::TestWithParam<
          std::tuple<int32_t, PreemptPolicy, uint64_t>> {};

TEST_P(ReplicaProbeOracleTest, ProbeFreeBlocksMatchesScanOracle) {
  auto [block_size, policy, seed] = GetParam();
  Simulator sim;
  ReplicaConfig config;
  config.kv_capacity_tokens = 4096;
  config.kv_block_size_tokens = block_size;
  config.kv_preempt_policy = policy;
  config.output_reserve_tokens = 64;
  config.max_prefill_tokens_per_step = 256;
  Replica replica(&sim, 0, 0, config);

  Rng rng(seed);
  const int kRequests = 60;
  std::vector<TokenSeq> prior_prompts;
  Token fresh = 1;
  for (int i = 0; i < kRequests; ++i) {
    Request req;
    req.id = static_cast<RequestId>(i + 1);
    req.client_region = 0;
    if (!prior_prompts.empty() && rng.Bernoulli(0.6)) {
      req.prompt = prior_prompts[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(prior_prompts.size()) - 1))];
    }
    const int64_t extra = rng.UniformInt(8, 300);
    for (int64_t k = 0; k < extra; ++k) {
      req.prompt.push_back(fresh++);
    }
    const int64_t out = rng.UniformInt(1, 200);
    for (int64_t k = 0; k < out; ++k) {
      req.output.push_back(fresh++);
    }
    prior_prompts.push_back(req.prompt);
    sim.ScheduleAfter(static_cast<SimDuration>(rng.Exponential(1.0) * 2e5),
                      [&replica, req = std::move(req)]() mutable {
                        replica.Enqueue(std::move(req), {});
                      });
  }

  int64_t probes = 0;
  PeriodicTask heartbeat(&sim, Milliseconds(7), [&] {
    const ProbePayload probe = replica.Probe();
    const PrefixCache::BlockOccupancy occ = replica.cache().CountBlocksSlow();
    const KvController& kv = replica.kv();
    ASSERT_EQ(probe.free_blocks,
              std::max<int64_t>(0, kv.free_blocks() + occ.evictable_blocks -
                                       kv.committed_blocks()))
        << "probe " << probes;
    const Replica::LoadSnapshot snap = replica.Snapshot();
    ASSERT_EQ(snap.cache_blocks, occ.held_blocks) << "probe " << probes;
    ASSERT_EQ(snap.evictable_blocks, occ.evictable_blocks)
        << "probe " << probes;
    ASSERT_TRUE(replica.CheckInvariants()) << "probe " << probes;
    ++probes;
    if (replica.stats().completed == kRequests) {
      heartbeat.Stop();
    }
  });
  heartbeat.Start();
  sim.Run();

  EXPECT_EQ(replica.stats().completed, kRequests);
  EXPECT_GT(probes, 100);
  EXPECT_GT(replica.cache().eviction_stats().victims, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Heartbeats, ReplicaProbeOracleTest,
    ::testing::Combine(::testing::Values(int32_t{1}, int32_t{16}),
                       ::testing::Values(PreemptPolicy::kRecompute,
                                         PreemptPolicy::kSwap),
                       ::testing::Values(1u, 2u)));

TEST(ReplicaEdgeCaseTest, SingleTokenOutput) {
  Simulator sim;
  Replica replica(&sim, 0, 0, ReplicaConfig{});
  int completed = 0;
  Request req;
  req.id = 1;
  req.prompt = {1, 2, 3};
  req.output = {4};
  Replica::Handlers handlers;
  handlers.on_complete = [&](const Request&, int64_t) { ++completed; };
  replica.Enqueue(std::move(req), std::move(handlers));
  sim.Run();
  EXPECT_EQ(completed, 1);
}

TEST(ReplicaEdgeCaseTest, PromptLargerThanPrefillChunk) {
  Simulator sim;
  ReplicaConfig config;
  config.max_prefill_tokens_per_step = 64;
  Replica replica(&sim, 0, 0, config);
  SimTime first = -1;
  Request req;
  for (Token t = 0; t < 1000; ++t) {
    req.prompt.push_back(t);
  }
  req.output = {5000, 5001};
  req.id = 1;
  Replica::Handlers handlers;
  handlers.on_first_token = [&](const Request&, int64_t) { first = sim.now(); };
  replica.Enqueue(std::move(req), std::move(handlers));
  sim.Run();
  // 1000 tokens / 64-token chunks = 16 steps minimum before first token.
  EXPECT_GT(first, 16 * Milliseconds(20));
}

TEST(ReplicaEdgeCaseTest, HugePromptForceAdmitted) {
  // A prompt larger than KV capacity must still make progress (force-admit
  // with transient overshoot) rather than deadlock.
  Simulator sim;
  ReplicaConfig config;
  config.kv_capacity_tokens = 512;
  Replica replica(&sim, 0, 0, config);
  int completed = 0;
  Request req;
  for (Token t = 0; t < 2000; ++t) {
    req.prompt.push_back(t);
  }
  req.output = {9000};
  req.id = 1;
  Replica::Handlers handlers;
  handlers.on_complete = [&](const Request&, int64_t) { ++completed; };
  replica.Enqueue(std::move(req), std::move(handlers));
  sim.Run();
  EXPECT_EQ(completed, 1);
}

}  // namespace
}  // namespace skywalker
