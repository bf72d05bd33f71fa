// Property tests for the replica engine: conservation (every enqueued
// request completes exactly once, first-token precedes completion), memory
// boundedness, and cache-accounting invariants, swept across engine
// configurations and workload shapes with parameterized gtest — plus the
// differential checks of stable-stretch coalescing against the per-step
// oracle (DESIGN.md §13) and of coarse replicas' counted page pools against
// named ones (DESIGN.md §9).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/memory/kv_controller.h"
#include "src/obs/trace.h"
#include "src/replica/replica.h"
#include "src/sim/simulator.h"

namespace skywalker {
namespace {

struct SweepConfig {
  int64_t kv_capacity;
  int max_running;
  int64_t prefill_chunk;
  double share_probability;  // Chance a request reuses another's prefix.
  int32_t block_size = 1;    // > 1: paged KV.
  PreemptPolicy policy = PreemptPolicy::kRecompute;
};

ReplicaConfig MakeConfig(const SweepConfig& sweep) {
  ReplicaConfig config;
  config.kv_capacity_tokens = sweep.kv_capacity;
  config.max_running_requests = sweep.max_running;
  config.max_prefill_tokens_per_step = sweep.prefill_chunk;
  config.kv_block_size_tokens = sweep.block_size;
  config.kv_preempt_policy = sweep.policy;
  if (sweep.block_size > 1) {
    config.output_reserve_tokens = 64;
  }
  return config;
}

class ReplicaSweepTest
    : public ::testing::TestWithParam<std::tuple<SweepConfig, uint64_t>> {};

TEST_P(ReplicaSweepTest, ConservationAndInvariants) {
  auto [sweep, seed] = GetParam();
  Simulator sim;
  const ReplicaConfig config = MakeConfig(sweep);
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

// --- Stable-stretch coalescing against the per-step oracle ----------------

// Requests shaped like the sweep's: fresh suffixes over a shared-prefix bank.
std::vector<Request> MakeRequests(Rng& rng, int count, double share) {
  std::vector<Request> requests;
  std::vector<TokenSeq> prior_prompts;
  Token fresh = 1;
  for (int i = 0; i < count; ++i) {
    Request req;
    req.id = static_cast<RequestId>(i + 1);
    req.client_region = 0;
    if (!prior_prompts.empty() && rng.Bernoulli(share)) {
      req.prompt = prior_prompts[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(prior_prompts.size()) - 1))];
    }
    const int64_t extra = rng.UniformInt(8, 400);
    for (int64_t k = 0; k < extra; ++k) {
      req.prompt.push_back(fresh++);
    }
    const int64_t out = rng.UniformInt(1, 160);
    for (int64_t k = 0; k < out; ++k) {
      req.output.push_back(fresh++);
    }
    prior_prompts.push_back(req.prompt);
    requests.push_back(std::move(req));
  }
  return requests;
}

// One observation line: the probe payload, the snapshot, the memory values,
// every stat, ledger totals, the memory series and the cache, printed
// exactly (hex floats). The value readers come first: the probe walks a
// stretch's passed boundaries, and they add the walked boundaries' growth
// to the KV ledger, which the first reference reader (stats()) applies.
void Observe(Simulator& sim, Replica& replica, const std::string& what,
             std::vector<std::string>* lines) {
  std::ostringstream os;
  os << std::hexfloat << sim.now() << ' ' << what;
  const ProbePayload p = replica.Probe();
  os << " probe " << p.version << ' ' << p.pending << ' ' << p.running << ' '
     << p.free_capacity << ' ' << p.free_blocks << ' ' << p.total_blocks
     << ' ' << p.swapped << ' ' << p.ewma_decode_us_per_token << ' '
     << p.latency_samples;
  const Replica::LoadSnapshot snap = replica.Snapshot();
  os << " snap " << snap.cache_blocks << ' ' << snap.evictable_blocks << ' '
     << snap.fragmentation_tokens;
  os << " mem " << replica.memory_used_tokens() << ' '
     << replica.active_memory_tokens() << ' '
     << replica.reserved_future_tokens() << ' '
     << replica.memory_utilization() << ' '
     << replica.active_memory_utilization();
  const Replica::Stats& st = replica.stats();
  os << " stats " << st.enqueued << ' ' << st.completed << ' '
     << st.prefill_tokens_computed << ' ' << st.cached_tokens_reused << ' '
     << st.output_tokens_generated << ' ' << st.preemptions << ' '
     << st.dropped_requests << ' ' << st.engine_steps << ' ' << st.busy_us
     << ' ' << st.peak_memory_utilization << ' ' << st.peak_running << ' '
     << st.peak_pending;
  const KvController& kv = replica.kv();
  os << " kv " << kv.used_blocks() << ' ' << kv.committed_blocks() << ' '
     << kv.seq_resident_tokens() << ' ' << kv.committed_tokens() << ' '
     << kv.live_seqs() << ' ' << kv.allocator_stats().allocated << ' '
     << kv.allocator_stats().freed << ' ' << kv.allocator_stats().cow_copies
     << ' ' << kv.allocator_stats().peak_used_blocks << ' '
     << kv.counters().peak_fragmentation_tokens << ' '
     << kv.counters().preempt_swap << ' ' << kv.counters().swap_ins;
  os << " busy " << replica.BusyFraction();
  const auto& series = replica.memory_series();
  os << " series " << series.size();
  if (!series.empty()) {
    os << ' ' << series.back().first << ' ' << series.back().second;
  }
  os << " cache " << replica.cache().size_tokens() << ' '
     << replica.cache().num_nodes() << ' '
     << replica.cache().eviction_stats().victims << " ok "
     << replica.CheckInvariants();
  lines->push_back(os.str());
}

struct WorldSpec {
  ReplicaConfig config;
  uint64_t seed = 1;
  double share = 0.5;
  // > 0: every injected time is a multiple of it.
  SimDuration grid = 0;
  // Instants to probe exactly, both before and after any step event there.
  std::vector<SimTime> boundaries;
};

struct WorldLog {
  std::vector<std::string> lines;  // Observations and callbacks, in order.
  std::string trace;               // SKTRACE1 bytes (traced runs).
  std::vector<SimTime> step_ends;  // kEngineStep record times.
  size_t events = 0;
  PrefixCache::EvictionStats evictions;  // At the end of the run.
};

// Arrivals, random probes, boundary probes and faults (Fail/Recover,
// SetSlowdown) against one replica, coalesced or on the per-step oracle,
// traced or not, its one-token pages counted or (`named`) named; an
// observation after every injected event.
WorldLog RunWorld(const WorldSpec& spec, bool oracle, bool traced,
                  bool named = false) {
  WorldLog log;
  Simulator sim;
  Tracer tracer(1);
  if (traced) {
    sim.SetTracer(&tracer);
  }
  Replica::set_per_step_oracle(oracle);
  KvController::set_named_pages_oracle(named);
  Replica replica(&sim, 0, 0, spec.config);
  KvController::set_named_pages_oracle(false);
  Replica::set_per_step_oracle(false);

  Rng rng(spec.seed);
  auto when = [&rng, &spec](double from_s, double to_s) {
    auto t = static_cast<SimTime>(rng.Uniform(from_s * 1e6, to_s * 1e6));
    return spec.grid > 0 ? t / spec.grid * spec.grid : t;
  };
  auto observe = [&sim, &replica, &log](const std::string& what) {
    Observe(sim, replica, what, &log.lines);
  };
  for (Request& req : MakeRequests(rng, 60, spec.share)) {
    Replica::Handlers handlers;
    handlers.on_first_token = [&sim, &log](const Request& r, int64_t cached) {
      log.lines.push_back(std::to_string(sim.now()) + " first " +
                          std::to_string(r.id) + " " + std::to_string(cached));
    };
    handlers.on_complete = [&sim, &log](const Request& r, int64_t) {
      log.lines.push_back(std::to_string(sim.now()) + " complete " +
                          std::to_string(r.id));
    };
    sim.ScheduleAt(when(0, 6), [&replica, &observe, req = std::move(req),
                                handlers = std::move(handlers)]() mutable {
      replica.Enqueue(std::move(req), std::move(handlers));
      observe("enqueue");
    });
  }
  for (int i = 0; i < 200; ++i) {
    sim.ScheduleAt(when(0, 10), [&observe] { observe("probe"); });
  }
  for (SimTime t : spec.boundaries) {
    // Scheduled at setup, this probe sorts before a step event ending at
    // `t`; its zero-delay follow-up, scheduled at `t`, sorts after it.
    sim.ScheduleAt(t, [&sim, &observe] {
      observe("boundary_before");
      sim.ScheduleAfter(0, [&observe] { observe("boundary_after"); });
    });
  }
  const SimTime fail = when(3, 6);
  sim.ScheduleAt(fail, [&replica, &observe] {
    replica.Fail();
    observe("fail");
  });
  sim.ScheduleAt(fail + (spec.grid > 0 ? 40 * spec.grid : 40'000),
                 [&replica, &observe] {
                   replica.Recover();
                   observe("recover");
                 });
  const SimTime slow = when(0, 5);
  sim.ScheduleAt(slow, [&replica, &observe] {
    replica.SetSlowdown(2.5);
    observe("slow");
  });
  sim.ScheduleAt(slow + when(0.5, 2), [&replica, &observe] {
    replica.SetSlowdown(1.0);
    observe("unslow");
  });
  sim.Run();
  observe("end");

  log.events = sim.executed_events();
  log.evictions = replica.cache().eviction_stats();
  const std::vector<TraceRecord> records = tracer.Merged();
  log.trace = TraceToBinary(records, {});
  for (const TraceRecord& r : records) {
    if (r.type == static_cast<uint16_t>(TraceEventType::kEngineStep)) {
      log.step_ends.push_back(r.time);
    }
  }
  return log;
}

// Runs the oracle once to find its step boundaries, probes a sample of them
// in both arms, and requires identical observations, traced and untraced,
// and identical trace bytes.
void ExpectCoalescedMatchesOracle(WorldSpec spec) {
  const WorldLog first = RunWorld(spec, /*oracle=*/true, /*traced=*/true);
  for (size_t i = 0; i < first.step_ends.size(); i += 7) {
    spec.boundaries.push_back(first.step_ends[i]);
  }
  for (bool traced : {true, false}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    const WorldLog oracle = RunWorld(spec, /*oracle=*/true, traced);
    const WorldLog coalesced = RunWorld(spec, /*oracle=*/false, traced);
    ASSERT_FALSE(oracle.lines.empty());
    const size_t n = std::min(oracle.lines.size(), coalesced.lines.size());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(coalesced.lines[i], oracle.lines[i]) << "observation " << i;
    }
    EXPECT_EQ(coalesced.lines.size(), oracle.lines.size());
    EXPECT_TRUE(coalesced.trace == oracle.trace) << "trace bytes differ";
    // The oracle schedules one event per step; coalescing must save some.
    EXPECT_LT(coalesced.events, oracle.events);
  }
}

TEST_P(ReplicaSweepTest, CoalescedMatchesPerStepOracle) {
  auto [sweep, seed] = GetParam();
  WorldSpec spec;
  spec.config = MakeConfig(sweep);
  spec.seed = seed;
  spec.share = sweep.share_probability;
  ExpectCoalescedMatchesOracle(spec);
}

// The sweep's coarse configs (paged pools always name their pages), and one
// whose shared prompts outgrow a 1024-token budget: there a publish
// overflows the cache inside its co-held window and evicts its own new
// leaf, on every seed.
const SweepConfig kCoarseSweeps[] = {
    SweepConfig{49152, 64, 1024, 0.5},  // Default L4.
    SweepConfig{4096, 64, 1024, 0.5},   // Memory-starved.
    SweepConfig{49152, 4, 1024, 0.5},   // Slot-starved.
    SweepConfig{8192, 16, 128, 0.8},    // Tiny chunks, heavy reuse.
    SweepConfig{8192, 16, 4096, 0.0},   // No sharing at all.
    SweepConfig{1024, 8, 128, 0.8},     // Publishes overflow the cache.
};

class CountedPagesTest : public ReplicaSweepTest {};

// A coarse replica's counted page pool against the named reference: every
// observation (ledger totals and allocator stats included), the eviction
// stats and the trace bytes.
TEST_P(CountedPagesTest, MatchNamedPages) {
  auto [sweep, seed] = GetParam();
  WorldSpec spec;
  spec.config = MakeConfig(sweep);
  spec.seed = seed;
  spec.share = sweep.share_probability;
  const WorldLog named =
      RunWorld(spec, /*oracle=*/false, /*traced=*/true, /*named=*/true);
  const WorldLog counted =
      RunWorld(spec, /*oracle=*/false, /*traced=*/true, /*named=*/false);
  ASSERT_FALSE(named.lines.empty());
  const size_t n = std::min(named.lines.size(), counted.lines.size());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(counted.lines[i], named.lines[i]) << "observation " << i;
  }
  EXPECT_EQ(counted.lines.size(), named.lines.size());
  EXPECT_EQ(counted.evictions.rounds, named.evictions.rounds);
  EXPECT_EQ(counted.evictions.victims, named.evictions.victims);
  EXPECT_EQ(counted.evictions.freed_blocks, named.evictions.freed_blocks);
  EXPECT_TRUE(counted.trace == named.trace) << "trace bytes differ";
  EXPECT_EQ(counted.events, named.events);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReplicaSweepTest,
    ::testing::Combine(
        ::testing::Values(
            SweepConfig{49152, 64, 1024, 0.5},   // Default L4.
            SweepConfig{4096, 64, 1024, 0.5},    // Memory-starved.
            SweepConfig{49152, 4, 1024, 0.5},    // Slot-starved.
            SweepConfig{8192, 16, 128, 0.8},     // Tiny chunks, heavy reuse.
            SweepConfig{8192, 16, 4096, 0.0},    // No sharing at all.
            // Paged KV with swap preemption.
            SweepConfig{4096, 32, 256, 0.6, 16, PreemptPolicy::kSwap},
            SweepConfig{12288, 16, 512, 0.5, 16, PreemptPolicy::kSwap}),
        ::testing::Values(1u, 2u, 3u)));

INSTANTIATE_TEST_SUITE_P(Sweep, CountedPagesTest,
                         ::testing::Combine(::testing::ValuesIn(kCoarseSweeps),
                                            ::testing::Values(1u, 2u, 3u)));

// Every step exactly 1 ms and every injected event on the 1 ms grid: each
// step boundary ties with arrivals, probes and faults, some ordered before
// the step event and some after it.
TEST(ReplicaCoalescingTest, RoundNumberConfigTiesAtEveryBoundary) {
  for (uint64_t seed : {1u, 2u}) {
    WorldSpec spec;
    spec.config.step_base_us = 1000.0;
    spec.config.prefill_us_per_token = 0.0;
    spec.config.decode_us_per_seq = 0.0;
    spec.config.decode_us_per_context_token = 0.0;
    spec.config.kv_capacity_tokens = 8192;
    spec.config.max_running_requests = 8;
    spec.seed = seed;
    spec.grid = Milliseconds(1);
    ExpectCoalescedMatchesOracle(spec);
  }
}

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

// Replica::Stats counts a step when it finishes, so a run stopped with
// steps in flight (or mid-stretch) reports exactly the steps its trace
// records: engine_steps equals the kEngineStep records and busy_us their
// summed durations, on both paths.
TEST(ReplicaCoalescingTest, EngineStepsMatchTracedSteps) {
  for (bool oracle : {false, true}) {
    Simulator sim;
    Tracer tracer(1);
    sim.SetTracer(&tracer);
    Replica::set_per_step_oracle(oracle);
    Replica replica(&sim, 0, 0, ReplicaConfig{});
    Replica::set_per_step_oracle(false);
    Rng rng(5);
    for (Request& req : MakeRequests(rng, 12, 0.5)) {
      sim.ScheduleAt(rng.UniformInt(0, Seconds(1)),
                     [&replica, req = std::move(req)]() mutable {
                       replica.Enqueue(std::move(req), {});
                     });
    }
    for (SimTime deadline :
         {Milliseconds(1234), Milliseconds(2500), Milliseconds(4321)}) {
      sim.RunUntil(deadline);
      replica.Sync();
      int64_t traced = 0;
      double traced_us = 0;
      for (const TraceRecord& r : tracer.Merged()) {
        if (r.type == static_cast<uint16_t>(TraceEventType::kEngineStep)) {
          ++traced;
          traced_us += r.x;
        }
      }
      SCOPED_TRACE(std::string(oracle ? "oracle" : "coalesced") + " at " +
                   std::to_string(deadline));
      EXPECT_GT(traced, 0);
      EXPECT_EQ(replica.stats().engine_steps, traced);
      EXPECT_EQ(replica.stats().busy_us, traced_us);
    }
  }
}

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
