// Region-sharded parallel simulation (ISSUE 6): shard assignment and
// lookahead derivation, keyed event ordering, cross-shard message delivery,
// and the headline determinism contract — fleet results bit-identical
// across shard counts, thread counts, and against the plain single-threaded
// Simulator reference.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/run.h"
#include "src/memory/kv_controller.h"
#include "src/net/network.h"
#include "src/net/topology.h"
#include "src/replica/replica.h"
#include "src/sim/event_queue.h"
#include "src/sim/sharded_simulator.h"
#include "src/sim/simulator.h"

namespace skywalker {
namespace {

TEST(ShardedSimulatorTest, ShardMapIsRegionModShards) {
  Topology topo = Topology::FourRegions();
  ShardedSimulator sim(topo, /*num_shards=*/2, /*num_threads=*/1);
  EXPECT_EQ(sim.num_shards(), 2);
  EXPECT_EQ(sim.ShardOf(0), 0);
  EXPECT_EQ(sim.ShardOf(1), 1);
  EXPECT_EQ(sim.ShardOf(2), 0);
  EXPECT_EQ(sim.ShardOf(3), 1);
  EXPECT_EQ(sim.SimForRegion(2), sim.shard(0));
}

TEST(ShardedSimulatorTest, ShardCountClampedToRegions) {
  ShardedSimulator sim(Topology::FourRegions(), /*num_shards=*/16);
  EXPECT_EQ(sim.num_shards(), 4);
}

// The tightest per-pair bound: the worst-case rate at which rounds advance.
SimDuration MinPairLookahead(const ShardedSimulator& sim) {
  SimDuration least = kSimTimeMax;
  for (int src = 0; src < sim.num_shards(); ++src) {
    for (int dst = 0; dst < sim.num_shards(); ++dst) {
      if (src != dst) {
        least = std::min(least, sim.PairLookahead(src, dst));
      }
    }
  }
  return least;
}

TEST(ShardedSimulatorTest, LookaheadIsMinCrossShardLatency) {
  Topology topo = Topology::FourRegions();
  // 4 shards: every inter-region link is cross-shard; min is us-east <->
  // us-west at 33 ms.
  ShardedSimulator four(topo, 4);
  EXPECT_EQ(MinPairLookahead(four), Milliseconds(33));
  // 2 shards ({0,2} vs {1,3}): the 0<->2 (40 ms) link goes intra-shard but
  // 0<->1 (33 ms) still crosses.
  ShardedSimulator two(topo, 2);
  EXPECT_EQ(MinPairLookahead(two), Milliseconds(33));
  // Single shard: no cross-shard links, unbounded window.
  ShardedSimulator one(topo, 1);
  EXPECT_EQ(MinPairLookahead(one), kSimTimeMax);
  EXPECT_EQ(one.PairLookahead(0, 0), kSimTimeMax);
}

TEST(ShardedSimulatorTest, JitterBoundDiscountsLookahead) {
  ShardedSimulator sim(Topology::FourRegions(), 4, /*num_threads=*/1,
                       /*jitter_fraction=*/0.1);
  EXPECT_EQ(MinPairLookahead(sim),
            static_cast<SimDuration>(Milliseconds(33) * 9 / 10));
}

TEST(EventQueueTest, KeyedPopOrderIsTimeThenKey) {
  EventQueue queue;
  std::vector<int> order;
  // Same timestamp, keys from different origins, inserted out of order: pop
  // order must follow (time, key), not insertion.
  auto push = [&queue, &order](SimTime at, EventRegion origin, uint64_t seq,
                               int tag) {
    queue.PushOrdered(EventOrder{at, 0, MakeOrderKey(origin, seq)}, origin,
                      [&order, tag] { order.push_back(tag); });
  };
  push(10, 2, 1, 21);
  push(10, 0, 2, 2);
  push(5, 3, 7, 37);
  push(10, 0, 1, 1);
  push(10, 1, 5, 15);
  while (!queue.empty()) {
    EventQueue::Event event = queue.Pop();
    event.fn();
  }
  EXPECT_EQ(order, (std::vector<int>{37, 1, 2, 15, 21}));
}

TEST(SimulatorTest, KeyedSchedulingTracksCurrentRegion) {
  Simulator sim;
  sim.EnableKeyedOrdering(2);
  std::vector<int> order;
  // Region 1 schedules first but region 0's key sorts first at equal time.
  sim.SetCurrentRegion(1);
  sim.ScheduleAt(100, [&] { order.push_back(1); });
  sim.SetCurrentRegion(0);
  sim.ScheduleAt(100, [&] { order.push_back(0); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(SimulatorTest, StepRestoresRegionScopeFromEvent) {
  Simulator sim;
  sim.EnableKeyedOrdering(3);
  EventRegion seen = kInvalidEventRegion;
  sim.SetCurrentRegion(2);
  sim.ScheduleAt(1, [&] {
    seen = sim.current_region();
    // Self-rescheduling inside the handler keys to the handler's region.
    sim.ScheduleAfter(1, [&] { seen = sim.current_region(); });
  });
  sim.SetCurrentRegion(0);  // Clobbered before the event runs.
  sim.Run();
  EXPECT_EQ(seen, 2);
}

// Two token relays around all four regions via the network, started in
// regions 0 and 2; the arrival log must not depend on sharding, threading,
// or how RunUntil calls slice the run.
class RelayFleet {
 public:
  RelayFleet(int num_shards, int num_threads)
      : sim_(Topology::FourRegions(), num_shards, num_threads), net_(&sim_) {
    Start(0);
    Start(2);
  }

  ShardedSimulator& sim() { return sim_; }

  // Each region's "now:hops_left" arrivals, concatenated in region order.
  std::vector<std::string> Log() const {
    std::vector<std::string> flat;
    for (const auto& log : logs_) {
      flat.insert(flat.end(), log.begin(), log.end());
    }
    return flat;
  }

 private:
  void Start(RegionId region) {
    Simulator* shard = net_.SimForRegion(region);
    shard->SetCurrentRegion(region);
    shard->ScheduleAt(0, [this, region] { Hop(region, 40); });
  }

  void Hop(RegionId at, int hops_left) {
    logs_[static_cast<size_t>(at)].push_back(
        std::to_string(net_.SimForRegion(at)->now()) + ":" +
        std::to_string(hops_left));
    if (hops_left == 0) {
      return;
    }
    const RegionId to = (at + 1) % 4;
    net_.Send(at, to, [this, to, hops_left] { Hop(to, hops_left - 1); });
  }

  ShardedSimulator sim_;
  Network net_;
  // Per-region logs: only region r's shard appends to logs_[r].
  std::vector<std::vector<std::string>> logs_ =
      std::vector<std::vector<std::string>>(4);
};

std::vector<std::string> RunRelay(int num_shards, int num_threads) {
  RelayFleet fleet(num_shards, num_threads);
  fleet.sim().RunUntil(Seconds(10));
  return fleet.Log();
}

TEST(ShardedSimulatorTest, RelayIdenticalAcrossShardsAndThreads) {
  const std::vector<std::string> reference = RunRelay(1, 1);
  ASSERT_FALSE(reference.empty());
  // {4, 2} is fleet_sharded's setting; {4, 3} gives one worker two shards
  // and the others one.
  for (auto [shards, threads] : {std::pair<int, int>{2, 1},
                                 {2, 2},
                                 {4, 1},
                                 {4, 2},
                                 {4, 3},
                                 {4, 4}}) {
    EXPECT_EQ(RunRelay(shards, threads), reference)
        << "shards=" << shards << " threads=" << threads;
  }
}

// One RunUntil call per pending event time: every call hands a round to
// the pool and parks until the pool hands the deadline back, so that
// hand-off runs once per hop instead of once per run.
TEST(ShardedSimulatorTest, RelayIdenticalInPerEventRunUntilCalls) {
  const std::vector<std::string> reference = RunRelay(1, 1);
  for (auto [shards, threads] :
       {std::pair<int, int>{4, 1}, {4, 2}, {4, 3}, {4, 4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards) +
                 " threads=" + std::to_string(threads));
    RelayFleet fleet(shards, threads);
    ShardedSimulator& sim = fleet.sim();
    int calls = 0;
    for (;;) {
      SimTime next = kSimTimeMax;
      for (int s = 0; s < sim.num_shards(); ++s) {
        next = std::min(next, sim.shard(s)->NextEventTime());
      }
      if (next >= Seconds(10)) {
        break;
      }
      sim.RunUntil(next);
      ++calls;
    }
    sim.RunUntil(Seconds(10));
    EXPECT_EQ(fleet.Log(), reference);
    EXPECT_GT(calls, 40);
    EXPECT_GE(sim.windows(), static_cast<uint64_t>(calls));
  }
}

// Destroying a simulator stops its pool wherever the workers wait: right
// after RunUntil they are still spinning; idle for far longer than the
// spin and yield bounds, they are parked, and the next RunUntil must wake
// them.
TEST(ShardedSimulatorTest, DestroysPoolWhileSpinningOrParked) {
  const std::vector<std::string> reference = RunRelay(1, 1);
  for (auto [shards, threads] : {std::pair<int, int>{4, 2}, {4, 4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards) +
                 " threads=" + std::to_string(threads));
    auto spinning = std::make_unique<RelayFleet>(shards, threads);
    spinning->sim().RunUntil(Milliseconds(100));
    spinning.reset();

    auto parked = std::make_unique<RelayFleet>(shards, threads);
    parked->sim().RunUntil(Milliseconds(100));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    parked->sim().RunUntil(Seconds(10));
    EXPECT_EQ(parked->Log(), reference);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    parked.reset();
  }
}

// The timing split adds up: the mean thread's busy time plus the straggler
// plus the handshake is the rounds' wall time, neither part is negative,
// and every shard's busy plus barrier time is that same wall time — on one
// shard, in serial rounds, and on the pool with even and uneven ownership.
TEST(ShardedSimulatorTest, TimingCoversAllShards) {
  for (auto [shards, threads] :
       {std::pair<int, int>{1, 1}, {4, 1}, {4, 2}, {4, 3}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards) +
                 " threads=" + std::to_string(threads));
    RelayFleet fleet(shards, threads);
    ShardedSimulator& sim = fleet.sim();
    sim.RunUntil(Seconds(10));
    const std::vector<ShardedSimulator::ShardTiming> timing = sim.Timing();
    ASSERT_EQ(timing.size(), static_cast<size_t>(shards));
    EXPECT_GE(sim.windows(), 1u);
    uint64_t executed = 0;
    double busy = 0;
    for (const auto& shard : timing) {
      executed += shard.executed_events;
      busy += shard.busy_seconds;
    }
    EXPECT_EQ(executed, sim.executed_events());
    EXPECT_GT(busy, 0.0);
    EXPECT_GE(sim.straggler_seconds(), 0.0);
    EXPECT_GE(sim.handshake_seconds(), 0.0);
    const double wall = timing[0].busy_seconds + timing[0].barrier_seconds;
    for (const auto& shard : timing) {
      EXPECT_NEAR(shard.busy_seconds + shard.barrier_seconds, wall, 1e-9);
    }
    EXPECT_NEAR(busy / sim.num_threads() + sim.straggler_seconds() +
                    sim.handshake_seconds(),
                wall, 1e-9);
  }
}

// A small four-region fleet with both client kinds: chat clients in regions
// 0, 1 and 3, and a ToT cohort in region 2 whose client indices sit between
// the chat groups'.
RunSpec SmallFleet() {
  RunSpec spec;
  spec.topology = Topology::FourRegions();
  spec.system.replicas_per_region = {2, 2, 2, 2};
  spec.workload = ChatWorkload({3, 3, 0, 3}, ClientConfig(), 11);
  ClientGroup& tot = spec.workload.groups[2];
  tot.kind = ClientGroup::Kind::kToT;
  tot.count = 4;
  tot.client = ToTClientConfig();
  spec.warmup = Seconds(2);
  spec.measure = Seconds(6);
  spec.collect_trace = true;
  return spec;
}

// Every summary and resilience field of two runs, exactly. Executed events
// are compared only when both runs use the same engine-step path.
void ExpectSameRun(const RunResult& result, const RunResult& reference,
                   bool same_step_path) {
  // Trace equality covers every per-request observable bit for bit.
  EXPECT_EQ(result.trace, reference.trace);
  EXPECT_EQ(result.completed, reference.completed);
  EXPECT_EQ(result.throughput_tok_s, reference.throughput_tok_s);
  EXPECT_EQ(result.output_throughput_tok_s,
            reference.output_throughput_tok_s);
  EXPECT_EQ(result.ttft_p50_s, reference.ttft_p50_s);
  EXPECT_EQ(result.ttft_p90_s, reference.ttft_p90_s);
  EXPECT_EQ(result.ttft_mean_s, reference.ttft_mean_s);
  EXPECT_EQ(result.e2e_p50_s, reference.e2e_p50_s);
  EXPECT_EQ(result.e2e_p90_s, reference.e2e_p90_s);
  EXPECT_EQ(result.e2e_mean_s, reference.e2e_mean_s);
  EXPECT_EQ(result.cache_hit_rate, reference.cache_hit_rate);
  EXPECT_EQ(result.forwarded_fraction, reference.forwarded_fraction);
  EXPECT_EQ(result.outstanding_imbalance, reference.outstanding_imbalance);
  EXPECT_EQ(result.messages_sent, reference.messages_sent);
  EXPECT_EQ(result.cross_region_messages, reference.cross_region_messages);
  if (same_step_path) {
    EXPECT_EQ(result.executed_events, reference.executed_events);
  }
  EXPECT_EQ(result.preemptions, reference.preemptions);
  EXPECT_EQ(result.issued, reference.issued);
  EXPECT_EQ(result.completed_total, reference.completed_total);
  EXPECT_EQ(result.client_errors, reference.client_errors);
  EXPECT_EQ(result.lost_forever, reference.lost_forever);
  EXPECT_EQ(result.request_timeouts, reference.request_timeouts);
  EXPECT_EQ(result.probe_misses, reference.probe_misses);
  EXPECT_EQ(result.ejections, reference.ejections);
  EXPECT_EQ(result.recoveries, reference.recoveries);
  EXPECT_EQ(result.late_completions, reference.late_completions);
  EXPECT_EQ(result.config_swaps, reference.config_swaps);
  EXPECT_EQ(result.failovers, reference.failovers);
}

// The tentpole determinism contract: the full fleet — LBs, replicas, chat
// and ToT clients, probes, forwarding — produces bit-identical request
// traces and summary metrics for every shard/thread combination, including
// against the plain single-threaded Simulator. The per-step oracle is one
// more arm (DESIGN.md §13): coalescing engine steps into stable stretches
// changes only how many events run. Named one-token pages are another
// (DESIGN.md §9): counting them changes nothing a run reports.
TEST(FleetDeterminismTest, BitIdenticalAcrossShardsThreadsAndReference) {
  const RunResult reference = skywalker::Run(SmallFleet());
  ASSERT_GT(reference.completed, 0u);
  ASSERT_FALSE(reference.trace.empty());
  // Both client kinds completed requests (region 2 hosts only ToT).
  EXPECT_NE(reference.trace.find(" r0>"), std::string::npos);
  EXPECT_NE(reference.trace.find(" r2>"), std::string::npos);

  for (int shards : {1, 2, 4}) {
    for (int threads : {1, 4}) {
      RunSpec run_spec = SmallFleet();
      run_spec.num_shards = shards;
      run_spec.num_threads = threads;
      const RunResult result = skywalker::Run(run_spec);
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      ExpectSameRun(result, reference, /*same_step_path=*/true);
    }
  }

  for (int shards : {0, 4}) {
    RunSpec run_spec = SmallFleet();
    run_spec.num_shards = shards;
    run_spec.num_threads = shards;
    Replica::set_per_step_oracle(true);
    const RunResult oracle = skywalker::Run(run_spec);
    Replica::set_per_step_oracle(false);
    SCOPED_TRACE("per-step oracle, shards=" + std::to_string(shards));
    ExpectSameRun(oracle, reference, /*same_step_path=*/false);
    EXPECT_GT(oracle.executed_events, reference.executed_events);
  }

  // Named pages, at the default KV budget and at one small enough that the
  // caches evict (the cache hit rate falls from 0.81 to 0.35).
  for (int64_t kv_tokens : {int64_t{0}, int64_t{1024}}) {
    RunSpec run_spec = SmallFleet();
    run_spec.num_shards = 4;
    run_spec.num_threads = 4;
    if (kv_tokens > 0) {
      run_spec.system.replica_config.kv_capacity_tokens = kv_tokens;
    }
    const RunResult counted =
        kv_tokens > 0 ? skywalker::Run(run_spec) : reference;
    KvController::set_named_pages_oracle(true);
    const RunResult named = skywalker::Run(run_spec);
    KvController::set_named_pages_oracle(false);
    SCOPED_TRACE("named pages, kv_tokens=" + std::to_string(kv_tokens));
    ExpectSameRun(named, counted, /*same_step_path=*/true);
  }
}

// SmallFleet forwards nothing, so no request crosses shard threads there.
// Here region 0 carries 24 chat clients against two 4-slot replicas and
// forwards part of its load to the other regions: a forwarded request
// carries its shared token slices to another shard's thread, and the run
// must still match the plain Simulator bit for bit.
TEST(FleetDeterminismTest, ForwardingBitIdenticalAcrossShardsAndThreads) {
  auto spec = [] {
    RunSpec run_spec = SmallFleet();
    run_spec.workload.groups[0].count = 24;
    run_spec.system.replica_config.max_running_requests = 4;
    return run_spec;
  };
  const RunResult reference = skywalker::Run(spec());
  ASSERT_GT(reference.completed, 0u);
  EXPECT_GT(reference.forwarded_fraction, 0.0);
  for (int shards : {1, 2, 4}) {
    for (int threads : {1, 4}) {
      RunSpec run_spec = spec();
      run_spec.num_shards = shards;
      run_spec.num_threads = threads;
      const RunResult result = skywalker::Run(run_spec);
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      ExpectSameRun(result, reference, /*same_step_path=*/true);
    }
  }
}

// Repeated identical runs must agree exactly (no hidden global state, e.g.
// the request-id atomic, leaks into results).
TEST(FleetDeterminismTest, RepeatedRunsIdentical) {
  RunSpec spec = SmallFleet();
  spec.num_shards = 4;
  spec.num_threads = 4;
  const RunResult a = skywalker::Run(spec);
  const RunResult b = skywalker::Run(spec);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
}

}  // namespace
}  // namespace skywalker
