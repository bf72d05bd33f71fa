// Tests for the shared dispatch engine (src/routing/): push-mode
// availability, push-slack bounds under probe staleness, and probe-driven
// queue draining — parameterized over all four baseline policies AND the
// SkyWalker regional balancer, proving the refactor left one set of
// semantics, not two.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/skywalker_lb.h"
#include "src/lb/policies.h"
#include "src/net/network.h"
#include "src/obs/trace.h"
#include "src/routing/dispatch_engine.h"
#include "src/sim/simulator.h"

namespace skywalker {
namespace {

Request MakeRequest(RequestId id, int64_t prompt_len, int64_t output_len,
                    const std::string& key = "k", Token base = 0) {
  Request req;
  req.id = id;
  req.client_region = 0;
  req.routing_key = key;
  TokenSeq prompt;
  for (int64_t i = 0; i < prompt_len; ++i) {
    prompt.push_back(base + static_cast<Token>(i));
  }
  TokenSeq output;
  for (int64_t i = 0; i < output_len; ++i) {
    output.push_back(500000 + base + static_cast<Token>(i));
  }
  req.prompt = std::move(prompt);
  req.output = std::move(output);
  return req;
}

RequestCallbacks CountCompletions(int* completed) {
  RequestCallbacks callbacks;
  callbacks.on_complete = [completed](const RequestOutcome&) { ++*completed; };
  return callbacks;
}

enum class BalancerKind {
  kRoundRobin,
  kLeastLoad,
  kConsistentHash,
  kSglRouter,
  kSkyWalker,
};

struct BalancerCase {
  const char* name;
  BalancerKind kind;
};

std::string CaseName(const ::testing::TestParamInfo<BalancerCase>& info) {
  return info.param.name;
}

// One single-region balancer of the requested kind over one replica, with a
// uniform facade so every scenario below runs verbatim against each stack.
struct Bench {
  Simulator sim;
  std::unique_ptr<Network> net;
  std::unique_ptr<Replica> replica;
  std::unique_ptr<LoadBalancer> baseline;
  std::unique_ptr<SkyWalkerLb> sky;

  Bench(BalancerKind kind, const ReplicaConfig& rconfig, PushMode mode,
        int push_slack, SimDuration probe_interval) {
    Topology topology;
    topology.AddRegion("local", Milliseconds(1));
    net = std::make_unique<Network>(&sim, topology);
    replica = std::make_unique<Replica>(&sim, 0, 0, rconfig);
    if (kind == BalancerKind::kSkyWalker) {
      // SkyWalker is SP-P by construction; scenarios that exercise other
      // push modes skip it.
      SkyWalkerConfig config;
      config.engine.push_slack = push_slack;
      config.engine.probe_interval = probe_interval;
      config.routing.enable_forwarding = false;
      sky = std::make_unique<SkyWalkerLb>(&sim, net.get(), 0, 0, config);
      sky->AttachReplica(replica.get());
      return;
    }
    LbConfig config;
    config.engine.push_mode = mode;
    config.engine.push_slack = push_slack;
    config.engine.probe_interval = probe_interval;
    config.engine.max_outstanding_per_replica = 4;
    switch (kind) {
      case BalancerKind::kRoundRobin:
        baseline =
            std::make_unique<RoundRobinLb>(&sim, net.get(), 0, 0, config);
        break;
      case BalancerKind::kLeastLoad:
        baseline = std::make_unique<LeastLoadLb>(&sim, net.get(), 0, 0, config);
        break;
      case BalancerKind::kConsistentHash:
        baseline =
            std::make_unique<ConsistentHashLb>(&sim, net.get(), 0, 0, config);
        break;
      case BalancerKind::kSglRouter:
        baseline = std::make_unique<SglRouterLb>(&sim, net.get(), 0, 0, config);
        break;
      case BalancerKind::kSkyWalker:
        break;
    }
    baseline->AttachReplica(replica.get());
  }

  void Start() {
    if (sky != nullptr) {
      sky->Start();
    } else {
      baseline->Start();
    }
  }

  void Submit(Request req, RequestCallbacks callbacks) {
    if (sky != nullptr) {
      sky->HandleRequest(std::move(req), std::move(callbacks));
    } else {
      baseline->HandleRequest(std::move(req), std::move(callbacks));
    }
  }

  size_t QueueLength() const {
    return sky != nullptr ? sky->QueueSize() : baseline->queue_length();
  }
};

class SharedEngineTest : public ::testing::TestWithParam<BalancerCase> {};

// SP-P with maximally stale probes (loop never started): every stack must
// stop pushing after exactly push_slack optimistic dispatches, and resume —
// then drain completely — once the probe loop starts reporting.
TEST_P(SharedEngineTest, ColdStartSlackBoundsPushesUntilProbesArrive) {
  const int kSlack = 2;
  const int kRequests = 6;
  Bench bench(GetParam().kind, ReplicaConfig{}, PushMode::kSelectivePending,
              kSlack, Milliseconds(100));
  int completed = 0;
  for (int i = 0; i < kRequests; ++i) {
    bench.Submit(MakeRequest(static_cast<RequestId>(i), 32, 4, "k",
                             static_cast<Token>(i) * 1000),
                 CountCompletions(&completed));
  }
  bench.sim.RunFor(Seconds(1));
  // No probe ever answered: the engine granted exactly push_slack pushes.
  EXPECT_EQ(bench.replica->stats().enqueued, kSlack);
  EXPECT_EQ(bench.QueueLength(), static_cast<size_t>(kRequests - kSlack));

  bench.Start();
  bench.sim.RunFor(Seconds(600));
  EXPECT_EQ(completed, kRequests);
  EXPECT_EQ(bench.QueueLength(), 0u);
}

// SP-P against a replica whose batch genuinely fills: the pending queue at
// the replica stays within the slack bound while the LB queue absorbs the
// backlog, and everything completes as probes re-open admission.
TEST_P(SharedEngineTest, SelectivePendingHoldsBackWhenReplicaFull) {
  ReplicaConfig rconfig;
  rconfig.kv_capacity_tokens = 1200;
  rconfig.output_reserve_tokens = 128;
  const int kSlack = 2;
  Bench bench(GetParam().kind, rconfig, PushMode::kSelectivePending, kSlack,
              Milliseconds(100));
  bench.Start();
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    bench.Submit(MakeRequest(static_cast<RequestId>(i), 300, 100, "k",
                             static_cast<Token>(i) * 10000),
                 CountCompletions(&completed));
  }
  bench.sim.RunFor(Seconds(2));
  // Between any two probes at most push_slack requests land on the replica,
  // so its pending queue never grows past slack + 1 (one may be admitted).
  EXPECT_LE(bench.replica->stats().peak_pending, kSlack + 1);
  EXPECT_GT(bench.QueueLength(), 0u);
  bench.sim.RunFor(Seconds(600));
  EXPECT_EQ(completed, 10);
}

// SP-O (baselines only): the fixed outstanding cap gates admission per
// replica regardless of the placement policy in front of it.
TEST_P(SharedEngineTest, SelectiveOutstandingCapsInFlight) {
  if (GetParam().kind == BalancerKind::kSkyWalker) {
    GTEST_SKIP() << "SkyWalker pushes by pending requests only (§3.3)";
  }
  ReplicaConfig rconfig;
  rconfig.kv_capacity_tokens = 100000;
  Bench bench(GetParam().kind, rconfig, PushMode::kSelectiveOutstanding,
              /*push_slack=*/32, Milliseconds(100));
  bench.Start();
  int completed = 0;
  for (int i = 0; i < 12; ++i) {
    bench.Submit(MakeRequest(static_cast<RequestId>(i), 64, 64, "k",
                             static_cast<Token>(i) * 10000),
                 CountCompletions(&completed));
  }
  bench.sim.RunFor(Milliseconds(20));
  EXPECT_LE(bench.replica->outstanding_count(), 4);
  EXPECT_GE(bench.QueueLength(), 8u);
  bench.sim.RunFor(Seconds(600));
  EXPECT_EQ(completed, 12);
}

// Blind pushing (baselines only): everything lands on the replica
// immediately, reproducing the §3.3 failure mode the selective modes fix.
TEST_P(SharedEngineTest, BlindPushingFloodsReplica) {
  if (GetParam().kind == BalancerKind::kSkyWalker) {
    GTEST_SKIP() << "SkyWalker pushes by pending requests only (§3.3)";
  }
  ReplicaConfig rconfig;
  rconfig.kv_capacity_tokens = 1200;
  rconfig.output_reserve_tokens = 128;
  Bench bench(GetParam().kind, rconfig, PushMode::kBlind, /*push_slack=*/32,
              Milliseconds(100));
  bench.Start();
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    bench.Submit(MakeRequest(static_cast<RequestId>(i), 300, 100, "k",
                             static_cast<Token>(i) * 10000),
                 CountCompletions(&completed));
  }
  bench.sim.RunFor(Seconds(2));
  EXPECT_GE(bench.replica->stats().peak_pending, 5);
  EXPECT_EQ(bench.QueueLength(), 0u);
  bench.sim.Run();
  EXPECT_EQ(completed, 10);
}

INSTANTIATE_TEST_SUITE_P(
    AllBalancers, SharedEngineTest,
    ::testing::Values(BalancerCase{"RoundRobin", BalancerKind::kRoundRobin},
                      BalancerCase{"LeastLoad", BalancerKind::kLeastLoad},
                      BalancerCase{"ConsistentHash",
                                   BalancerKind::kConsistentHash},
                      BalancerCase{"SglRouter", BalancerKind::kSglRouter},
                      BalancerCase{"SkyWalker", BalancerKind::kSkyWalker}),
    CaseName);

// --- Direct engine-surface tests ----------------------------------------

// Trivial selector: first available replica in registry order.
class FirstAvailableSelector : public ReplicaSelector {
 public:
  ReplicaId SelectReplica(const Queued& /*queued*/,
                          const CandidateView& candidates) override {
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (candidates.IsAvailable(candidates[i])) {
        return candidates[i].replica->id();
      }
    }
    return kInvalidReplica;
  }
};

struct EngineBench {
  Simulator sim;
  std::unique_ptr<Network> net;
  std::vector<std::unique_ptr<Replica>> replicas;
  FirstAvailableSelector selector;
  std::unique_ptr<DispatchEngine> engine;

  // `policy` (borrowed, must outlive the bench) replaces the
  // first-available selector.
  explicit EngineBench(int num_replicas,
                       const DispatchConfig& config = DispatchConfig{},
                       const ReplicaConfig& rconfig = ReplicaConfig{},
                       ReplicaSelector* policy = nullptr) {
    Topology topology;
    topology.AddRegion("local", Milliseconds(1));
    net = std::make_unique<Network>(&sim, topology);
    engine = std::make_unique<DispatchEngine>(
        &sim, net.get(), 0, config, policy != nullptr ? policy : &selector);
    for (int i = 0; i < num_replicas; ++i) {
      replicas.push_back(
          std::make_unique<Replica>(&sim, i, 0, rconfig));
      engine->AttachReplica(replicas.back().get());
    }
  }

  void Submit(Request req, RequestCallbacks callbacks) {
    Queued queued;
    queued.req = std::move(req);
    queued.callbacks = std::move(callbacks);
    engine->Enqueue(std::move(queued));
  }

  // Submits `req`, runs until it completes, and returns the replica that
  // served it.
  ReplicaId Serve(Request req) {
    ReplicaId served = kInvalidReplica;
    RequestCallbacks callbacks;
    callbacks.on_complete = [&served](const RequestOutcome& outcome) {
      served = outcome.replica;
    };
    Submit(std::move(req), std::move(callbacks));
    sim.RunFor(Seconds(60));
    return served;
  }
};

TEST(DispatchEngineTest, DetachKeepsFlatRegistryDense) {
  EngineBench bench(3);
  EXPECT_EQ(bench.engine->num_replicas(), 3u);
  EXPECT_TRUE(bench.engine->DetachReplica(1));
  EXPECT_FALSE(bench.engine->DetachReplica(1));
  EXPECT_EQ(bench.engine->num_replicas(), 2u);
  // Swap-remove keeps lookups intact for the survivors.
  EXPECT_NE(bench.engine->FindReplica(0), nullptr);
  EXPECT_NE(bench.engine->FindReplica(2), nullptr);
  EXPECT_EQ(bench.engine->FindReplica(1), nullptr);
  EXPECT_EQ(bench.engine->OutstandingSnapshot().size(), 2u);

  // Detached replica receives no traffic; the rest still serve.
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    bench.Submit(MakeRequest(static_cast<RequestId>(i), 16, 2, "k",
                             static_cast<Token>(i) * 100),
                 CountCompletions(&completed));
  }
  bench.sim.Run();
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(bench.replicas[1]->stats().enqueued, 0);
  EXPECT_EQ(bench.engine->stats().dispatched, 4);
  EXPECT_EQ(bench.engine->stats().completed, 4);
}

TEST(DispatchEngineTest, FlushQueueWithErrorDrainsAndReports) {
  DispatchConfig config;
  config.push_mode = PushMode::kSelectivePending;
  config.push_slack = 0;  // Nothing dispatches without a probe.
  EngineBench bench(1, config);
  int errors = 0;
  for (int i = 0; i < 3; ++i) {
    Request req = MakeRequest(static_cast<RequestId>(i), 16, 2);
    RequestCallbacks callbacks;
    callbacks.on_error = [&errors] { ++errors; };
    bench.Submit(std::move(req), std::move(callbacks));
  }
  EXPECT_EQ(bench.engine->queue_size(), 3u);
  EXPECT_EQ(bench.engine->FlushQueueWithError(), 3);
  EXPECT_EQ(errors, 3);
  EXPECT_EQ(bench.engine->queue_size(), 0u);
}

TEST(DispatchEngineTest, ProbesCarryKvLoadSnapshots) {
  // The probe loop must deliver the replica's paged-memory headroom, not
  // just the pending count (ISSUE 4).
  DispatchConfig config;
  config.push_mode = PushMode::kSelectivePending;
  ReplicaConfig rconfig;
  rconfig.kv_capacity_tokens = 4096;
  rconfig.kv_block_size_tokens = 16;
  EngineBench bench(1, config, rconfig);
  bench.engine->Start();
  bench.sim.RunFor(Milliseconds(300));
  const ReplicaState* state = bench.engine->FindReplica(0);
  ASSERT_NE(state, nullptr);
  ASSERT_TRUE(state->probed_once);
  EXPECT_EQ(state->probed.total_blocks, 256);
  EXPECT_EQ(state->probed.free_blocks, 256);  // Idle: everything admissible.
  EXPECT_EQ(state->probed.pending, 0);
  EXPECT_DOUBLE_EQ(state->ProbedFreeBlockFraction(), 1.0);
}

TEST(DispatchEngineTest, FreeBlockGateRoutesAroundMemoryFullReplica) {
  // Replica 0 holds a few long-decode sequences: its batch is not full
  // (pending == 0, so plain SP-P would push to it) but its KV headroom is
  // gone. With the free-block gate the engine must route around it.
  ReplicaConfig rconfig;
  rconfig.kv_capacity_tokens = 2048;
  rconfig.kv_block_size_tokens = 16;
  rconfig.output_reserve_tokens = 128;
  auto fill_replica_zero = [](EngineBench& bench) {
    for (int i = 0; i < 3; ++i) {
      bench.replicas[0]->Enqueue(
          MakeRequest(static_cast<RequestId>(900 + i), 500, 600, "k",
                      static_cast<Token>(i) * 50000),
          {});
    }
    bench.sim.RunFor(Seconds(1));  // Decode in progress, memory committed.
    ASSERT_EQ(bench.replicas[0]->pending_count(), 0);
    ASSERT_LT(bench.replicas[0]->Snapshot().free_blocks,
              bench.replicas[0]->Snapshot().total_blocks / 2);
  };

  DispatchConfig gated;
  gated.push_mode = PushMode::kSelectivePending;
  gated.min_free_block_fraction = 0.5;
  EngineBench bench(2, gated, rconfig);
  fill_replica_zero(bench);
  bench.engine->Start();
  bench.sim.RunFor(Milliseconds(300));  // Probes land.
  const ReplicaState* state = bench.engine->FindReplica(0);
  ASSERT_TRUE(state->probed_once);
  EXPECT_LT(state->ProbedFreeBlockFraction(), 0.5);
  EXPECT_FALSE(bench.engine->IsAvailable(0));
  EXPECT_TRUE(bench.engine->IsAvailable(1));

  int completed = 0;
  const int64_t before = bench.replicas[1]->stats().enqueued;
  for (int i = 0; i < 4; ++i) {
    bench.Submit(MakeRequest(static_cast<RequestId>(i), 32, 4, "k",
                             static_cast<Token>(i) * 1000),
                 CountCompletions(&completed));
  }
  bench.sim.RunFor(Seconds(5));
  EXPECT_EQ(bench.replicas[1]->stats().enqueued, before + 4)
      << "gated engine must route around the memory-full replica";

  // Control: without the gate, SP-P sees pending == 0 and picks replica 0
  // (attach order) — the behavior the gate exists to correct.
  DispatchConfig ungated;
  ungated.push_mode = PushMode::kSelectivePending;
  EngineBench control(2, ungated, rconfig);
  fill_replica_zero(control);
  control.engine->Start();
  control.sim.RunFor(Milliseconds(300));
  EXPECT_TRUE(control.engine->IsAvailable(0));
  int control_completed = 0;
  control.Submit(MakeRequest(1, 32, 4), CountCompletions(&control_completed));
  control.sim.RunFor(Seconds(5));
  EXPECT_EQ(control.replicas[0]->stats().enqueued, 3 + 1);
}

TEST(DispatchEngineTest, DispatchTraceRecordsHeadOfLineWait) {
  DispatchConfig config;
  config.push_mode = PushMode::kSelectivePending;
  config.push_slack = 1;
  Tracer tracer(1);
  EngineBench bench(1, config);
  bench.sim.SetTracer(&tracer);
  int completed = 0;
  bench.Submit(MakeRequest(1, 16, 2), CountCompletions(&completed));
  bench.Submit(MakeRequest(2, 16, 2, "k", 1000), CountCompletions(&completed));
  // Second request waits for the probe loop, which is not running: only one
  // dispatch so far.
  bench.sim.RunFor(Seconds(1));
  EXPECT_EQ(bench.engine->stats().dispatched, 1);
  bench.engine->Start();
  bench.sim.RunFor(Seconds(600));
  EXPECT_EQ(completed, 2);
  // Each dispatch record carries its request's queue wait (x, in us): none
  // for the first request, the probe delay for the blocked one.
  std::map<int64_t, double> wait_us;
  for (const TraceRecord& record : tracer.Merged()) {
    if (record.type == static_cast<uint16_t>(TraceEventType::kDispatch)) {
      wait_us[record.request] = record.x;
    }
  }
  ASSERT_EQ(wait_us.size(), 2u);
  EXPECT_EQ(wait_us[1], 0.0);
  EXPECT_GT(wait_us[2], 0.5e6);
}

// Detaching the replica a key hashed to moves that key to another replica
// and leaves every other key where it was. The ring itself loses the
// detached target's virtual nodes: lookups skip detached ids anyway, so
// only the ring's size shows the removal.
TEST(DispatchEngineTest, ConsistentHashDetachMovesOnlyTheDetachedKeys) {
  ConsistentHashSelector selector;
  EngineBench bench(4, DispatchConfig{}, ReplicaConfig{}, &selector);
  std::vector<std::string> keys;
  std::map<std::string, ReplicaId> before;
  for (int i = 0; i < 16; ++i) {
    keys.push_back("user-" + std::to_string(i));
    before[keys.back()] =
        bench.Serve(MakeRequest(static_cast<RequestId>(i), 16, 2, keys.back(),
                                static_cast<Token>(i) * 100));
  }
  const ReplicaId detached = before[keys[0]];
  ASSERT_NE(detached, kInvalidReplica);
  const size_t targets = selector.ring().num_targets();
  const size_t vnodes = selector.ring().num_vnodes();
  ASSERT_EQ(targets, 4u);
  ASSERT_TRUE(bench.engine->DetachReplica(detached));
  EXPECT_EQ(selector.ring().num_targets(), targets - 1);
  EXPECT_EQ(selector.ring().num_vnodes(), vnodes - vnodes / targets);
  EXPECT_FALSE(selector.ring().Contains(detached));
  for (int i = 0; i < 16; ++i) {
    const std::string& key = keys[static_cast<size_t>(i)];
    const ReplicaId after =
        bench.Serve(MakeRequest(static_cast<RequestId>(100 + i), 16, 2, key,
                                static_cast<Token>(i) * 100));
    ASSERT_NE(after, kInvalidReplica) << key;
    EXPECT_NE(after, detached) << key;
    if (before[key] != detached) {
      EXPECT_EQ(after, before[key]) << key;
    }
  }
}

// A prompt whose cached prefix lived on a detached replica is placed
// elsewhere, and its repeats then follow it to the new replica. The router
// forgets the detached worker's tree estimate: attached again, it is the
// emptiest worker and takes the next new prompt.
TEST(DispatchEngineTest, SglDetachReroutesThePrompt) {
  SglRouterSelector selector;
  EngineBench bench(3, DispatchConfig{}, ReplicaConfig{}, &selector);
  const ReplicaId first = bench.Serve(MakeRequest(1, 64, 2));
  ASSERT_NE(first, kInvalidReplica);
  EXPECT_EQ(bench.Serve(MakeRequest(2, 64, 2)), first);  // Prefix affinity.
  ASSERT_TRUE(bench.engine->DetachReplica(first));
  const ReplicaId moved = bench.Serve(MakeRequest(3, 64, 2));
  ASSERT_NE(moved, kInvalidReplica);
  EXPECT_NE(moved, first);
  EXPECT_EQ(bench.Serve(MakeRequest(4, 64, 2)), moved);
  // A new prompt fills the other worker, so both attached workers now hold
  // a tree of the same estimated size.
  const ReplicaId other = bench.Serve(MakeRequest(5, 64, 2, "k", 2000));
  EXPECT_NE(other, first);
  EXPECT_NE(other, moved);
  bench.engine->AttachReplica(bench.replicas[static_cast<size_t>(first)].get());
  EXPECT_EQ(bench.Serve(MakeRequest(6, 64, 2, "k", 4000)), first);
}

}  // namespace
}  // namespace skywalker
