// Unit tests for the baseline load-balancer framework: pushing disciplines
// (BP / SP-O / SP-P), the four baseline policies, and queueing behaviour.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/lb/policies.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"

namespace skywalker {
namespace {

struct TestBench {
  Simulator sim;
  std::unique_ptr<Network> net;
  std::vector<std::unique_ptr<Replica>> replicas;

  explicit TestBench(int num_replicas, ReplicaConfig rconfig = {}) {
    Topology topology;
    topology.AddRegion("local", Milliseconds(1));
    net = std::make_unique<Network>(&sim, topology);
    for (int i = 0; i < num_replicas; ++i) {
      replicas.push_back(std::make_unique<Replica>(&sim, i, 0, rconfig));
    }
  }
};

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

TEST(RoundRobinLbTest, CyclesThroughReplicas) {
  TestBench bench(3);
  LbConfig config;
  RoundRobinLb lb(&bench.sim, bench.net.get(), 0, 0, config);
  for (auto& replica : bench.replicas) {
    lb.AttachReplica(replica.get());
  }
  lb.Start();
  int completed = 0;
  for (int i = 0; i < 9; ++i) {
    lb.HandleRequest(MakeRequest(static_cast<RequestId>(i), 32, 4, "k",
                                 static_cast<Token>(i) * 1000),
                     CountCompletions(&completed));
  }
  bench.sim.Run();
  EXPECT_EQ(completed, 9);
  // Blind round robin: exactly 3 requests per replica.
  for (auto& replica : bench.replicas) {
    EXPECT_EQ(replica->stats().enqueued, 3);
  }
}

TEST(LeastLoadLbTest, PrefersIdleReplica) {
  TestBench bench(2);
  LbConfig config;
  LeastLoadLb lb(&bench.sim, bench.net.get(), 0, 0, config);
  for (auto& replica : bench.replicas) {
    lb.AttachReplica(replica.get());
  }
  lb.Start();
  int completed = 0;
  // First request: long decode keeps replica busy.
  lb.HandleRequest(MakeRequest(1, 32, 400, "a", 0),
                   CountCompletions(&completed));
  bench.sim.RunFor(Seconds(1));
  // Next requests should all land on the other replica (least outstanding).
  for (int i = 2; i <= 4; ++i) {
    lb.HandleRequest(MakeRequest(static_cast<RequestId>(i), 32, 4, "b",
                                 static_cast<Token>(i) * 1000),
                     CountCompletions(&completed));
  }
  bench.sim.Run();
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(bench.replicas[0]->stats().enqueued +
                bench.replicas[1]->stats().enqueued,
            4);
  // The idle replica must absorb most of the short requests (ties during
  // the burst may alternate, so it gets at least 2 of the 3).
  EXPECT_GE(bench.replicas[1]->stats().enqueued, 2);
  EXPECT_LE(bench.replicas[0]->stats().enqueued, 2);
}

TEST(ConsistentHashLbTest, SameKeySameReplica) {
  TestBench bench(4);
  LbConfig config;
  ConsistentHashLb lb(&bench.sim, bench.net.get(), 0, 0, config);
  for (auto& replica : bench.replicas) {
    lb.AttachReplica(replica.get());
  }
  lb.Start();
  int completed = 0;
  for (int i = 0; i < 8; ++i) {
    lb.HandleRequest(MakeRequest(static_cast<RequestId>(i), 32, 4, "sticky",
                                 static_cast<Token>(i) * 1000),
                     CountCompletions(&completed));
  }
  bench.sim.Run();
  EXPECT_EQ(completed, 8);
  int with_work = 0;
  for (auto& replica : bench.replicas) {
    if (replica->stats().enqueued > 0) {
      ++with_work;
      EXPECT_EQ(replica->stats().enqueued, 8);
    }
  }
  EXPECT_EQ(with_work, 1);
}

TEST(ConsistentHashLbTest, DifferentKeysSpread) {
  TestBench bench(4);
  LbConfig config;
  ConsistentHashLb lb(&bench.sim, bench.net.get(), 0, 0, config);
  for (auto& replica : bench.replicas) {
    lb.AttachReplica(replica.get());
  }
  lb.Start();
  int completed = 0;
  for (int i = 0; i < 64; ++i) {
    lb.HandleRequest(
        MakeRequest(static_cast<RequestId>(i), 16, 2,
                    "user-" + std::to_string(i),
                    static_cast<Token>(i) * 1000),
        CountCompletions(&completed));
  }
  bench.sim.Run();
  EXPECT_EQ(completed, 64);
  int with_work = 0;
  for (auto& replica : bench.replicas) {
    if (replica->stats().enqueued > 0) {
      ++with_work;
    }
  }
  EXPECT_GE(with_work, 3);  // Keys spread across most replicas.
}

TEST(SglRouterLbTest, RoutesSharedPrefixToSameReplica) {
  TestBench bench(4);
  LbConfig config;
  SglRouterLb lb(&bench.sim, bench.net.get(), 0, 0, config);
  for (auto& replica : bench.replicas) {
    lb.AttachReplica(replica.get());
  }
  lb.Start();
  int completed = 0;
  // Same long prompt repeatedly: after the first routing, the trie should
  // map it to one replica.
  for (int i = 0; i < 6; ++i) {
    lb.HandleRequest(MakeRequest(static_cast<RequestId>(i), 128, 4, "k", 0),
                     CountCompletions(&completed));
  }
  bench.sim.Run();
  EXPECT_EQ(completed, 6);
  int with_work = 0;
  for (auto& replica : bench.replicas) {
    if (replica->stats().enqueued > 0) {
      ++with_work;
    }
  }
  EXPECT_EQ(with_work, 1);
  // And the replica-side cache benefited.
  double hit_rate = 0;
  for (auto& replica : bench.replicas) {
    hit_rate = std::max(hit_rate, replica->cache().HitRate());
  }
  EXPECT_GT(hit_rate, 0.5);
}

TEST(SglRouterLbTest, LowAffinityFallsBackToLeastLoad) {
  TestBench bench(2);
  LbConfig config;
  SglRouterLb lb(&bench.sim, bench.net.get(), 0, 0, config);
  for (auto& replica : bench.replicas) {
    lb.AttachReplica(replica.get());
  }
  lb.Start();
  int completed = 0;
  // All-distinct prompts: no prefix info, must spread by load.
  for (int i = 0; i < 10; ++i) {
    lb.HandleRequest(MakeRequest(static_cast<RequestId>(i), 64, 64,
                                 "k" + std::to_string(i),
                                 static_cast<Token>(i + 1) * 100000),
                     CountCompletions(&completed));
  }
  bench.sim.Run();
  EXPECT_EQ(completed, 10);
  EXPECT_GT(bench.replicas[0]->stats().enqueued, 0);
  EXPECT_GT(bench.replicas[1]->stats().enqueued, 0);
}

TEST(PushModeTest, SpoCapsOutstandingPerReplica) {
  ReplicaConfig rconfig;
  rconfig.kv_capacity_tokens = 100000;
  TestBench bench(1, rconfig);
  LbConfig config;
  config.engine.push_mode = PushMode::kSelectiveOutstanding;
  config.engine.max_outstanding_per_replica = 4;
  LeastLoadLb lb(&bench.sim, bench.net.get(), 0, 0, config);
  lb.AttachReplica(bench.replicas[0].get());
  lb.Start();
  int completed = 0;
  for (int i = 0; i < 12; ++i) {
    lb.HandleRequest(MakeRequest(static_cast<RequestId>(i), 64, 64, "k",
                                 static_cast<Token>(i) * 10000),
                     CountCompletions(&completed));
  }
  bench.sim.RunFor(Milliseconds(20));
  // At most 4 in flight; the rest wait at the LB.
  EXPECT_LE(bench.replicas[0]->outstanding_count(), 4);
  EXPECT_GE(lb.queue_length(), 8u);
  // The probe loop never drains the event queue; run for bounded sim time.
  bench.sim.RunFor(Seconds(600));
  EXPECT_EQ(completed, 12);
}

TEST(PushModeTest, SppQueuesWhenReplicaFull) {
  // Tiny replica: batch fills, pending queue grows, SP-P must hold back.
  ReplicaConfig rconfig;
  rconfig.kv_capacity_tokens = 1200;
  rconfig.output_reserve_tokens = 128;
  TestBench bench(1, rconfig);
  LbConfig config;
  config.engine.push_mode = PushMode::kSelectivePending;
  config.engine.push_slack = 2;
  config.engine.probe_interval = Milliseconds(100);
  LeastLoadLb lb(&bench.sim, bench.net.get(), 0, 0, config);
  lb.AttachReplica(bench.replicas[0].get());
  lb.Start();
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    lb.HandleRequest(MakeRequest(static_cast<RequestId>(i), 300, 100, "k",
                                 static_cast<Token>(i) * 10000),
                     CountCompletions(&completed));
  }
  bench.sim.RunFor(Seconds(2));
  // SP-P with slack 2 never lets the replica pending queue exceed the burst
  // bound between probes.
  EXPECT_LE(bench.replicas[0]->stats().peak_pending, 3);
  EXPECT_GT(lb.queue_length(), 0u);
  bench.sim.RunFor(Seconds(600));
  EXPECT_EQ(completed, 10);
}

TEST(PushModeTest, BlindPushingFloodsReplicaQueue) {
  ReplicaConfig rconfig;
  rconfig.kv_capacity_tokens = 1200;
  rconfig.output_reserve_tokens = 128;
  TestBench bench(1, rconfig);
  LbConfig config;
  config.engine.push_mode = PushMode::kBlind;
  LeastLoadLb lb(&bench.sim, bench.net.get(), 0, 0, config);
  lb.AttachReplica(bench.replicas[0].get());
  lb.Start();
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    lb.HandleRequest(MakeRequest(static_cast<RequestId>(i), 300, 100, "k",
                                 static_cast<Token>(i) * 10000),
                     CountCompletions(&completed));
  }
  bench.sim.RunFor(Seconds(2));
  // Everything lands on the replica immediately: deep pending queue.
  EXPECT_GE(bench.replicas[0]->stats().peak_pending, 5);
  EXPECT_EQ(lb.queue_length(), 0u);
  bench.sim.Run();
  EXPECT_EQ(completed, 10);
}

TEST(LoadBalancerTest, OutcomeTimestampsIncludeNetworkPath) {
  // Client in a remote region: TTFT must include two cross-region one-way
  // trips (to LB and back) on top of prefill.
  Simulator sim;
  Topology topology;
  RegionId us = topology.AddRegion("us", Milliseconds(1));
  RegionId ap = topology.AddRegion("ap", Milliseconds(1));
  topology.SetLatency(us, ap, Milliseconds(85));
  Network net(&sim, topology);
  Replica replica(&sim, 0, us, ReplicaConfig{});
  LbConfig config;
  RoundRobinLb lb(&sim, &net, 0, us, config);
  lb.AttachReplica(&replica);
  lb.Start();

  Request req = MakeRequest(1, 512, 4);
  req.client_region = ap;
  req.submit_time = sim.now();
  RequestOutcome observed;
  RequestCallbacks callbacks;
  callbacks.on_complete = [&](const RequestOutcome& o) { observed = o; };
  // Model the client->LB trip explicitly as SubmitViaNetwork would.
  net.Send(ap, us, [&lb, req, callbacks]() mutable {
    lb.HandleRequest(std::move(req), std::move(callbacks));
  });
  sim.Run();
  SimDuration ttft = observed.first_token_time - observed.submit_time;
  // >= 2 * 85 ms network + ~300 ms prefill.
  EXPECT_GT(ttft, Milliseconds(450));
  EXPECT_LT(ttft, Milliseconds(700));
  EXPECT_EQ(observed.served_region, us);
  EXPECT_EQ(observed.client_region, ap);
}

TEST(LoadBalancerTest, StatsTrackLifecycle) {
  TestBench bench(2);
  LbConfig config;
  RoundRobinLb lb(&bench.sim, bench.net.get(), 0, 0, config);
  for (auto& replica : bench.replicas) {
    lb.AttachReplica(replica.get());
  }
  lb.Start();
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    lb.HandleRequest(MakeRequest(static_cast<RequestId>(i), 16, 2, "k",
                                 static_cast<Token>(i) * 100),
                     CountCompletions(&completed));
  }
  bench.sim.Run();
  EXPECT_EQ(lb.stats().received, 4);
  EXPECT_EQ(lb.stats().dispatched, 4);
  EXPECT_EQ(lb.stats().completed, 4);
}

}  // namespace
}  // namespace skywalker
