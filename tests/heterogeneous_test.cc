// §7 extension tests: heterogeneous accelerators and request-characteristic
// (short-prompt) routing.
//
// The paper argues selective pushing by pending requests is hardware-
// agnostic: the availability signal comes from each engine's own pending
// queue, so mixed fleets self-balance without per-device configuration.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/analysis/metrics.h"
#include "src/core/skywalker_lb.h"
#include "src/lb/policies.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"
#include "src/workload/client.h"

namespace skywalker {
namespace {

ReplicaConfig FastDevice() {
  ReplicaConfig config;
  config.prefill_us_per_token = 275.0;  // ~2x an L4.
  config.decode_us_per_seq = 200.0;
  config.step_base_us = 12000.0;
  config.max_running_requests = 32;
  return config;
}

ReplicaConfig SlowDevice() {
  ReplicaConfig config;
  config.max_running_requests = 32;
  return config;
}

struct MixedFleet {
  Simulator sim;
  std::unique_ptr<Network> net;
  std::vector<std::unique_ptr<Replica>> replicas;  // [0]=fast, [1]=slow.
  std::unique_ptr<SglRouterLb> lb;
  std::unique_ptr<SingleFrontendResolver> resolver;
  MetricsCollector metrics;

  explicit MixedFleet(PushMode mode) {
    Topology topology;
    topology.AddRegion("local", Milliseconds(1));
    net = std::make_unique<Network>(&sim, topology);
    replicas.push_back(std::make_unique<Replica>(&sim, 0, 0, FastDevice()));
    replicas.push_back(std::make_unique<Replica>(&sim, 1, 0, SlowDevice()));
    DispatchConfig config;
    config.push_mode = mode;
    lb = std::make_unique<SglRouterLb>(&sim, net.get(), 0, 0, config);
    for (auto& replica : replicas) {
      lb->AttachReplica(replica.get());
    }
    lb->Start();
    resolver = std::make_unique<SingleFrontendResolver>(lb.get());
  }
};

TEST(HeterogeneousTest, PendingSignalShiftsLoadTowardFastDevice) {
  MixedFleet fleet(PushMode::kSelectivePending);
  ConversationGenerator gen(ConversationWorkloadConfig::WildChat(), 1, 31);
  ClientConfig client_config;
  client_config.think_time_mean = Milliseconds(300);
  client_config.program_gap_mean = Milliseconds(300);
  std::vector<std::unique_ptr<ConversationClient>> clients;
  for (int i = 0; i < 70; ++i) {
    clients.push_back(std::make_unique<ConversationClient>(
        &fleet.sim, fleet.net.get(), fleet.resolver.get(), &gen,
        &fleet.metrics, 0, client_config, 100 + static_cast<uint64_t>(i)));
    clients.back()->Start(Milliseconds(40 * i));
  }
  fleet.sim.RunUntil(Seconds(120));

  int64_t fast = fleet.replicas[0]->stats().completed;
  int64_t slow = fleet.replicas[1]->stats().completed;
  ASSERT_GT(fast + slow, 100);
  // The fast device must absorb more work — purely from the pending signal.
  EXPECT_GT(fast, slow);
  double share = static_cast<double>(fast) / static_cast<double>(fast + slow);
  EXPECT_GT(share, 0.55);
}

TEST(HeterogeneousTest, MixedFleetCompletesEverythingUnderAllModes) {
  for (PushMode mode : {PushMode::kBlind, PushMode::kSelectiveOutstanding,
                        PushMode::kSelectivePending}) {
    MixedFleet fleet(mode);
    ConversationGenerator gen(ConversationWorkloadConfig::Arena(), 1, 33);
    ClientConfig client_config;
    client_config.think_time_mean = Milliseconds(500);
    client_config.stop_issuing_after = Seconds(30);
    std::vector<std::unique_ptr<ConversationClient>> clients;
    for (int i = 0; i < 20; ++i) {
      clients.push_back(std::make_unique<ConversationClient>(
          &fleet.sim, fleet.net.get(), fleet.resolver.get(), &gen,
          &fleet.metrics, 0, client_config, 200 + static_cast<uint64_t>(i)));
      clients.back()->Start();
    }
    fleet.sim.RunUntil(Seconds(300));
    size_t issued = 0;
    for (auto& client : clients) {
      issued += client->completed_requests();
    }
    EXPECT_GT(issued, 40u) << "mode " << static_cast<int>(mode);
    // No request may be stranded: all client-visible completions recorded.
    EXPECT_EQ(fleet.metrics.total_recorded(), issued);
  }
}

struct ShortPromptBench {
  Simulator sim;
  std::unique_ptr<Network> net;
  std::vector<std::unique_ptr<Replica>> replicas;
  std::unique_ptr<SkyWalkerLb> lb;

  explicit ShortPromptBench(int64_t threshold) {
    Topology topology;
    topology.AddRegion("local", Milliseconds(1));
    net = std::make_unique<Network>(&sim, topology);
    SkyWalkerConfig config;
    config.routing.short_prompt_threshold = threshold;
    lb = std::make_unique<SkyWalkerLb>(&sim, net.get(), 0, 0, config);
    for (ReplicaId i = 0; i < 2; ++i) {
      replicas.push_back(
          std::make_unique<Replica>(&sim, i, 0, ReplicaConfig{}));
      lb->AttachReplica(replicas.back().get());
    }
    lb->Start();
  }

  void Send(RequestId id, int64_t prompt_len, Token base) {
    Request req;
    req.id = id;
    req.client_region = 0;
    req.routing_key = "k";
    TokenSeq prompt;
    for (int64_t i = 0; i < prompt_len; ++i) {
      prompt.push_back(base + static_cast<Token>(i));
    }
    TokenSeq output;
    for (int i = 0; i < 8; ++i) {
      output.push_back(800000 + base + i);
    }
    req.prompt = std::move(prompt);
    req.output = std::move(output);
    lb->HandleRequest(std::move(req), {});
  }
};

TEST(ShortPromptRoutingTest, ShortPromptsSpreadByLoadInsteadOfTrie) {
  ShortPromptBench bench(/*threshold=*/128);
  bench.sim.RunFor(Milliseconds(300));
  // Identical short prompt repeatedly: without the heuristic the trie would
  // pin all of them to one replica; with it they spread by outstanding load.
  for (int i = 0; i < 12; ++i) {
    bench.Send(static_cast<RequestId>(i), 32, 0);
  }
  bench.sim.RunFor(Seconds(60));
  EXPECT_GT(bench.replicas[0]->stats().enqueued, 0);
  EXPECT_GT(bench.replicas[1]->stats().enqueued, 0);
}

TEST(ShortPromptRoutingTest, LongPromptsStillFollowTrie) {
  ShortPromptBench bench(/*threshold=*/128);
  bench.sim.RunFor(Milliseconds(300));
  for (int i = 0; i < 6; ++i) {
    bench.Send(static_cast<RequestId>(i), 512, 0);
    bench.sim.RunFor(Seconds(20));  // Sequential: affinity visible.
  }
  // All long requests stick to one replica (prefix affinity).
  int used = 0;
  for (auto& replica : bench.replicas) {
    if (replica->stats().enqueued > 0) {
      ++used;
    }
  }
  EXPECT_EQ(used, 1);
}

TEST(ShortPromptRoutingTest, DisabledThresholdKeepsTrieForShortPrompts) {
  ShortPromptBench bench(/*threshold=*/0);
  bench.sim.RunFor(Milliseconds(300));
  for (int i = 0; i < 6; ++i) {
    bench.Send(static_cast<RequestId>(i), 32, 0);
    bench.sim.RunFor(Seconds(10));
  }
  int used = 0;
  for (auto& replica : bench.replicas) {
    if (replica->stats().enqueued > 0) {
      ++used;
    }
  }
  EXPECT_EQ(used, 1);  // Trie affinity applies even to short prompts.
}

}  // namespace
}  // namespace skywalker
