// Unit tests for the GKE-Gateway-style multi-cluster baseline: local-first
// routing, capacity spill to the nearest cluster, least-connection placement
// within a cluster, and response-path accounting.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/lb/gateway.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"

namespace skywalker {
namespace {

struct GatewayBench {
  Simulator sim;
  Topology topology = Topology::ThreeContinents();
  std::unique_ptr<Network> net;
  std::unique_ptr<GatewayLb> gateway;
  std::vector<std::unique_ptr<Replica>> replicas;

  explicit GatewayBench(GatewayConfig config = {},
                        ReplicaConfig rconfig = {}) {
    net = std::make_unique<Network>(&sim, topology);
    gateway = std::make_unique<GatewayLb>(&sim, net.get(), config);
    ReplicaId next = 0;
    for (RegionId region = 0; region < 3; ++region) {
      for (int i = 0; i < 2; ++i) {
        replicas.push_back(
            std::make_unique<Replica>(&sim, next++, region, rconfig));
        gateway->AttachReplica(replicas.back().get());
      }
    }
  }

  int64_t EnqueuedInRegion(RegionId region) {
    int64_t total = 0;
    for (auto& replica : replicas) {
      if (replica->region() == region) {
        total += replica->stats().enqueued;
      }
    }
    return total;
  }
};

Request MakeRequest(RequestId id, RegionId client_region, int64_t prompt_len,
                    int64_t output_len, Token base) {
  Request req;
  req.id = id;
  req.client_region = client_region;
  TokenSeq prompt;
  for (int64_t i = 0; i < prompt_len; ++i) {
    prompt.push_back(base + static_cast<Token>(i));
  }
  TokenSeq output;
  for (int64_t i = 0; i < output_len; ++i) {
    output.push_back(700000 + base + static_cast<Token>(i));
  }
  req.prompt = std::move(prompt);
  req.output = std::move(output);
  return req;
}

TEST(GatewayTest, RoutesToLocalClusterWhenUnderThreshold) {
  GatewayBench bench;
  int completed = 0;
  RequestCallbacks callbacks;
  callbacks.on_complete = [&](const RequestOutcome& o) {
    ++completed;
    EXPECT_FALSE(o.forwarded);
    EXPECT_EQ(o.served_region, 1);
  };
  Frontend* eu = bench.gateway->EndpointFor(1);
  for (int i = 0; i < 4; ++i) {
    eu->HandleRequest(MakeRequest(static_cast<RequestId>(i), 1, 64, 8,
                                  static_cast<Token>(i) * 1000),
                      callbacks);
  }
  bench.sim.Run();
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(bench.EnqueuedInRegion(1), 4);
  EXPECT_EQ(bench.gateway->stats().spilled, 0);
}

TEST(GatewayTest, SpillsToNearestClusterWhenSaturated) {
  GatewayConfig config;
  config.spill_outstanding_per_replica = 2.0;  // Saturates quickly.
  GatewayBench bench(config);
  int completed = 0;
  RequestCallbacks callbacks;
  callbacks.on_complete = [&](const RequestOutcome&) { ++completed; };
  Frontend* us = bench.gateway->EndpointFor(0);
  for (int i = 0; i < 24; ++i) {
    // Long decodes keep outstanding counts up.
    us->HandleRequest(MakeRequest(static_cast<RequestId>(i), 0, 64, 200,
                                  static_cast<Token>(i) * 100000),
                      callbacks);
  }
  bench.sim.RunFor(Milliseconds(200));
  EXPECT_GT(bench.gateway->stats().spilled, 0);
  // Spill goes to eu-west (nearest to us-east in ThreeContinents).
  EXPECT_GT(bench.EnqueuedInRegion(1), 0);
  bench.sim.Run();
  EXPECT_EQ(completed, 24);
}

TEST(GatewayTest, LeastConnectionWithinCluster) {
  GatewayBench bench;
  int completed = 0;
  RequestCallbacks callbacks;
  callbacks.on_complete = [&](const RequestOutcome&) { ++completed; };
  Frontend* ap = bench.gateway->EndpointFor(2);
  for (int i = 0; i < 8; ++i) {
    ap->HandleRequest(MakeRequest(static_cast<RequestId>(i), 2, 64, 64,
                                  static_cast<Token>(i) * 10000),
                      callbacks);
  }
  bench.sim.Run();
  EXPECT_EQ(completed, 8);
  // Both ap replicas took work (least-connection alternates).
  EXPECT_EQ(bench.replicas[4]->stats().enqueued, 4);
  EXPECT_EQ(bench.replicas[5]->stats().enqueued, 4);
}

TEST(GatewayTest, EndpointPerRegionIsStable) {
  GatewayBench bench;
  Frontend* a = bench.gateway->EndpointFor(0);
  Frontend* b = bench.gateway->EndpointFor(0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->region(), 0);
  EXPECT_NE(bench.gateway->EndpointFor(1), a);
}

TEST(GatewayTest, SpilledResponsePathCountsTwoHops) {
  GatewayConfig config;
  config.spill_outstanding_per_replica = 0.5;  // Spill almost immediately.
  GatewayBench bench(config);
  std::vector<RequestOutcome> outcomes;
  RequestCallbacks callbacks;
  callbacks.on_complete = [&](const RequestOutcome& o) {
    outcomes.push_back(o);
  };
  Frontend* us = bench.gateway->EndpointFor(0);
  for (int i = 0; i < 6; ++i) {
    us->HandleRequest(MakeRequest(static_cast<RequestId>(i), 0, 64, 150,
                                  static_cast<Token>(i) * 100000),
                      callbacks);
  }
  bench.sim.Run();
  ASSERT_EQ(outcomes.size(), 6u);
  bool saw_spill = false;
  for (const auto& o : outcomes) {
    if (o.forwarded) {
      saw_spill = true;
      EXPECT_EQ(o.hops, 2);
      EXPECT_NE(o.served_region, 0);
    }
  }
  EXPECT_TRUE(saw_spill);
}

}  // namespace
}  // namespace skywalker
