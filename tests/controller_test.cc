// Tests for the centralized controller (§4.2): LB failure detection, replica
// reassignment to the nearest healthy LB, recovery hand-back, multiple
// concurrent failures, and the DNS resolver's failover behaviour.

#include <gtest/gtest.h>

#include <memory>

#include "src/core/controller.h"
#include "src/core/deployment.h"
#include "src/core/dns.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"

namespace skywalker {
namespace {

struct ControllerBench {
  Simulator sim;
  Topology topology = Topology::ThreeContinents();
  std::unique_ptr<Network> net;
  std::unique_ptr<Deployment> deployment;

  explicit ControllerBench(SimDuration auto_recovery = 0) {
    net = std::make_unique<Network>(&sim, topology);
    DeploymentSpec spec;
    spec.replicas_per_region = {2, 2, 2};
    spec.controller_config.health_probe_interval = Milliseconds(200);
    spec.controller_config.auto_recovery_delay = auto_recovery;
    deployment = Deployment::Build(&sim, net.get(), spec);
    deployment->Start();
  }
};

TEST(ControllerTest, FailoverMovesReplicasToNearestLb) {
  ControllerBench bench;
  SkyWalkerLb* us = bench.deployment->LbInRegion(0);
  SkyWalkerLb* eu = bench.deployment->LbInRegion(1);
  ASSERT_NE(us, nullptr);
  ASSERT_NE(eu, nullptr);
  EXPECT_EQ(eu->num_replicas(), 2u);

  eu->Fail();
  bench.sim.RunFor(Seconds(1));  // Health probe detects, failover runs.

  const Controller* controller = bench.deployment->controller();
  EXPECT_EQ(controller->stats().failovers_handled, 1);
  EXPECT_EQ(controller->stats().replicas_reassigned, 2);
  EXPECT_EQ(eu->num_replicas(), 0u);
  // eu-west's nearest healthy LB in ThreeContinents is us-east (40 ms).
  EXPECT_EQ(us->num_replicas(), 4u);
}

TEST(ControllerTest, RecoveryReturnsReplicas) {
  ControllerBench bench;
  SkyWalkerLb* us = bench.deployment->LbInRegion(0);
  SkyWalkerLb* eu = bench.deployment->LbInRegion(1);
  eu->Fail();
  bench.sim.RunFor(Seconds(1));
  ASSERT_EQ(us->num_replicas(), 4u);

  bench.deployment->controller()->RecoverLb(eu->id());
  EXPECT_EQ(eu->num_replicas(), 2u);
  EXPECT_EQ(us->num_replicas(), 2u);
  EXPECT_TRUE(eu->healthy());
  EXPECT_EQ(bench.deployment->controller()->stats().recoveries_completed, 1);
}

TEST(ControllerTest, AutoRecoveryFiresAfterDelay) {
  ControllerBench bench(/*auto_recovery=*/Seconds(5));
  SkyWalkerLb* eu = bench.deployment->LbInRegion(1);
  eu->Fail();
  bench.sim.RunFor(Seconds(1));
  EXPECT_FALSE(eu->healthy());
  bench.sim.RunFor(Seconds(6));
  EXPECT_TRUE(eu->healthy());
  EXPECT_EQ(eu->num_replicas(), 2u);
}

TEST(ControllerTest, ToleratesConcurrentFailures) {
  ControllerBench bench;
  SkyWalkerLb* us = bench.deployment->LbInRegion(0);
  SkyWalkerLb* eu = bench.deployment->LbInRegion(1);
  SkyWalkerLb* ap = bench.deployment->LbInRegion(2);
  eu->Fail();
  ap->Fail();
  bench.sim.RunFor(Seconds(1));
  // The last healthy LB absorbs everything.
  EXPECT_EQ(us->num_replicas(), 6u);
  EXPECT_EQ(bench.deployment->controller()->stats().failovers_handled, 2);

  bench.deployment->controller()->RecoverLb(eu->id());
  bench.deployment->controller()->RecoverLb(ap->id());
  EXPECT_EQ(us->num_replicas(), 2u);
  EXPECT_EQ(eu->num_replicas(), 2u);
  EXPECT_EQ(ap->num_replicas(), 2u);
}

TEST(ControllerTest, RecoverLbIsIdempotent) {
  ControllerBench bench;
  SkyWalkerLb* eu = bench.deployment->LbInRegion(1);
  EXPECT_FALSE(bench.deployment->controller()->RecoverLb(eu->id()));
  eu->Fail();
  bench.sim.RunFor(Seconds(1));
  EXPECT_TRUE(bench.deployment->controller()->RecoverLb(eu->id()));
  EXPECT_FALSE(bench.deployment->controller()->RecoverLb(eu->id()));
}

TEST(ControllerTest, AddAndRemoveReplicaAtRuntime) {
  ControllerBench bench;
  SkyWalkerLb* us = bench.deployment->LbInRegion(0);
  Replica extra(&bench.sim, 99, 0, ReplicaConfig{});
  us->AttachReplica(&extra);
  EXPECT_EQ(us->num_replicas(), 3u);
  us->DetachReplica(99);
  EXPECT_EQ(us->num_replicas(), 2u);
}

TEST(DnsResolverTest, ResolvesNearestHealthy) {
  ControllerBench bench;
  FrontendResolver* resolver = bench.deployment->resolver();
  Frontend* for_eu_client = resolver->Resolve(1);
  ASSERT_NE(for_eu_client, nullptr);
  EXPECT_EQ(for_eu_client->region(), 1);

  // EU LB fails: EU clients re-resolve to the nearest healthy LB (us-east,
  // 40 ms from eu-west in the ThreeContinents topology).
  bench.deployment->LbInRegion(1)->Fail();
  Frontend* failover = resolver->Resolve(1);
  ASSERT_NE(failover, nullptr);
  EXPECT_EQ(failover->region(), 0);
}

TEST(DnsResolverTest, ReturnsNullWhenAllDown) {
  ControllerBench bench;
  for (const auto& lb : bench.deployment->lbs()) {
    lb->Fail();
  }
  EXPECT_EQ(bench.deployment->resolver()->Resolve(0), nullptr);
}

TEST(DeploymentTest, BuildsFullMesh) {
  ControllerBench bench;
  EXPECT_EQ(bench.deployment->lbs().size(), 3u);
  EXPECT_EQ(bench.deployment->replicas().size(), 6u);
  for (const auto& lb : bench.deployment->lbs()) {
    EXPECT_EQ(lb->num_peers(), 2u);
    EXPECT_EQ(lb->num_replicas(), 2u);
  }
}

TEST(DeploymentTest, RejectsMismatchedRegionCount) {
  Simulator sim;
  Network net(&sim, Topology::ThreeContinents());
  DeploymentSpec spec;
  spec.replicas_per_region = {1, 1};  // Only 2 entries for 3 regions.
  EXPECT_DEATH(Deployment::Build(&sim, &net, spec), "replicas_per_region");
}

}  // namespace
}  // namespace skywalker
