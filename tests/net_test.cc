// Unit tests for the topology and network model.

#include <gtest/gtest.h>

#include "src/net/network.h"
#include "src/net/topology.h"
#include "src/sim/sharded_simulator.h"
#include "src/sim/simulator.h"

namespace skywalker {
namespace {

TEST(TopologyTest, AddRegionAssignsSequentialIds) {
  Topology t;
  EXPECT_EQ(t.AddRegion("a"), 0);
  EXPECT_EQ(t.AddRegion("b"), 1);
  EXPECT_EQ(t.num_regions(), 2u);
  EXPECT_EQ(t.name(0), "a");
}

TEST(TopologyTest, IntraRegionLatencyDefaults) {
  Topology t;
  RegionId a = t.AddRegion("a", Milliseconds(2));
  EXPECT_EQ(t.Latency(a, a), Milliseconds(2));
}

TEST(TopologyTest, SetLatencySymmetric) {
  Topology t;
  RegionId a = t.AddRegion("a");
  RegionId b = t.AddRegion("b");
  t.SetLatency(a, b, Milliseconds(42));
  EXPECT_EQ(t.Latency(a, b), Milliseconds(42));
  EXPECT_EQ(t.Latency(b, a), Milliseconds(42));
}

TEST(TopologyTest, UnsetPairsUseDefault) {
  Topology t;
  RegionId a = t.AddRegion("a");
  RegionId b = t.AddRegion("b");
  EXPECT_EQ(t.Latency(a, b), Topology::kDefaultInterRegionLatency);
}

TEST(TopologyTest, LatenciesSurviveLaterAddRegion) {
  Topology t;
  RegionId a = t.AddRegion("a");
  RegionId b = t.AddRegion("b");
  t.SetLatency(a, b, Milliseconds(33));
  RegionId c = t.AddRegion("c");
  EXPECT_EQ(t.Latency(a, b), Milliseconds(33));
  EXPECT_EQ(t.Latency(a, c), Topology::kDefaultInterRegionLatency);
}

TEST(TopologyTest, ThreeContinentsWithinPaperEnvelope) {
  Topology t = Topology::ThreeContinents();
  ASSERT_EQ(t.num_regions(), 3u);
  for (RegionId a = 0; a < 3; ++a) {
    for (RegionId b = 0; b < 3; ++b) {
      if (a == b) {
        EXPECT_LE(t.Latency(a, b), Milliseconds(5));
      } else {
        // One-way <= 100 ms, i.e. RTT <= 200 ms (§2.1).
        EXPECT_LE(t.Latency(a, b), Milliseconds(100));
        EXPECT_GE(t.Latency(a, b), Milliseconds(20));
      }
    }
  }
}

TEST(NetworkTest, DeliversAfterLatency) {
  Simulator sim;
  Topology t;
  RegionId a = t.AddRegion("a");
  RegionId b = t.AddRegion("b");
  t.SetLatency(a, b, Milliseconds(40));
  Network net(&sim, t);

  SimTime delivered = -1;
  net.Send(a, b, [&] { delivered = sim.now(); });
  sim.Run();
  EXPECT_EQ(delivered, Milliseconds(40));
}

TEST(NetworkTest, CountsCrossRegionMessages) {
  Simulator sim;
  Topology t;
  RegionId a = t.AddRegion("a");
  RegionId b = t.AddRegion("b");
  Network net(&sim, t);
  net.Send(a, a, [] {});
  net.Send(a, b, [] {});
  net.Send(b, a, [] {});
  sim.Run();
  EXPECT_EQ(net.messages_sent(), 3u);
  EXPECT_EQ(net.cross_region_messages(), 2u);
}

TEST(NetworkTest, ShardedCountersAggregateAcrossShards) {
  // Under sharding the counters are kept per sender shard (ISSUE 6,
  // satellite: no shared cacheline between worker threads); the accessors
  // must still report fleet-wide totals.
  Topology topo = Topology::FourRegions();
  ShardedSimulator sim(topo, /*num_shards=*/4, /*num_threads=*/4);
  Network net(&sim);
  // One local send plus a cross-region send from every region, issued from
  // each region's own shard.
  for (RegionId r = 0; r < 4; ++r) {
    Simulator* shard_sim = net.SimForRegion(r);
    shard_sim->SetCurrentRegion(r);
    shard_sim->ScheduleAt(0, [&net, r] {
      net.Send(r, r, [] {});
      net.Send(r, (r + 1) % 4, [] {});
    });
  }
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(net.messages_sent(), 8u);
  EXPECT_EQ(net.cross_region_messages(), 4u);
}

TEST(NetworkTest, ShardedDeliverHonorsMinimumLatency) {
  // Deliver() routes a reply along an explicit (from, to) edge; cross-shard
  // edges must respect the topology latency floor that the lookahead window
  // is derived from.
  Topology topo = Topology::FourRegions();
  ShardedSimulator sim(topo, /*num_shards=*/2, /*num_threads=*/1);
  Network net(&sim);
  SimTime arrival = -1;
  Simulator* sim0 = net.SimForRegion(0);
  sim0->SetCurrentRegion(0);
  sim0->ScheduleAt(0, [&] {
    net.Deliver(0, 1, topo.Latency(0, 1) + Milliseconds(5),
                [&] { arrival = net.SimForRegion(1)->now(); });
  });
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(arrival, topo.Latency(0, 1) + Milliseconds(5));
}

TEST(NetworkTest, JitterStaysWithinBounds) {
  Simulator sim;
  Topology t;
  RegionId a = t.AddRegion("a");
  RegionId b = t.AddRegion("b");
  t.SetLatency(a, b, Milliseconds(100));
  Network net(&sim, t, /*jitter_fraction=*/0.1, /*seed=*/7);

  for (int i = 0; i < 200; ++i) {
    SimTime start = sim.now();
    SimTime arrival = -1;
    net.Send(a, b, [&] { arrival = sim.now(); });
    sim.Run();
    SimDuration latency = arrival - start;
    EXPECT_GE(latency, Milliseconds(90));
    EXPECT_LE(latency, Milliseconds(110));
  }
}

TEST(NetworkTest, ZeroJitterIsExact) {
  Simulator sim;
  Topology t = Topology::ThreeContinents();
  Network net(&sim, t);
  SimTime arrival = -1;
  net.Send(0, 2, [&] { arrival = sim.now(); });
  sim.Run();
  EXPECT_EQ(arrival, t.Latency(0, 2));
}

}  // namespace
}  // namespace skywalker
