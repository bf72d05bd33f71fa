// End-to-end resilience tests on the run harness (ISSUE 7): a region
// blackout loses no request forever once request timeouts + retries are on,
// passive latency ejection fires against a gray straggler and does not cost
// goodput, a mid-run RuntimeConfig reswap is bit-identical across shard
// and thread counts and traced once per LB, and an update cannot undo the
// routing that defines SkyWalker-CH or Region-Local.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/harness/run.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace skywalker {
namespace {

// A small four-region fleet with a post-measure drain long enough for
// lost-forever accounting to converge (see RunSpec::drain). `clients[r]`
// chat clients run in region r.
RunSpec SmallFleet(const std::vector<int>& clients = {2, 2, 2, 2}) {
  RunSpec spec;
  spec.topology = Topology::FourRegions();
  spec.system.replicas_per_region.assign(4, 4);
  spec.system.replica_config.max_running_requests = 8;
  spec.warmup = Seconds(1);
  spec.measure = Seconds(7);
  spec.drain = Seconds(25);
  ClientConfig client;
  client.think_time_mean = Milliseconds(500);
  client.program_gap_mean = Seconds(1);
  client.stop_issuing_after = spec.warmup + spec.measure;
  spec.workload = ChatWorkload(clients, client, 1234);
  return spec;
}

OutlierConfig Resilience() {
  OutlierConfig outlier;
  outlier.enabled = true;
  outlier.request_timeout = Seconds(8);
  outlier.probe_timeout = Seconds(1);
  outlier.consecutive_failures = 3;
  outlier.latency_factor = 3.0;
  outlier.base_ejection_time = Seconds(5);
  return outlier;
}

void AddBlackout(RunSpec& spec, SimTime fail_at, SimTime recover_at) {
  Fault lb_fail;
  lb_fail.kind = Fault::kLbFail;
  lb_fail.at = fail_at;
  lb_fail.region = 1;
  Fault replicas_fail;
  replicas_fail.kind = Fault::kReplicaFail;
  replicas_fail.at = fail_at;
  replicas_fail.region = 1;
  Fault replicas_recover;
  replicas_recover.kind = Fault::kReplicaRecover;
  replicas_recover.at = recover_at;
  replicas_recover.region = 1;
  Fault lb_recover;
  lb_recover.kind = Fault::kLbRecover;
  lb_recover.at = recover_at + Milliseconds(100);
  lb_recover.region = 1;
  spec.faults = {lb_fail, replicas_fail, replicas_recover, lb_recover};
}

TEST(ResilienceTest, BlackoutLosesNothingForeverWithTimeoutsOn) {
  RunSpec spec = SmallFleet();
  spec.num_shards = 0;  // Controller failover is cross-shard: plain mode.
  spec.system.controller.auto_recovery_delay = 0;
  spec.system.skywalker.engine.outlier = Resilience();
  AddBlackout(spec, Seconds(3), Seconds(6));

  RunResult result = skywalker::Run(spec);
  EXPECT_GT(result.completed_total, 0);
  EXPECT_GT(result.issued, 0);
  // Every request swallowed by the blackout timed out, errored back to its
  // client, and was retried until it completed.
  EXPECT_EQ(result.lost_forever, 0);
  EXPECT_EQ(result.issued, result.completed_total + result.client_errors);
  // The dead region's replicas were ejected by probe misses / timeouts.
  EXPECT_GT(result.ejections, 0);
  EXPECT_GT(result.failovers, 0);
}

TEST(ResilienceTest, BlackoutWithoutResilienceStrandsInFlightRequests) {
  RunSpec spec = SmallFleet();
  spec.num_shards = 0;
  spec.system.controller.auto_recovery_delay = 0;
  AddBlackout(spec, Seconds(3), Seconds(6));

  RunResult result = skywalker::Run(spec);
  // No timeouts: whatever was in flight on the dead replicas hangs forever.
  EXPECT_GT(result.lost_forever, 0);
  EXPECT_EQ(result.client_errors, 0);
  EXPECT_EQ(result.ejections, 0);
}

TEST(ResilienceTest, GrayStragglerGetsLatencyEjected) {
  // Enough clients that the straggler takes traffic and at least
  // kMinLatencyHosts replicas report decode samples; enough drain that its
  // 8x-held victims finish inside the run.
  RunSpec base = SmallFleet({4, 4, 4, 4});
  base.num_shards = 4;
  base.num_threads = 4;
  base.drain = Seconds(90);
  Fault slow;
  slow.kind = Fault::kReplicaSlowdown;
  slow.at = Seconds(1);
  slow.region = 0;
  slow.replica_index = 0;
  slow.factor = 8.0;
  base.faults.push_back(slow);

  RunSpec with_ejection = base;
  OutlierConfig outlier = Resilience();
  // Latency-only: the straggler answers probes and never "fails".
  outlier.request_timeout = 0;
  with_ejection.system.skywalker.engine.outlier = outlier;

  RunResult off = skywalker::Run(base);
  RunResult on = skywalker::Run(with_ejection);

  EXPECT_EQ(off.ejections, 0);
  // The per-step decode-latency EWMA makes the 8x straggler probe-visible
  // within a few steps; it must be ejected during the run.
  EXPECT_GT(on.ejections, 0);
  // Routing around the straggler never costs completions.
  EXPECT_GE(on.completed_total, off.completed_total);
  EXPECT_EQ(on.lost_forever, 0);
}

// A worst-case knob swap (push discipline, routing policy, τ, probe cadence
// all at once) at t = 4 s.
ConfigUpdate WorstCaseReswap(const RunSpec& spec) {
  ConfigUpdate update;
  update.at = Seconds(4);
  update.config = spec.system.skywalker.runtime();
  update.config.dispatch.push_mode = PushMode::kBlind;
  update.config.dispatch.probe_interval = Milliseconds(200);
  update.config.routing.policy = RoutingPolicyKind::kConsistentHash;
  update.config.routing.queue_tau = 8;
  return update;
}

// The reswap must leave the outcome stream bit-identical across the plain
// reference, 1 shard, and 4 shards / multi-threaded runs.
TEST(ResilienceTest, MidRunReswapIsDeterministicAcrossShardsAndThreads) {
  RunSpec base = SmallFleet();
  base.collect_trace = true;
  base.config_updates.push_back(WorstCaseReswap(base));

  struct Variant {
    int num_shards;
    int num_threads;
  };
  const Variant variants[] = {{0, 1}, {1, 1}, {4, 1}, {4, 8}};
  std::string reference;
  int64_t reference_swaps = -1;
  for (const Variant& v : variants) {
    RunSpec spec = base;
    spec.num_shards = v.num_shards;
    spec.num_threads = v.num_threads;
    RunResult result = skywalker::Run(spec);
    ASSERT_FALSE(result.trace.empty());
    // One swap per region LB.
    EXPECT_EQ(result.config_swaps, 4);
    if (reference.empty()) {
      reference = result.trace;
      reference_swaps = result.config_swaps;
    } else {
      EXPECT_EQ(result.trace, reference)
          << "shards=" << v.num_shards << " threads=" << v.num_threads;
      EXPECT_EQ(result.config_swaps, reference_swaps);
    }
  }
}

// An update carries the routing values that define its kind, whatever it
// says: a no-change update built from the spec's own config keeps
// SkyWalker-CH hashing and Region-Local not forwarding, so the outcome
// stream matches the run without it. Region 0's 64 clients overload its 32
// batch slots, so a Region-Local LB that lost the setting would forward.
TEST(ResilienceTest, NoChangeUpdateKeepsTheKindsRouting) {
  for (const SystemKind kind :
       {SystemKind::kSkyWalkerCh, SystemKind::kRegionLocal}) {
    SCOPED_TRACE(std::string(SystemKindName(kind)));
    RunSpec spec = SmallFleet({64, 1, 1, 1});
    spec.system.kind = kind;
    spec.collect_trace = true;
    const RunResult without = skywalker::Run(spec);
    ConfigUpdate update;
    update.at = spec.warmup + spec.measure / 2;
    update.config = spec.system.skywalker.runtime();
    spec.config_updates.push_back(update);
    const RunResult with = skywalker::Run(spec);
    EXPECT_EQ(with.config_swaps, without.config_swaps + 4);
    ASSERT_FALSE(without.trace.empty());
    EXPECT_EQ(with.trace, without.trace);
    if (kind == SystemKind::kRegionLocal) {
      EXPECT_EQ(with.forwarded_fraction, 0.0);
    }
  }
}

// Every LB applies the update exactly once, at its time: one config_swap
// record per region, as many as the LBs count, and the trace-derived
// config_swaps counters agree. An LB starts with its config, so nothing is
// traced as a swap at t = 0.
TEST(ResilienceTest, MidRunReswapIsTracedOncePerLb) {
  for (const int num_shards : {0, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    RunSpec spec = SmallFleet();
    spec.num_shards = num_shards;
    const ConfigUpdate update = WorstCaseReswap(spec);
    spec.config_updates.push_back(update);
    const size_t num_regions = spec.topology.num_regions();
    Tracer tracer(static_cast<int32_t>(num_regions));
    spec.tracer = &tracer;

    RunResult result = skywalker::Run(spec);
    const std::vector<TraceRecord> records = tracer.Merged();
    std::vector<int64_t> swaps_per_region(num_regions, 0);
    for (const TraceRecord& record : records) {
      if (record.type != static_cast<uint16_t>(TraceEventType::kConfigSwap)) {
        continue;
      }
      EXPECT_EQ(record.time, update.at);
      ASSERT_GE(record.region, 0);
      ASSERT_LT(static_cast<size_t>(record.region), num_regions);
      ++swaps_per_region[static_cast<size_t>(record.region)];
    }
    EXPECT_EQ(swaps_per_region, std::vector<int64_t>(num_regions, 1));
    EXPECT_EQ(result.config_swaps, 4);

    MetricsRegistry registry;
    BuildMetricsFromTrace(records, Seconds(1), &registry);
    int64_t metric_swaps = 0;
    for (size_t r = 0; r < num_regions; ++r) {
      metric_swaps +=
          registry.GetCounter("config_swaps", "region=" + std::to_string(r))
              ->value();
    }
    EXPECT_EQ(metric_swaps, result.config_swaps);
  }
}

}  // namespace
}  // namespace skywalker
