// Quickstart: build a three-region SkyWalker deployment, drive it with a
// handful of conversation clients, and print the headline serving metrics.
//
//   $ ./build/examples/quickstart
//
// This walks the full public API surface in ~80 lines:
//   Topology -> Network -> Deployment (regional LBs + controller + DNS)
//   ConversationGenerator -> ConversationClient -> MetricsCollector.
//
// Wired by hand on purpose: it walks through the raw Deployment API.

#include <cstdio>

#include "src/analysis/metrics.h"
#include "src/core/deployment.h"
#include "src/workload/client.h"

using namespace skywalker;  // Example code; the library never does this.

int main() {
  // 1. A world: three continents with realistic inter-region latencies.
  Simulator sim;
  Network net(&sim, Topology::ThreeContinents());

  // 2. A deployment: two replicas per region, one SkyWalker LB per region
  //    (prefix-tree routing + selective pushing), full peer mesh, DNS, and
  //    the health-probing controller.
  DeploymentSpec spec;
  spec.replicas_per_region = {2, 2, 2};
  auto deployment = Deployment::Build(&sim, &net, spec);
  deployment->Start();

  // 3. A workload: 10 closed-loop conversation clients per region issuing
  //    multi-turn chats with shared system-prompt templates.
  MetricsCollector metrics;
  ConversationGenerator generator(ConversationWorkloadConfig::Arena(),
                                  net.topology().num_regions(), /*seed=*/1);
  ClientConfig client_config;
  client_config.think_time_mean = Seconds(1);
  std::vector<std::unique_ptr<ConversationClient>> clients;
  for (RegionId region = 0; region < 3; ++region) {
    for (int i = 0; i < 10; ++i) {
      clients.push_back(std::make_unique<ConversationClient>(
          &sim, &net, deployment->resolver(), &generator, &metrics, region,
          client_config, /*seed=*/100 + clients.size()));
      clients.back()->Start(Milliseconds(100 * static_cast<int>(i)));
    }
  }

  // 4. Run five simulated minutes.
  sim.RunUntil(Minutes(5));

  // 5. Report.
  Distribution ttft = metrics.TtftSeconds();
  Distribution e2e = metrics.E2eSeconds();
  std::printf("SkyWalker quickstart (3 regions x 2 replicas, 30 clients)\n");
  std::printf("  completed requests : %zu\n", metrics.total_recorded());
  std::printf("  throughput         : %.0f tok/s\n",
              metrics.ThroughputTokensPerSec());
  std::printf("  TTFT p50 / p90     : %.3f s / %.3f s\n", ttft.Percentile(50),
              ttft.Percentile(90));
  std::printf("  E2E  p50 / p90     : %.2f s / %.2f s\n", e2e.Percentile(50),
              e2e.Percentile(90));
  std::printf("  prefix-cache hits  : %.1f%%\n",
              deployment->AggregateCacheHitRate() * 100);
  std::printf("  cross-region fwd   : %.1f%% of requests\n",
              metrics.ForwardedFraction() * 100);
  return 0;
}
