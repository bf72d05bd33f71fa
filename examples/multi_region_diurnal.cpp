// Diurnal cross-region offloading demo (the scenario that motivates the
// paper, §1-2): client load follows timezone-shifted day/night cycles, so a
// region's peak lands while another idles. The example runs a compressed
// 24-hour cycle and shows SkyWalker forwarding traffic from the loaded
// region to the idle ones, then prints the provisioning-cost implication.
//
//   $ ./build/examples/multi_region_diurnal
//
// Wired by hand on purpose: it walks through the raw Deployment API.

#include <cstdio>
#include <memory>
#include <vector>

#include "src/analysis/cost_model.h"
#include "src/analysis/metrics.h"
#include "src/core/deployment.h"
#include "src/workload/client.h"
#include "src/workload/diurnal.h"

using namespace skywalker;  // Example code; the library never does this.

namespace {

// One simulated "hour" is compressed to 30 s so the full cycle runs quickly.
constexpr SimDuration kHour = Seconds(30);

}  // namespace

int main() {
  Simulator sim;
  Network net(&sim, Topology::ThreeContinents());

  DeploymentSpec spec;
  spec.replicas_per_region = {2, 2, 2};
  spec.replica_config.max_running_requests = 32;  // L4 band.
  auto deployment = Deployment::Build(&sim, &net, spec);
  deployment->Start();

  MetricsCollector metrics;
  ConversationGenerator generator(ConversationWorkloadConfig::WildChat(), 3,
                                  /*seed=*/7);
  ClientConfig client_config;
  client_config.think_time_mean = Milliseconds(500);
  client_config.program_gap_mean = Milliseconds(500);

  // Diurnal client activation: each region's clients are awake only during
  // the region's active hours [8r, 8r + 10) — offset by 8 "hours" per
  // region, so one region's peak lands while the others idle. Per-region
  // demand (48 busy clients) exceeds the region's own 2 replicas, which is
  // what drives cross-region offloading to the sleeping regions.
  const int kClientsPerRegion = 48;
  std::vector<std::unique_ptr<ConversationClient>> clients;
  for (RegionId region = 0; region < 3; ++region) {
    SimTime wake = kHour * (8 * region);
    ClientConfig window_config = client_config;
    window_config.stop_issuing_after = wake + kHour * 10;
    for (int i = 0; i < kClientsPerRegion; ++i) {
      clients.push_back(std::make_unique<ConversationClient>(
          &sim, &net, deployment->resolver(), &generator, &metrics, region,
          window_config, 500 + clients.size()));
      clients.back()->Start(wake + Milliseconds(200 * i));
    }
  }

  // Observe forwarding per "hour".
  std::printf("hour | forwarded so far | note\n");
  int64_t last_forwarded = 0;
  for (int hour = 1; hour <= 24; ++hour) {
    sim.RunUntil(kHour * hour);
    int64_t forwarded = deployment->TotalForwarded();
    const char* note = "";
    if (forwarded > last_forwarded + 20) {
      note = "<- heavy cross-region offloading";
    }
    if (hour % 4 == 0 || note[0] != '\0') {
      std::printf("%4d | %16ld | %s\n", hour, static_cast<long>(forwarded),
                  note);
    }
    last_forwarded = forwarded;
  }

  std::printf("\nTotals after one diurnal cycle:\n");
  std::printf("  requests completed : %zu\n", metrics.total_recorded());
  std::printf("  forwarded fraction : %.1f%%\n",
              metrics.ForwardedFraction() * 100);
  std::printf("  cache hit rate     : %.1f%%\n",
              deployment->AggregateCacheHitRate() * 100);

  // Cost implication: provisioning for the aggregated global peak instead of
  // three regional peaks (paper Fig. 3b).
  DiurnalModel model = DiurnalModel::FiveCloudRegions();
  CostModel cost;
  std::vector<RegionDemand> demand;
  for (size_t r = 0; r < model.num_regions(); ++r) {
    demand.push_back(CostModel::DemandFromRequests(
        model.HourlySeries(r, 4000 * model.profile(r).scale), 250));
  }
  double region_local = cost.RegionLocalReservedCost(demand);
  double aggregated = cost.AggregatedReservedCost(demand);
  std::printf(
      "\nReservation for aggregated global peak saves %.1f%% vs per-region "
      "peaks\n($%.0f vs $%.0f per day for the five-region WildChat "
      "profile).\n",
      100.0 * (1.0 - aggregated / region_local), aggregated, region_local);
  return 0;
}
