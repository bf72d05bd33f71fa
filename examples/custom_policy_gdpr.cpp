// Custom routing policy demo (§4.1/§7): GDPR-style forwarding constraints.
//
// Setup: eu-west and eu-central are GDPR regions; us-east is not. The
// forward_allowed predicate encodes the paper's §7 policy:
//   * EU traffic may only be offloaded to other EU regions;
//   * non-EU traffic MAY be offloaded to EU regions (that direction does not
//     export EU personal data).
// The example overloads each side in turn and shows where traffic lands.
//
//   $ ./build/examples/custom_policy_gdpr
//
// Wired by hand on purpose: it walks through the raw Deployment API.

#include <cstdio>

#include "src/analysis/metrics.h"
#include "src/core/deployment.h"
#include "src/workload/client.h"

using namespace skywalker;  // Example code; the library never does this.

namespace {

Topology GdprTopology() {
  Topology t;
  t.AddRegion("us-east", Milliseconds(1));     // Region 0: non-EU.
  t.AddRegion("eu-west", Milliseconds(1));     // Region 1: EU.
  t.AddRegion("eu-central", Milliseconds(1));  // Region 2: EU.
  t.SetLatency(0, 1, Milliseconds(40));
  t.SetLatency(0, 2, Milliseconds(45));
  t.SetLatency(1, 2, Milliseconds(10));
  return t;
}

bool IsEu(RegionId region) { return region == 1 || region == 2; }

void RunPhase(const char* title, int us_clients, int eu_clients) {
  Simulator sim;
  Network net(&sim, GdprTopology());

  DeploymentSpec spec;
  spec.replicas_per_region = {2, 2, 2};
  spec.replica_config.max_running_requests = 24;
  spec.replica_config.kv_capacity_tokens = 16384;
  // §7: EU data never leaves the EU; non-EU regions may offload into the EU.
  spec.lb_config.forward_allowed = [](RegionId from, RegionId to) {
    if (IsEu(from)) {
      return IsEu(to);
    }
    return true;
  };
  auto deployment = Deployment::Build(&sim, &net, spec);
  deployment->Start();

  MetricsCollector metrics;
  ConversationGenerator generator(ConversationWorkloadConfig::WildChat(), 3,
                                  77);
  ClientConfig client_config;
  client_config.think_time_mean = Milliseconds(300);
  client_config.program_gap_mean = Milliseconds(300);
  std::vector<std::unique_ptr<ConversationClient>> clients;
  auto add_clients = [&](RegionId region, int count) {
    for (int i = 0; i < count; ++i) {
      clients.push_back(std::make_unique<ConversationClient>(
          &sim, &net, deployment->resolver(), &generator, &metrics, region,
          client_config, 3000 + clients.size()));
      clients.back()->Start(Milliseconds(50 * static_cast<int>(i)));
    }
  };
  add_clients(0, us_clients);
  add_clients(1, eu_clients);
  add_clients(2, eu_clients);

  sim.RunUntil(Minutes(3));

  // Where did each origin's requests execute?
  int64_t eu_outside_eu = 0;
  int64_t us_in_eu = 0;
  int64_t forwarded = 0;
  for (const RequestOutcome& o : metrics.outcomes()) {
    if (o.forwarded) {
      ++forwarded;
    }
    if (IsEu(o.client_region) && !IsEu(o.served_region)) {
      ++eu_outside_eu;
    }
    if (!IsEu(o.client_region) && IsEu(o.served_region)) {
      ++us_in_eu;
    }
  }
  std::printf("%s\n", title);
  std::printf("  completed=%zu forwarded=%ld\n", metrics.total_recorded(),
              static_cast<long>(forwarded));
  std::printf("  EU-origin requests served outside the EU : %ld (must be 0)\n",
              static_cast<long>(eu_outside_eu));
  std::printf("  US-origin requests served inside the EU  : %ld (allowed)\n\n",
              static_cast<long>(us_in_eu));
}

}  // namespace

int main() {
  std::printf("GDPR routing-constraint demo (us-east | eu-west, eu-central)\n\n");
  RunPhase("Phase 1: US overloaded (36 US vs 6+6 EU clients)", 36, 6);
  RunPhase("Phase 2: EU overloaded (6 US vs 30+30 EU clients)", 6, 30);
  std::printf(
      "EU overflow stays within EU regions; US overflow may use idle EU\n"
      "capacity. The same predicate hook supports arbitrary compliance\n"
      "policies (data residency, sovereignty tiers, allow/deny lists).\n");
  return 0;
}
