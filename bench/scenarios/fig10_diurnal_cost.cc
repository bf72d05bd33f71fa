// Scenario port of bench/fig10_diurnal_cost.cc — SkyWalker vs Region-Local
// deployment under a regionally skewed workload (US working hours: 120 US
// clients vs 40 each in Asia and Europe), sweeping the total replica count.
//
// Expected shape (paper): with equal replicas SkyWalker outperforms
// region-local by 1.07-1.18x; SkyWalker at 9 replicas matches region-local
// at 12 — a 25% provisioning (cost) reduction at equal throughput.

#include <string>
#include <vector>

#include "bench/scenarios/scenarios.h"
#include "src/analysis/cost_model.h"
#include "src/harness/run.h"

namespace skywalker {

namespace {

constexpr int kReplicaSweep[] = {3, 6, 9, 12, 15, 18};

std::vector<int> EvenSplit(int total) {
  std::vector<int> split(3, total / 3);
  for (int i = 0; i < total % 3; ++i) {
    ++split[static_cast<size_t>(i)];
  }
  return split;
}

MetricRow RunOne(SystemKind kind, int total_replicas,
                 const ScenarioOptions& options) {
  RunSpec spec;
  spec.system.kind = kind;
  spec.system.replicas_per_region = EvenSplit(total_replicas);
  // L4 band (paper: 20-50 concurrent requests per replica): the batch must
  // actually fill under regional overload for offloading to engage.
  spec.system.replica_config.max_running_requests = 32;
  spec.system.replica_config.kv_capacity_tokens = 40960;
  spec.warmup = options.smoke ? Seconds(5) : Seconds(60);
  spec.measure = options.smoke ? Seconds(15) : Seconds(300);
  spec.workload = ChatWorkload({120, 40, 40}, ChatClientConfig(),
                               MixSeed(101, options.seed_stream));
  if (options.smoke) {
    spec.workload.ScaleClients(0.25);
  }
  const std::string label = std::to_string(total_replicas) + "/" +
                            std::string(SystemKindName(kind));
  MetricRow row = RunMetricRow(label, Run(spec), total_replicas);
  row.Dim("replicas", std::to_string(total_replicas));
  row.Dim("system", std::string(SystemKindName(kind)));
  return row;
}

}  // namespace

Scenario MakeFig10DiurnalCostScenario() {
  Scenario scenario;
  scenario.name = "fig10";
  scenario.title = "SkyWalker vs Region-Local, skewed load (120/40/40)";
  scenario.description =
      "Replica-count sweep of SkyWalker vs forwarding-disabled Region-Local "
      "under US-working-hours skew; cost headline compares SkyWalker@9 with "
      "Region-Local@12. One cell per (replica count, system).";
  scenario.metric_keys = StandardExperimentMetricKeys();
  scenario.plan = [](const ScenarioOptions& options) {
    ScenarioPlan plan;
    for (int replicas : kReplicaSweep) {
      for (SystemKind kind :
           {SystemKind::kRegionLocal, SystemKind::kSkyWalker}) {
        const std::string label = std::to_string(replicas) + "/" +
                                  std::string(SystemKindName(kind));
        plan.cells.push_back(ScenarioCell{label, [kind, replicas, options] {
          return std::vector<MetricRow>{RunOne(kind, replicas, options)};
        }});
      }
    }
    plan.finalize = [](const std::vector<std::vector<MetricRow>>& cell_rows) {
      ScenarioReport report;
      for (const auto& rows : cell_rows) {
        report.rows.insert(report.rows.end(), rows.begin(), rows.end());
      }
      double sky9 = 0;
      double local12 = 0;
      for (size_t i = 0; i < report.rows.size(); i += 2) {
        const MetricRow& local = report.rows[i];
        const MetricRow& sky = report.rows[i + 1];
        const int replicas = kReplicaSweep[i / 2];
        const double local_tput = *local.Find(metric_keys::kThroughputTokS);
        const double sky_tput = *sky.Find(metric_keys::kThroughputTokS);
        report.derived.emplace_back(
            "gain_x_" + std::to_string(replicas),
            local_tput <= 0 ? 0.0 : sky_tput / local_tput);
        if (replicas == 9) {
          sky9 = sky_tput;
        }
        if (replicas == 12) {
          local12 = local_tput;
        }
      }
      Pricing pricing;
      const double cost9 = 9 * pricing.reserved_hourly;
      const double cost12 = 12 * pricing.reserved_hourly;
      report.derived.emplace_back("sky9_over_local12_throughput",
                                  local12 <= 0 ? 0.0 : sky9 / local12);
      report.derived.emplace_back("cost_reduction_pct",
                                  100.0 * (1.0 - cost9 / cost12));
      report.notes.push_back(
          "Check vs paper (Fig. 10): equal-replica gain 1.07-1.18x; "
          "SkyWalker@9 ~matches Region-Local@12 throughput at 25% lower "
          "cost.");
      return report;
    };
    return plan;
  };
  return scenario;
}

}  // namespace skywalker
