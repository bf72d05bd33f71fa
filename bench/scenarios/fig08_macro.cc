// Scenario port of bench/fig08_macro.cc — the macrobenchmark: service
// throughput, TTFT and end-to-end latency for seven systems across four
// workloads (ChatBot Arena, WildChat, ToT, Mixed Tree) on the
// three-continent topology.
//
// Expected shape (paper):
//  * SkyWalker variants beat single-LB baselines by 1.12-1.2x on the chat
//    workloads and GKE Gateway by 1.43-2.06x overall;
//  * CH ~matches SkyWalker on uniform ToT but collapses on Mixed Tree;
//  * SkyWalker (trie) edges out SkyWalker-CH by a few percent;
//  * SkyWalker holds the lowest P50/P90 TTFT (regional entry + cache hits);
//  * hit rates: RR lowest, LL modest, SkyWalker highest.
//
// Absolute numbers differ from the paper (simulated L4s, not real ones);
// the orderings and ratios are the reproduction target.

#include <algorithm>
#include <iterator>
#include <numeric>
#include <string>
#include <vector>

#include "bench/scenarios/scenarios.h"
#include "src/harness/run.h"

namespace skywalker {

namespace {

SystemSpec MacroSystemSpec(SystemKind kind,
                           const std::vector<int>& replicas_per_region) {
  SystemSpec spec;
  spec.kind = kind;
  spec.replicas_per_region = replicas_per_region;
  spec.central_lb_region = 0;  // Single-LB baselines deploy in the US.
  spec.baseline_lb.engine.push_mode = PushMode::kBlind;
  // L4 band (paper: 20-50 concurrent requests per replica).
  spec.replica_config.max_running_requests = 32;
  spec.replica_config.kv_capacity_tokens = 40960;
  return spec;
}

constexpr SystemKind kSystems[] = {
    SystemKind::kGkeGateway,   SystemKind::kRoundRobin,
    SystemKind::kLeastLoad,    SystemKind::kConsistentHash,
    SystemKind::kSglRouter,    SystemKind::kSkyWalkerCh,
    SystemKind::kSkyWalker,
};

MacroWorkloadCase MakeCase(int workload, const ScenarioOptions& options) {
  MacroWorkloadCase wc;
  switch (workload) {
    case 0:
      wc = ArenaMacroCase(MixSeed(81, options.seed_stream));
      break;
    case 1:
      wc = WildChatMacroCase(MixSeed(82, options.seed_stream));
      break;
    case 2:
      wc = ToTMacroCase(MixSeed(83, options.seed_stream));
      break;
    default:
      wc = MixedTreeMacroCase(MixSeed(84, options.seed_stream));
      break;
  }
  if (options.smoke) {
    wc.spec.ScaleClients(0.25);
  }
  return wc;
}


}  // namespace

Scenario MakeFig08MacroScenario() {
  Scenario scenario;
  scenario.name = "fig08";
  scenario.title = "Macrobenchmark: 7 systems x 4 workloads";
  scenario.description =
      "Throughput/TTFT/E2E for GKE-Gateway, RR, LL, CH, SGL, SkyWalker-CH "
      "and SkyWalker across ChatBot Arena, WildChat, ToT and Mixed Tree on "
      "the three-continent topology. One cell per (workload, system).";
  scenario.metric_keys = StandardExperimentMetricKeys();
  scenario.plan = [](const ScenarioOptions& options) {
    ScenarioPlan plan;
    for (int w = 0; w < 4; ++w) {
      // Rebuilding the case per cell is deterministic, so cells stay
      // independent without sharing state.
      for (SystemKind kind : kSystems) {
        const std::string label = MakeCase(w, options).name + "/" +
                                  std::string(SystemKindName(kind));
        plan.cells.push_back(ScenarioCell{label, [w, kind, options, label] {
          MacroWorkloadCase wc = MakeCase(w, options);
          RunSpec spec;
          spec.system = MacroSystemSpec(kind, wc.replicas_per_region);
          spec.workload = wc.spec;
          // Durations hold the system at the paper's high-utilization
          // operating point. Much longer windows let closed-loop
          // conversations accumulate context until every system collapses
          // into queueing-dominated overload, which masks the routing
          // effects the figure is about.
          spec.warmup = options.smoke ? Seconds(5) : Seconds(30);
          spec.measure = options.smoke ? Seconds(15) : Seconds(120);
          const int replicas =
              std::accumulate(wc.replicas_per_region.begin(),
                              wc.replicas_per_region.end(), 0);
          MetricRow row = RunMetricRow(label, Run(spec), replicas);
          row.Dim("workload", wc.name);
          row.Dim("system", std::string(SystemKindName(kind)));
          return std::vector<MetricRow>{std::move(row)};
        }});
      }
    }
    plan.finalize = [](const std::vector<std::vector<MetricRow>>& cell_rows) {
      ScenarioReport report;
      for (const auto& rows : cell_rows) {
        report.rows.insert(report.rows.end(), rows.begin(), rows.end());
      }
      // Headline: SkyWalker vs the best single-LB baseline per workload.
      // Rows mirror the cell order (workload-major over kSystems).
      const size_t stride = std::size(kSystems);
      for (size_t w = 0; w * stride < report.rows.size(); ++w) {
        double best_baseline = 0;
        double sky = 0;
        std::string workload;
        for (size_t s = 0; s < stride; ++s) {
          const MetricRow& row = report.rows[w * stride + s];
          const double tput = *row.Find(metric_keys::kThroughputTokS);
          switch (kSystems[s]) {
            case SystemKind::kRoundRobin:
            case SystemKind::kLeastLoad:
            case SystemKind::kConsistentHash:
            case SystemKind::kSglRouter:
              best_baseline = std::max(best_baseline, tput);
              break;
            case SystemKind::kSkyWalker:
              sky = tput;
              break;
            default:
              break;
          }
          for (const auto& [k, v] : row.dims) {
            if (k == "workload") {
              workload = v;
            }
          }
        }
        for (char& c : workload) {
          if (c == ' ') {
            c = '_';
          }
        }
        report.derived.emplace_back(
            "skywalker_vs_best_baseline_x_" + workload,
            best_baseline <= 0 ? 0.0 : sky / best_baseline);
      }
      report.notes.push_back(
          "Check vs paper (Fig. 8): SkyWalker best-or-tied throughput with "
          "the lowest TTFT; CH competitive on uniform ToT but degraded on "
          "Mixed Tree; baselines pay cross-region TTFT for remote clients; "
          "SkyWalker hit rate highest.");
      return report;
    };
    return plan;
  };
  return scenario;
}

}  // namespace skywalker
