// Scenario ports of bench/ablation_sensitivity.cc — the design-choice
// ablations DESIGN.md §5 calls out, one registered scenario per knob:
//
//   ablation_probe_interval — staleness of the pending-queue signal (§4.1
//                             argues 100 ms balances responsiveness and
//                             overhead);
//   ablation_push_slack     — burst overshoot bound between probes;
//   ablation_explore        — prefix affinity vs load spreading (§5.1);
//   ablation_migration      — sticky remote affinity / flap damping
//                             (DESIGN.md §4a);
//   ablation_hetero         — §7: selective pushing by pending requests is
//                             hardware-agnostic; a mixed fast/slow fleet
//                             self-balances without configuration;
//   ablation_short_prompt   — §7 request-characteristic-aware policies.

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/scenarios/scenarios.h"
#include "src/analysis/metrics.h"
#include "src/common/table.h"
#include "src/harness/run.h"
#include "src/lb/policies.h"
#include "src/net/topology.h"

namespace skywalker {

namespace {

// The ablation studies' base run: SkyWalker on {2,2,2} L4-band replicas
// under uniform WildChat load at 1 s pacing.
RunSpec AblationRun(uint64_t canonical_seed, const ScenarioOptions& options) {
  RunSpec spec;
  spec.system.kind = SystemKind::kSkyWalker;
  spec.system.replicas_per_region = {2, 2, 2};
  spec.system.replica_config.max_running_requests = 32;
  spec.system.replica_config.kv_capacity_tokens = 40960;
  spec.warmup = options.smoke ? Seconds(5) : Seconds(30);
  spec.measure = options.smoke ? Seconds(15) : Seconds(150);
  ClientConfig pacing;
  pacing.think_time_mean = Seconds(1);
  pacing.program_gap_mean = Seconds(1);
  const int clients = options.smoke ? 8 : 30;
  spec.workload = ChatWorkload({clients, clients, clients}, pacing,
                               MixSeed(canonical_seed, options.seed_stream));
  return spec;
}

// Sweep scenarios share this shape: one cell per knob setting, standard
// experiment metrics per row.
Scenario SweepScenario(
    std::string name, std::string title, std::string description,
    std::function<std::vector<ScenarioCell>(const ScenarioOptions&)> cells) {
  Scenario scenario;
  scenario.name = std::move(name);
  scenario.title = std::move(title);
  scenario.description = std::move(description);
  scenario.metric_keys = StandardExperimentMetricKeys();
  scenario.plan = [cells = std::move(cells)](const ScenarioOptions& options) {
    ScenarioPlan plan;
    plan.cells = cells(options);
    return plan;
  };
  return scenario;
}

}  // namespace

Scenario MakeAblationProbeIntervalScenario() {
  return SweepScenario(
      "ablation_probe_interval", "Probe interval (paper default 100 ms)",
      "Sweeps the pending-queue probe interval; staleness degrades SP-P's "
      "signal.",
      [](const ScenarioOptions& options) {
        std::vector<ScenarioCell> cells;
        for (int ms : {20, 50, 100, 200, 400}) {
          const std::string label = std::to_string(ms) + " ms";
          cells.push_back(ScenarioCell{label, [ms, label, options] {
            RunSpec spec = AblationRun(1201, options);
            spec.system.skywalker.engine.probe_interval = Milliseconds(ms);
            MetricRow row = RunMetricRow(label, Run(spec), 6);
            row.Dim("probe_interval_ms", std::to_string(ms));
            return std::vector<MetricRow>{std::move(row)};
          }});
        }
        return cells;
      });
}

Scenario MakeAblationPushSlackScenario() {
  return SweepScenario(
      "ablation_push_slack", "Push slack (burst bound between probes)",
      "Sweeps the number of requests the LB may push past a replica's "
      "last-probed availability.",
      [](const ScenarioOptions& options) {
        std::vector<ScenarioCell> cells;
        for (int slack : {1, 4, 16, 32, 128}) {
          const std::string label = std::to_string(slack);
          cells.push_back(ScenarioCell{label, [slack, label, options] {
            RunSpec spec = AblationRun(1202, options);
            spec.system.skywalker.engine.push_slack = slack;
            MetricRow row = RunMetricRow(label, Run(spec), 6);
            row.Dim("push_slack", label);
            return std::vector<MetricRow>{std::move(row)};
          }});
        }
        return cells;
      });
}

Scenario MakeAblationExploreThresholdScenario() {
  return SweepScenario(
      "ablation_explore_threshold",
      "Explore threshold (prefix affinity vs spread)",
      "0 always follows the trie; 1.01 always spreads by load.",
      [](const ScenarioOptions& options) {
        std::vector<ScenarioCell> cells;
        for (double threshold : {0.0, 0.25, 0.5, 0.75, 1.01}) {
          const std::string label = Table::Num(threshold, 2);
          cells.push_back(ScenarioCell{label, [threshold, label, options] {
            RunSpec spec = AblationRun(1203, options);
            spec.system.skywalker.routing.explore_threshold = threshold;
            MetricRow row = RunMetricRow(label, Run(spec), 6);
            row.Dim("explore_threshold", label);
            return std::vector<MetricRow>{std::move(row)};
          }});
        }
        return cells;
      });
}

Scenario MakeAblationMigrationControlScenario() {
  return SweepScenario(
      "ablation_migration_control",
      "Migration control under regional skew (120/40/40)",
      "Disables sticky remote affinity and flap damping independently under "
      "skewed load.",
      [](const ScenarioOptions& options) {
        auto run = [options](const std::string& label,
                             double affinity_threshold, int patience,
                             bool use_defaults) {
          RunSpec spec = AblationRun(1204, options);
          // The migration study runs the larger {3,3,3} fleet.
          spec.system.replicas_per_region = {3, 3, 3};
          RoutingRuntimeConfig& routing = spec.system.skywalker.routing;
          if (!use_defaults) {
            if (affinity_threshold > 0) {
              routing.remote_affinity_threshold = affinity_threshold;
            }
            if (patience >= 0) {
              routing.forward_patience = patience;
            }
          }
          spec.workload = ChatWorkload({120, 40, 40}, ChatClientConfig(),
                                       MixSeed(1204, options.seed_stream));
          if (options.smoke) {
            spec.workload.ScaleClients(0.25);
          }
          MetricRow row = RunMetricRow(label, Run(spec), 9);
          row.Dim("setting", label);
          return std::vector<MetricRow>{std::move(row)};
        };
        std::vector<ScenarioCell> cells;
        cells.push_back(ScenarioCell{
            "sticky + damping (default)", [run] {
              return run("sticky + damping (default)", 0, -1, true);
            }});
        cells.push_back(ScenarioCell{
            "no sticky affinity", [run] {
              // 2.0 means "never sticky".
              return run("no sticky affinity", 2.0, -1, false);
            }});
        cells.push_back(ScenarioCell{
            "no flap damping",
            [run] { return run("no flap damping", 0, 0, false); }});
        cells.push_back(ScenarioCell{
            "neither", [run] { return run("neither", 2.0, 0, false); }});
        return cells;
      });
}

Scenario MakeAblationHeterogeneousScenario() {
  Scenario scenario;
  scenario.name = "ablation_heterogeneous";
  scenario.title = "Heterogeneous accelerators (§7)";
  scenario.description =
      "2 fast (A10-like) + 2 slow (L4) replicas in one region: SP-P's "
      "pending signal self-balances the mixed fleet; SP-O's fixed cap "
      "cannot tell the devices apart.";
  scenario.metric_keys = {metric_keys::kThroughputTokS,
                          metric_keys::kTtftP90, "fast_device_share_pct",
                          metric_keys::kCompleted};
  scenario.plan = [](const ScenarioOptions& options) {
    // Hand-wired: per-replica device configs are not a RunSpec option.
    auto run = [options](PushMode mode, const std::string& label) {
      Simulator sim;
      Topology topology;
      topology.AddRegion("local", Milliseconds(1));
      Network net(&sim, topology);

      ReplicaConfig fast;
      fast.prefill_us_per_token = 275.0;  // 2x faster than an L4.
      fast.decode_us_per_seq = 200.0;
      fast.step_base_us = 12000.0;
      fast.max_running_requests = 32;
      ReplicaConfig slow;
      slow.max_running_requests = 32;

      std::vector<std::unique_ptr<Replica>> replicas;
      replicas.push_back(std::make_unique<Replica>(&sim, 0, 0, fast));
      replicas.push_back(std::make_unique<Replica>(&sim, 1, 0, fast));
      replicas.push_back(std::make_unique<Replica>(&sim, 2, 0, slow));
      replicas.push_back(std::make_unique<Replica>(&sim, 3, 0, slow));

      LbConfig config;
      config.engine.push_mode = mode;
      config.engine.max_outstanding_per_replica = 16;  // SP-O: one cap for all.
      SglRouterLb lb(&sim, &net, 0, 0, config);
      for (auto& replica : replicas) {
        lb.AttachReplica(replica.get());
      }
      lb.Start();

      SingleFrontendResolver resolver(&lb);
      MetricsCollector metrics;
      const SimTime warmup = options.smoke ? Seconds(5) : Seconds(30);
      const SimTime end = options.smoke ? Seconds(25) : Seconds(180);
      metrics.SetMeasurementWindow(warmup, end);
      ConversationGenerator gen(ConversationWorkloadConfig::WildChat(), 1,
                                MixSeed(1205, options.seed_stream));
      ClientConfig client_config;
      client_config.think_time_mean = Milliseconds(500);
      client_config.program_gap_mean = Milliseconds(500);
      std::vector<std::unique_ptr<ConversationClient>> clients;
      const int num_clients = options.smoke ? 35 : 140;
      for (int i = 0; i < num_clients; ++i) {
        clients.push_back(std::make_unique<ConversationClient>(
            &sim, &net, &resolver, &gen, &metrics, 0, client_config,
            MixSeed(7000 + static_cast<uint64_t>(i), options.seed_stream)));
        clients.back()->Start(Milliseconds(50 * i));
      }
      sim.RunUntil(end);

      const int64_t fast_completed =
          replicas[0]->stats().completed + replicas[1]->stats().completed;
      const int64_t total_completed =
          fast_completed + replicas[2]->stats().completed +
          replicas[3]->stats().completed;
      MetricRow row;
      row.label = label;
      row.Dim("push_mode", label);
      Distribution ttft = metrics.TtftSeconds();
      row.Set(metric_keys::kThroughputTokS,
              metrics.ThroughputTokensPerSec());
      row.Set(metric_keys::kTtftP90,
              ttft.empty() ? 0.0 : ttft.Percentile(90));
      row.Set("fast_device_share_pct",
              100.0 * static_cast<double>(fast_completed) /
                  static_cast<double>(std::max<int64_t>(1, total_completed)));
      row.Set(metric_keys::kCompleted,
              static_cast<double>(metrics.CountInWindow()));
      return std::vector<MetricRow>{std::move(row)};
    };
    ScenarioPlan plan;
    plan.cells.push_back(ScenarioCell{
        "SP-O", [run] { return run(PushMode::kSelectiveOutstanding, "SP-O"); }});
    plan.cells.push_back(ScenarioCell{
        "SP-P", [run] { return run(PushMode::kSelectivePending, "SP-P"); }});
    plan.finalize = [](const std::vector<std::vector<MetricRow>>& cell_rows) {
      ScenarioReport report;
      for (const auto& rows : cell_rows) {
        report.rows.insert(report.rows.end(), rows.begin(), rows.end());
      }
      report.derived.emplace_back(
          "spp_fast_share_pct",
          *report.rows[1].Find("fast_device_share_pct"));
      report.notes.push_back(
          "Fast devices should serve well over half the requests under SP-P "
          "without any per-device configuration; SP-O's fixed cap treats all "
          "devices alike.");
      return report;
    };
    return plan;
  };
  return scenario;
}

Scenario MakeAblationShortPromptScenario() {
  return SweepScenario(
      "ablation_short_prompt",
      "Request-characteristic routing (§7, short prompts)",
      "Routes prompts below a token threshold by load instead of prefix "
      "affinity, on a workload with many short one-off prompts.",
      [](const ScenarioOptions& options) {
        std::vector<ScenarioCell> cells;
        for (int64_t threshold : {int64_t{0}, int64_t{64}, int64_t{256}}) {
          const std::string label =
              threshold == 0 ? "disabled" : std::to_string(threshold) + " tok";
          cells.push_back(ScenarioCell{label, [threshold, label, options] {
            RunSpec spec = AblationRun(1206, options);
            ConversationWorkloadConfig& conversation =
                spec.workload.conversation;
            conversation.lengths.input_mu = 3.4;  // Shorter messages.
            conversation.turns_mean = 2;
            spec.system.skywalker.routing.short_prompt_threshold = threshold;
            MetricRow row = RunMetricRow(label, Run(spec), 6);
            row.Dim("short_prompt_threshold", std::to_string(threshold));
            return std::vector<MetricRow>{std::move(row)};
          }});
        }
        return cells;
      });
}

}  // namespace skywalker
