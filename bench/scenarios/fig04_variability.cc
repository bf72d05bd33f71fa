// Scenario ports of bench/fig04_variability.cc — (a) the CDF of request
// input/output token lengths; (b) KV-cache memory imbalance between two
// replicas under round-robin routing.
//
// Expected shape (paper): outputs are heavier tailed than inputs (tail into
// the thousands of tokens); under RR the peak memory utilization difference
// between two replicas reaches ~2.64x.

#include <algorithm>
#include <string>
#include <utility>

#include "bench/scenarios/scenarios.h"
#include "src/common/histogram.h"
#include "src/common/table.h"
#include "src/lb/policies.h"
#include "src/net/network.h"
#include "src/replica/replica.h"
#include "src/sim/simulator.h"
#include "src/workload/conversation.h"
#include "src/workload/length_model.h"

namespace skywalker {

Scenario MakeFig04aLengthCdfScenario() {
  Scenario scenario;
  scenario.name = "fig04a";
  scenario.title = "CDF of input / output token lengths";
  scenario.description =
      "Samples the length model and reports input/output token lengths at "
      "the paper's percentiles; outputs should be heavier tailed.";
  scenario.metric_keys = {"percentile", "input_len", "output_len"};
  scenario.plan = [](const ScenarioOptions& options) {
    ScenarioPlan plan;
    const int samples = options.smoke ? 20000 : 200000;
    plan.cells.push_back(ScenarioCell{
        "length_cdf", [seed = MixSeed(404, options.seed_stream), samples] {
          LengthModel model;
          Rng rng(seed);
          Distribution inputs;
          Distribution outputs;
          for (int i = 0; i < samples; ++i) {
            inputs.Add(static_cast<double>(model.SampleInputLen(rng)));
            outputs.Add(static_cast<double>(model.SampleOutputLen(rng)));
          }
          std::vector<MetricRow> rows;
          for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
            MetricRow row;
            row.label = "p" + Table::Num(p, 1);
            row.Set("percentile", p);
            row.Set("input_len", inputs.Percentile(p));
            row.Set("output_len", outputs.Percentile(p));
            rows.push_back(std::move(row));
          }
          return rows;
        }});
    plan.finalize = [](const std::vector<std::vector<MetricRow>>& cell_rows) {
      ScenarioReport report;
      report.rows = cell_rows[0];
      report.notes.push_back(
          "Check vs paper: output CDF lies right of the input CDF with a "
          "tail into the thousands of tokens (Fig. 4a shows lengths up to "
          "10k).");
      return report;
    };
    return plan;
  };
  return scenario;
}

Scenario MakeFig04bRrImbalanceScenario() {
  Scenario scenario;
  scenario.name = "fig04b";
  scenario.title = "RR memory imbalance across 2 replicas";
  scenario.description =
      "Open-loop WildChat-like arrivals routed round-robin to two replicas; "
      "reports per-replica KV memory utilization over time and the peak "
      "usage ratio.";
  scenario.metric_keys = {"time_s", "replica1_mem_pct", "replica2_mem_pct",
                          "ratio"};
  scenario.plan = [](const ScenarioOptions& options) {
    ScenarioPlan plan;
    const SimTime horizon = options.smoke ? Seconds(20) : Seconds(80);
    plan.cells.push_back(ScenarioCell{
        "rr_imbalance",
        [gen_seed = MixSeed(404, options.seed_stream),
         arrival_seed = MixSeed(405, options.seed_stream), horizon] {
          Simulator sim;
          Topology topology;
          topology.AddRegion("local", Milliseconds(1));
          Network net(&sim, topology);

          ReplicaConfig rconfig;
          rconfig.kv_capacity_tokens = 16384;
          rconfig.memory_sample_every_steps = 2;
          Replica replica_a(&sim, 0, 0, rconfig);
          Replica replica_b(&sim, 1, 0, rconfig);

          DispatchConfig lconfig;
          lconfig.push_mode = PushMode::kBlind;
          RoundRobinLb lb(&sim, &net, 0, 0, lconfig);
          lb.AttachReplica(&replica_a);
          lb.AttachReplica(&replica_b);
          lb.Start();

          // Open-loop arrivals with WildChat-like length variance (the
          // figure's time axis). The rate keeps replicas in the
          // mid-utilization band so imbalance is visible, not saturating.
          ConversationWorkloadConfig wconfig =
              ConversationWorkloadConfig::WildChat();
          wconfig.lengths.output_mu = 5.8;  // Longer, higher-variance.
          wconfig.lengths.output_sigma = 1.1;
          ConversationGenerator gen(wconfig, 1, gen_seed);
          Rng arrivals(arrival_seed);
          int completed = 0;
          SimTime t = 0;
          RequestId next_id = 1;
          while (t < horizon) {
            t += static_cast<SimTime>(arrivals.Exponential(1.0 / 0.8) * 1e6);
            auto user = gen.MakeUser(0);
            auto conv = gen.MakeConversation(user);
            const auto& turn = conv.turns[0];
            Request req;
            req.id = next_id++;
            req.user_id = user.user_id;
            req.client_region = 0;
            req.prompt = turn.prompt;
            req.output = turn.output;
            req.routing_key = user.routing_key;
            RequestCallbacks callbacks;
            callbacks.on_complete = [&completed](const RequestOutcome&) {
              ++completed;
            };
            sim.ScheduleAt(t, [&lb, req = std::move(req),
                               callbacks = std::move(callbacks)]() mutable {
              lb.HandleRequest(std::move(req), std::move(callbacks));
            });
          }
          sim.RunUntil(horizon);

          auto utilization_at = [](const Replica& replica, SimTime when) {
            double last = 0;
            for (const auto& [ts, util] : replica.memory_series()) {
              if (ts > when) {
                break;
              }
              last = util;
            }
            return last;
          };

          std::vector<MetricRow> rows;
          const SimTime step = horizon / 8;
          for (SimTime when = step; when <= horizon; when += step) {
            double a = utilization_at(replica_a, when);
            double b = utilization_at(replica_b, when);
            double hi = std::max(a, b);
            double lo = std::max(0.02, std::min(a, b));
            MetricRow row;
            row.label = "t" + Table::Num(ToSeconds(when), 0) + "s";
            row.Set("time_s", ToSeconds(when));
            row.Set("replica1_mem_pct", a * 100);
            row.Set("replica2_mem_pct", b * 100);
            row.Set("ratio", hi / lo);
            rows.push_back(std::move(row));
          }
          // Carried out-of-band on the last row so finalize can surface them
          // as derived headline metrics.
          MetricRow tail;
          tail.label = "__aggregate__";
          tail.Set("time_s", 0);
          tail.Set("replica1_mem_pct", 0);
          tail.Set("replica2_mem_pct", 0);
          tail.Set("ratio", 0);
          tail.Set("completed", completed);
          rows.push_back(std::move(tail));
          return rows;
        }});
    plan.finalize = [](const std::vector<std::vector<MetricRow>>& cell_rows) {
      ScenarioReport report;
      report.rows = cell_rows[0];
      const MetricRow aggregate = report.rows.back();
      report.rows.pop_back();
      double peak_ratio = 1.0;
      for (const MetricRow& row : report.rows) {
        peak_ratio = std::max(peak_ratio, *row.Find("ratio"));
      }
      report.derived.emplace_back("peak_memory_ratio", peak_ratio);
      report.derived.emplace_back("completed", *aggregate.Find("completed"));
      report.notes.push_back(
          "Check vs paper: peak memory-usage ratio between replicas under "
          "round robin reaches ~2.64x.");
      return report;
    };
    return plan;
  };
  return scenario;
}

}  // namespace skywalker
