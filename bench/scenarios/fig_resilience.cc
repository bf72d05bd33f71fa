// Resilience pack (ISSUE 7): hostile scenarios for the health state machine,
// passive outlier ejection, and hot config reswap, all on the run harness.
//
// Cells:
//  * blackout_resil / blackout_noresil — region 1 loses its LB and all of
//    its replicas mid-run, then recovers. With resilience on (request
//    timeouts + outlier ejection) every swallowed request times out at the
//    LB, errors back to its client, and is retried until it completes:
//    lost_forever must be exactly 0 after the drain. With resilience off,
//    requests in flight on the dead replicas hang forever. Plain-mode
//    cells: controller failover moves replicas across regions.
//  * gray_ej_on / gray_ej_off — two replicas in region 0 decode 8x slower
//    (gray failure: they answer probes, accept work, and crawl). Latency
//    ejection routes around them; the off cell keeps feeding them. The
//    derived `gray_goodput_gain_x` is the on/off goodput ratio.
//  * flash_crowd — a second client cohort lands on region 0 mid-window
//    (diurnal shift); reports how goodput and forwarding absorb it.
//  * reswap / reswap_shards4 — every regional LB adopts a RuntimeConfig
//    snapshot (push mode, routing policy, probe cadence) mid-run.
//    The pair runs identical specs on 1 shard / 1 thread and 4 shards / 8
//    threads with full traces; `reswap_determinism_ok` certifies the swap
//    is bit-identical under parallel execution.

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/scenarios/scenarios.h"
#include "src/common/hash.h"
#include "src/harness/run.h"
#include "src/obs/trace.h"

namespace skywalker {

namespace {

constexpr int kRegions = 4;

struct ResilienceDurations {
  SimDuration warmup;
  SimDuration measure;
  SimDuration drain;
};

ResilienceDurations Durations(const ScenarioOptions& options) {
  // Drain sizing: a request swallowed by the blackout times out at most
  // `request_timeout` after recovery, and its retry needs one more e2e
  // (p99 ~ 8 s at this operating point) to complete. The gray cells are the
  // long pole — requests held by an 8x straggler take up to ~8x the e2e tail
  // to finish — so the smoke drain is generous enough that every cell except
  // blackout-without-resilience converges to lost_forever == 0.
  if (options.smoke) {
    return {Seconds(2), Seconds(8), Seconds(60)};
  }
  return {Seconds(10), Seconds(60), Seconds(40)};
}

// Client-visible completion timeout: must clear the healthy e2e tail
// (p99 ~ 8 s) with margin, or healthy-but-slow requests get error-retried
// and their replicas ejected for nothing.
SimDuration RequestTimeout(const ScenarioOptions& options) {
  return options.smoke ? Seconds(10) : Seconds(20);
}

// The common fleet: 4 replicas per region, SP-P, closed-loop clients pinned
// to the busy-but-stable operating point of fig_fleet_scale.
RunSpec BaseSpec(const ScenarioOptions& options) {
  const ResilienceDurations d = Durations(options);
  RunSpec spec;
  spec.topology = Topology::FourRegions();
  spec.system.replicas_per_region.assign(kRegions, 4);
  spec.system.replica_config.max_running_requests = 8;
  spec.system.replica_config.kv_capacity_tokens = 24576;
  ClientConfig client;
  client.think_time_mean = Milliseconds(500);
  client.program_gap_mean = Seconds(1);
  // Quiesce before the drain so lost_forever accounting converges.
  client.stop_issuing_after = d.warmup + d.measure;
  spec.workload =
      ChatWorkload(std::vector<int>(kRegions, options.smoke ? 4 : 8), client,
                   MixSeed(7001, options.seed_stream));
  spec.warmup = d.warmup;
  spec.measure = d.measure;
  spec.drain = d.drain;
  return spec;
}

OutlierConfig ResilienceOn(const ScenarioOptions& options) {
  OutlierConfig outlier;
  outlier.enabled = true;
  outlier.request_timeout = RequestTimeout(options);
  outlier.probe_timeout = Seconds(1);
  outlier.consecutive_failures = 3;
  outlier.latency_factor = 3.0;
  // Long enough that a latency-ejected straggler doesn't cycle through
  // half-open recovery (capturing one slow victim per cycle) many times
  // within the measure window.
  outlier.base_ejection_time = options.smoke ? Seconds(5) : Seconds(20);
  return outlier;
}

// Lifecycle tracing for one cell (--trace): installs a caller-owned Tracer
// on the run spec and writes the TRACE_*.bin file after the run (a failed
// write fails the cell). Tracing never perturbs the simulation, so traced
// cells report the same metrics.
struct CellTrace {
  std::unique_ptr<Tracer> tracer;

  void Arm(RunSpec* spec, const ScenarioOptions& options) {
    if (!options.trace) {
      return;
    }
    tracer = std::make_unique<Tracer>(kRegions);
    spec->tracer = tracer.get();
  }

  void Write(const std::string& label, const ScenarioOptions& options,
             std::vector<std::pair<std::string, std::string>> meta = {}) {
    if (tracer != nullptr &&
        !WriteTraceArtifacts(*tracer, options.trace_dir, "fig_resilience",
                             label, std::move(meta))) {
      throw std::runtime_error("cannot write its trace under " +
                               options.trace_dir);
    }
  }
};

MetricRow ResilienceRow(const std::string& label, const RunSpec& spec,
                        const RunResult& result) {
  const double measure_sec = ToSeconds(spec.measure);
  MetricRow row = RunMetricRow(label, result,
                               kRegions * spec.system.replicas_per_region[0]);
  row.Set(metric_keys::kGoodputReqS,
          measure_sec <= 0
              ? 0.0
              : static_cast<double>(result.completed) / measure_sec);
  row.Set(metric_keys::kLostForever,
          static_cast<double>(result.lost_forever));
  row.Set(metric_keys::kMisrouted,
          static_cast<double>(result.request_timeouts +
                              result.late_completions));
  row.Set(metric_keys::kEjections, static_cast<double>(result.ejections));
  row.Set(metric_keys::kRecoveries, static_cast<double>(result.recoveries));
  row.Set(metric_keys::kClientErrors,
          static_cast<double>(result.client_errors));
  row.Set(metric_keys::kConfigSwaps,
          static_cast<double>(result.config_swaps));
  return row;
}

// --- blackout: LB + every replica of region 1 die, then recover ---

MetricRow RunBlackout(const std::string& label, bool resilience,
                      const ScenarioOptions& options) {
  const ResilienceDurations d = Durations(options);
  RunSpec spec = BaseSpec(options);
  // Plain mode: controller failover reassigns replicas across regions,
  // which is inherently cross-shard.
  spec.num_shards = 0;
  spec.num_threads = 1;
  // Recovery is driven by the scripted kLbRecover fault below.
  spec.system.controller.auto_recovery_delay = 0;
  if (resilience) {
    spec.system.skywalker.engine.outlier = ResilienceOn(options);
  }

  const SimTime fail_at = d.warmup + d.measure / 4;
  const SimTime recover_at = d.warmup + (d.measure * 3) / 5;
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

  CellTrace trace;
  trace.Arm(&spec, options);
  RunResult result = Run(spec);
  trace.Write(label, options,
              {{"resilience", resilience ? "on" : "off"}});
  return ResilienceRow(label, spec, result)
      .Dim("cell", "blackout")
      .Dim("resilience", resilience ? "on" : "off");
}

// --- gray failure: one straggler per region, 8x slower decode ---

MetricRow RunGray(const std::string& label, bool ejection,
                  const ScenarioOptions& options) {
  RunSpec spec = BaseSpec(options);
  spec.num_shards = kRegions;
  spec.num_threads = kRegions;
  if (ejection) {
    OutlierConfig outlier = ResilienceOn(options);
    // Latency-only detection: stragglers answer probes and never "fail",
    // so keep the guarded timeout path out of the comparison.
    outlier.request_timeout = 0;
    spec.system.skywalker.engine.outlier = outlier;
  }
  // One straggler per region, 8x decode. Milder than a hard hang on
  // purpose: at 8x the straggler still completes sequences, so it keeps
  // looking periodically attractive to load-aware routing (capturing fresh
  // victims all window) and its decode-latency EWMA accrues the samples the
  // detector needs within the first ~15 s. The per-region median stays
  // healthy (1 straggler out of 4), so 8x trips latency_factor = 3.
  for (RegionId region = 0; region < kRegions; ++region) {
    Fault slow;
    slow.kind = Fault::kReplicaSlowdown;
    slow.at = Seconds(1);
    slow.region = region;
    slow.replica_index = 0;
    slow.factor = 8.0;
    spec.faults.push_back(slow);
  }

  CellTrace trace;
  trace.Arm(&spec, options);
  RunResult result = Run(spec);
  trace.Write(label, options, {{"ejection", ejection ? "on" : "off"}});
  return ResilienceRow(label, spec, result)
      .Dim("cell", "gray")
      .Dim("ejection", ejection ? "on" : "off");
}

// --- flash crowd: region 0's population doubles mid-window ---

MetricRow RunFlashCrowd(const std::string& label,
                        const ScenarioOptions& options) {
  const ResilienceDurations d = Durations(options);
  RunSpec spec = BaseSpec(options);
  spec.num_shards = kRegions;
  spec.num_threads = kRegions;
  spec.system.skywalker.engine.outlier = ResilienceOn(options);
  // A second cohort the size of region 0's population.
  ClientGroup wave = spec.workload.groups[0];
  wave.start = d.warmup + (d.measure * 3) / 10;
  spec.workload.groups.push_back(wave);

  CellTrace trace;
  trace.Arm(&spec, options);
  RunResult result = Run(spec);
  trace.Write(label, options);
  return ResilienceRow(label, spec, result).Dim("cell", "flash_crowd");
}

// --- mid-run config reswap, determinism pair ---

MetricRow RunReswap(const std::string& label, int num_shards, int num_threads,
                    const ScenarioOptions& options) {
  const ResilienceDurations d = Durations(options);
  RunSpec spec = BaseSpec(options);
  spec.num_shards = num_shards;
  spec.num_threads = num_threads;
  spec.collect_trace = true;

  // The snapshot flips the push discipline, routing policy, τ, and probe
  // cadence at once — a worst-case knob swap.
  RuntimeConfig next = spec.system.skywalker.runtime();
  next.dispatch.push_mode = PushMode::kBlind;
  next.dispatch.probe_interval = Milliseconds(200);
  next.routing.policy = RoutingPolicyKind::kConsistentHash;
  next.routing.queue_tau = 8;
  ConfigUpdate update;
  update.at = d.warmup + d.measure / 2;
  update.config = next;
  spec.config_updates.push_back(update);

  CellTrace trace;
  trace.Arm(&spec, options);
  RunResult result = Run(spec);
  trace.Write(label, options,
              {{"shards", std::to_string(num_shards)},
               {"threads", std::to_string(num_threads)}});
  MetricRow row = ResilienceRow(label, spec, result);
  // Trace fingerprint: equal across the pair iff the full per-request
  // outcome stream is byte-identical.
  row.Set("trace_hash",
          static_cast<double>(HashString(result.trace) & 0xFFFFFFFFull));
  return row.Dim("cell", "reswap").Dim("shards", std::to_string(num_shards));
}

}  // namespace

Scenario MakeResilienceScenario() {
  Scenario scenario;
  scenario.name = "fig_resilience";
  scenario.title = "Resilience: blackout, gray failure, flash crowd, reswap";
  scenario.description =
      "Hostile-scenario pack for the resilience control plane: a region "
      "blackout with recovery (lost-forever accounting), gray-failure "
      "stragglers with latency ejection on vs off, a flash-crowd client "
      "wave, and a mid-run RuntimeConfig reswap run at 1 and 4 shards for "
      "bit-identity.";
  scenario.metric_keys = StandardExperimentMetricKeys();
  for (const std::string& key : ResilienceMetricKeys()) {
    scenario.metric_keys.push_back(key);
  }
  scenario.traceable = true;
  scenario.plan = [](const ScenarioOptions& options) {
    ScenarioPlan plan;
    plan.cells.push_back(ScenarioCell{"blackout_resil", [options] {
      return std::vector<MetricRow>{
          RunBlackout("blackout_resil", /*resilience=*/true, options)};
    }});
    plan.cells.push_back(ScenarioCell{"blackout_noresil", [options] {
      return std::vector<MetricRow>{
          RunBlackout("blackout_noresil", /*resilience=*/false, options)};
    }});
    plan.cells.push_back(ScenarioCell{"gray_ej_on", [options] {
      return std::vector<MetricRow>{
          RunGray("gray_ej_on", /*ejection=*/true, options)};
    }});
    plan.cells.push_back(ScenarioCell{"gray_ej_off", [options] {
      return std::vector<MetricRow>{
          RunGray("gray_ej_off", /*ejection=*/false, options)};
    }});
    plan.cells.push_back(ScenarioCell{"flash_crowd", [options] {
      return std::vector<MetricRow>{RunFlashCrowd("flash_crowd", options)};
    }});
    plan.cells.push_back(ScenarioCell{"reswap", [options] {
      return std::vector<MetricRow>{RunReswap("reswap", 1, 1, options)};
    }});
    plan.cells.push_back(ScenarioCell{"reswap_shards4", [options] {
      return std::vector<MetricRow>{
          RunReswap("reswap_shards4", 4, 8, options)};
    }});
    plan.finalize = [](const std::vector<std::vector<MetricRow>>& cell_rows) {
      ScenarioReport report;
      for (const auto& rows : cell_rows) {
        report.rows.insert(report.rows.end(), rows.begin(), rows.end());
      }
      auto safe_div = [](double a, double b) { return b <= 0 ? 0.0 : a / b; };
      const MetricRow* resil = FindRow(report.rows, "blackout_resil");
      if (resil != nullptr) {
        const double* lost = resil->Find(metric_keys::kLostForever);
        report.derived.emplace_back(
            "blackout_zero_lost_ok",
            (lost != nullptr && *lost == 0.0) ? 1.0 : 0.0);
      }
      const MetricRow* on = FindRow(report.rows, "gray_ej_on");
      const MetricRow* off = FindRow(report.rows, "gray_ej_off");
      if (on != nullptr && off != nullptr) {
        report.derived.emplace_back(
            "gray_goodput_gain_x",
            safe_div(*on->Find(metric_keys::kGoodputReqS),
                     *off->Find(metric_keys::kGoodputReqS)));
        report.derived.emplace_back(
            "gray_ttft_p99_cut_x",
            safe_div(*off->Find(metric_keys::kTtftP99),
                     *on->Find(metric_keys::kTtftP99)));
      }
      const MetricRow* single = FindRow(report.rows, "reswap");
      const MetricRow* sharded = FindRow(report.rows, "reswap_shards4");
      double determinism_ok = 0.0;
      if (single != nullptr && sharded != nullptr) {
        determinism_ok = 1.0;
        for (const auto& [key, value] : single->metrics) {
          const double* other = sharded->Find(key);
          if (other == nullptr || *other != value) {
            determinism_ok = 0.0;
          }
        }
      }
      report.derived.emplace_back("reswap_determinism_ok", determinism_ok);
      report.notes.push_back(
          "blackout_zero_lost_ok = 1: with request timeouts + ejection on, "
          "no request is swallowed forever by the region blackout. "
          "gray_goodput_gain_x: goodput recovered by ejecting the 8x "
          "stragglers. reswap_determinism_ok = 1: the mid-run config swap "
          "is bit-identical across 1-shard and 4-shard/8-thread runs.");
      return report;
    };
    return plan;
  };
  return scenario;
}

}  // namespace skywalker
