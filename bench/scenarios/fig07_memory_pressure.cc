// Paged-KV memory pressure under the fig09 decode-heavy workload (ISSUE 4).
//
// Re-runs the blind-pushing (BP) vs selective-pushing-by-pending (SP-P)
// comparison with the replica's paged memory subsystem enabled: real block
// sizes (16/32 tokens), an admission watermark, and both preemption
// policies (recompute vs swap-to-host over modeled PCIe). SP-P cells also
// enable the free-block-aware routing gate, so the balancer consumes the
// probe loop's KV headroom snapshots rather than pending counts alone.
//
// What to look for:
//  * nonzero preemption/swap counters — the workload is sized so decode
//    growth outruns the output reservations, exactly the churn regime of
//    fig09, now visible at page granularity;
//  * the SP-P vs BP throughput gap under a finer memory model (the paper's
//    Fig. 9 reports 1.27x; the coarse model in fig09 reproduces ~1.01x);
//  * swap vs recompute: whether paying PCIe transfers beats re-prefilling
//    under a warm prefix cache;
//  * the saturation cross (sat/* rows, ISSUE 8): a shrunken per-replica KV
//    held at the admission wall for the whole window, (BP, SP-P) x
//    (recompute, swap) at b16. SP-P's throughput edge there is modest
//    (~1.05x swap, ~1.01x recompute — the >=1.15x target did not survive
//    measurement: closed-loop clients throttle demand at jammed replicas, so
//    BP's misrouting surfaces in TTFT tails rather than goodput). The cache
//    evicts its oldest unpinned leaf first in every cell; the labels keep
//    their `lruleaf` suffix so rows and trace names stay stable.

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/scenarios/scenarios.h"
#include "src/analysis/cost_model.h"
#include "src/analysis/metrics.h"
#include "src/lb/policies.h"
#include "src/net/network.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/workload/client.h"
#include "src/workload/tot.h"

namespace skywalker {

namespace {

constexpr int kReplicas = 4;
constexpr int kClients = 40;  // fig09's calibrated mid-utilization point.
// ISSUE 8 saturation operating point, chosen by sweeping clients (8..160) x
// reserve (32..256) x thought length (250..1200) x capacity (8k..32k): it
// is memory-saturated but compute-subsaturated. Per-replica KV sits at the
// admission wall for the whole measurement window (sustained watermark
// rejections, preemption asymmetry BP ~12 vs SP-P ~1) while fleet
// throughput stays ~30% below the prefill compute ceiling, so cell
// differences reflect memory policy rather than arrival starvation. Larger
// client counts jam the closed-loop clients equally in both arms and
// collapse the gap (see the floors file note).
constexpr int kSaturationClients = 16;
// Under-reservation creates the thrash: ToT thought lengths are lognormal
// (mean 350, sigma 1.2), so a 64-token reserve admits residents whose
// decode tail outruns the reservation mid-flight, and the pressure resolves
// through preemption or cache eviction instead of admission backoff. The
// base cells' 128-token reserve plus a 32k KV absorbs nearly all of that.
constexpr int32_t kSaturationReserveTokens = 64;
constexpr int64_t kSaturationThoughtTokens = 350;
constexpr int64_t kSaturationCapacityTokens = 12288;
constexpr double kSaturationThoughtSigma = 1.2;

struct MemoryCase {
  std::string label;
  PushMode mode;
  int32_t block_size;
  PreemptPolicy policy;
  // ISSUE 8 saturation matrix: a shrunken per-replica KV with an
  // under-sized output reserve and longer thoughts, sized (by sweeping) so
  // every replica holds at the admission wall for the whole measurement
  // window — sustained watermark rejections and preemptions — while compute
  // stays subsaturated.
  bool saturate = false;
};

// Hand-wired rather than a RunSpec: the fig07 floors hold only on these
// canonical client seeds (one shared generator, fixed 50 ms stagger).
MetricRow RunCase(const MemoryCase& mc, const ScenarioOptions& options) {
  Simulator sim;
  Topology topology;
  topology.AddRegion("local", Milliseconds(1));
  Network net(&sim, topology);
  // Request-lifecycle tracing (ISSUE 9): installed before any actor runs so
  // the trace covers the full lifecycle. Tracing never perturbs the sim —
  // the metric row below is byte-identical with it on or off.
  std::unique_ptr<Tracer> tracer;
  if (options.trace) {
    tracer = std::make_unique<Tracer>(/*num_regions=*/1);
    sim.SetTracer(tracer.get());
  }

  ReplicaConfig rconfig;
  rconfig.max_running_requests = 32;
  rconfig.output_reserve_tokens =
      mc.saturate ? kSaturationReserveTokens : 128;
  rconfig.kv_capacity_tokens =
      mc.saturate ? kSaturationCapacityTokens : 32768;
  // Paged memory model (the whole point of this figure).
  rconfig.kv_block_size_tokens = mc.block_size;
  rconfig.kv_preempt_policy = mc.policy;
  // Keep one typical request's worth of blocks free as decode headroom.
  rconfig.kv_watermark_blocks =
      (512 + rconfig.output_reserve_tokens) / mc.block_size;
  std::vector<std::unique_ptr<Replica>> replicas;
  for (int i = 0; i < kReplicas; ++i) {
    replicas.push_back(std::make_unique<Replica>(&sim, i, 0, rconfig));
  }
  DispatchConfig config;
  config.push_mode = mc.mode;
  config.max_outstanding_per_replica = 24;
  config.push_slack = 32;
  if (mc.mode == PushMode::kSelectivePending) {
    // Free-block-aware routing: skip replicas whose probed admissible-block
    // fraction fell below 1% — i.e. replicas genuinely out of pages, not
    // merely packed to the watermark (kBlind never probes, so the gate only
    // binds for the selective cells).
    config.min_free_block_fraction = 0.01;
  }
  SglRouterLb lb(&sim, &net, 0, 0, config);
  for (auto& replica : replicas) {
    lb.AttachReplica(replica.get());
  }
  lb.Start();

  SingleFrontendResolver resolver(&lb);
  MetricsCollector metrics;
  // Saturated smoke cells keep a longer window: queueing pushes TTFT past
  // the base cells' whole 5s warmup, and the prefix reuse that eviction
  // competes with only exists once ToT programs reach depth 2+.
  const SimDuration warmup = options.smoke
                                 ? (mc.saturate ? Seconds(10) : Seconds(5))
                                 : Seconds(30);
  const SimDuration measure = options.smoke
                                  ? (mc.saturate ? Seconds(60) : Seconds(20))
                                  : Seconds(240);
  metrics.SetMeasurementWindow(warmup, warmup + measure);

  ToTConfig tot;
  tot.depth = 4;
  tot.branching = 2;
  tot.question_len_mean = 800;
  tot.thought_len_mean = 250;
  tot.thought_len_sigma = 1.2;
  if (mc.saturate) {
    // Decode-heavier thoughts (mean 350 vs 250): each resident's unreserved
    // private-block demand grows ~40% past its 64-token reserve, and the
    // completions that donate evictable pages back arrive slower, so a
    // batch packed to the memory wall must preempt or evict to make
    // progress instead of coasting on its reservations.
    tot.thought_len_mean = kSaturationThoughtTokens;
    tot.thought_len_sigma = kSaturationThoughtSigma;
  }
  ToTGenerator generator(tot, MixSeed(707, options.seed_stream));
  ClientConfig client_config;
  client_config.think_time_mean = Milliseconds(200);
  client_config.program_gap_mean = Seconds(1);
  std::vector<std::unique_ptr<ToTClient>> clients;
  const int base_clients = options.smoke ? kClients / 4 : kClients;
  // Saturation cells pin their own client count against the shrunken KV
  // instead of inheriting the smoke divisor: the pressure comes from
  // capacity, not concurrency.
  const int num_clients = mc.saturate ? kSaturationClients : base_clients;
  for (int i = 0; i < num_clients; ++i) {
    // Private id bands keep trace bytes independent of pool order.
    client_config.request_id_base = static_cast<RequestId>(
        (static_cast<uint64_t>(i) + 1) << 32);
    clients.push_back(std::make_unique<ToTClient>(
        &sim, &net, &resolver, &generator, &metrics, 0, client_config,
        MixSeed(1700 + static_cast<uint64_t>(i), options.seed_stream)));
    clients.back()->Start(Milliseconds(i * 50));
  }
  sim.RunUntil(warmup + measure);

  if (tracer != nullptr) {
    for (const auto& replica : replicas) {
      replica->Sync();  // Trace every engine step finished by the deadline.
    }
    if (!WriteTraceArtifacts(
            *tracer, options.trace_dir, "fig07_memory_pressure", mc.label,
            {{"policy", mc.mode == PushMode::kBlind ? "BP" : "SP-P"},
             {"preempt",
              mc.policy == PreemptPolicy::kSwap ? "swap" : "recompute"}})) {
      throw std::runtime_error("cannot write its trace under " +
                               options.trace_dir);
    }
  }

  MetricRow row;
  row.label = mc.label;
  row.Dim("policy", mc.mode == PushMode::kBlind ? "BP" : "SP-P");
  row.Dim("block_size", std::to_string(mc.block_size));
  row.Dim("preempt",
          mc.policy == PreemptPolicy::kSwap ? "swap" : "recompute");
  if (mc.saturate) {
    row.Dim("saturation", "on");
    row.Dim("eviction", "lruleaf");
  }
  Distribution ttft = metrics.TtftSeconds();
  Distribution e2e = metrics.E2eSeconds();
  row.Set(metric_keys::kThroughputTokS, metrics.ThroughputTokensPerSec());
  row.Set(metric_keys::kOutputTokS, metrics.OutputThroughputTokensPerSec());
  row.Set(metric_keys::kTtftP50, ttft.empty() ? 0.0 : ttft.Percentile(50));
  row.Set(metric_keys::kTtftP90, ttft.empty() ? 0.0 : ttft.Percentile(90));
  row.Set(metric_keys::kTtftP99, ttft.empty() ? 0.0 : ttft.Percentile(99));
  row.Set(metric_keys::kE2eP50, e2e.empty() ? 0.0 : e2e.Percentile(50));
  row.Set(metric_keys::kE2eP90, e2e.empty() ? 0.0 : e2e.Percentile(90));
  row.Set(metric_keys::kE2eP99, e2e.empty() ? 0.0 : e2e.Percentile(99));
  int64_t hits = 0;
  int64_t lookups = 0;
  int64_t cache_blocks = 0;
  int64_t evictable_blocks = 0;
  int64_t seq_blocks = 0;
  KvCounters kv;
  for (auto& replica : replicas) {
    hits += replica->cache().hit_tokens();
    lookups += replica->cache().lookup_tokens();
    kv += replica->kv().counters();
    // Exact end-of-run occupancy from the unified ledger (ISSUE 5).
    Replica::LoadSnapshot snap = replica->Snapshot();
    cache_blocks += snap.cache_blocks;
    evictable_blocks += snap.evictable_blocks;
    seq_blocks += replica->kv().seq_block_refs();
  }
  row.Set(metric_keys::kCacheHitRate,
          lookups == 0
              ? 0.0
              : static_cast<double>(hits) / static_cast<double>(lookups));
  row.Set(metric_keys::kCompleted,
          static_cast<double>(metrics.CountInWindow()));
  SetKvMetrics(row, kv, kReplicas * rconfig.kv_capacity_tokens);
  row.Set(metric_keys::kKvCacheBlocks, static_cast<double>(cache_blocks));
  row.Set(metric_keys::kKvEvictableBlocks,
          static_cast<double>(evictable_blocks));
  row.Set(metric_keys::kKvSeqBlocks, static_cast<double>(seq_blocks));
  return row;
}

}  // namespace

Scenario MakeFig07MemoryPressureScenario() {
  Scenario scenario;
  scenario.name = "fig07_memory_pressure";
  scenario.title =
      "Paged-KV preemption under decode-heavy load (BP vs SP-P)";
  scenario.description =
      "The fig09 workload on the paged memory subsystem: block sizes 16/32, "
      "admission watermark, recompute vs swap preemption, and free-block-"
      "aware routing for the SP-P cells. One cell per (policy, block size, "
      "preemption) combination, plus a 4-cell saturation cross at the "
      "memory wall.";
  scenario.metric_keys = {
      metric_keys::kThroughputTokS,
      metric_keys::kOutputTokS,
      metric_keys::kTtftP50,
      metric_keys::kTtftP90,
      metric_keys::kTtftP99,
      metric_keys::kE2eP50,
      metric_keys::kE2eP90,
      metric_keys::kE2eP99,
      metric_keys::kCacheHitRate,
      metric_keys::kCompleted,
      metric_keys::kPreemptions,
      metric_keys::kSwapOuts,
      metric_keys::kSwapIns,
      metric_keys::kSwapTransferSec,
      metric_keys::kKvFragmentationPct,
      metric_keys::kKvWatermarkRejections,
      metric_keys::kKvCacheBlocks,
      metric_keys::kKvEvictableBlocks,
      metric_keys::kKvSeqBlocks,
  };
  scenario.traceable = true;
  scenario.plan = [](const ScenarioOptions& options) {
    ScenarioPlan plan;
    std::vector<MemoryCase> cases = {
        {"bp/b16/recompute", PushMode::kBlind, 16, PreemptPolicy::kRecompute},
        {"bp/b16/swap", PushMode::kBlind, 16, PreemptPolicy::kSwap},
        {"spp/b16/recompute", PushMode::kSelectivePending, 16,
         PreemptPolicy::kRecompute},
        {"spp/b16/swap", PushMode::kSelectivePending, 16,
         PreemptPolicy::kSwap},
        {"bp/b32/swap", PushMode::kBlind, 32, PreemptPolicy::kSwap},
        {"spp/b32/swap", PushMode::kSelectivePending, 32,
         PreemptPolicy::kSwap},
    };
    // Saturation cross: (BP, SP-P) x (recompute, swap) at b16 under the
    // saturated workload.
    for (PushMode mode : {PushMode::kBlind, PushMode::kSelectivePending}) {
      for (PreemptPolicy policy :
           {PreemptPolicy::kRecompute, PreemptPolicy::kSwap}) {
        MemoryCase mc;
        mc.label = std::string("sat/") +
                   (mode == PushMode::kBlind ? "bp" : "spp") + "/b16/" +
                   (policy == PreemptPolicy::kSwap ? "swap" : "recompute") +
                   "/lruleaf";
        mc.mode = mode;
        mc.block_size = 16;
        mc.policy = policy;
        mc.saturate = true;
        cases.push_back(std::move(mc));
      }
    }
    for (const MemoryCase& mc : cases) {
      plan.cells.push_back(ScenarioCell{mc.label, [mc, options] {
        return std::vector<MetricRow>{RunCase(mc, options)};
      }});
    }
    plan.finalize = [](const std::vector<std::vector<MetricRow>>& cell_rows) {
      ScenarioReport report;
      for (const auto& rows : cell_rows) {
        report.rows.insert(report.rows.end(), rows.begin(), rows.end());
      }
      // Ratio of `key` between two cells (0 when the denominator is 0). The
      // runner only finalizes unfiltered plans, so every label exists.
      auto ratio = [&](const std::string& num, const std::string& den,
                       const char* key = metric_keys::kThroughputTokS) {
        const double d = *FindRow(report.rows, den)->Find(key);
        return d <= 0 ? 0.0 : *FindRow(report.rows, num)->Find(key) / d;
      };
      report.derived.emplace_back(
          "spp_vs_bp_throughput_b16_recompute_x",
          ratio("spp/b16/recompute", "bp/b16/recompute"));
      report.derived.emplace_back("spp_vs_bp_throughput_b16_swap_x",
                                  ratio("spp/b16/swap", "bp/b16/swap"));
      report.derived.emplace_back("spp_vs_bp_throughput_b32_swap_x",
                                  ratio("spp/b32/swap", "bp/b32/swap"));
      report.derived.emplace_back("swap_vs_recompute_spp_b16_x",
                                  ratio("spp/b16/swap", "spp/b16/recompute"));
      report.derived.emplace_back(
          "spp_b16_swap_ttft_p90_over_recompute_x",
          ratio("spp/b16/swap", "spp/b16/recompute", metric_keys::kTtftP90));
      // Saturated SP-P/BP gap — the headline the CI floor guards:
      report.derived.emplace_back("sat_spp_vs_bp_b16_recompute_x",
                                  ratio("sat/spp/b16/recompute/lruleaf",
                                        "sat/bp/b16/recompute/lruleaf"));
      report.derived.emplace_back(
          "sat_spp_vs_bp_b16_swap_x",
          ratio("sat/spp/b16/swap/lruleaf", "sat/bp/b16/swap/lruleaf"));
      report.notes.push_back(
          "Paged-memory re-run of fig09 (paper Fig. 9: SP-P/BP throughput "
          "1.27x): preemption and swap counters must be nonzero under this "
          "load; compare spp_vs_bp_throughput_* against fig09's coarse-mode "
          "ratio.");
      report.notes.push_back(
          "sat_* cells (ISSUE 8) hold the shrunken KV at the admission wall "
          "all window. Closed-loop clients bound the SP-P/BP goodput gap "
          "there (~1.05x swap): BP's misrouting shows up as TTFT tail "
          "inflation, not lost throughput.");
      return report;
    };
    return plan;
  };
  return scenario;
}

}  // namespace skywalker
