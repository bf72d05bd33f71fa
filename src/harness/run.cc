#include "src/harness/run.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <tuple>
#include <utility>

#include "src/analysis/cost_model.h"
#include "src/common/histogram.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/harness/scenario.h"
#include "src/sim/simulator.h"
#include "src/workload/client.h"

namespace skywalker {

namespace {

bool IsSkyWalkerKind(SystemKind kind) {
  return kind == SystemKind::kSkyWalker || kind == SystemKind::kSkyWalkerCh ||
         kind == SystemKind::kRegionLocal;
}

// Canonical outcome order: independent of which shard recorded what when.
bool OutcomeBefore(const RequestOutcome& a, const RequestOutcome& b) {
  return std::tie(a.completion_time, a.submit_time, a.client_region, a.id) <
         std::tie(b.completion_time, b.submit_time, b.client_region, b.id);
}

std::string OutcomeTrace(const std::vector<RequestOutcome>& outcomes) {
  std::string trace;
  trace.reserve(outcomes.size() * 64);
  for (const RequestOutcome& o : outcomes) {
    trace += StrFormat(
        "%lld r%d>r%d@%d s%lld f%lld c%lld p%lld k%lld o%lld h%d%s\n",
        static_cast<long long>(o.id), static_cast<int>(o.client_region),
        static_cast<int>(o.served_region), static_cast<int>(o.replica),
        static_cast<long long>(o.submit_time),
        static_cast<long long>(o.first_token_time),
        static_cast<long long>(o.completion_time),
        static_cast<long long>(o.prompt_tokens),
        static_cast<long long>(o.cached_prompt_tokens),
        static_cast<long long>(o.output_tokens), o.hops,
        o.forwarded ? " F" : "");
  }
  return trace;
}

// The closed-loop client population. Client `index` (global, in group
// order) is a pure function of (seed, index): a per-client generator (see
// ConversationGenerator's fork and ToTGenerator's per-client constructor),
// request ids from `(index + 1) << 32`, and its own client and stagger RNG
// seeds.
class Clients {
 public:
  Clients(Network* net, FrontendResolver* resolver,
          const std::vector<std::unique_ptr<MetricsCollector>>& collectors,
          const WorkloadSpec& spec) {
    const uint64_t seed = spec.seed;
    uint64_t index = 0;
    for (const ClientGroup& group : spec.groups) {
      const bool tot = group.kind == ClientGroup::Kind::kToT;
      if (!tot && base_generator_ == nullptr) {
        base_generator_ = std::make_unique<ConversationGenerator>(
            spec.conversation, net->topology().num_regions(), seed);
      }
      Simulator* sim = net->SimForRegion(group.region);
      MetricsCollector* sink =
          collectors[static_cast<size_t>(group.region)].get();
      for (int i = 0; i < group.count; ++i, ++index) {
        ClientConfig config = group.client;
        config.request_id_base = static_cast<RequestId>((index + 1) << 32);
        const uint64_t generator_seed = MixSeed(seed + 1000, index + 1);
        const uint64_t client_seed = MixSeed(seed + 2000, index + 1);
        // Staggered over the group's first 5 s, independently per client (a
        // shared stagger RNG would be consumed in iteration order, which is
        // exactly the order sharding abolishes).
        Rng stagger_rng(MixSeed(seed ^ 0xdead, index + 1));
        const SimDuration stagger =
            group.start + static_cast<SimDuration>(stagger_rng.Uniform(0, 5e6));
        if (tot) {
          tot_generators_.push_back(
              std::make_unique<ToTGenerator>(group.tot, generator_seed, index));
          tot_.push_back(std::make_unique<ToTClient>(
              sim, net, resolver, tot_generators_.back().get(), sink,
              group.region, config, client_seed));
          starts_.emplace_back([c = tot_.back().get(), stagger] {
            c->Start(stagger);
          });
        } else {
          conv_generators_.push_back(std::make_unique<ConversationGenerator>(
              *base_generator_, index, generator_seed));
          conv_.push_back(std::make_unique<ConversationClient>(
              sim, net, resolver, conv_generators_.back().get(), sink,
              group.region, config, client_seed));
          starts_.emplace_back([c = conv_.back().get(), stagger] {
            c->Start(stagger);
          });
        }
      }
    }
  }

  // Starts every client, in index order.
  void Start() {
    for (const auto& start : starts_) {
      start();
    }
  }

  void AddAccounting(RunResult* result) const {
    for (const auto& client : conv_) {
      result->issued += static_cast<int64_t>(client->issued_requests());
      result->completed_total +=
          static_cast<int64_t>(client->completed_requests());
      result->client_errors += static_cast<int64_t>(client->errors());
    }
    for (const auto& client : tot_) {
      result->issued += static_cast<int64_t>(client->issued_requests());
      result->completed_total +=
          static_cast<int64_t>(client->completed_requests());
    }
  }

 private:
  std::unique_ptr<ConversationGenerator> base_generator_;
  std::vector<std::unique_ptr<ConversationGenerator>> conv_generators_;
  std::vector<std::unique_ptr<ToTGenerator>> tot_generators_;
  std::vector<std::unique_ptr<ConversationClient>> conv_;
  std::vector<std::unique_ptr<ToTClient>> tot_;
  std::vector<std::function<void()>> starts_;
};

}  // namespace

std::string_view SystemKindName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kGkeGateway:
      return "GKE-Gateway";
    case SystemKind::kRoundRobin:
      return "RR";
    case SystemKind::kLeastLoad:
      return "LL";
    case SystemKind::kConsistentHash:
      return "CH";
    case SystemKind::kSglRouter:
      return "SGL";
    case SystemKind::kSkyWalkerCh:
      return "SkyWalker-CH";
    case SystemKind::kSkyWalker:
      return "SkyWalker";
    case SystemKind::kRegionLocal:
      return "Region-Local";
  }
  return "unknown";
}

std::unique_ptr<ServingSystem> ServingSystem::Build(Network* net,
                                                    const SystemSpec& spec,
                                                    bool runtime_config) {
  const Topology& topology = net->topology();
  const auto num_regions = static_cast<RegionId>(topology.num_regions());
  SKYWALKER_CHECK(spec.replicas_per_region.size() == topology.num_regions())
      << "replicas_per_region must match the topology";

  auto system = std::unique_ptr<ServingSystem>(new ServingSystem());

  if (IsSkyWalkerKind(spec.kind)) {
    DeploymentSpec dspec;
    dspec.replicas_per_region = spec.replicas_per_region;
    dspec.replica_config = spec.replica_config;
    dspec.lb_config = spec.skywalker;
    dspec.controller_config = spec.controller;
    if (spec.kind == SystemKind::kSkyWalkerCh) {
      dspec.lb_config.routing.policy = RoutingPolicyKind::kConsistentHash;
    } else if (spec.kind == SystemKind::kSkyWalker) {
      dspec.lb_config.routing.policy = RoutingPolicyKind::kPrefixTree;
    } else {
      dspec.lb_config.routing.enable_forwarding = false;
    }
    // Created only when something will be published: subscription delivery
    // alone must not perturb the static fast path.
    if (runtime_config) {
      system->config_store_ =
          std::make_unique<ConfigStore>(dspec.lb_config.runtime());
      dspec.config_store = system->config_store_.get();
    }
    system->deployment_ = Deployment::Build(
        net->SimForRegion(spec.controller.home_region), net, dspec);
    for (const auto& replica : system->deployment_->replicas()) {
      system->replica_ptrs_.push_back(replica.get());
    }
    system->resolver_ = system->deployment_->resolver();
    return system;
  }

  // Baselines own their replicas directly.
  ReplicaId next_replica = 0;
  for (RegionId region = 0; region < num_regions; ++region) {
    for (int i = 0; i < spec.replicas_per_region[static_cast<size_t>(region)];
         ++i) {
      auto replica = std::make_unique<Replica>(
          net->SimForRegion(region), next_replica++, region,
          spec.replica_config);
      system->replica_ptrs_.push_back(replica.get());
      system->owned_replicas_.push_back(std::move(replica));
    }
  }

  if (spec.kind == SystemKind::kGkeGateway) {
    // One gateway object fronts every region (plain mode only).
    system->gateway_ =
        std::make_unique<GatewayLb>(net->SimForRegion(0), net, spec.gateway);
    for (Replica* replica : system->replica_ptrs_) {
      system->gateway_->AttachReplica(replica);
    }
    system->nearest_resolver_ =
        std::make_unique<NearestFrontendResolver>(&topology);
    for (RegionId region = 0; region < num_regions; ++region) {
      system->nearest_resolver_->AddFrontend(
          system->gateway_->EndpointFor(region));
    }
    system->resolver_ = system->nearest_resolver_.get();
    return system;
  }

  // Single centralized LB (Figure 1(b)).
  const LbId lb_id = 0;
  Simulator* lb_sim = net->SimForRegion(spec.central_lb_region);
  const RegionId lb_region = spec.central_lb_region;
  switch (spec.kind) {
    case SystemKind::kRoundRobin:
      system->baseline_lb_ = std::make_unique<RoundRobinLb>(
          lb_sim, net, lb_id, lb_region, spec.baseline_lb);
      break;
    case SystemKind::kLeastLoad:
      system->baseline_lb_ = std::make_unique<LeastLoadLb>(
          lb_sim, net, lb_id, lb_region, spec.baseline_lb);
      break;
    case SystemKind::kConsistentHash:
      system->baseline_lb_ = std::make_unique<ConsistentHashLb>(
          lb_sim, net, lb_id, lb_region, spec.baseline_lb);
      break;
    case SystemKind::kSglRouter:
      system->baseline_lb_ = std::make_unique<SglRouterLb>(
          lb_sim, net, lb_id, lb_region, spec.baseline_lb);
      break;
    default:
      SKYWALKER_CHECK(false) << "unhandled system kind";
  }
  for (Replica* replica : system->replica_ptrs_) {
    system->baseline_lb_->AttachReplica(replica);
  }
  system->single_resolver_ =
      std::make_unique<SingleFrontendResolver>(system->baseline_lb_.get());
  system->resolver_ = system->single_resolver_.get();
  return system;
}

ServingSystem::~ServingSystem() = default;

void ServingSystem::Start() {
  if (deployment_ != nullptr) {
    deployment_->Start();
  }
  if (baseline_lb_ != nullptr) {
    baseline_lb_->Start();
  }
}

double ServingSystem::AggregateCacheHitRate() const {
  int64_t hits = 0;
  int64_t lookups = 0;
  for (const Replica* replica : replica_ptrs_) {
    hits += replica->cache().hit_tokens();
    lookups += replica->cache().lookup_tokens();
  }
  return lookups == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(lookups);
}

RunResult Run(const RunSpec& spec) {
  const SystemSpec& system_spec = spec.system;
  SKYWALKER_CHECK(spec.num_shards <= 0 || IsSkyWalkerKind(system_spec.kind))
      << "sharded runs support the SkyWalker kinds only, not "
      << SystemKindName(system_spec.kind);
  const size_t num_regions = spec.topology.num_regions();
  const uint64_t seed = spec.workload.seed;

  // --- simulation substrate: plain reference or sharded ---
  std::unique_ptr<Simulator> plain_sim;
  std::unique_ptr<ShardedSimulator> sharded;
  std::unique_ptr<Network> net;
  if (spec.num_shards <= 0) {
    plain_sim = std::make_unique<Simulator>();
    plain_sim->SetTracer(spec.tracer);
    net = std::make_unique<Network>(plain_sim.get(), spec.topology,
                                    /*jitter_fraction=*/0.0, seed);
  } else {
    sharded = std::make_unique<ShardedSimulator>(
        spec.topology, spec.num_shards, spec.num_threads,
        /*jitter_fraction=*/0.0);
    sharded->SetTracer(spec.tracer);
    net = std::make_unique<Network>(sharded.get(), /*jitter_fraction=*/0.0,
                                    seed);
  }

  // --- serving system ---
  auto system = ServingSystem::Build(net.get(), system_spec,
                                     !spec.config_updates.empty());
  Deployment* deployment = system->deployment();
  // Setup-time publishes (after Build so every LB is subscribed; see the
  // determinism contract in src/core/runtime_config.h).
  for (const ConfigUpdate& update : spec.config_updates) {
    SKYWALKER_CHECK(system->config_store() != nullptr)
        << "config updates need a SkyWalker kind, not "
        << SystemKindName(system_spec.kind);
    system->config_store()->PublishAt(update.at, update.config);
  }

  // --- per-region metric collectors (each written only by its shard) ---
  const SimTime measure_end = spec.warmup + spec.measure;
  std::vector<std::unique_ptr<MetricsCollector>> collectors;
  collectors.reserve(num_regions);
  for (size_t r = 0; r < num_regions; ++r) {
    auto collector = std::make_unique<MetricsCollector>();
    collector->SetMeasurementWindow(spec.warmup, measure_end);
    collectors.push_back(std::move(collector));
  }

  Clients clients(net.get(), system->resolver(), collectors, spec.workload);
  system->Start();
  clients.Start();

  // --- scheduled faults, each an event on the faulted region's shard ---
  for (const Fault& fault : spec.faults) {
    Simulator* region_sim = net->SimForRegion(fault.region);
    region_sim->SetCurrentRegion(fault.region);
    if (fault.kind == Fault::kLbFail || fault.kind == Fault::kLbRecover) {
      SkyWalkerLb* lb = deployment == nullptr
                            ? nullptr
                            : deployment->LbInRegion(fault.region);
      SKYWALKER_CHECK(lb != nullptr)
          << "LB faults need a SkyWalker kind, not "
          << SystemKindName(system_spec.kind);
      if (fault.kind == Fault::kLbFail) {
        region_sim->ScheduleAt(fault.at, [lb] { lb->Fail(); });
      } else {
        // Controller-led recovery returns displaced replicas home; if the
        // controller never executed failover, recover the LB directly.
        // Touches two LBs' replica sets — plain-mode runs only, like
        // controller failover itself.
        Controller* controller = deployment->controller();
        region_sim->ScheduleAt(fault.at, [controller, lb] {
          if (!controller->RecoverLb(lb->id())) {
            lb->Recover();
          }
        });
      }
      continue;
    }
    int region_local = 0;
    bool matched = false;
    for (Replica* target : system->replicas()) {
      if (target->region() != fault.region) {
        continue;
      }
      if (fault.replica_index >= 0 && region_local++ != fault.replica_index) {
        continue;
      }
      matched = true;
      if (fault.kind == Fault::kReplicaFail) {
        region_sim->ScheduleAt(fault.at, [target] { target->Fail(); });
      } else if (fault.kind == Fault::kReplicaRecover) {
        region_sim->ScheduleAt(fault.at, [target] { target->Recover(); });
      } else {
        const double factor = fault.factor;
        region_sim->ScheduleAt(
            fault.at, [target, factor] { target->SetSlowdown(factor); });
      }
    }
    SKYWALKER_CHECK(matched) << "fault matched no replica";
  }

  // --- per-region imbalance samplers (each samples only its own shard's
  // replicas; RunningStat slots are per-replica, so there is no sharing) ---
  const std::vector<Replica*>& replicas = system->replicas();
  std::vector<RunningStat> outstanding_stats(replicas.size());
  std::vector<std::vector<size_t>> region_replicas(num_regions);
  for (size_t i = 0; i < replicas.size(); ++i) {
    region_replicas[static_cast<size_t>(replicas[i]->region())].push_back(i);
  }
  std::vector<std::unique_ptr<PeriodicTask>> samplers;
  for (RegionId region = 0; region < static_cast<RegionId>(num_regions);
       ++region) {
    Simulator* region_sim = net->SimForRegion(region);
    const std::vector<size_t>& mine =
        region_replicas[static_cast<size_t>(region)];
    auto sampler = std::make_unique<PeriodicTask>(
        region_sim, Seconds(1),
        [&replicas, &outstanding_stats, &mine, region_sim,
         warmup = spec.warmup, measure_end] {
          // Drain time is settling, not measurement.
          if (region_sim->now() < warmup || region_sim->now() > measure_end) {
            return;
          }
          for (size_t i : mine) {
            outstanding_stats[i].Add(
                static_cast<double>(replicas[i]->outstanding_count()));
          }
        });
    region_sim->SetCurrentRegion(region);
    sampler->Start();
    samplers.push_back(std::move(sampler));
  }

  // --- run ---
  const auto wall0 = std::chrono::steady_clock::now();
  const SimTime run_end = measure_end + spec.drain;
  RunResult result;
  result.executed_events = sharded != nullptr ? sharded->RunUntil(run_end)
                                              : plain_sim->RunUntil(run_end);
  result.run_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  // Replicas still inside a stable stretch emit their finished steps' trace
  // records now, while the tracer's caller can still export them.
  for (const Replica* replica : replicas) {
    replica->Sync();
  }
  for (auto& sampler : samplers) {
    sampler->Stop();
  }

  // --- canonical summarization: merge, sort, re-feed one collector so
  // every order-sensitive accumulation sees the same sequence ---
  std::vector<RequestOutcome> all;
  for (const auto& collector : collectors) {
    all.insert(all.end(), collector->outcomes().begin(),
               collector->outcomes().end());
  }
  std::sort(all.begin(), all.end(), OutcomeBefore);
  MetricsCollector merged;
  merged.SetMeasurementWindow(spec.warmup, measure_end);
  for (const RequestOutcome& outcome : all) {
    merged.RecordOutcome(outcome);
  }

  result.system = SystemKindName(system_spec.kind);
  result.completed = merged.CountInWindow();
  result.throughput_tok_s = merged.ThroughputTokensPerSec();
  result.output_throughput_tok_s = merged.OutputThroughputTokensPerSec();
  result.ttft = merged.TtftSeconds();
  result.e2e = merged.E2eSeconds();
  result.ttft_p50_s = result.ttft.Percentile(50);
  result.ttft_p90_s = result.ttft.Percentile(90);
  result.ttft_mean_s = result.ttft.mean();
  result.e2e_p50_s = result.e2e.Percentile(50);
  result.e2e_p90_s = result.e2e.Percentile(90);
  result.e2e_mean_s = result.e2e.mean();
  result.cache_hit_rate = system->AggregateCacheHitRate();
  result.forwarded_fraction = merged.ForwardedFraction();

  double min_mean = std::numeric_limits<double>::max();
  double max_mean = 0;
  for (const RunningStat& stat : outstanding_stats) {
    min_mean = std::min(min_mean, stat.mean());
    max_mean = std::max(max_mean, stat.mean());
  }
  result.outstanding_imbalance =
      (outstanding_stats.empty() || min_mean <= 0.0) ? 0.0
                                                     : max_mean / min_mean;
  if (spec.collect_trace) {
    result.trace = OutcomeTrace(all);
  }

  // --- resilience accounting ---
  clients.AddAccounting(&result);
  result.lost_forever =
      result.issued - result.completed_total - result.client_errors;
  for (const Replica* replica : replicas) {
    result.preemptions += replica->stats().preemptions;
  }
  if (deployment != nullptr) {
    for (const auto& lb : deployment->lbs()) {
      const DispatchEngine::Stats& engine = lb->engine().stats();
      result.request_timeouts += engine.request_timeouts;
      result.probe_misses += engine.probe_misses;
      result.ejections += engine.ejections;
      result.recoveries += engine.recoveries;
      result.late_completions += engine.late_completions;
      result.config_swaps += lb->stats().config_swaps;
    }
    result.failovers = deployment->controller()->stats().failovers_handled;
  }

  result.messages_sent = net->messages_sent();
  result.cross_region_messages = net->cross_region_messages();
  if (sharded != nullptr) {
    result.shard_timing = sharded->Timing();
    result.windows = sharded->windows();
    result.num_shards = sharded->num_shards();
    result.num_threads = sharded->num_threads();
  }
  return result;
}

MetricRow RunMetricRow(std::string label, const RunResult& result,
                       int total_replicas) {
  MetricRow row;
  row.label = std::move(label);
  row.Set(metric_keys::kThroughputTokS, result.throughput_tok_s);
  row.Set(metric_keys::kOutputTokS, result.output_throughput_tok_s);
  row.Set(metric_keys::kTtftP50, result.ttft_p50_s);
  row.Set(metric_keys::kTtftP90, result.ttft_p90_s);
  row.Set(metric_keys::kTtftP99,
          result.ttft.empty() ? 0.0 : result.ttft.Percentile(99));
  row.Set(metric_keys::kTtftMean, result.ttft_mean_s);
  row.Set(metric_keys::kE2eP50, result.e2e_p50_s);
  row.Set(metric_keys::kE2eP90, result.e2e_p90_s);
  row.Set(metric_keys::kE2eP99,
          result.e2e.empty() ? 0.0 : result.e2e.Percentile(99));
  row.Set(metric_keys::kCacheHitRate, result.cache_hit_rate);
  row.Set(metric_keys::kForwardRate, result.forwarded_fraction);
  row.Set(metric_keys::kImbalance, result.outstanding_imbalance);
  row.Set(metric_keys::kCompleted, static_cast<double>(result.completed));
  row.Set(metric_keys::kCostUsdPerHour,
          total_replicas * Pricing().reserved_hourly);
  return row;
}

}  // namespace skywalker
