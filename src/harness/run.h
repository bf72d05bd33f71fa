// The run harness: builds any serving system evaluated in the paper (Fig. 8's
// seven systems plus the Region-Local baseline of Fig. 10) and its
// closed-loop client population on a plain Simulator or a region-sharded
// ShardedSimulator, runs warmup + measure + drain, and summarizes.
//
// Every client is a pure function of (workload.seed, global client index):
// its generator is a per-client fork (private user/session bands; ToT
// clients also private token bands), its request ids come from the private
// band `(index + 1) << 32`, and its RNG and start stagger draw from
// per-index seeds. Each region's outcomes go to that
// region's collector, and summaries re-feed the merged stream in canonical
// order. A run is therefore bit-identical across shard and thread counts,
// against the plain reference, and regardless of what else ran in the
// process.

#ifndef SKYWALKER_HARNESS_RUN_H_
#define SKYWALKER_HARNESS_RUN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/metrics.h"
#include "src/core/controller.h"
#include "src/core/deployment.h"
#include "src/core/runtime_config.h"
#include "src/lb/gateway.h"
#include "src/lb/load_balancer.h"
#include "src/lb/policies.h"
#include "src/net/network.h"
#include "src/net/topology.h"
#include "src/sim/sharded_simulator.h"
#include "src/workload/spec.h"

namespace skywalker {

enum class SystemKind {
  kGkeGateway,      // Regional gateways, capacity spill, no LLM awareness.
  kRoundRobin,      // Single central LB.
  kLeastLoad,       // Single central LB.
  kConsistentHash,  // Single central LB.
  kSglRouter,       // Single central LB, cache-aware.
  kSkyWalkerCh,     // Regional LBs, two-layer consistent hashing.
  kSkyWalker,       // Regional LBs, prefix trees + regional snapshots.
  kRegionLocal,     // Regional SkyWalker LBs with forwarding disabled.
};

std::string_view SystemKindName(SystemKind kind);

struct SystemSpec {
  SystemKind kind = SystemKind::kSkyWalker;
  std::vector<int> replicas_per_region;
  ReplicaConfig replica_config;
  SkyWalkerConfig skywalker;    // SkyWalker variants and Region-Local.
  ControllerConfig controller;  // SkyWalker variants and Region-Local.
  LbConfig baseline_lb;         // RR / LL / CH / SGL.
  GatewayConfig gateway;
  // Single-LB baselines are deployed in this region (the paper puts them in
  // the US).
  RegionId central_lb_region = 0;
};

// Owns every serving-side object of one run. Each region's replicas and LB
// live on that region's simulator (net->SimForRegion).
class ServingSystem {
 public:
  static std::unique_ptr<ServingSystem> Build(Network* net,
                                              const SystemSpec& spec);
  ~ServingSystem();

  void Start();

  FrontendResolver* resolver() { return resolver_; }
  const std::vector<Replica*>& replicas() const { return replica_ptrs_; }

  // Token-weighted prefix-cache hit rate across all replicas.
  double AggregateCacheHitRate() const;

  // Non-null only for the matching system kind.
  Deployment* deployment() { return deployment_.get(); }
  GatewayLb* gateway() { return gateway_.get(); }

 private:
  ServingSystem() = default;

  std::vector<std::unique_ptr<Replica>> owned_replicas_;
  std::vector<Replica*> replica_ptrs_;

  std::unique_ptr<Deployment> deployment_;        // SkyWalker variants.
  std::unique_ptr<LoadBalancer> baseline_lb_;     // RR/LL/CH/SGL.
  std::unique_ptr<GatewayLb> gateway_;            // GKE Gateway.
  std::unique_ptr<SingleFrontendResolver> single_resolver_;
  std::unique_ptr<NearestFrontendResolver> nearest_resolver_;
  FrontendResolver* resolver_ = nullptr;
};

// A scheduled fault (resilience scenarios), injected as an event on the
// faulted region's simulator so sharded runs stay deterministic. LB faults
// need a SkyWalker kind; replica faults work for every kind.
struct Fault {
  enum Kind {
    kLbFail,           // Region blackout at the LB (queue errors out).
    kLbRecover,
    kReplicaFail,      // Replica stops serving; running requests vanish.
    kReplicaRecover,
    kReplicaSlowdown,  // Gray failure: decode stretched by `factor`.
  };
  Kind kind = kLbFail;
  SimTime at = 0;
  RegionId region = 0;
  // kReplica*: index within the region's replicas; -1 = every replica
  // in the region. Ignored for LB faults.
  int replica_index = -1;
  double factor = 1.0;  // kReplicaSlowdown only.
};

// A RuntimeConfig snapshot every regional LB adopts at `at` (SkyWalker kinds
// only). Like a fault, it is injected as one event per LB on that LB's
// region's simulator, so sharded runs stay deterministic. The routing values
// that define the kind win over the update's: SkyWalker-CH keeps hashing and
// Region-Local keeps forwarding off.
struct ConfigUpdate {
  SimTime at = 0;
  RuntimeConfig config;
};

struct RunSpec {
  Topology topology = Topology::ThreeContinents();
  SystemSpec system;
  // workload.seed is the run's only seed.
  WorkloadSpec workload;

  SimDuration warmup = Seconds(60);
  SimDuration measure = Seconds(240);
  // Extra simulated time after the measurement window (set the clients'
  // stop_issuing_after accordingly) so in-flight and retried requests
  // settle; required for meaningful lost-forever accounting.
  SimDuration drain = 0;

  // 0: plain single-threaded Simulator (the reference). >= 1: sharded
  // simulation with that many region shards (clamped to the region count)
  // and `num_threads` workers (0 = one per shard). SkyWalker kinds only.
  int num_shards = 0;
  int num_threads = 1;

  std::vector<Fault> faults;
  std::vector<ConfigUpdate> config_updates;

  // Optional request-lifecycle tracer, installed on every shard (or the
  // plain simulator) before any actor is built. Caller-owned; must outlive
  // the run. Tracing never perturbs the simulation.
  Tracer* tracer = nullptr;
  // Serializes every outcome into RunResult::trace (one line per request,
  // canonical order) for bit-identity tests. Off for large benches.
  bool collect_trace = false;
};

struct RunResult {
  std::string_view system;
  // Measurement-window summary.
  size_t completed = 0;
  double throughput_tok_s = 0;  // (prompt + output) tokens / s.
  double output_throughput_tok_s = 0;
  double ttft_p50_s = 0;
  double ttft_p90_s = 0;
  double ttft_mean_s = 0;
  double e2e_p50_s = 0;
  double e2e_p90_s = 0;
  double e2e_mean_s = 0;
  double cache_hit_rate = 0;  // Replica-level, token weighted.
  double forwarded_fraction = 0;
  double outstanding_imbalance = 0;  // max/min mean outstanding per replica.
  Distribution ttft;
  Distribution e2e;
  // One line per completed request, sorted by (completion_time,
  // submit_time, client_region, id). Empty unless RunSpec::collect_trace.
  std::string trace;

  uint64_t messages_sent = 0;
  uint64_t cross_region_messages = 0;
  size_t executed_events = 0;
  int64_t preemptions = 0;  // Summed over replicas.

  // Resilience accounting, summed over all clients / LBs / the controller
  // for the whole run (warmup + measure + drain).
  int64_t issued = 0;           // Client submissions (retries re-count).
  int64_t completed_total = 0;  // Client-side completions.
  int64_t client_errors = 0;    // on_error deliveries (each is retried).
  int64_t lost_forever = 0;     // issued - completed_total - client_errors.
  int64_t request_timeouts = 0;
  int64_t probe_misses = 0;
  int64_t ejections = 0;
  int64_t recoveries = 0;
  int64_t late_completions = 0;
  int64_t config_swaps = 0;
  int64_t failovers = 0;  // Controller failovers handled.

  // Wall-clock telemetry (nondeterministic; BENCH_TIMING.json only).
  double run_wall_seconds = 0;
  std::vector<ShardedSimulator::ShardTiming> shard_timing;  // Sharded only.
  uint64_t windows = 0;
  double straggler_seconds = 0;  // See ShardedSimulator::straggler_seconds.
  double handshake_seconds = 0;  // See ShardedSimulator::handshake_seconds.
  int num_shards = 0;  // 0 for the plain reference.
  int num_threads = 0;
};

RunResult Run(const RunSpec& spec);

// Converts a result into the standard machine-readable row (all keys of
// StandardExperimentMetricKeys()). `total_replicas` prices the deployment at
// the paper's reserved per-replica-hour rate (cost_usd_per_hour).
MetricRow RunMetricRow(std::string label, const RunResult& result,
                       int total_replicas);

}  // namespace skywalker

#endif  // SKYWALKER_HARNESS_RUN_H_
