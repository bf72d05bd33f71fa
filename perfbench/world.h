// The benchmark's workloads and the world each one runs in.
//
// A world is one SkyWalker deployment plus its closed-loop client population,
// wired through the library's public API (Simulator or ShardedSimulator,
// Network, Deployment::Build, ConversationClient / ToTClient) the way
// src/harness/fleet.cc wires a fleet: per-client forked generators, private
// request-id bands, per-region collectors merged in canonical order. Unlike
// RunFleetExperiment it is split into the calls the benchmark times one by
// one: build (per layer), Start, the event loop sliced at the end of warm-up,
// summarization and teardown.

#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"
#include "src/analysis/metrics.h"
#include "src/core/deployment.h"
#include "src/net/network.h"
#include "src/net/topology.h"
#include "src/obs/trace.h"
#include "src/replica/replica.h"
#include "src/sim/sharded_simulator.h"
#include "src/sim/simulator.h"
#include "src/workload/client.h"
#include "src/workload/conversation.h"
#include "src/workload/tot.h"

namespace perfbench {

using skywalker::SimDuration;
using skywalker::SimTime;

struct WorkloadSpec {
  std::string name;
  skywalker::Topology topology;
  std::vector<int> replicas_per_region;
  // Closed-loop chat clients (ConversationClient) per region.
  std::vector<int> chat_clients_per_region;
  // Closed-loop Tree-of-Thoughts clients (ToTClient), all in region 0.
  int tot_clients = 0;
  skywalker::ToTConfig tot;
  skywalker::ConversationWorkloadConfig conversation;
  skywalker::ClientConfig client;
  skywalker::ReplicaConfig replica;
  skywalker::SkyWalkerConfig lb;
  SimDuration warmup = 0;
  SimDuration measure = 0;
  // 0: the plain single-threaded Simulator; otherwise a ShardedSimulator
  // with this many region shards and `num_threads` workers.
  int num_shards = 0;
  int num_threads = 1;
  // Worlds per seed. Served metrics pool the windows of this many worlds
  // with seeds derived from the run's seed (SubSeeds), which narrows their
  // spread across seeds the way a longer window would, without the longer
  // calls.
  int worlds = 1;

  SimTime end() const { return warmup + measure; }
  int total_replicas() const;
  int max_replicas_per_region() const;
};

// The benchmark's workloads, in a fixed order.
const std::vector<WorkloadSpec>& Workloads();
// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

// The seeds of a run's worlds: `seed` itself, then spec.worlds - 1 values
// drawn from an Rng seeded with it.
std::vector<uint64_t> SubSeeds(const WorkloadSpec& spec, uint64_t seed);

// Request accounting at the serving-system boundary. `sent` counts requests
// a regional balancer accepted from a client, `succeeded` client-observed
// completions, `failed` client-observed errors, and `vanished` requests a
// replica dropped without a reply. `issued` counts client submissions,
// including requests still crossing the client->balancer hop; ToTClient
// does not count them, so it is -1 on workloads that use it.
struct Counts {
  int64_t sent = 0;
  int64_t succeeded = 0;
  int64_t failed = 0;
  int64_t vanished = 0;
  int64_t issued = -1;

  int64_t InFlight() const { return sent - succeeded - failed; }
  Counts Minus(const Counts& earlier) const;
  bool operator==(const Counts& o) const;
};

// One world's measurement window: requests completing in [warmup, warmup +
// measure), MetricsCollector's convention, in canonical outcome order.
struct WindowSamples {
  std::vector<double> ttft_ms;
  std::vector<double> tpot_ms;  // Requests with >= 2 output tokens.
  double tokens = 0;            // Prompt plus output tokens completed.
  int64_t met_slo = 0;          // TTFT <= 1 s and TPOT <= 100 ms.
  int64_t window_failed = 0;    // Errors in the window count as SLO misses.
  Counts total;                 // Whole run, for ok_frac.
};

// The simulated deployment's results, pooled over the windows of one or
// more worlds (ok_frac covers whole runs). Deterministic for a seed.
struct Served {
  int64_t ttft_samples = 0;  // Requests completed in the window(s).
  double ttft_p50_ms = 0;
  double ttft_p999_ms = 0;
  int64_t tpot_samples = 0;
  double tpot_p50_ms = 0;
  double tpot_p999_ms = 0;
  double tok_s = 0;
  double slo_frac = 0;
  double ok_frac = 0;

  // Every field at full precision: two runs served the same results iff
  // their strings are equal.
  std::string Canonical() const;
};

Served Pool(const std::vector<const WindowSamples*>& windows,
            SimDuration measure);

// What distinguishes the workloads, printed for every seed run.
struct Character {
  double forwarded_frac = 0;  // In-window completions served off-region.
  int64_t preemptions = 0;
  int64_t evict_victims = 0;
  double hit_rate = 0;        // Token-weighted prefix-cache hit rate.
};

class World {
 public:
  // Builds the world for `seed`; each build step is a child span of
  // `parent`. `tracer` (may be null) must outlive the world.
  World(const WorkloadSpec& spec, uint64_t seed, skywalker::Tracer* tracer,
        Spans* spans, int parent);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // Starts balancer probe loops, the controller and every client.
  void Start();
  void RunUntil(SimTime deadline);

  Counts counts() const;
  Character character() const;
  // Merges the per-region outcome streams in canonical order and collects
  // the measurement window; `window_failed` errors count as SLO misses.
  WindowSamples Summarize(const Counts& total, int64_t window_failed);

  // Wall seconds of the build steps: simulators and network, the deployment
  // (replicas, balancers, controller), and the client population.
  struct BuildTimes {
    double sim_s = 0;
    double core_s = 0;
    double workload_s = 0;
  };
  const BuildTimes& build_times() const { return build_times_; }

  // Layer access for the traced run and the replays.
  const WorkloadSpec& spec() const { return spec_; }
  const skywalker::Deployment& deployment() const { return *deployment_; }
  const skywalker::Network& network() const { return *net_; }
  const skywalker::ShardedSimulator* sharded() const { return sharded_.get(); }
  size_t executed_events() const;
  // Pending events per event queue (mean over shards when sharded).
  double pending_events_per_queue() const;
  // Canonically ordered client-observed completions; filled by Summarize.
  const std::vector<skywalker::RequestOutcome>& outcomes() const {
    return merged_;
  }

 private:
  const WorkloadSpec& spec_;
  BuildTimes build_times_;
  std::unique_ptr<skywalker::Simulator> plain_;
  std::unique_ptr<skywalker::ShardedSimulator> sharded_;
  std::unique_ptr<skywalker::Network> net_;
  std::unique_ptr<skywalker::Deployment> deployment_;
  std::vector<std::unique_ptr<skywalker::MetricsCollector>> collectors_;
  std::unique_ptr<skywalker::ConversationGenerator> base_generator_;
  std::vector<std::unique_ptr<skywalker::ConversationGenerator>> generators_;
  std::vector<std::unique_ptr<skywalker::ConversationClient>> chat_clients_;
  std::vector<SimDuration> chat_staggers_;
  std::unique_ptr<skywalker::ToTGenerator> tot_generator_;
  std::vector<std::unique_ptr<skywalker::ToTClient>> tot_clients_;
  std::vector<skywalker::RequestOutcome> merged_;
};

// Wall time of one workload call, split at its first simulated event:
// setup_s covers world build and Start; run_s the event loop, summarization
// and teardown. The remaining fields break both down.
struct RepTiming {
  double setup_s = 0;
  double run_s = 0;
  double build_sim_s = 0;
  double build_core_s = 0;
  double build_clients_s = 0;
  double loop_warmup_s = 0;
  double loop_window_s = 0;
  double summarize_s = 0;
  double teardown_s = 0;
};

struct RepResult {
  RepTiming timing;
  WindowSamples window;
  Served served;  // This world alone.
  Counts warmup;  // At the end of warm-up.
  Counts total;   // At the end of the window.
  Character character;
  size_t events = 0;
  double backlog = 0;  // Pending events per queue at the end of warm-up.
  std::vector<skywalker::ShardedSimulator::ShardTiming> shard_timing;
  uint64_t windows = 0;
  int threads = 1;
};

// Runs one whole workload call. `inspect`, when set, sees the finished world
// after summarization and before teardown; its time is in neither setup_s
// nor run_s.
RepResult RunRep(const WorkloadSpec& spec, uint64_t seed,
                 skywalker::Tracer* tracer, Spans* spans,
                 const std::function<void(const World&)>& inspect = {});

// Builds and destroys the world without running it; returns the build time
// (the setup_s of a call that would run).
double SetupOnly(const WorkloadSpec& spec, uint64_t seed, Spans* spans);

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_
