// Layer replays: each hot layer's public functions timed standalone on
// inputs shaped like a workload. Next to the traced run's counts they give
// count x cost, an estimate of each layer's share of run_s.
//
// Every replay returns a median over a few repeats of a fixed amount of
// work, in nanoseconds per unit.

#ifndef PERFBENCH_REPLAYS_H_
#define PERFBENCH_REPLAYS_H_

#include <cstdint>

#include "world.h"

namespace perfbench {

// Simulator::ScheduleAt + Step with `backlog` events pending, per event.
double ReplaySimNsPerEvent(double backlog);

// PrefixCache::MatchAndRef / Insert / Unref over the workload's prompts at
// its KV capacity and page size, per prompt token.
double ReplayCacheNsPerToken(const WorkloadSpec& spec, uint64_t seed);

// DispatchEngine::LeastLoadedAvailable plus the re-index of the chosen
// replica, at the workload's replicas per balancer, per selection.
double ReplaySelectNs(const WorkloadSpec& spec);

// Replica::Probe on the finished world's replicas (filled with the
// workload's traffic), per probe.
double ReplayProbeNs(const World& world);

// A standalone Replica on a private Simulator, its batch kept full with the
// workload's requests, per engine step.
double ReplayReplicaNsPerStep(const WorkloadSpec& spec, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAYS_H_
