// Runtime configuration snapshots (DESIGN.md §10.1).
//
// Every knob a SkyWalker balancer can change mid-run lives in one
// RuntimeConfig value: the engine half (DispatchConfig — push mode, probe
// interval, slack, gates, outlier detection) and the cross-region routing
// half (RoutingRuntimeConfig — policy, thresholds, forwarding). A mid-run
// update is a RunSpec::config_updates entry: Run schedules one
// SkyWalkerLb::ApplyRuntimeConfig call per LB at the update's time, on that
// LB's own simulator and keyed to its region (src/harness/run.h).
//
// Knobs that are structurally static — trie/ring capacities (allocated
// once), the forward_allowed predicate (not a value), replica hardware
// parameters — stay on the owning stack's construction config.

#ifndef SKYWALKER_CORE_RUNTIME_CONFIG_H_
#define SKYWALKER_CORE_RUNTIME_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "src/common/sim_time.h"
#include "src/routing/dispatch_engine.h"

namespace skywalker {

enum class RoutingPolicyKind {
  kConsistentHash,  // SkyWalker-CH
  kPrefixTree,      // SkyWalker
};

// The cross-region routing knobs of SkyWalkerLb that may reswap mid-run.
struct RoutingRuntimeConfig {
  RoutingPolicyKind policy = RoutingPolicyKind::kPrefixTree;

  // τ: small queue buffer for newly arriving requests (Listing 1, line 12).
  size_t queue_tau = 4;

  // Flap damping: forward only after local replicas have been continuously
  // unavailable for this long. Saturated replicas flap between full and
  // momentarily-free at probe granularity; offloading on every flap migrates
  // conversations back and forth, and each migration re-prefills the whole
  // context in the other region. Persistent overload (the case offloading
  // is for) easily exceeds this window.
  SimDuration forward_patience = Milliseconds(250);

  // kPrefixTree: when the regional snapshot shows at least this fraction of
  // the prompt is cached at an available peer, the request stays with that
  // peer even if local replicas are free. Without stickiness an offloaded
  // conversation migrates home on the next availability flap and re-prefills
  // its entire context in both regions, turn after turn.
  double remote_affinity_threshold = 0.5;

  // kPrefixTree: below this prompt hit ratio, prefer under-utilized
  // replicas over prefix affinity (§5.1 "explores other replicas").
  double explore_threshold = 0.5;

  // Enables cross-region forwarding. Disabling yields the Region-Local
  // deployment baseline of Fig. 10.
  bool enable_forwarding = true;

  // §7 extension ("more advanced policies"): prompts shorter than this skip
  // prefix matching and go to the least-loaded available replica — short
  // prompts have little prefill to save, so balancing load is worth more
  // than cache affinity. 0 disables the heuristic.
  int64_t short_prompt_threshold = 0;
};

// One knob snapshot, applied by value.
struct RuntimeConfig {
  DispatchConfig dispatch;
  RoutingRuntimeConfig routing;
};

}  // namespace skywalker

#endif  // SKYWALKER_CORE_RUNTIME_CONFIG_H_
