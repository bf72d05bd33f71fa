// SkyWalker regional load balancer (paper §3, Listing 1).
//
// One instance runs per region as the first point of contact for local
// clients. The replica half of §3.1 — FCFS queue, probe loop, selective
// pushing by pending requests (§3.3), and the passive health machinery of
// DESIGN.md §10 — is the shared dispatch engine in src/routing/; this class
// carries only the cross-region half and plugs into the engine as its
// ReplicaSelector: SelectReplica is the local placement policy, and the
// queue and probe-loop hooks are the forwarding half. It implements:
//
//  * Two-layer cross-region routing (§3.1): requests are placed on local
//    replicas whenever any is available; otherwise they are forwarded to an
//    *available* peer LB, which makes the final placement in its region.
//    Forwarded requests are terminal — they are never re-forwarded.
//
//  * Multi-region prefix-aware routing (§3.2) in two flavours:
//      - kConsistentHash (SkyWalker-CH): ring hash on the request's routing
//        key at both layers (replica ring + peer-LB ring), skipping
//        unavailable virtual nodes;
//      - kPrefixTree (SkyWalker): a local-replica prefix trie plus a
//        *regional snapshot* trie recording which prompts this region has
//        forwarded to which peers. When the best prefix hit ratio is below
//        `explore_threshold`, the balancer explores under-utilized replicas
//        instead (§5.1).
//
//  * Peer availability (Listing 1, line 12): a peer LB is available iff it
//    has >= 1 available replica and a queue shorter than the τ buffer.
//
//  * Custom routing constraints (§4.1/§7): an optional predicate restricts
//    which (from-region, to-region) forwarding pairs are allowed (e.g. GDPR
//    policies).
//
// Health: Status()/Serving() are the LB's one availability authority — the
// controller's failover detection, DNS resolution, and peer availability
// all read them. Mutable knobs live in the two RuntimeConfig halves
// (engine + routing) and reswap mid-run through ApplyRuntimeConfig, which
// Run schedules for each RunSpec::config_updates entry.

#ifndef SKYWALKER_CORE_SKYWALKER_LB_H_
#define SKYWALKER_CORE_SKYWALKER_LB_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/cache/hash_ring.h"
#include "src/cache/routing_trie.h"
#include "src/common/sim_time.h"
#include "src/core/runtime_config.h"
#include "src/net/network.h"
#include "src/replica/replica.h"
#include "src/routing/dispatch_engine.h"
#include "src/routing/health.h"
#include "src/sim/simulator.h"
#include "src/workload/request.h"

namespace skywalker {

// SkyWalker proper pushes selectively by pending requests (§3.3); the
// engine's own default is the blind-pushing baseline (BP).
inline DispatchConfig SkyWalkerEngineDefaults() {
  DispatchConfig config;
  config.push_mode = PushMode::kSelectivePending;
  return config;
}

struct SkyWalkerConfig {
  // The two mutable halves of a RuntimeConfig snapshot: every knob here can
  // reswap mid-run through ApplyRuntimeConfig.
  DispatchConfig engine = SkyWalkerEngineDefaults();
  RoutingRuntimeConfig routing;

  // Optional constraint on forwarding pairs (GDPR, §7). Null allows all.
  // A predicate, not a value — stays out of the serializable snapshot.
  std::function<bool(RegionId from, RegionId to)> forward_allowed;

  // This config's knobs as a snapshot (the base a config update edits).
  RuntimeConfig runtime() const {
    RuntimeConfig config;
    config.dispatch = engine;
    config.routing = routing;
    return config;
  }
};

class SkyWalkerLb : public Frontend, private ReplicaSelector {
 public:
  // The cross-region half's counters; the local-placement and resilience
  // counters live in engine().stats().
  struct Stats {
    int64_t received_client = 0;
    int64_t received_forwarded = 0;
    int64_t forwarded_out = 0;
    int64_t errors_reported = 0;
    int64_t config_swaps = 0;  // Mid-run RuntimeConfig applications.
  };

  SkyWalkerLb(Simulator* sim, Network* net, LbId id, RegionId region,
              const SkyWalkerConfig& config);
  ~SkyWalkerLb() override;

  SkyWalkerLb(const SkyWalkerLb&) = delete;
  SkyWalkerLb& operator=(const SkyWalkerLb&) = delete;

  // --- topology management (controller API) ---
  void AttachReplica(Replica* replica);
  void DetachReplica(ReplicaId replica_id);
  void AddPeer(SkyWalkerLb* peer);
  std::vector<Replica*> ManagedReplicas() const;

  void Start();

  // --- health: the one availability authority for this LB ---
  HealthStatus Status() const { return status_; }
  bool Serving() const { return CanServe(status_); }

  // --- Frontend ---
  RegionId region() const override { return region_; }
  bool healthy() const override { return Serving(); }
  void HandleRequest(Request req, RequestCallbacks callbacks) override;

  // Peer entry point: a request another region decided to offload here.
  // `origin_lb_region` is the forwarding LB's region (response path hop).
  void HandleForwarded(Request req, RequestCallbacks callbacks,
                       RegionId origin_lb_region);

  // --- runtime config ---
  // Adopts a new snapshot: engine knobs swap via DispatchEngine::ApplyConfig
  // (probe loop re-arms as needed), routing knobs take effect on the next
  // decision that reads them. Structural state (tries, rings, peers,
  // queue, outstanding counts) carries over untouched. Every call counts
  // as one config swap.
  void ApplyRuntimeConfig(const RuntimeConfig& config);

  // --- peer-visible probe state (PROBELB in Listing 1) ---
  int AvailableReplicaCount() const;
  size_t QueueSize() const { return engine_.queue_size(); }
  // True when this LB's own local capacity has been exhausted beyond the
  // patience window, i.e. it is (or is about to start) offloading. Peers
  // never forward into an overloaded region: that would only displace its
  // traffic and bounce conversations across regions.
  bool IsOverloaded() const;

  // --- fault injection (§4.2) ---
  // Fails the LB: pending queued requests error out (clients re-resolve);
  // probe loop stops; peers observe unavailability on their next probe.
  void Fail();
  void Recover();

  LbId id() const { return id_; }
  const SkyWalkerConfig& config() const { return config_; }
  const Stats& stats() const { return stats_; }
  size_t num_replicas() const { return engine_.num_replicas(); }
  size_t num_peers() const { return peers_.size(); }

  // The local half: engine counters and health (harness, tests).
  const DispatchEngine& engine() const { return engine_; }

 private:
  struct PeerState {
    SkyWalkerLb* peer = nullptr;
    int probed_avail_replicas = 0;
    size_t probed_queue_size = 0;
    bool probed_overloaded = false;
    int forwards_since_probe = 0;
    bool probed_once = false;
  };

  // --- ReplicaSelector: SELECTCANDIDATE over local replicas (Listing 1,
  // lines 17-26). ---
  ReplicaId SelectReplica(const Queued& queued,
                          const CandidateView& candidates) override;
  void OnReplicaAttached(Replica* replica) override;
  void OnReplicaDetached(ReplicaId replica_id) override;

  // --- ReplicaSelector: the cross-region half (HANDLEREQUEST, PROBELB) ---
  bool ShouldDispatch() const override { return Serving(); }
  HeadAction OnQueueHead(Queued& head) override;
  HeadAction OnUnplaced(Queued& head) override;
  void OnLocalDispatch(const Queued& queued, ReplicaId replica_id) override;
  void OnProbeTick() override;
  void OnAfterReplicaProbes() override;
  void OnReplicaProbeResult() override;

  bool PeerAvailable(const PeerState& state) const;
  // A known, available peer this region may forward to (forward_allowed).
  bool PeerEligible(TargetId id) const;

  // SELECTCANDIDATE over peer LBs.
  LbId SelectPeer(const Queued& queued);
  // Available peer already holding this prompt's context (sticky affinity),
  // or kInvalidLb.
  LbId StickyRemotePeer(const Queued& queued);

  void Forward(Queued queued, LbId peer_id);
  PeerState* FindPeer(LbId id);

  Simulator* sim_;
  Network* net_;
  LbId id_;
  RegionId region_;
  SkyWalkerConfig config_;
  HealthStatus status_ = HealthStatus::kHealthy;
  Stats stats_;

  std::map<LbId, PeerState> peers_;

  HashRing replica_ring_;
  HashRing lb_ring_;
  RoutingTrie replica_trie_;
  RoutingTrie snapshot_trie_;

  DispatchEngine engine_;

  // Last simulated time at which some local replica was available.
  SimTime last_local_avail_ = 0;
  // EWMA of AvailableReplicaCount()/num_replicas, updated per probe cycle.
  double avail_fraction_ewma_ = 1.0;
};

}  // namespace skywalker

#endif  // SKYWALKER_CORE_SKYWALKER_LB_H_
