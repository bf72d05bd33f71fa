// Baseline routing policies from the paper's evaluation (§5.1), as thin
// ReplicaSelectors over the shared dispatch engine (src/routing/):
//   RR  — round robin
//   LL  — least load (fewest LB-tracked outstanding requests)
//   CH  — ring-hash consistent hashing on the request's routing key
//   SGL — SGLang-Router-style cache-aware routing: route to the replica
//         with the longest approximate prefix match when it covers more
//         than a threshold fraction of the prompt, otherwise to the worker
//         with the most free cache space.
//
// All four run as a single (typically centralized) LoadBalancer. Their push
// mode comes from LbConfig — the paper's baselines use blind pushing; the
// Fig. 9 microbenchmark re-runs SGL with SP-O and SP-P.
//
// The *Lb convenience classes bind each selector to a LoadBalancer with the
// historical constructor signature, so call sites read `RoundRobinLb lb(...)`.

#ifndef SKYWALKER_LB_POLICIES_H_
#define SKYWALKER_LB_POLICIES_H_

#include <cstdint>
#include <map>
#include <memory>

#include "src/cache/hash_ring.h"
#include "src/cache/routing_trie.h"
#include "src/lb/load_balancer.h"

namespace skywalker {

class RoundRobinSelector : public ReplicaSelector {
 public:
  ReplicaId SelectReplica(const Queued& queued,
                          const CandidateView& candidates) override;

 private:
  size_t next_ = 0;
};

class LeastLoadSelector : public ReplicaSelector {
 public:
  ReplicaId SelectReplica(const Queued& queued,
                          const CandidateView& candidates) override;
};

class ConsistentHashSelector : public ReplicaSelector {
 public:
  ReplicaId SelectReplica(const Queued& queued,
                          const CandidateView& candidates) override;
  void OnReplicaAttached(Replica* replica) override;
  void OnReplicaDetached(ReplicaId replica_id) override;

 private:
  HashRing ring_;
};

class SglRouterSelector : public ReplicaSelector {
 public:
  SglRouterSelector();

  ReplicaId SelectReplica(const Queued& queued,
                          const CandidateView& candidates) override;
  void OnReplicaDetached(ReplicaId replica_id) override;

 private:
  RoutingTrie trie_;
  // SGLang's cache-aware fallback balances by approximate per-worker tree
  // size (cache footprint), not by in-flight load — a deliberate fidelity
  // choice that reproduces the blind-pushing imbalance of §3.3. Counts are
  // tokens inserted per target, decayed on eviction pressure.
  std::map<TargetId, int64_t> approx_tree_tokens_;
};

// --- Frontend convenience wrappers --------------------------------------

class RoundRobinLb : public LoadBalancer {
 public:
  RoundRobinLb(Simulator* sim, Network* net, LbId id, RegionId region,
               const LbConfig& config)
      : LoadBalancer(sim, net, id, region, config,
                     std::make_unique<RoundRobinSelector>()) {}
};

class LeastLoadLb : public LoadBalancer {
 public:
  LeastLoadLb(Simulator* sim, Network* net, LbId id, RegionId region,
              const LbConfig& config)
      : LoadBalancer(sim, net, id, region, config,
                     std::make_unique<LeastLoadSelector>()) {}
};

class ConsistentHashLb : public LoadBalancer {
 public:
  ConsistentHashLb(Simulator* sim, Network* net, LbId id, RegionId region,
                   const LbConfig& config)
      : LoadBalancer(sim, net, id, region, config,
                     std::make_unique<ConsistentHashSelector>()) {}
};

class SglRouterLb : public LoadBalancer {
 public:
  SglRouterLb(Simulator* sim, Network* net, LbId id, RegionId region,
              const LbConfig& config)
      : LoadBalancer(sim, net, id, region, config,
                     std::make_unique<SglRouterSelector>()) {}
};

}  // namespace skywalker

#endif  // SKYWALKER_LB_POLICIES_H_
