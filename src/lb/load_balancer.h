// Baseline load-balancer frontend (paper §5.1): a thin Frontend shell over
// the shared dispatch engine in src/routing/. The engine owns the FCFS
// queue, per-replica probe state, the heartbeat probe loop, and the three
// pushing disciplines of §3.3 (kBlind / kSelectiveOutstanding /
// kSelectivePending); this class only adapts requests into the engine and
// injects the placement policy as a ReplicaSelector (src/lb/policies.h).

#ifndef SKYWALKER_LB_LOAD_BALANCER_H_
#define SKYWALKER_LB_LOAD_BALANCER_H_

#include <cstdint>
#include <memory>

#include "src/common/sim_time.h"
#include "src/net/network.h"
#include "src/replica/replica.h"
#include "src/routing/dispatch_engine.h"
#include "src/sim/simulator.h"
#include "src/workload/request.h"

namespace skywalker {

class LoadBalancer : public Frontend {
 public:
  using Stats = DispatchEngine::Stats;

  // `selector` provides the placement policy; see src/lb/policies.h for the
  // four baselines. The selector is notified of replica attach/detach.
  // `config` holds the engine knobs; baselines default to blind pushing.
  LoadBalancer(Simulator* sim, Network* net, LbId id, RegionId region,
               const DispatchConfig& config,
               std::unique_ptr<ReplicaSelector> selector);
  ~LoadBalancer() override;

  LoadBalancer(const LoadBalancer&) = delete;
  LoadBalancer& operator=(const LoadBalancer&) = delete;

  // Registers a replica this LB manages. May be called before or after
  // Start().
  void AttachReplica(Replica* replica);

  // Starts the probe loop (no-op for kBlind).
  void Start();

  // Frontend:
  RegionId region() const override { return region_; }
  void HandleRequest(Request req, RequestCallbacks callbacks) override;

  LbId id() const { return id_; }
  const Stats& stats() const { return engine_.stats(); }
  size_t queue_length() const { return engine_.queue_size(); }

 protected:
  DispatchEngine* engine() { return &engine_; }
  const DispatchEngine* engine() const { return &engine_; }
  ReplicaSelector* selector() { return selector_.get(); }

 private:
  LbId id_;
  RegionId region_;
  std::unique_ptr<ReplicaSelector> selector_;
  DispatchEngine engine_;
};

}  // namespace skywalker

#endif  // SKYWALKER_LB_LOAD_BALANCER_H_
