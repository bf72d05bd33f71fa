#include "src/lb/load_balancer.h"

#include <utility>

namespace skywalker {

LoadBalancer::LoadBalancer(Simulator* sim, Network* net, LbId id,
                           RegionId region, const DispatchConfig& config,
                           std::unique_ptr<ReplicaSelector> selector)
    : id_(id),
      region_(region),
      selector_(std::move(selector)),
      engine_(sim, net, region, config, selector_.get()) {}

LoadBalancer::~LoadBalancer() = default;

void LoadBalancer::AttachReplica(Replica* replica) {
  engine_.AttachReplica(replica);
}

void LoadBalancer::Start() { engine_.Start(); }

void LoadBalancer::HandleRequest(Request req, RequestCallbacks callbacks) {
  Queued queued;
  queued.req = std::move(req);
  queued.callbacks = std::move(callbacks);
  engine_.Enqueue(std::move(queued));
}

}  // namespace skywalker
