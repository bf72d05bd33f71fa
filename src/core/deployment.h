// Deployment builder: assembles a full SkyWalker serving system — replicas
// per region, one regional LB per region with full peer meshing, a DNS
// resolver, and the centralized controller (paper Figure 7).
//
// This is the primary public entry point of the library; see
// examples/quickstart.cpp.

#ifndef SKYWALKER_CORE_DEPLOYMENT_H_
#define SKYWALKER_CORE_DEPLOYMENT_H_

#include <memory>
#include <vector>

#include "src/core/controller.h"
#include "src/core/dns.h"
#include "src/core/skywalker_lb.h"
#include "src/net/network.h"
#include "src/replica/replica.h"
#include "src/sim/simulator.h"

namespace skywalker {

struct DeploymentSpec {
  // replicas_per_region[i] replicas are provisioned in topology region i.
  std::vector<int> replicas_per_region;
  ReplicaConfig replica_config;
  // Every LB starts with this; a mid-run change is one scheduled
  // SkyWalkerLb::ApplyRuntimeConfig call per LB (RunSpec::config_updates).
  SkyWalkerConfig lb_config;
  ControllerConfig controller_config;
};

class Deployment {
 public:
  // Builds (but does not start) the deployment. `net` must outlive it.
  static std::unique_ptr<Deployment> Build(Simulator* sim, Network* net,
                                           const DeploymentSpec& spec);

  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // Starts LB probe loops and the controller.
  void Start();

  FrontendResolver* resolver() { return &resolver_; }
  Controller* controller() { return controller_.get(); }

  const std::vector<std::unique_ptr<Replica>>& replicas() const {
    return replicas_;
  }
  const std::vector<std::unique_ptr<SkyWalkerLb>>& lbs() const { return lbs_; }

  SkyWalkerLb* LbInRegion(RegionId region);

  // Aggregate prefix-cache hit rate across all replicas (token-weighted).
  double AggregateCacheHitRate() const;
  // Sum of forwarded_out over all LBs.
  int64_t TotalForwarded() const;

 private:
  explicit Deployment(const Topology* topology) : resolver_(topology) {}

  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<SkyWalkerLb>> lbs_;
  std::unique_ptr<Controller> controller_;
  NearestFrontendResolver resolver_;
};

}  // namespace skywalker

#endif  // SKYWALKER_CORE_DEPLOYMENT_H_
