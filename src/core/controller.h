// Centralized service controller (paper §4.2): monitors load-balancer health
// with periodic probes and orchestrates failure recovery. When an LB fails,
// its replicas are reassigned to the geographically closest healthy LB,
// which temporarily treats them as local replicas; once the failed LB
// recovers, the replicas transfer back. Multiple concurrent LB failures are
// tolerated.

#ifndef SKYWALKER_CORE_CONTROLLER_H_
#define SKYWALKER_CORE_CONTROLLER_H_

#include <map>
#include <memory>
#include <vector>

#include "src/core/skywalker_lb.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"

namespace skywalker {

struct ControllerConfig {
  SimDuration health_probe_interval = Milliseconds(500);
  // Simulated time to restore a failed LB. <= 0 disables auto-recovery
  // (tests then call RecoverLb explicitly).
  SimDuration auto_recovery_delay = Seconds(30);
  // Region the controller's own events (health-probe loop) are keyed to in
  // sharded mode; the controller lives on that region's shard.
  RegionId home_region = 0;
};

class Controller {
 public:
  Controller(Simulator* sim, Network* net, const ControllerConfig& config);
  ~Controller();

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  // Registers a load balancer under management.
  void ManageLb(SkyWalkerLb* lb);

  void Start();

  // Explicit recovery entry point (also used by the auto-recovery timer).
  // Returns false if the LB was not in a failed state.
  bool RecoverLb(LbId lb_id);

  struct Stats {
    int64_t failovers_handled = 0;
    int64_t recoveries_completed = 0;
    int64_t replicas_reassigned = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct ManagedLb {
    SkyWalkerLb* lb = nullptr;
    // Failover has been executed and not yet rolled back. Distinct from the
    // LB's own HealthStatus: the controller reacts to kFailed with a lag of
    // up to one probe interval, and recovery rolls this back explicitly.
    bool failover_active = false;
    // Replicas moved away during failover, and who hosts them now.
    std::vector<std::pair<Replica*, SkyWalkerLb*>> displaced;
  };

  void ProbeHealth();
  void HandleFailure(ManagedLb& entry);
  SkyWalkerLb* NearestHealthyLb(RegionId region, LbId exclude);

  Simulator* sim_;
  Network* net_;
  ControllerConfig config_;
  std::map<LbId, ManagedLb> lbs_;
  std::unique_ptr<PeriodicTask> probe_task_;
  Stats stats_;
};

}  // namespace skywalker

#endif  // SKYWALKER_CORE_CONTROLLER_H_
