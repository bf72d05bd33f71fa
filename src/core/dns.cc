#include "src/core/dns.h"

#include <limits>

namespace skywalker {

Frontend* NearestFrontendResolver::Resolve(RegionId client_region) {
  Frontend* best = nullptr;
  SimDuration best_latency = std::numeric_limits<SimDuration>::max();
  for (Frontend* frontend : frontends_) {
    // Frontend::healthy() is backed by SkyWalkerLb::Serving() on real LBs:
    // DNS keeps resolving to degraded regions (the engine rides those out)
    // and skips only hard-failed ones.
    if (!frontend->healthy()) {
      continue;
    }
    SimDuration l = topology_->Latency(client_region, frontend->region());
    if (l < best_latency) {
      best = frontend;
      best_latency = l;
    }
  }
  return best;
}

}  // namespace skywalker
