// Geographic topology: named regions plus a one-way latency matrix.
//
// Latencies model AWS-like inter-region links (paper §2.1: cross-region RTT
// up to ~200 ms, i.e. ~100 ms one-way; intra-region ~1 ms).

#ifndef SKYWALKER_NET_TOPOLOGY_H_
#define SKYWALKER_NET_TOPOLOGY_H_

#include <string>
#include <vector>

#include "src/common/sim_time.h"

namespace skywalker {

// Dense region identifier; assigned by Topology in insertion order.
using RegionId = int32_t;
inline constexpr RegionId kInvalidRegion = -1;

class Topology {
 public:
  Topology() = default;

  // Registers a region and returns its id. Latency to itself defaults to
  // `intra_region_latency`.
  RegionId AddRegion(std::string name,
                     SimDuration intra_region_latency = Milliseconds(1));

  // Sets the one-way latency in both directions between two regions.
  void SetLatency(RegionId a, RegionId b, SimDuration one_way);

  // One-way latency from `a` to `b`. Unset pairs default to
  // kDefaultInterRegionLatency.
  SimDuration Latency(RegionId a, RegionId b) const;

  size_t num_regions() const { return names_.size(); }
  const std::string& name(RegionId id) const { return names_.at(id); }

  // Canonical three-continent topology used throughout the evaluation:
  // us-east, eu-west, ap-southeast with paper-calibrated latencies.
  static Topology ThreeContinents();

  // Four-region topology used by the fleet-scale sharded-simulation study
  // (us-east, us-west, eu-west, ap-northeast). One region per shard at the
  // 4-shard sweet spot; min inter-region one-way latency 33 ms bounds the
  // conservative lookahead window.
  static Topology FourRegions();

  static constexpr SimDuration kDefaultInterRegionLatency = Milliseconds(75);

 private:
  std::vector<std::string> names_;
  // Flattened matrix; index a * num_regions + b. Rebuilt on AddRegion.
  std::vector<SimDuration> latency_;
};

}  // namespace skywalker

#endif  // SKYWALKER_NET_TOPOLOGY_H_
