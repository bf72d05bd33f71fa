#include "src/net/topology.h"

#include <cassert>

namespace skywalker {

RegionId Topology::AddRegion(std::string name, SimDuration intra) {
  RegionId id = static_cast<RegionId>(names_.size());
  names_.push_back(std::move(name));
  size_t n = names_.size();
  std::vector<SimDuration> next(n * n, -1);
  for (size_t a = 0; a + 1 < n; ++a) {
    for (size_t b = 0; b + 1 < n; ++b) {
      next[a * n + b] = latency_[a * (n - 1) + b];
    }
  }
  latency_ = std::move(next);
  latency_[static_cast<size_t>(id) * n + static_cast<size_t>(id)] = intra;
  return id;
}

void Topology::SetLatency(RegionId a, RegionId b, SimDuration one_way) {
  size_t n = names_.size();
  assert(a >= 0 && static_cast<size_t>(a) < n);
  assert(b >= 0 && static_cast<size_t>(b) < n);
  latency_[static_cast<size_t>(a) * n + static_cast<size_t>(b)] = one_way;
  latency_[static_cast<size_t>(b) * n + static_cast<size_t>(a)] = one_way;
}

SimDuration Topology::Latency(RegionId a, RegionId b) const {
  size_t n = names_.size();
  assert(a >= 0 && static_cast<size_t>(a) < n);
  assert(b >= 0 && static_cast<size_t>(b) < n);
  SimDuration v = latency_[static_cast<size_t>(a) * n + static_cast<size_t>(b)];
  return v >= 0 ? v : kDefaultInterRegionLatency;
}

Topology Topology::ThreeContinents() {
  Topology t;
  RegionId us = t.AddRegion("us-east", Milliseconds(1));
  RegionId eu = t.AddRegion("eu-west", Milliseconds(1));
  RegionId ap = t.AddRegion("ap-southeast", Milliseconds(1));
  // One-way latencies calibrated to public AWS inter-region RTT measurements
  // (~2x these numbers), within the paper's "up to 200 ms RTT" envelope.
  t.SetLatency(us, eu, Milliseconds(40));
  t.SetLatency(us, ap, Milliseconds(85));
  t.SetLatency(eu, ap, Milliseconds(95));
  return t;
}

Topology Topology::FourRegions() {
  Topology t;
  RegionId use = t.AddRegion("us-east", Milliseconds(1));
  RegionId usw = t.AddRegion("us-west", Milliseconds(1));
  RegionId euw = t.AddRegion("eu-west", Milliseconds(1));
  RegionId apn = t.AddRegion("ap-northeast", Milliseconds(1));
  t.SetLatency(use, usw, Milliseconds(33));
  t.SetLatency(use, euw, Milliseconds(40));
  t.SetLatency(use, apn, Milliseconds(75));
  t.SetLatency(usw, euw, Milliseconds(67));
  t.SetLatency(usw, apn, Milliseconds(55));
  t.SetLatency(euw, apn, Milliseconds(110));
  return t;
}

}  // namespace skywalker
