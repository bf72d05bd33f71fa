#include "src/cache/hash_ring.h"

#include <algorithm>
#include <cassert>

namespace skywalker {

HashRing::HashRing(int vnodes_per_weight) : vnodes_per_weight_(vnodes_per_weight) {
  assert(vnodes_per_weight_ > 0);
}

void HashRing::AddTarget(TargetId id, int weight) {
  assert(weight >= 1);
  if (!targets_.insert(id).second) {
    return;
  }
  // No exact reserve here: growing to exactly the new size on every attach
  // would copy the whole ring each time, O(R^2) for a fleet of R targets;
  // push_back's geometric growth keeps building the ring linear.
  size_t count = static_cast<size_t>(vnodes_per_weight_) *
                 static_cast<size_t>(weight);
  // Two independent mixing rounds per virtual node; a single combine round
  // leaves visible correlation between successive vnode indices, which
  // skews key ownership by tens of percent.
  uint64_t target_hash = Mix64((static_cast<uint64_t>(id) + 1) *
                               0x9e3779b97f4a7c15ULL);
  for (size_t i = 0; i < count; ++i) {
    uint64_t point =
        Mix64(target_hash ^ Mix64((i + 1) * 0xbf58476d1ce4e5b9ULL));
    ring_.push_back(VNode{point, id});
  }
  // Sorting is deferred to the next lookup: attaching a fleet of R targets
  // up front costs one sort, not R sorts of an ever-growing ring.
  sorted_ = false;
}

void HashRing::EnsureSorted() const {
  if (!sorted_) {
    std::sort(ring_.begin(), ring_.end());
    sorted_ = true;
  }
}

void HashRing::RemoveTarget(TargetId id) {
  if (targets_.erase(id) == 0) {
    return;
  }
  ring_.erase(std::remove_if(ring_.begin(), ring_.end(),
                             [id](const VNode& v) { return v.target == id; }),
              ring_.end());
}

bool HashRing::Contains(TargetId id) const {
  return targets_.find(id) != targets_.end();
}

TargetId HashRing::Lookup(uint64_t key_hash) const {
  if (ring_.empty()) {
    return kInvalidTarget;
  }
  EnsureSorted();
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), key_hash,
      [](const VNode& v, uint64_t h) { return v.point < h; });
  if (it == ring_.end()) {
    it = ring_.begin();  // Wrap around.
  }
  return it->target;
}

TargetId HashRing::LookupAvailable(
    uint64_t key_hash, const std::function<bool(TargetId)>& pred) const {
  if (ring_.empty()) {
    return kInvalidTarget;
  }
  EnsureSorted();
  auto start = std::lower_bound(
      ring_.begin(), ring_.end(), key_hash,
      [](const VNode& v, uint64_t h) { return v.point < h; });
  size_t begin = start == ring_.end()
                     ? 0
                     : static_cast<size_t>(start - ring_.begin());
  std::set<TargetId> seen;
  for (size_t i = 0; i < ring_.size(); ++i) {
    const VNode& v = ring_[(begin + i) % ring_.size()];
    if (!seen.insert(v.target).second) {
      continue;
    }
    if (!pred || pred(v.target)) {
      return v.target;
    }
    if (seen.size() == targets_.size()) {
      break;  // Every distinct target inspected.
    }
  }
  return kInvalidTarget;
}

std::vector<TargetId> HashRing::LookupN(uint64_t key_hash, size_t n) const {
  std::vector<TargetId> out;
  if (ring_.empty() || n == 0) {
    return out;
  }
  EnsureSorted();
  auto start = std::lower_bound(
      ring_.begin(), ring_.end(), key_hash,
      [](const VNode& v, uint64_t h) { return v.point < h; });
  size_t begin = start == ring_.end()
                     ? 0
                     : static_cast<size_t>(start - ring_.begin());
  std::set<TargetId> seen;
  for (size_t i = 0; i < ring_.size() && out.size() < n; ++i) {
    const VNode& v = ring_[(begin + i) % ring_.size()];
    if (seen.insert(v.target).second) {
      out.push_back(v.target);
    }
  }
  return out;
}

}  // namespace skywalker
