// Consistent-hash ring with virtual nodes (paper §3.2, SkyWalker-CH).
//
// Follows the classic ring-hash scheme [Karger et al., Chord]: each target
// owns `vnodes * weight` points on a 64-bit ring; a key is served by the
// first target clockwise from its hash. Lookup can skip unavailable targets
// (paper: "virtual nodes are skipped based on the availability of its
// associated replica ... the algorithm continues iterating over successive
// virtual nodes on the ring").

#ifndef SKYWALKER_CACHE_HASH_RING_H_
#define SKYWALKER_CACHE_HASH_RING_H_

#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "src/cache/routing_trie.h"  // TargetId
#include "src/common/hash.h"

namespace skywalker {

// Virtual nodes per unit of weight on every balancer's ring: CH's replica
// ring and SkyWalker's replica and peer-LB rings.
inline constexpr int kRingVnodesPerWeight = 128;

class HashRing {
 public:
  explicit HashRing(int vnodes_per_weight = kRingVnodesPerWeight);

  // Adds a target with the given weight (>= 1). Adding an existing target
  // is a no-op.
  void AddTarget(TargetId id, int weight = 1);

  // Removes a target and all its virtual nodes.
  void RemoveTarget(TargetId id);

  bool Contains(TargetId id) const;
  size_t num_targets() const { return targets_.size(); }
  size_t num_vnodes() const { return ring_.size(); }

  // Owner of `key_hash`: first virtual node clockwise. kInvalidTarget when
  // the ring is empty.
  TargetId Lookup(uint64_t key_hash) const;

  // First distinct target clockwise from `key_hash` that satisfies `pred`;
  // kInvalidTarget when none does.
  TargetId LookupAvailable(uint64_t key_hash,
                           const std::function<bool(TargetId)>& pred) const;

 private:
  struct VNode {
    uint64_t point;
    TargetId target;
    bool operator<(const VNode& other) const {
      if (point != other.point) {
        return point < other.point;
      }
      return target < other.target;
    }
  };

  // Sorts the ring if additions happened since the last lookup. Bulk
  // construction (attach R targets, then start serving) costs one
  // O(n log n) sort instead of R sorts of the growing ring (ISSUE 10).
  void EnsureSorted() const;

  int vnodes_per_weight_;
  // Sorted by point whenever sorted_; lookups restore the invariant first.
  mutable std::vector<VNode> ring_;
  mutable bool sorted_ = true;
  std::set<TargetId> targets_;
};

}  // namespace skywalker

#endif  // SKYWALKER_CACHE_HASH_RING_H_
