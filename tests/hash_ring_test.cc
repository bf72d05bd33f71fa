// Unit and property tests for the consistent-hash ring: stability,
// availability skipping, balance, and minimal disruption on membership
// change (the property that makes CH cache-friendly).

#include <gtest/gtest.h>

#include <map>

#include "src/cache/hash_ring.h"
#include "src/common/rng.h"

namespace skywalker {
namespace {

TEST(HashRingTest, EmptyRingReturnsInvalid) {
  HashRing ring;
  EXPECT_EQ(ring.Lookup(123), kInvalidTarget);
  EXPECT_EQ(ring.LookupAvailable(123, [](TargetId) { return true; }),
            kInvalidTarget);
}

TEST(HashRingTest, SingleTargetOwnsEverything) {
  HashRing ring;
  ring.AddTarget(5);
  for (uint64_t key = 0; key < 1000; key += 37) {
    EXPECT_EQ(ring.Lookup(Mix64(key)), 5);
  }
}

TEST(HashRingTest, LookupIsStable) {
  HashRing ring;
  ring.AddTarget(1);
  ring.AddTarget(2);
  ring.AddTarget(3);
  for (uint64_t key = 0; key < 500; ++key) {
    EXPECT_EQ(ring.Lookup(Mix64(key)), ring.Lookup(Mix64(key)));
  }
}

TEST(HashRingTest, DuplicateAddIsNoOp) {
  HashRing ring(64);
  ring.AddTarget(1);
  size_t vnodes = ring.num_vnodes();
  ring.AddTarget(1);
  EXPECT_EQ(ring.num_vnodes(), vnodes);
  EXPECT_EQ(ring.num_targets(), 1u);
}

TEST(HashRingTest, RemoveTargetReassignsKeys) {
  HashRing ring;
  ring.AddTarget(1);
  ring.AddTarget(2);
  ring.RemoveTarget(1);
  EXPECT_FALSE(ring.Contains(1));
  for (uint64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(ring.Lookup(Mix64(key)), 2);
  }
}

TEST(HashRingTest, WeightIncreasesShare) {
  HashRing ring(64);
  ring.AddTarget(1, /*weight=*/1);
  ring.AddTarget(2, /*weight=*/3);
  std::map<TargetId, int> counts;
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    ++counts[ring.Lookup(rng.Next())];
  }
  double ratio = static_cast<double>(counts[2]) /
                 static_cast<double>(counts[1]);
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 4.5);
}

TEST(HashRingTest, LookupAvailableSkipsUnavailable) {
  HashRing ring;
  ring.AddTarget(1);
  ring.AddTarget(2);
  ring.AddTarget(3);
  auto only3 = [](TargetId id) { return id == 3; };
  for (uint64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(ring.LookupAvailable(Mix64(key), only3), 3);
  }
  auto none = [](TargetId) { return false; };
  EXPECT_EQ(ring.LookupAvailable(42, none), kInvalidTarget);
}

TEST(HashRingTest, LookupAvailableMatchesLookupWhenAllAvailable) {
  HashRing ring;
  for (TargetId t = 0; t < 8; ++t) {
    ring.AddTarget(t);
  }
  auto all = [](TargetId) { return true; };
  for (uint64_t key = 0; key < 500; ++key) {
    EXPECT_EQ(ring.LookupAvailable(Mix64(key), all), ring.Lookup(Mix64(key)));
  }
}

TEST(HashRingTest, BalanceAcrossTargets) {
  HashRing ring(128);
  const int kTargets = 10;
  for (TargetId t = 0; t < kTargets; ++t) {
    ring.AddTarget(t);
  }
  std::map<TargetId, int> counts;
  Rng rng(11);
  const int kKeys = 100000;
  for (int i = 0; i < kKeys; ++i) {
    ++counts[ring.Lookup(rng.Next())];
  }
  // With 128 vnodes/target, imbalance should stay within ~35% of fair share.
  double fair = static_cast<double>(kKeys) / kTargets;
  for (const auto& [target, count] : counts) {
    EXPECT_GT(count, fair * 0.65) << "target " << target;
    EXPECT_LT(count, fair * 1.35) << "target " << target;
  }
}

// The consistent-hashing property: removing one target only moves keys that
// were owned by it.
class HashRingDisruptionTest : public ::testing::TestWithParam<int> {};

TEST_P(HashRingDisruptionTest, RemovalOnlyMovesVictimKeys) {
  const int kTargets = GetParam();
  HashRing ring(128);
  for (TargetId t = 0; t < kTargets; ++t) {
    ring.AddTarget(t);
  }
  std::map<uint64_t, TargetId> before;
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    uint64_t key = rng.Next();
    before[key] = ring.Lookup(key);
  }
  const TargetId victim = 0;
  ring.RemoveTarget(victim);
  for (const auto& [key, owner] : before) {
    TargetId now = ring.Lookup(key);
    if (owner != victim) {
      EXPECT_EQ(now, owner) << "non-victim key moved";
    } else {
      EXPECT_NE(now, victim);
    }
  }
}

TEST_P(HashRingDisruptionTest, AdditionOnlyStealsKeys) {
  const int kTargets = GetParam();
  HashRing ring(128);
  for (TargetId t = 0; t < kTargets; ++t) {
    ring.AddTarget(t);
  }
  std::map<uint64_t, TargetId> before;
  Rng rng(19);
  for (int i = 0; i < 5000; ++i) {
    uint64_t key = rng.Next();
    before[key] = ring.Lookup(key);
  }
  const TargetId fresh = 1000;
  ring.AddTarget(fresh);
  for (const auto& [key, owner] : before) {
    TargetId now = ring.Lookup(key);
    // A key either keeps its owner or moves to the new target — never to a
    // different pre-existing target.
    EXPECT_TRUE(now == owner || now == fresh);
  }
}

INSTANTIATE_TEST_SUITE_P(TargetCounts, HashRingDisruptionTest,
                         ::testing::Values(2, 4, 8, 16));

}  // namespace
}  // namespace skywalker
