// Tests for the run harness: system construction for every kind, the
// client population, and result invariants across seeds (the property layer
// the figure benches stand on).

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "src/harness/run.h"
#include "src/net/topology.h"

namespace skywalker {
namespace {

constexpr SystemKind kAllKinds[] = {
    SystemKind::kGkeGateway,  SystemKind::kRoundRobin,
    SystemKind::kLeastLoad,   SystemKind::kConsistentHash,
    SystemKind::kSglRouter,   SystemKind::kSkyWalkerCh,
    SystemKind::kSkyWalker,   SystemKind::kRegionLocal};

SystemSpec TinySystem(SystemKind kind) {
  SystemSpec spec;
  spec.kind = kind;
  spec.replicas_per_region = {1, 1, 1};
  spec.replica_config.kv_capacity_tokens = 16384;
  return spec;
}

WorkloadSpec TinyWorkload(uint64_t seed) {
  WorkloadSpec spec;
  spec.conversation = ConversationWorkloadConfig::Arena();
  spec.conversation.lengths.output_max = 1500;
  spec.seed = seed;
  for (RegionId r = 0; r < 3; ++r) {
    ClientGroup group;
    group.kind = ClientGroup::Kind::kConversation;
    group.region = r;
    group.count = 4;
    group.client.think_time_mean = Milliseconds(300);
    group.client.program_gap_mean = Milliseconds(300);
    spec.groups.push_back(group);
  }
  return spec;
}

RunSpec TinyRun(SystemKind kind, uint64_t seed) {
  RunSpec spec;
  spec.system = TinySystem(kind);
  spec.workload = TinyWorkload(seed);
  spec.warmup = Seconds(10);
  spec.measure = Seconds(40);
  spec.collect_trace = true;
  return spec;
}

TEST(ServingSystemTest, BuildsEveryKindWithExpectedShape) {
  Simulator sim;
  Network net(&sim, Topology::ThreeContinents());
  for (SystemKind kind : kAllKinds) {
    auto system = ServingSystem::Build(&net, TinySystem(kind));
    EXPECT_EQ(system->replicas().size(), 3u) << SystemKindName(kind);
    EXPECT_NE(system->resolver(), nullptr);
    bool is_skywalker = kind == SystemKind::kSkyWalker ||
                        kind == SystemKind::kSkyWalkerCh ||
                        kind == SystemKind::kRegionLocal;
    EXPECT_EQ(system->deployment() != nullptr, is_skywalker);
    EXPECT_EQ(system->gateway() != nullptr, kind == SystemKind::kGkeGateway);
  }
}

TEST(ServingSystemTest, CentralBaselineResolvesToOneRegion) {
  Simulator sim;
  Network net(&sim, Topology::ThreeContinents());
  SystemSpec spec = TinySystem(SystemKind::kLeastLoad);
  spec.central_lb_region = 2;
  auto system = ServingSystem::Build(&net, spec);
  for (RegionId client = 0; client < 3; ++client) {
    Frontend* fe = system->resolver()->Resolve(client);
    ASSERT_NE(fe, nullptr);
    EXPECT_EQ(fe->region(), 2);
  }
}

TEST(ServingSystemTest, RegionalSystemsResolveLocally) {
  Simulator sim;
  Network net(&sim, Topology::ThreeContinents());
  auto system = ServingSystem::Build(&net, TinySystem(SystemKind::kSkyWalker));
  for (RegionId client = 0; client < 3; ++client) {
    Frontend* fe = system->resolver()->Resolve(client);
    ASSERT_NE(fe, nullptr);
    EXPECT_EQ(fe->region(), client);
  }
}

TEST(RunTest, ResultFieldsAreConsistent) {
  RunResult result = skywalker::Run(TinyRun(SystemKind::kSkyWalker, 5));
  EXPECT_GT(result.completed, 0u);
  EXPECT_EQ(result.ttft.count(), result.completed);
  EXPECT_EQ(result.e2e.count(), result.completed);
  EXPECT_GE(result.throughput_tok_s, result.output_throughput_tok_s);
  EXPECT_GE(result.ttft_p90_s, result.ttft_p50_s);
  EXPECT_GE(result.e2e_p90_s, result.e2e_p50_s);
  EXPECT_GE(result.cache_hit_rate, 0.0);
  EXPECT_LE(result.cache_hit_rate, 1.0);
  EXPECT_GE(result.forwarded_fraction, 0.0);
  EXPECT_LE(result.forwarded_fraction, 1.0);
  // Client-side accounting spans the whole run: requests still in flight at
  // the end were issued but not completed, and the window is a subset.
  EXPECT_GE(result.issued, result.completed_total);
  EXPECT_GE(result.completed_total, static_cast<int64_t>(result.completed));
}

// Property: per-request TTFT <= E2E must hold for every outcome, for every
// system kind, across seeds. Outcomes are read back from the run's trace.
class HarnessPropertyTest
    : public ::testing::TestWithParam<std::tuple<SystemKind, uint64_t>> {};

TEST_P(HarnessPropertyTest, TtftNeverExceedsE2e) {
  auto [kind, seed] = GetParam();
  RunResult result = skywalker::Run(TinyRun(kind, seed));
  std::istringstream lines(result.trace);
  std::string line;
  int outcomes = 0;
  while (std::getline(lines, line)) {
    long long id, submit, first_token, completion, prompt, cached, output;
    int client_region, served_region, replica, hops;
    ASSERT_EQ(std::sscanf(line.c_str(),
                          "%lld r%d>r%d@%d s%lld f%lld c%lld p%lld k%lld "
                          "o%lld h%d",
                          &id, &client_region, &served_region, &replica,
                          &submit, &first_token, &completion, &prompt,
                          &cached, &output, &hops),
              11)
        << line;
    const bool forwarded = line.size() > 2 &&
                           line.compare(line.size() - 2, 2, " F") == 0;
    EXPECT_LE(submit, first_token);
    EXPECT_LE(first_token, completion);
    EXPECT_GE(cached, 0);
    EXPECT_LT(cached, prompt);
    EXPECT_TRUE(hops == 1 || hops == 2);
    EXPECT_EQ(hops == 2, forwarded);
    ++outcomes;
  }
  EXPECT_GT(outcomes, 10);
}

INSTANTIATE_TEST_SUITE_P(KindsAndSeeds, HarnessPropertyTest,
                         ::testing::Combine(::testing::ValuesIn(kAllKinds),
                                            ::testing::Values(11u, 22u, 33u)));

// Property: deterministic replay — identical specs and seeds give identical
// results for every system kind, down to every request's observables.
class DeterminismPropertyTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(DeterminismPropertyTest, IdenticalAcrossRuns) {
  RunResult a = skywalker::Run(TinyRun(GetParam(), 9));
  RunResult b = skywalker::Run(TinyRun(GetParam(), 9));
  ASSERT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.throughput_tok_s, b.throughput_tok_s);
  EXPECT_EQ(a.ttft_p90_s, b.ttft_p90_s);
  EXPECT_EQ(a.cache_hit_rate, b.cache_hit_rate);
  EXPECT_EQ(a.outstanding_imbalance, b.outstanding_imbalance);
  EXPECT_EQ(a.executed_events, b.executed_events);
}

INSTANTIATE_TEST_SUITE_P(Kinds, DeterminismPropertyTest,
                         ::testing::ValuesIn(kAllKinds));

// Sharding is limited to the SkyWalker kinds: one central LB or gateway
// object spans every region, which no region shard may own.
TEST(RunDeathTest, ShardingACentralOrGatewayKindDiesNamingTheKind) {
  RunSpec central = TinyRun(SystemKind::kLeastLoad, 1);
  central.num_shards = 2;
  EXPECT_DEATH(skywalker::Run(central), "not LL");
  RunSpec gateway = TinyRun(SystemKind::kGkeGateway, 1);
  gateway.num_shards = 1;
  EXPECT_DEATH(skywalker::Run(gateway), "not GKE-Gateway");
}

}  // namespace
}  // namespace skywalker
