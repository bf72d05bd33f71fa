// End-to-end integration tests: full serving systems driven by the macro
// workloads on the three-continent topology. These validate the pipeline the
// figure benches rely on, plus cross-system invariants (every completed
// request has sane timestamps, prefix-aware systems beat RR on hit rate,
// cross-region forwarding actually happens under skew, etc.).

#include <gtest/gtest.h>

#include "src/harness/run.h"

namespace skywalker {
namespace {

WorkloadSpec SmallConversationWorkload(int clients_per_region) {
  WorkloadSpec spec;
  spec.conversation = ConversationWorkloadConfig::Arena();
  // Keep prompts small so tests run fast.
  spec.conversation.lengths.input_mu = 4.0;
  spec.conversation.lengths.output_mu = 4.6;
  spec.conversation.lengths.output_max = 2000;
  for (RegionId r = 0; r < 3; ++r) {
    ClientGroup group;
    group.kind = ClientGroup::Kind::kConversation;
    group.region = r;
    group.count = clients_per_region;
    group.client.think_time_mean = Milliseconds(500);
    group.client.program_gap_mean = Milliseconds(500);
    spec.groups.push_back(group);
  }
  return spec;
}

SystemSpec SmallSystem(SystemKind kind) {
  SystemSpec spec;
  spec.kind = kind;
  spec.replicas_per_region = {2, 1, 1};
  spec.replica_config.kv_capacity_tokens = 16384;
  spec.baseline_lb.push_mode = PushMode::kBlind;
  return spec;
}

RunResult RunFast(const SystemSpec& system, const WorkloadSpec& workload) {
  RunSpec spec;
  spec.system = system;
  spec.workload = workload;
  spec.warmup = Seconds(20);
  spec.measure = Seconds(60);
  return Run(spec);
}

class AllSystemsTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(AllSystemsTest, CompletesRequestsWithSaneTimestamps) {
  RunResult result =
      RunFast(SmallSystem(GetParam()), SmallConversationWorkload(6));
  EXPECT_GT(result.completed, 50u) << result.system;
  EXPECT_GT(result.throughput_tok_s, 0.0);
  // TTFT must include at least one network round trip plus prefill.
  EXPECT_GT(result.ttft_p50_s, 0.001);
  // E2E dominates TTFT.
  EXPECT_GE(result.e2e_p50_s, result.ttft_p50_s);
  // Nothing should take minutes in this small setup.
  EXPECT_LT(result.e2e_p90_s, 120.0);
}

INSTANTIATE_TEST_SUITE_P(
    Systems, AllSystemsTest,
    ::testing::Values(SystemKind::kGkeGateway, SystemKind::kRoundRobin,
                      SystemKind::kLeastLoad, SystemKind::kConsistentHash,
                      SystemKind::kSglRouter, SystemKind::kSkyWalkerCh,
                      SystemKind::kSkyWalker, SystemKind::kRegionLocal),
    [](const ::testing::TestParamInfo<SystemKind>& info) {
      std::string name(SystemKindName(info.param));
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

TEST(IntegrationTest, PrefixAwareBeatsRoundRobinOnHitRate) {
  WorkloadSpec workload = SmallConversationWorkload(6);
  RunResult rr = RunFast(SmallSystem(SystemKind::kRoundRobin), workload);
  RunResult sky = RunFast(SmallSystem(SystemKind::kSkyWalker), workload);
  EXPECT_GT(sky.cache_hit_rate, rr.cache_hit_rate);
}

TEST(IntegrationTest, SkewedLoadTriggersForwarding) {
  WorkloadSpec workload;
  workload.conversation = ConversationWorkloadConfig::Arena();
  workload.conversation.lengths.input_mu = 4.0;
  workload.conversation.lengths.output_mu = 4.8;
  // Region 0 heavily loaded; others idle.
  ClientGroup heavy;
  heavy.kind = ClientGroup::Kind::kConversation;
  heavy.region = 0;
  heavy.count = 30;
  heavy.client.think_time_mean = Milliseconds(200);
  heavy.client.program_gap_mean = Milliseconds(200);
  workload.groups.push_back(heavy);

  SystemSpec spec = SmallSystem(SystemKind::kSkyWalker);
  spec.replicas_per_region = {1, 1, 1};
  RunResult result = RunFast(spec, workload);
  EXPECT_GT(result.forwarded_fraction, 0.05)
      << "overloaded region should offload cross-region";
}

TEST(IntegrationTest, RegionLocalNeverForwards) {
  RunResult result = RunFast(SmallSystem(SystemKind::kRegionLocal),
                             SmallConversationWorkload(8));
  EXPECT_EQ(result.forwarded_fraction, 0.0);
  EXPECT_GT(result.completed, 50u);
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  WorkloadSpec workload = SmallConversationWorkload(4);
  SystemSpec spec = SmallSystem(SystemKind::kSkyWalker);
  RunResult a = RunFast(spec, workload);
  RunResult b = RunFast(spec, workload);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(a.throughput_tok_s, b.throughput_tok_s);
  EXPECT_DOUBLE_EQ(a.ttft_p50_s, b.ttft_p50_s);
}

}  // namespace
}  // namespace skywalker
