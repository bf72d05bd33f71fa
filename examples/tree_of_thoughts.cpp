// Tree-of-Thoughts serving demo (§5.1): reasoning programs issue trees of
// expansion requests whose nodes share prefixes up to their lowest common
// ancestor, and whose siblings run concurrently. The example contrasts the
// prefix-tree SkyWalker deployment against a round-robin baseline on the
// same trees, showing the cache-hit and latency difference prefix-aware
// routing buys on this workload.
//
//   $ ./build/examples/tree_of_thoughts

#include <cstdio>
#include <string>

#include "src/harness/run.h"

using namespace skywalker;  // Example code; the library never does this.

namespace {

void RunOne(SystemKind kind) {
  RunSpec spec;
  spec.system.kind = kind;
  spec.system.replicas_per_region = {2, 2, 2};
  spec.warmup = Seconds(20);
  spec.measure = Seconds(120);
  spec.workload.seed = 404;
  for (RegionId region = 0; region < 3; ++region) {
    ClientGroup group;
    group.kind = ClientGroup::Kind::kToT;
    group.region = region;
    group.count = 8;
    group.tot.depth = 4;
    group.tot.branching = 2;  // 15 expansion requests per tree.
    group.tot.question_len_mean = 600;
    group.tot.thought_len_mean = 150;
    group.client = ToTClientConfig();
    spec.workload.groups.push_back(group);
  }
  RunResult result = Run(spec);
  std::printf("%-14s tput %6.0f tok/s | TTFT p50 %6.3f s | hit %5.1f%% | "
              "%zu requests\n",
              std::string(result.system).c_str(), result.throughput_tok_s,
              result.ttft_p50_s, result.cache_hit_rate * 100,
              result.completed);
}

}  // namespace

int main() {
  std::printf("Tree-of-Thoughts: 24 clients, depth-4 binary trees, "
              "6 replicas on 3 continents\n\n");
  RunOne(SystemKind::kRoundRobin);
  RunOne(SystemKind::kSkyWalker);
  std::printf(
      "\nEach tree's 15 expansions share the question + ancestor thoughts;\n"
      "prefix-aware routing keeps a tree on one replica and reuses its KV,\n"
      "while round robin re-prefills the shared context on every replica.\n");
  return 0;
}
