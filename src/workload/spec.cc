#include "src/workload/spec.h"

#include <cmath>

namespace skywalker {

WorkloadSpec& WorkloadSpec::ScaleClients(double factor) {
  for (ClientGroup& group : groups) {
    group.count = static_cast<int>(
        std::ceil(static_cast<double>(group.count) * factor));
  }
  return *this;
}

ClientConfig ChatClientConfig() {
  ClientConfig config;
  config.think_time_mean = Seconds(2);
  config.program_gap_mean = Seconds(2);
  return config;
}

ClientConfig ToTClientConfig() {
  ClientConfig config;
  config.think_time_mean = Milliseconds(200);
  config.program_gap_mean = Seconds(1);
  return config;
}

MacroWorkloadCase ArenaMacroCase(uint64_t seed) {
  MacroWorkloadCase wc;
  wc.name = "ChatBot Arena";
  wc.replicas_per_region = {3, 3, 2};  // §5.1 unbalanced configuration.
  wc.spec.conversation = ConversationWorkloadConfig::Arena();
  wc.spec.seed = seed;
  for (RegionId r = 0; r < 3; ++r) {
    ClientGroup group;
    group.kind = ClientGroup::Kind::kConversation;
    group.region = r;
    group.count = 80;  // 80 ongoing conversations per region.
    group.client = ChatClientConfig();
    wc.spec.groups.push_back(group);
  }
  return wc;
}

MacroWorkloadCase WildChatMacroCase(uint64_t seed) {
  MacroWorkloadCase wc;
  wc.name = "WildChat";
  wc.replicas_per_region = {3, 3, 2};
  wc.spec.conversation = ConversationWorkloadConfig::WildChat();
  wc.spec.seed = seed;
  const int counts[3] = {40, 30, 30};  // 40 US / 30 EU / 30 Asia clients.
  for (RegionId r = 0; r < 3; ++r) {
    ClientGroup group;
    group.kind = ClientGroup::Kind::kConversation;
    group.region = r;
    group.count = counts[r];
    group.client = ChatClientConfig();
    wc.spec.groups.push_back(group);
  }
  return wc;
}

MacroWorkloadCase ToTMacroCase(uint64_t seed) {
  MacroWorkloadCase wc;
  wc.name = "ToT";
  wc.replicas_per_region = {4, 4, 4};  // Balanced, 12 replicas.
  wc.spec.seed = seed;
  const int counts[3] = {40, 20, 20};  // 40 US / 20 EU / 20 Asia clients.
  for (RegionId r = 0; r < 3; ++r) {
    ClientGroup group;
    group.kind = ClientGroup::Kind::kToT;
    group.region = r;
    group.count = counts[r];
    group.tot.depth = 4;
    group.tot.branching = 2;  // 15 requests per tree.
    group.tot.question_len_mean = 1200;  // Few-shot ToT prompting.
    group.tot.thought_len_mean = 200;
    group.client = ToTClientConfig();
    wc.spec.groups.push_back(group);
  }
  return wc;
}

MacroWorkloadCase MixedTreeMacroCase(uint64_t seed) {
  MacroWorkloadCase wc;
  wc.name = "Mixed Tree";
  wc.replicas_per_region = {4, 4, 4};
  wc.spec.seed = seed;
  // US: two clients issuing 4-branch trees (85 requests per tree).
  ClientGroup heavy;
  heavy.kind = ClientGroup::Kind::kToT;
  heavy.region = 0;
  heavy.count = 2;
  heavy.tot.depth = 4;
  heavy.tot.branching = 4;
  heavy.tot.question_len_mean = 1200;
  heavy.tot.thought_len_mean = 200;
  heavy.client = ToTClientConfig();
  wc.spec.groups.push_back(heavy);
  // Other regions: 20 clients each with 2-branch trees.
  for (RegionId r = 0; r < 3; ++r) {
    ClientGroup group;
    group.kind = ClientGroup::Kind::kToT;
    group.region = r;
    group.count = 20;
    group.tot.depth = 4;
    group.tot.branching = 2;
    group.tot.question_len_mean = 1200;
    group.tot.thought_len_mean = 200;
    group.client = ToTClientConfig();
    wc.spec.groups.push_back(group);
  }
  return wc;
}

WorkloadSpec ChatWorkload(const std::vector<int>& counts,
                          const ClientConfig& client, uint64_t seed) {
  WorkloadSpec spec;
  spec.conversation = ConversationWorkloadConfig::WildChat();
  spec.seed = seed;
  for (RegionId r = 0; r < static_cast<RegionId>(counts.size()); ++r) {
    ClientGroup group;
    group.kind = ClientGroup::Kind::kConversation;
    group.region = r;
    group.count = counts[static_cast<size_t>(r)];
    group.client = client;
    spec.groups.push_back(group);
  }
  return spec;
}

}  // namespace skywalker
