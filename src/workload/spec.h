// Workload specification and the canonical workload presets of the paper's
// evaluation (§5.1). The workload layer owns its own configuration, and
// benchmark scenarios share one set of paper-calibrated builders instead of
// copy-pasting client tables. src/harness/run.h turns a WorkloadSpec into
// clients.

#ifndef SKYWALKER_WORKLOAD_SPEC_H_
#define SKYWALKER_WORKLOAD_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/workload/client.h"

namespace skywalker {

// One group of identical closed-loop clients in one region.
struct ClientGroup {
  enum class Kind { kConversation, kToT };
  Kind kind = Kind::kConversation;
  RegionId region = 0;
  int count = 0;
  ToTConfig tot;  // Used when kind == kToT.
  ClientConfig client;
  // The group's clients start staggered over [start, start + 5 s); a later
  // start models a cohort arriving mid-run (flash crowd, diurnal shift).
  SimDuration start = 0;
};

struct WorkloadSpec {
  // Conversation clients fork one generator's template bank (shared
  // template pools drive cross-user prefix similarity); configure it here.
  ConversationWorkloadConfig conversation;
  std::vector<ClientGroup> groups;
  // Every client stream of a run derives from this seed.
  uint64_t seed = 42;

  // Multiplies every group's client count by `factor` (rounding up, so no
  // group vanishes). Smoke runs shrink workloads through this.
  WorkloadSpec& ScaleClients(double factor);
};

// The paper's chat-interactivity pacing (Fig. 8 chat workloads).
ClientConfig ChatClientConfig();
// Agentic pacing: near-back-to-back tree expansions (Fig. 8 ToT workloads).
ClientConfig ToTClientConfig();

// One macrobenchmark column of Fig. 8: the workload plus the paper's
// replica placement for it.
struct MacroWorkloadCase {
  std::string name;
  WorkloadSpec spec;
  std::vector<int> replicas_per_region;
};

// The four Fig. 8 workloads, with their canonical seeds.
MacroWorkloadCase ArenaMacroCase(uint64_t seed);
MacroWorkloadCase WildChatMacroCase(uint64_t seed);
MacroWorkloadCase ToTMacroCase(uint64_t seed);
MacroWorkloadCase MixedTreeMacroCase(uint64_t seed);

// WildChat conversations: `counts[r]` clients in region r, all paced by
// `client` (Fig. 10's regional skew, the ablations, the fleet scenarios).
WorkloadSpec ChatWorkload(const std::vector<int>& counts,
                          const ClientConfig& client, uint64_t seed);

}  // namespace skywalker

#endif  // SKYWALKER_WORKLOAD_SPEC_H_
