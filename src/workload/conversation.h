// Multi-turn conversation synthesis (substitute for the WildChat and ChatBot
// Arena traces; see DESIGN.md §2).
//
// Structure that drives prefix locality, mirroring §3.2's measurement study:
//  * turn t's prompt = system template ⊕ U1 ⊕ A1 ⊕ ... ⊕ U_t, so prompts
//    within one conversation are exact prefixes of each other (within-user
//    similarity);
//  * conversations pick a shared system-prompt template (Zipf popularity),
//    giving partial cross-user similarity;
//  * template pools can be region-local, giving within-region > across-region
//    similarity (WildChat-Region in Fig. 5a).
//
// All "fresh" content tokens come from a monotonically increasing counter, so
// the only shared prefixes are the ones constructed deliberately — prefix
// statistics are exact, not accidental.
//
// A conversation is one transcript buffer (template ⊕ U1 ⊕ A1 ⊕ ... ⊕ U_T ⊕
// A_T), written once at its exact size; every turn's prompt and output are
// slices of it.

#ifndef SKYWALKER_WORKLOAD_CONVERSATION_H_
#define SKYWALKER_WORKLOAD_CONVERSATION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cache/tokens.h"
#include "src/common/rng.h"
#include "src/net/topology.h"
#include "src/workload/length_model.h"
#include "src/workload/request.h"

namespace skywalker {

struct ConversationWorkloadConfig {
  // Shared system-prompt templates.
  int num_global_templates = 12;
  int templates_per_region = 0;            // 0 disables region-local pools.
  double region_local_template_prob = 0.0; // P(conversation uses local pool).
  double template_zipf_s = 1.15;           // Popularity skew inside a pool.
  int64_t template_len_min = 60;
  int64_t template_len_max = 480;
  double no_template_prob = 0.10;          // Conversation with no template.

  // Conversation shape.
  int turns_mean = 4;  // Geometric; >= 1.
  int turns_max = 12;
  double user_template_loyalty = 0.5;  // Reuse user's previous template.

  LengthModelConfig lengths;

  // Preset approximating ChatBot Arena (single global template pool;
  // within-user 20.5% vs across-user 8.3% in the paper).
  static ConversationWorkloadConfig Arena();

  // Preset approximating WildChat (region-local template pools; within-user
  // 19.0% vs across-user 2.5%, within-region 10.9% vs across 2.5%).
  static ConversationWorkloadConfig WildChat();
};

class ConversationGenerator {
 public:
  ConversationGenerator(const ConversationWorkloadConfig& config,
                        size_t num_regions, uint64_t seed);

  // Per-client fork (the run harness and the repo benchmark): shares
  // `base`'s immutable template bank (no copy — the bank can be hundreds of
  // MB across thousands of clients) but draws from its own RNG stream and
  // from disjoint user / session namespaces, so each client's stream is a
  // pure function of (base workload, client_index, client_seed) —
  // independent of the order clients run in. Fresh tokens are not disjoint:
  // their band, `(client_index + 1) << 32`, truncates to 0 in the 32-bit
  // Token, so every fork counts fresh tokens from 0, over the template
  // bank's ids, and forks' conversations can share prefixes by accident.
  ConversationGenerator(const ConversationGenerator& base,
                        uint64_t client_index, uint64_t client_seed);

  struct Turn {
    SharedTokens prompt;  // Full context: template + prior turns + new msg.
    SharedTokens output;  // Assistant reply (ground truth for the simulator).
  };

  struct Conversation {
    SessionId session_id = 0;
    int template_id = -1;  // -1: no shared template.
    std::vector<Turn> turns;
  };

  struct UserProfile {
    UserId user_id = 0;
    RegionId region = kInvalidRegion;
    std::string routing_key;  // Hashed-IP-style key for consistent hashing.
  };

  UserProfile MakeUser(RegionId region);

  // Generates a full conversation for `user` (template loyalty tracked
  // per-user across calls).
  Conversation MakeConversation(const UserProfile& user);

  // Convenience for trace-analysis benches: users*convs_per_user
  // conversations for a region population.
  struct TraceRecord {
    UserId user_id;
    RegionId region;
    SessionId session_id;
    TokenSeq prompt;
  };
  std::vector<TraceRecord> GenerateTrace(
      const std::vector<RegionId>& user_regions, int conversations_per_user);

  const ConversationWorkloadConfig& config() const { return config_; }

 private:
  // Writes `n` fresh tokens (the next ids of the counter) at `out`.
  void WriteFresh(Token* out, int64_t n);

  // Chooses a template id for a new conversation of `user`; -1 for none.
  int PickTemplate(const UserProfile& user);

  ConversationWorkloadConfig config_;
  size_t num_regions_;
  Rng rng_;
  LengthModel lengths_;

  // Template id space: [0, num_global) are global; then region pools follow.
  // Immutable after construction; shared across per-client forks.
  std::shared_ptr<const std::vector<TokenSeq>> templates_;
  int num_global_templates_;

  Token next_token_ = 1;
  UserId next_user_ = 1;
  SessionId next_session_ = 1;
  std::map<UserId, int> user_last_template_;
  std::vector<int64_t> turn_lens_;  // MakeConversation's length draws.
};

}  // namespace skywalker

#endif  // SKYWALKER_WORKLOAD_CONVERSATION_H_
