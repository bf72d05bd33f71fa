// Tree-of-Thoughts program synthesis (paper §5.1, GSM8K-style reasoning).
//
// A tree of depth D with branching factor B issues one expansion request per
// node over levels 0..D-1 (B=2, D=4 → 15 requests; B=4, D=4 → 85 requests,
// matching the paper's ToT and Mixed Tree workloads). A node's prompt is the
// question plus all ancestor thoughts, so nodes share prefixes up to their
// lowest common ancestor; siblings within a level run concurrently — the
// burstiness that breaks consistent hashing in Fig. 8d.

#ifndef SKYWALKER_WORKLOAD_TOT_H_
#define SKYWALKER_WORKLOAD_TOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cache/tokens.h"
#include "src/common/rng.h"
#include "src/workload/request.h"

namespace skywalker {

struct ToTConfig {
  int depth = 4;      // Expansion levels (root = level 0).
  int branching = 2;  // Children per node.
  int64_t question_len_mean = 160;
  int64_t thought_len_mean = 110;  // Output tokens per expansion.
  double len_jitter = 0.35;        // Uniform ± fraction around the mean.

  // When > 0, thought lengths are lognormal with this sigma instead of
  // uniformly jittered — reasoning steps have heavy-tailed lengths in
  // practice, which is the output-length unpredictability §2.3 highlights.
  double thought_len_sigma = 0.0;
  int64_t thought_len_max = 4000;

  // Total requests one tree issues: sum of branching^level.
  int RequestsPerTree() const;
};

class ToTGenerator {
 public:
  ToTGenerator(const ToTConfig& config, uint64_t seed);
  // Per-client generator (the run harness): fresh tokens and session ids —
  // and so the `question-N` routing keys — come from bands private to
  // `client_index`, so distinct clients never share a prefix or a key.
  // Token ids are 32-bit: each band holds 2^21 tokens above 1e9, which
  // bounds client_index below 547. Nothing checks that a client stays
  // inside its band; full-size runs draw at most 54k tokens per client.
  ToTGenerator(const ToTConfig& config, uint64_t seed, uint64_t client_index);

  struct Node {
    int level = 0;
    int parent = -1;   // Index into Tree::nodes; -1 for the root.
    TokenSeq prompt;   // Question + ancestor thoughts.
    TokenSeq output;   // This node's thought (ground truth).
  };

  struct Tree {
    SessionId session_id = 0;
    std::string routing_key;  // Question id (the paper's CH key for ToT).
    std::vector<Node> nodes;
    std::vector<std::vector<int>> levels;  // Node indices per level.
  };

  Tree MakeTree();

  const ToTConfig& config() const { return config_; }

 private:
  int64_t JitteredLen(int64_t mean);
  int64_t ThoughtLen();
  void AppendFresh(TokenSeq* seq, int64_t n);

  ToTConfig config_;
  Rng rng_;
  Token next_token_ = 1'000'000'000;  // Disjoint from conversation tokens.
  SessionId next_session_ = 1;
};

}  // namespace skywalker

#endif  // SKYWALKER_WORKLOAD_TOT_H_
