#include "src/workload/tot.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

#include "src/common/logging.h"
#include "src/common/strings.h"

namespace skywalker {

int ToTConfig::RequestsPerTree() const {
  int total = 0;
  int level_size = 1;
  for (int l = 0; l < depth; ++l) {
    total += level_size;
    level_size *= branching;
  }
  return total;
}

ToTGenerator::ToTGenerator(const ToTConfig& config, uint64_t seed)
    : config_(config), rng_(seed) {
  assert(config_.depth >= 1);
  assert(config_.branching >= 1);
}

ToTGenerator::ToTGenerator(const ToTConfig& config, uint64_t seed,
                           uint64_t client_index)
    : ToTGenerator(config, seed) {
  constexpr uint64_t kBandTokens = uint64_t{1} << 21;
  constexpr uint64_t kMaxToken = std::numeric_limits<Token>::max();
  SKYWALKER_CHECK(client_index <
                  (kMaxToken - static_cast<uint64_t>(next_token_)) /
                      kBandTokens)
      << "ToT client index " << client_index << " overflows 32-bit tokens";
  next_token_ += static_cast<Token>(client_index * kBandTokens);
  next_session_ = static_cast<SessionId>((client_index + 1) * 1'000'000 + 1);
}

int64_t ToTGenerator::JitteredLen(int64_t mean) {
  double lo = static_cast<double>(mean) * (1.0 - config_.len_jitter);
  double hi = static_cast<double>(mean) * (1.0 + config_.len_jitter);
  return std::max<int64_t>(4, static_cast<int64_t>(rng_.Uniform(lo, hi)));
}

int64_t ToTGenerator::ThoughtLen() {
  if (config_.thought_len_sigma <= 0) {
    return JitteredLen(config_.thought_len_mean);
  }
  double sigma = config_.thought_len_sigma;
  // mu such that the lognormal mean equals thought_len_mean.
  double mu = std::log(static_cast<double>(config_.thought_len_mean)) -
              sigma * sigma / 2.0;
  int64_t len = static_cast<int64_t>(rng_.LogNormal(mu, sigma));
  return std::clamp<int64_t>(len, 4, config_.thought_len_max);
}

void ToTGenerator::AppendFresh(TokenSeq* seq, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    seq->push_back(next_token_++);
  }
}

ToTGenerator::Tree ToTGenerator::MakeTree() {
  Tree tree;
  tree.session_id = next_session_++;
  tree.routing_key =
      StrFormat("question-%ld", static_cast<long>(tree.session_id));
  tree.levels.resize(static_cast<size_t>(config_.depth));

  // Root.
  Node root;
  root.level = 0;
  root.parent = -1;
  AppendFresh(&root.prompt, JitteredLen(config_.question_len_mean));
  AppendFresh(&root.output, ThoughtLen());
  tree.nodes.push_back(std::move(root));
  tree.levels[0].push_back(0);

  for (int level = 1; level < config_.depth; ++level) {
    for (int parent_idx : tree.levels[static_cast<size_t>(level - 1)]) {
      for (int b = 0; b < config_.branching; ++b) {
        Node child;
        child.level = level;
        child.parent = parent_idx;
        const Node& parent = tree.nodes[static_cast<size_t>(parent_idx)];
        child.prompt = parent.prompt;
        child.prompt.insert(child.prompt.end(), parent.output.begin(),
                            parent.output.end());
        AppendFresh(&child.output, ThoughtLen());
        int idx = static_cast<int>(tree.nodes.size());
        tree.nodes.push_back(std::move(child));
        tree.levels[static_cast<size_t>(level)].push_back(idx);
      }
    }
  }
  assert(static_cast<int>(tree.nodes.size()) == config_.RequestsPerTree());
  return tree;
}

}  // namespace skywalker
