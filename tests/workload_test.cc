// Unit tests for workload synthesis: length distributions, diurnal model,
// conversation generator (prefix structure + similarity ordering), ToT
// generator (tree shape + prefix sharing).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "src/cache/tokens.h"
#include "src/common/hash.h"
#include "src/workload/conversation.h"
#include "src/workload/diurnal.h"
#include "src/workload/length_model.h"
#include "src/workload/tot.h"

namespace skywalker {
namespace {

// Order-dependent checksum of every prompt and output of `gen`'s first
// `count` conversations for one region-1 user.
uint64_t ConversationChecksum(ConversationGenerator* gen, int count) {
  const auto user = gen->MakeUser(1);
  uint64_t sum = 0;
  for (int c = 0; c < count; ++c) {
    const auto conv = gen->MakeConversation(user);
    for (const auto& turn : conv.turns) {
      sum = HashCombine(sum, HashTokens(turn.prompt));
      sum = HashCombine(sum, HashTokens(turn.output));
    }
  }
  return sum;
}

// The same over every node of `gen`'s first `count` trees.
uint64_t TreeChecksum(ToTGenerator* gen, int count) {
  uint64_t sum = 0;
  for (int c = 0; c < count; ++c) {
    const auto tree = gen->MakeTree();
    for (const auto& node : tree.nodes) {
      sum = HashCombine(sum, HashTokens(node.prompt));
      sum = HashCombine(sum, HashTokens(node.output));
    }
  }
  return sum;
}

TEST(SharedTokensTest, CopiesAndContiguousConcatShareTheBuffer) {
  auto buffer = std::make_shared<TokenSeq>(TokenSeq{1, 2, 3, 4, 5, 6, 7});
  const SharedTokens prompt(buffer, 0, 4);
  const SharedTokens output(buffer, 4, 3);
  const SharedTokens copy = prompt;
  EXPECT_EQ(copy.data(), prompt.data());
  EXPECT_EQ(copy.size(), 4u);
  const SharedTokens full = Concat(prompt, output);
  EXPECT_EQ(full.data(), buffer->data());
  EXPECT_EQ(TokenSeq(full), *buffer);
}

TEST(SharedTokensTest, NonContiguousConcatJoinsBothInOrder) {
  const SharedTokens a = TokenSeq{1, 2, 3};
  const SharedTokens b = TokenSeq{7, 8};
  const SharedTokens joined = Concat(a, b);
  EXPECT_EQ(TokenSeq(joined), (TokenSeq{1, 2, 3, 7, 8}));
  EXPECT_NE(joined.data(), a.data());
  // Two slices of one buffer with a gap between them do not continue.
  auto buffer = std::make_shared<TokenSeq>(TokenSeq{1, 2, 3, 4, 5});
  const SharedTokens gapped =
      Concat(SharedTokens(buffer, 0, 2), SharedTokens(buffer, 3, 2));
  EXPECT_EQ(TokenSeq(gapped), (TokenSeq{1, 2, 4, 5}));
}

TEST(SharedTokensTest, TokenSeqConversionsRoundTrip) {
  const TokenSeq seq{4, 5, 6};
  const SharedTokens shared = seq;
  EXPECT_EQ(TokenSeq(shared), seq);
  const TokenSpan from_seq = seq;
  const TokenSpan from_shared = shared;
  EXPECT_EQ(from_seq.data(), seq.data());
  EXPECT_EQ(from_shared.data(), shared.data());
  EXPECT_EQ(HashTokens(shared), HashTokens(seq));
  EXPECT_TRUE(TokenSeq(SharedTokens()).empty());
}

// Pins the generated token ids, and with them the order of the RNG draws
// and of the id assignment, for a base and a forked conversation generator
// and for both ToT constructors.
TEST(WorkloadTokensTest, GeneratedTokensArePinned) {
  ConversationGenerator base(ConversationWorkloadConfig::WildChat(), 4, 42);
  ConversationGenerator fork(base, /*client_index=*/2, /*client_seed=*/99);
  EXPECT_EQ(ConversationChecksum(&base, 5), 0x95f274c7895601baull);
  EXPECT_EQ(ConversationChecksum(&fork, 5), 0xa4eb68f090fedd50ull);
  ToTGenerator plain(ToTConfig{}, 5);
  ToTGenerator client(ToTConfig{}, 5, /*client_index=*/3);
  EXPECT_EQ(TreeChecksum(&plain, 3), 0x5bf7d7e5a2181e31ull);
  EXPECT_EQ(TreeChecksum(&client, 3), 0xa797fa0afb1b0037ull);
}

TEST(LengthModelTest, SamplesRespectBounds) {
  LengthModel model;
  Rng rng(1);
  for (int i = 0; i < 20000; ++i) {
    int64_t in = model.SampleInputLen(rng);
    int64_t out = model.SampleOutputLen(rng);
    EXPECT_GE(in, model.config().input_min);
    EXPECT_LE(in, model.config().input_max);
    EXPECT_GE(out, model.config().output_min);
    EXPECT_LE(out, model.config().output_max);
  }
}

TEST(LengthModelTest, OutputsHeavierTailedThanInputs) {
  // Fig. 4a: output lengths dominate input lengths in the tail.
  LengthModel model;
  Rng rng(2);
  Distribution inputs;
  Distribution outputs;
  for (int i = 0; i < 20000; ++i) {
    inputs.Add(static_cast<double>(model.SampleInputLen(rng)));
    outputs.Add(static_cast<double>(model.SampleOutputLen(rng)));
  }
  EXPECT_GT(outputs.Percentile(50), inputs.Percentile(50));
  EXPECT_GT(outputs.Percentile(99), inputs.Percentile(99));
  // Long tail exists (thousands of tokens), as in WildChat.
  EXPECT_GT(outputs.Percentile(99), 1000);
}

TEST(DiurnalModelTest, RatesArePositiveAndPeriodic) {
  DiurnalModel model = DiurnalModel::WildChatCountries();
  for (size_t r = 0; r < model.num_regions(); ++r) {
    for (int h = 0; h < 24; ++h) {
      EXPECT_GT(model.RateAt(r, h), 0.0);
    }
    EXPECT_NEAR(model.RateAt(r, 0.0), model.RateAt(r, 24.0), 1e-9);
  }
}

TEST(DiurnalModelTest, RegionsPeakAtDifferentUtcHours) {
  DiurnalModel model = DiurnalModel::WildChatCountries();
  auto peak_hour = [&](size_t region) {
    double best = -1;
    int best_h = 0;
    for (int h = 0; h < 24; ++h) {
      double rate = model.RateAt(region, h + 0.5);
      if (rate > best) {
        best = rate;
        best_h = h;
      }
    }
    return best_h;
  };
  // US (UTC-6) and China (UTC+8) peaks must be far apart on the UTC clock.
  int us = peak_hour(0);
  int cn = peak_hour(2);
  int diff = std::abs(us - cn);
  diff = std::min(diff, 24 - diff);
  EXPECT_GE(diff, 6);
}

TEST(DiurnalModelTest, AggregationFlattensVariance) {
  // Fig. 3a: per-region peak-to-trough is large; the aggregate is flat.
  DiurnalModel model = DiurnalModel::FiveCloudRegions();
  double worst_regional_ratio = 0;
  for (size_t r = 0; r < model.num_regions(); ++r) {
    BinnedSeries series = model.HourlySeries(r, 1000);
    worst_regional_ratio =
        std::max(worst_regional_ratio, series.PeakToTroughRatio());
  }
  BinnedSeries aggregate(24);
  for (int h = 0; h < 24; ++h) {
    for (size_t r = 0; r < model.num_regions(); ++r) {
      aggregate.Add(static_cast<size_t>(h), model.RateAt(r, h + 0.5));
    }
  }
  double aggregate_ratio = aggregate.PeakToTroughRatio();
  EXPECT_GT(worst_regional_ratio, 2.5);
  EXPECT_LT(aggregate_ratio, worst_regional_ratio / 1.8);
  EXPECT_LT(aggregate_ratio, 2.0);
}

TEST(DiurnalModelTest, SampleDayIsPoissonNoisy) {
  DiurnalModel model = DiurnalModel::WildChatCountries();
  Rng rng(3);
  BinnedSeries day = model.SampleDay(0, 5000, rng);
  EXPECT_GT(day.Total(), 0);
  // Sampled counts track the expectation roughly.
  BinnedSeries expected = model.HourlySeries(0, 5000);
  EXPECT_NEAR(day.Total() / expected.Total(), 1.0, 0.1);
}

TEST(ConversationTest, TurnPromptsAreExactPrefixExtensions) {
  ConversationGenerator gen(ConversationWorkloadConfig::Arena(), 3, 42);
  auto user = gen.MakeUser(0);
  auto conv = gen.MakeConversation(user);
  ASSERT_GE(conv.turns.size(), 1u);
  for (size_t t = 1; t < conv.turns.size(); ++t) {
    const TokenSeq prev = conv.turns[t - 1].prompt;
    const TokenSeq cur = conv.turns[t].prompt;
    ASSERT_GT(cur.size(), prev.size());
    // prev prompt + prev output is a prefix of the current prompt.
    EXPECT_EQ(CommonPrefixLen(prev, cur), prev.size());
    size_t expected_prefix = prev.size() + conv.turns[t - 1].output.size();
    TokenSeq prev_full = prev;
    prev_full.insert(prev_full.end(), conv.turns[t - 1].output.begin(),
                     conv.turns[t - 1].output.end());
    EXPECT_EQ(CommonPrefixLen(prev_full, cur), expected_prefix);
  }
}

// A conversation is one transcript: every turn's prompt and output slice
// the same buffer, each output continues its prompt, and turn k+1's prompt
// starts with turn k's prompt, then its output.
TEST(ConversationTest, TurnsSliceOneTranscript) {
  ConversationGenerator gen(ConversationWorkloadConfig::WildChat(), 4, 42);
  const auto user = gen.MakeUser(0);
  int multi_turn = 0;
  for (int c = 0; c < 20; ++c) {
    const auto conv = gen.MakeConversation(user);
    ASSERT_GE(conv.turns.size(), 1u);
    const auto& first = conv.turns.front();
    for (size_t t = 0; t < conv.turns.size(); ++t) {
      const auto& turn = conv.turns[t];
      // Every prompt starts the transcript; every output continues its
      // prompt in the same buffer.
      EXPECT_EQ(turn.prompt.data(), first.prompt.data());
      EXPECT_TRUE(turn.output.Continues(turn.prompt));
      if (t + 1 < conv.turns.size()) {
        const TokenSeq next = conv.turns[t + 1].prompt;
        const TokenSeq context = Concat(turn.prompt, turn.output);
        ASSERT_GT(next.size(), context.size());
        EXPECT_TRUE(std::equal(context.begin(), context.end(), next.begin()));
      }
    }
    multi_turn += conv.turns.size() > 1 ? 1 : 0;
  }
  EXPECT_GT(multi_turn, 0);
}

TEST(ConversationTest, UsersAndSessionsGetUniqueIds) {
  ConversationGenerator gen(ConversationWorkloadConfig::Arena(), 3, 42);
  std::set<UserId> users;
  std::set<SessionId> sessions;
  for (int i = 0; i < 20; ++i) {
    auto user = gen.MakeUser(i % 3);
    EXPECT_TRUE(users.insert(user.user_id).second);
    for (int c = 0; c < 3; ++c) {
      auto conv = gen.MakeConversation(user);
      EXPECT_TRUE(sessions.insert(conv.session_id).second);
    }
  }
}

TEST(ConversationTest, SimilarityOrderingMatchesPaper) {
  // Fig. 5a ordering: within-user >> across-user, and both positive for the
  // Arena-style single template pool.
  ConversationGenerator gen(ConversationWorkloadConfig::Arena(), 3, 7);
  std::vector<RegionId> population;
  for (int i = 0; i < 60; ++i) {
    population.push_back(i % 3);
  }
  auto trace = gen.GenerateTrace(population, 4);
  ASSERT_GT(trace.size(), 200u);

  // Within-user vs across-user mean similarity (sampled).
  Rng rng(9);
  double within_sum = 0;
  int within_n = 0;
  double across_sum = 0;
  int across_n = 0;
  for (int k = 0; k < 20000; ++k) {
    size_t a = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(trace.size()) - 1));
    size_t b = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(trace.size()) - 1));
    if (a == b) {
      continue;
    }
    double sim = PrefixSimilarity(trace[a].prompt, trace[b].prompt);
    if (trace[a].user_id == trace[b].user_id) {
      within_sum += sim;
      ++within_n;
    } else {
      across_sum += sim;
      ++across_n;
    }
  }
  ASSERT_GT(within_n, 50);
  ASSERT_GT(across_n, 1000);
  double within = within_sum / within_n;
  double across = across_sum / across_n;
  EXPECT_GT(within, across * 1.8) << "within=" << within
                                  << " across=" << across;
  EXPECT_GT(across, 0.005);
}

TEST(ConversationTest, WildChatRegionalityCreatesRegionAffinity) {
  ConversationGenerator gen(ConversationWorkloadConfig::WildChat(), 3, 11);
  std::vector<RegionId> population;
  for (int i = 0; i < 90; ++i) {
    population.push_back(i % 3);
  }
  auto trace = gen.GenerateTrace(population, 3);
  Rng rng(13);
  double within_sum = 0;
  int within_n = 0;
  double across_sum = 0;
  int across_n = 0;
  for (int k = 0; k < 40000; ++k) {
    size_t a = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(trace.size()) - 1));
    size_t b = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(trace.size()) - 1));
    if (a == b || trace[a].user_id == trace[b].user_id) {
      continue;
    }
    double sim = PrefixSimilarity(trace[a].prompt, trace[b].prompt);
    if (trace[a].region == trace[b].region) {
      within_sum += sim;
      ++within_n;
    } else {
      across_sum += sim;
      ++across_n;
    }
  }
  double within = within_sum / within_n;
  double across = across_sum / across_n;
  EXPECT_GT(within, across * 1.5) << "within=" << within
                                  << " across=" << across;
}

TEST(ToTTest, RequestCountMatchesPaper) {
  ToTConfig two_branch;
  two_branch.depth = 4;
  two_branch.branching = 2;
  EXPECT_EQ(two_branch.RequestsPerTree(), 15);  // §5.1.
  ToTConfig four_branch;
  four_branch.depth = 4;
  four_branch.branching = 4;
  EXPECT_EQ(four_branch.RequestsPerTree(), 85);  // Mixed Tree.
}

TEST(ToTTest, TreeStructureIsSound) {
  ToTConfig config;
  config.depth = 4;
  config.branching = 2;
  ToTGenerator gen(config, 5);
  auto tree = gen.MakeTree();
  ASSERT_EQ(tree.nodes.size(), 15u);
  ASSERT_EQ(tree.levels.size(), 4u);
  EXPECT_EQ(tree.levels[0].size(), 1u);
  EXPECT_EQ(tree.levels[1].size(), 2u);
  EXPECT_EQ(tree.levels[2].size(), 4u);
  EXPECT_EQ(tree.levels[3].size(), 8u);
  for (size_t i = 1; i < tree.nodes.size(); ++i) {
    const auto& node = tree.nodes[i];
    ASSERT_GE(node.parent, 0);
    const auto& parent = tree.nodes[static_cast<size_t>(node.parent)];
    EXPECT_EQ(node.level, parent.level + 1);
    // Child prompt = parent prompt + parent output.
    EXPECT_EQ(node.prompt.size(),
              parent.prompt.size() + parent.output.size());
    EXPECT_EQ(CommonPrefixLen(node.prompt, parent.prompt),
              parent.prompt.size());
  }
}

// A node is one buffer: its prompt is its parent's prompt, then the
// parent's thought, and its own thought continues that prompt.
TEST(ToTTest, ChildPromptIsParentPromptThenThought) {
  ToTGenerator gen(ToTConfig{}, 5);
  const auto tree = gen.MakeTree();
  for (const auto& node : tree.nodes) {
    EXPECT_TRUE(node.output.Continues(node.prompt));
    if (node.parent < 0) {
      continue;
    }
    const auto& parent = tree.nodes[static_cast<size_t>(node.parent)];
    EXPECT_EQ(TokenSeq(node.prompt),
              TokenSeq(Concat(parent.prompt, parent.output)));
  }
}

TEST(ToTTest, SiblingsShareFullPrompt) {
  ToTGenerator gen(ToTConfig{}, 5);
  auto tree = gen.MakeTree();
  // Level-1 nodes share the root prompt+output entirely.
  const auto& a = tree.nodes[static_cast<size_t>(tree.levels[1][0])];
  const auto& b = tree.nodes[static_cast<size_t>(tree.levels[1][1])];
  EXPECT_EQ(TokenSeq(a.prompt), TokenSeq(b.prompt));
  EXPECT_NE(TokenSeq(a.output), TokenSeq(b.output));
}

TEST(ToTTest, TreesAreTokenDisjoint) {
  ToTGenerator gen(ToTConfig{}, 5);
  auto t1 = gen.MakeTree();
  auto t2 = gen.MakeTree();
  EXPECT_EQ(CommonPrefixLen(t1.nodes[0].prompt, t2.nodes[0].prompt), 0u);
  EXPECT_NE(t1.routing_key, t2.routing_key);

  // Per-client generators (one per client of a run) live in private bands:
  // two clients share no token and no routing key, even on equal seeds.
  ToTGenerator a(ToTConfig{}, 5, /*client_index=*/0);
  ToTGenerator b(ToTConfig{}, 5, /*client_index=*/1);
  std::set<Token> a_tokens;
  std::set<std::string> a_keys;
  for (int i = 0; i < 20; ++i) {
    auto tree = a.MakeTree();
    a_keys.insert(tree.routing_key);
    for (const auto& node : tree.nodes) {
      a_tokens.insert(node.prompt.begin(), node.prompt.end());
      a_tokens.insert(node.output.begin(), node.output.end());
    }
  }
  for (int i = 0; i < 20; ++i) {
    auto tree = b.MakeTree();
    EXPECT_EQ(a_keys.count(tree.routing_key), 0u) << tree.routing_key;
    for (const auto& node : tree.nodes) {
      for (Token token : node.prompt) {
        ASSERT_EQ(a_tokens.count(token), 0u) << token;
      }
      for (Token token : node.output) {
        ASSERT_EQ(a_tokens.count(token), 0u) << token;
      }
    }
  }
}

}  // namespace
}  // namespace skywalker
