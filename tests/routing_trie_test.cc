// Unit tests for the LB-side routing trie: target tracking, availability-
// constrained longest-prefix match with early exit, eviction by insertion
// order, target removal.

#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "src/cache/routing_trie.h"
#include "src/common/rng.h"

namespace skywalker {
namespace {

TokenSeq Seq(std::initializer_list<Token> tokens) { return TokenSeq(tokens); }

std::function<bool(TargetId)> All() {
  return [](TargetId) { return true; };
}

std::function<bool(TargetId)> Only(std::set<TargetId> allowed) {
  return [allowed = std::move(allowed)](TargetId id) {
    return allowed.count(id) > 0;
  };
}

TEST(RoutingTrieTest, EmptyTrieReturnsNoMatch) {
  RoutingTrie trie(1000);
  auto match = trie.MatchBest(Seq({1, 2, 3}), All());
  EXPECT_EQ(match.match_len, 0);
  EXPECT_TRUE(match.candidates.empty());
}

TEST(RoutingTrieTest, InsertThenExactMatch) {
  RoutingTrie trie(1000);
  trie.Insert(Seq({1, 2, 3}), 7);
  auto match = trie.MatchBest(Seq({1, 2, 3}), All());
  EXPECT_EQ(match.match_len, 3);
  ASSERT_EQ(match.candidates.size(), 1u);
  EXPECT_EQ(match.candidates[0], 7);
  EXPECT_TRUE(trie.CheckInvariants());
}

TEST(RoutingTrieTest, LongestMatchWinsAcrossTargets) {
  RoutingTrie trie(1000);
  trie.Insert(Seq({1, 2}), 10);
  trie.Insert(Seq({1, 2, 3, 4}), 20);
  auto match = trie.MatchBest(Seq({1, 2, 3, 4, 5}), All());
  EXPECT_EQ(match.match_len, 4);
  ASSERT_FALSE(match.candidates.empty());
  EXPECT_EQ(match.candidates[0], 20);
}

TEST(RoutingTrieTest, UnavailableTargetsTriggerEarlyExit) {
  RoutingTrie trie(1000);
  trie.Insert(Seq({1, 2}), 10);
  trie.Insert(Seq({1, 2, 3, 4}), 20);
  // Target 20 unavailable: the deep node is unusable, fall back to depth 2.
  auto match = trie.MatchBest(Seq({1, 2, 3, 4}), Only({10}));
  EXPECT_EQ(match.match_len, 2);
  ASSERT_EQ(match.candidates.size(), 1u);
  EXPECT_EQ(match.candidates[0], 10);
}

TEST(RoutingTrieTest, NoAvailableTargetsFallsBackToRoot) {
  RoutingTrie trie(1000);
  trie.Insert(Seq({1, 2, 3}), 10);
  auto match = trie.MatchBest(Seq({1, 2, 3}), Only({999}));
  EXPECT_EQ(match.match_len, 0);
  EXPECT_TRUE(match.candidates.empty());
}

TEST(RoutingTrieTest, CandidatesOrderedMostRecentFirst) {
  RoutingTrie trie(1000);
  trie.Insert(Seq({1, 2, 3}), 10);
  trie.Insert(Seq({1, 2, 3}), 20);
  trie.Insert(Seq({1, 2, 3}), 30);
  auto match = trie.MatchBest(Seq({1, 2, 3}), All());
  ASSERT_EQ(match.candidates.size(), 3u);
  EXPECT_EQ(match.candidates[0], 30);  // Freshest insert first.
  EXPECT_EQ(match.candidates[2], 10);
}

TEST(RoutingTrieTest, PartialEdgeMatchCountsTokens) {
  RoutingTrie trie(1000);
  trie.Insert(Seq({1, 2, 3, 4, 5, 6}), 7);
  auto match = trie.MatchBest(Seq({1, 2, 3, 9}), All());
  EXPECT_EQ(match.match_len, 3);
  ASSERT_FALSE(match.candidates.empty());
  EXPECT_EQ(match.candidates[0], 7);
}

TEST(RoutingTrieTest, ChildTargetsSubsetOfParent) {
  RoutingTrie trie(1000);
  trie.Insert(Seq({1, 2}), 10);
  trie.Insert(Seq({1, 2, 3}), 20);
  trie.Insert(Seq({1, 9}), 30);
  EXPECT_TRUE(trie.CheckInvariants());
  // Depth-1 node {1} should know all three targets.
  auto match = trie.MatchBest(Seq({1}), All());
  EXPECT_EQ(match.match_len, 1);
  EXPECT_EQ(match.candidates.size(), 3u);
}

TEST(RoutingTrieTest, EvictionRespectsCapacity) {
  RoutingTrie trie(10);
  for (Token base = 0; base < 10; ++base) {
    TokenSeq seq;
    for (Token i = 0; i < 5; ++i) {
      seq.push_back(base * 100 + i);
    }
    trie.Insert(seq, base);
  }
  EXPECT_LE(trie.size_tokens(), 10);
  EXPECT_TRUE(trie.CheckInvariants());
}

TEST(RoutingTrieTest, EvictionDropsEarliestInserted) {
  RoutingTrie trie(9);  // Room for ~2 branches of 4 tokens.
  trie.Insert(Seq({100, 1, 2, 3}), 1);
  trie.Insert(Seq({200, 1, 2, 3}), 2);
  trie.Insert(Seq({300, 1, 2, 3}), 3);  // Evicts the branch of target 1.
  auto match1 = trie.MatchBest(Seq({100, 1, 2, 3}), All());
  EXPECT_EQ(match1.match_len, 0);
  auto match3 = trie.MatchBest(Seq({300, 1, 2, 3}), All());
  EXPECT_EQ(match3.match_len, 4);
}

TEST(RoutingTrieTest, ReinsertRefreshesEvictionOrder) {
  RoutingTrie trie(9);
  trie.Insert(Seq({100, 1, 2, 3}), 1);
  trie.Insert(Seq({200, 1, 2, 3}), 2);
  trie.Insert(Seq({100, 1, 2, 3}), 1);  // Refresh branch 100.
  trie.Insert(Seq({300, 1, 2, 3}), 3);  // Should evict branch 200.
  EXPECT_EQ(trie.MatchBest(Seq({100, 1, 2, 3}), All()).match_len, 4);
  EXPECT_EQ(trie.MatchBest(Seq({200, 1, 2, 3}), All()).match_len, 0);
}

TEST(RoutingTrieTest, RemoveTargetErasesEverywhere) {
  RoutingTrie trie(1000);
  trie.Insert(Seq({1, 2, 3}), 10);
  trie.Insert(Seq({1, 2, 4}), 20);
  trie.RemoveTarget(10);
  auto match = trie.MatchBest(Seq({1, 2, 3}), All());
  // Branch {3} existed only for target 10 and should be pruned; the shared
  // prefix {1,2} still exists for target 20.
  EXPECT_EQ(match.match_len, 2);
  ASSERT_EQ(match.candidates.size(), 1u);
  EXPECT_EQ(match.candidates[0], 20);
  EXPECT_TRUE(trie.CheckInvariants());
}

TEST(RoutingTrieTest, RemoveLastTargetEmptiesTrie) {
  RoutingTrie trie(1000);
  trie.Insert(Seq({1, 2, 3}), 10);
  trie.RemoveTarget(10);
  EXPECT_EQ(trie.size_tokens(), 0);
  EXPECT_EQ(trie.num_nodes(), 0u);
}

// Property: trie match length equals brute-force "longest common prefix with
// any sequence inserted for an available target".
class RoutingTriePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoutingTriePropertyTest, MatchesBruteForce) {
  Rng rng(GetParam());
  RoutingTrie trie(1'000'000);
  std::vector<std::pair<TokenSeq, TargetId>> inserted;

  for (int step = 0; step < 300; ++step) {
    TokenSeq seq;
    int64_t len = rng.UniformInt(1, 10);
    for (int64_t i = 0; i < len; ++i) {
      seq.push_back(static_cast<Token>(rng.UniformInt(0, 6)));
    }
    TargetId target = static_cast<TargetId>(rng.UniformInt(0, 3));
    if (rng.Bernoulli(0.5)) {
      trie.Insert(seq, target);
      inserted.emplace_back(seq, target);
    } else {
      // Random availability subset.
      std::set<TargetId> avail;
      for (TargetId t = 0; t <= 3; ++t) {
        if (rng.Bernoulli(0.6)) {
          avail.insert(t);
        }
      }
      auto match = trie.MatchBest(seq, Only(avail));
      int64_t expected = 0;
      for (const auto& [s, t] : inserted) {
        if (avail.count(t) == 0) {
          continue;
        }
        expected = std::max(expected,
                            static_cast<int64_t>(CommonPrefixLen(s, seq)));
      }
      ASSERT_EQ(match.match_len, expected) << "step " << step;
      // Every candidate must be available.
      for (TargetId c : match.candidates) {
        ASSERT_TRUE(avail.count(c) > 0);
      }
    }
    ASSERT_TRUE(trie.CheckInvariants());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingTriePropertyTest,
                         ::testing::Values(7, 8, 9, 10, 11, 42));

}  // namespace
}  // namespace skywalker
