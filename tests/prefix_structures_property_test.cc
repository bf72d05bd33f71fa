// Differential property tests for the arena-backed radix structures
// (ISSUE 3): randomized insert/match/pin/unpin/evict traces run through the
// new PrefixCache/RoutingTrie AND byte-for-byte copies of the seed std::map
// implementations, asserting identical observable behavior after every
// operation — match lengths, insert/evict returns, candidate orderings,
// size/node/pin counters — plus CheckInvariants() on the new structures.
//
// The cache's edges borrow the buffers of the slices inserted into them, so
// its traces draw two kinds of sequence: slices of buffers the cache already
// holds, whose walks compare edges by address (CommonPrefixLenRaw's
// identity check), and equal copies in fresh buffers, which compare token
// by token. Some inserts and re-pins resume from a held pin on a prefix of
// their sequence, while the reference walks from the root.
//
// The references below are the pre-ISSUE-3 implementations, kept verbatim
// (modulo class names): they define the behavior the PR's determinism
// guardrail freezes. If an optimization ever changes eviction tie-breaking,
// split shapes, or candidate order, these tests fail before the BENCH_*.json
// golden diff does.

#include <gtest/gtest.h>

#include <cassert>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/cache/prefix_cache.h"
#include "src/cache/routing_trie.h"
#include "src/common/rng.h"

namespace skywalker {
namespace {

// ---------------------------------------------------------------------------
// Reference implementations (seed code, pointer-based std::map layout).
// ---------------------------------------------------------------------------

class ReferencePrefixCache {
 public:
  explicit ReferencePrefixCache(int64_t capacity_tokens)
      : capacity_tokens_(capacity_tokens), root_(std::make_unique<Node>()) {}

  struct MatchRef {
    int64_t cached_len = 0;
    PinId pin = kInvalidPin;
  };

  MatchRef MatchAndRef(const TokenSeq& seq, SimTime now) {
    std::vector<Node*> path;
    int64_t len = WalkAndSplit(seq, now, &path);
    for (Node* n : path) {
      ++n->ref_count;
    }
    PinId id = next_pin_++;
    Pin pin;
    pin.prefix.assign(seq.begin(), seq.begin() + static_cast<ptrdiff_t>(len));
    pins_.emplace(id, std::move(pin));
    lookup_tokens_ += static_cast<int64_t>(seq.size());
    hit_tokens_ += len;
    return MatchRef{len, id};
  }

  int64_t MatchPrefix(const TokenSeq& seq, SimTime now) {
    return WalkAndSplit(seq, now, nullptr);
  }

  void Unref(PinId pin) {
    auto it = pins_.find(pin);
    ASSERT_TRUE(it != pins_.end());
    const TokenSeq& prefix = it->second.prefix;
    AdjustRefs(prefix, static_cast<int64_t>(prefix.size()), -1);
    pins_.erase(it);
  }

  int64_t Insert(const TokenSeq& seq, SimTime now) {
    std::vector<Node*> path;
    int64_t matched = WalkAndSplit(seq, now, &path);
    int64_t added = 0;
    if (matched < static_cast<int64_t>(seq.size())) {
      Node* parent = path.empty() ? root_.get() : path.back();
      auto leaf = std::make_unique<Node>();
      leaf->edge.assign(seq.begin() + matched, seq.end());
      leaf->parent = parent;
      leaf->last_access = now;
      added = static_cast<int64_t>(leaf->edge.size());
      Token first = leaf->edge.front();
      parent->children.emplace(first, std::move(leaf));
      ++num_nodes_;
      size_tokens_ += added;
    }
    if (size_tokens_ > capacity_tokens_) {
      Evict(size_tokens_ - capacity_tokens_);
    }
    return added;
  }

  int64_t Evict(int64_t tokens) {
    int64_t freed = 0;
    while (freed < tokens) {
      Node* victim = nullptr;
      SimTime oldest = std::numeric_limits<SimTime>::max();
      std::vector<Node*> stack{root_.get()};
      while (!stack.empty()) {
        Node* n = stack.back();
        stack.pop_back();
        for (auto& [token, child] : n->children) {
          stack.push_back(child.get());
        }
        if (n != root_.get() && n->children.empty() && n->ref_count == 0 &&
            n->last_access < oldest) {
          oldest = n->last_access;
          victim = n;
        }
      }
      if (victim == nullptr) {
        break;
      }
      freed += static_cast<int64_t>(victim->edge.size());
      RemoveLeaf(victim);
    }
    return freed;
  }

  void Clear() { Evict(std::numeric_limits<int64_t>::max()); }

  int64_t size_tokens() const { return size_tokens_; }
  size_t num_nodes() const { return num_nodes_; }
  size_t active_pins() const { return pins_.size(); }
  int64_t lookup_tokens() const { return lookup_tokens_; }
  int64_t hit_tokens() const { return hit_tokens_; }

  int64_t pinned_tokens() const {
    int64_t total = 0;
    std::vector<const Node*> stack{root_.get()};
    while (!stack.empty()) {
      const Node* n = stack.back();
      stack.pop_back();
      for (const auto& [token, child] : n->children) {
        stack.push_back(child.get());
      }
      if (n->ref_count > 0) {
        total += static_cast<int64_t>(n->edge.size());
      }
    }
    return total;
  }

 private:
  struct Node {
    TokenSeq edge;
    std::map<Token, std::unique_ptr<Node>> children;
    Node* parent = nullptr;
    int64_t ref_count = 0;
    SimTime last_access = 0;
  };
  struct Pin {
    TokenSeq prefix;
  };

  int64_t WalkAndSplit(const TokenSeq& seq, SimTime now,
                       std::vector<Node*>* path) {
    Node* node = root_.get();
    size_t pos = 0;
    while (pos < seq.size()) {
      auto it = node->children.find(seq[pos]);
      if (it == node->children.end()) {
        break;
      }
      Node* child = it->second.get();
      const TokenSeq& edge = child->edge;
      size_t matched = 0;
      while (matched < edge.size() && pos + matched < seq.size() &&
             edge[matched] == seq[pos + matched]) {
        ++matched;
      }
      if (matched == 0) {
        break;
      }
      if (matched < edge.size()) {
        SplitNode(child, matched);
      }
      child->last_access = now;
      pos += matched;
      if (path != nullptr) {
        path->push_back(child);
      }
      node = child;
    }
    return static_cast<int64_t>(pos);
  }

  void SplitNode(Node* node, size_t keep) {
    auto tail = std::make_unique<Node>();
    tail->edge.assign(node->edge.begin() + static_cast<ptrdiff_t>(keep),
                      node->edge.end());
    tail->children = std::move(node->children);
    for (auto& [token, child] : tail->children) {
      child->parent = tail.get();
    }
    tail->ref_count = node->ref_count;
    tail->last_access = node->last_access;
    tail->parent = node;
    node->edge.resize(keep);
    node->children.clear();
    Token first = tail->edge.front();
    node->children.emplace(first, std::move(tail));
    ++num_nodes_;
  }

  void AdjustRefs(const TokenSeq& seq, int64_t len, int64_t delta) {
    Node* node = root_.get();
    int64_t pos = 0;
    while (pos < len) {
      auto it = node->children.find(seq[static_cast<size_t>(pos)]);
      ASSERT_TRUE(it != node->children.end());
      Node* child = it->second.get();
      int64_t edge_len = static_cast<int64_t>(child->edge.size());
      ASSERT_TRUE(pos + edge_len <= len);
      child->ref_count += delta;
      ASSERT_TRUE(child->ref_count >= 0);
      pos += edge_len;
      node = child;
    }
  }

  void RemoveLeaf(Node* leaf) {
    Node* parent = leaf->parent;
    size_tokens_ -= static_cast<int64_t>(leaf->edge.size());
    --num_nodes_;
    parent->children.erase(leaf->edge.front());
  }

  int64_t capacity_tokens_;
  std::unique_ptr<Node> root_;
  int64_t size_tokens_ = 0;
  size_t num_nodes_ = 0;
  std::unordered_map<PinId, Pin> pins_;
  PinId next_pin_ = 1;
  int64_t lookup_tokens_ = 0;
  int64_t hit_tokens_ = 0;
};

class ReferenceRoutingTrie {
 public:
  explicit ReferenceRoutingTrie(int64_t capacity_tokens)
      : capacity_tokens_(capacity_tokens), root_(std::make_unique<Node>()) {}

  using TargetPredicate = std::function<bool(TargetId)>;

  void Insert(const TokenSeq& seq, TargetId target) {
    uint64_t gen = next_gen_++;
    Node* node = root_.get();
    node->targets[target] = gen;
    size_t pos = 0;
    while (pos < seq.size()) {
      auto it = node->children.find(seq[pos]);
      if (it == node->children.end()) {
        auto leaf = std::make_unique<Node>();
        leaf->edge.assign(seq.begin() + static_cast<ptrdiff_t>(pos),
                          seq.end());
        leaf->parent = node;
        leaf->targets[target] = gen;
        leaf->last_insert_gen = gen;
        size_tokens_ += static_cast<int64_t>(leaf->edge.size());
        ++num_nodes_;
        node->children.emplace(leaf->edge.front(), std::move(leaf));
        break;
      }
      Node* child = it->second.get();
      size_t matched = 0;
      while (matched < child->edge.size() && pos + matched < seq.size() &&
             child->edge[matched] == seq[pos + matched]) {
        ++matched;
      }
      if (matched < child->edge.size()) {
        SplitNode(child, matched);
      }
      child->targets[target] = gen;
      child->last_insert_gen = gen;
      pos += matched;
      node = child;
    }
    EvictToCapacity();
  }

  RoutingTrie::Match MatchBest(const TokenSeq& seq,
                               const TargetPredicate& pred) const {
    RoutingTrie::Match result;
    const Node* best = root_.get();
    int64_t best_len = 0;
    const Node* node = root_.get();
    size_t pos = 0;
    while (pos < seq.size()) {
      auto it = node->children.find(seq[pos]);
      if (it == node->children.end()) {
        break;
      }
      const Node* child = it->second.get();
      size_t matched = 0;
      while (matched < child->edge.size() && pos + matched < seq.size() &&
             child->edge[matched] == seq[pos + matched]) {
        ++matched;
      }
      if (matched == 0) {
        break;
      }
      bool any_available = false;
      for (const auto& [target, gen] : child->targets) {
        (void)gen;
        if (!pred || pred(target)) {
          any_available = true;
          break;
        }
      }
      if (!any_available) {
        break;
      }
      pos += matched;
      best = child;
      best_len = static_cast<int64_t>(pos);
      if (matched < child->edge.size()) {
        break;
      }
      node = child;
    }
    result.match_len = best_len;
    FillAvailable(best, pred, &result.candidates);
    return result;
  }

  void RemoveTarget(TargetId target) {
    std::vector<Node*> stack{root_.get()};
    std::vector<Node*> order;
    while (!stack.empty()) {
      Node* n = stack.back();
      stack.pop_back();
      order.push_back(n);
      for (auto& [token, child] : n->children) {
        stack.push_back(child.get());
      }
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      Node* n = *it;
      n->targets.erase(target);
      if (n != root_.get() && n->children.empty() && n->targets.empty()) {
        RemoveLeaf(n);
      }
    }
  }

  int64_t size_tokens() const { return size_tokens_; }
  size_t num_nodes() const { return num_nodes_; }

 private:
  struct Node {
    TokenSeq edge;
    std::map<Token, std::unique_ptr<Node>> children;
    Node* parent = nullptr;
    std::map<TargetId, uint64_t> targets;
    uint64_t last_insert_gen = 0;
  };

  void SplitNode(Node* node, size_t keep) {
    auto tail = std::make_unique<Node>();
    tail->edge.assign(node->edge.begin() + static_cast<ptrdiff_t>(keep),
                      node->edge.end());
    tail->children = std::move(node->children);
    for (auto& [token, child] : tail->children) {
      child->parent = tail.get();
    }
    tail->targets = node->targets;
    tail->last_insert_gen = node->last_insert_gen;
    tail->parent = node;
    node->edge.resize(keep);
    node->children.clear();
    node->children.emplace(tail->edge.front(), std::move(tail));
    ++num_nodes_;
  }

  void FillAvailable(const Node* node, const TargetPredicate& pred,
                     std::vector<TargetId>* out) const {
    out->clear();
    std::vector<std::pair<uint64_t, TargetId>> avail;
    for (const auto& [target, gen] : node->targets) {
      if (!pred || pred(target)) {
        avail.emplace_back(gen, target);
      }
    }
    std::sort(avail.begin(), avail.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    out->reserve(avail.size());
    for (const auto& [gen, target] : avail) {
      (void)gen;
      out->push_back(target);
    }
  }

  void EvictToCapacity() {
    while (size_tokens_ > capacity_tokens_) {
      Node* victim = nullptr;
      uint64_t oldest = std::numeric_limits<uint64_t>::max();
      std::vector<Node*> stack{root_.get()};
      while (!stack.empty()) {
        Node* n = stack.back();
        stack.pop_back();
        for (auto& [token, child] : n->children) {
          stack.push_back(child.get());
        }
        if (n != root_.get() && n->children.empty() &&
            n->last_insert_gen < oldest) {
          oldest = n->last_insert_gen;
          victim = n;
        }
      }
      if (victim == nullptr) {
        break;
      }
      RemoveLeaf(victim);
    }
  }

  void RemoveLeaf(Node* leaf) {
    Node* parent = leaf->parent;
    size_tokens_ -= static_cast<int64_t>(leaf->edge.size());
    --num_nodes_;
    parent->children.erase(leaf->edge.front());
  }

  int64_t capacity_tokens_;
  std::unique_ptr<Node> root_;
  int64_t size_tokens_ = 0;
  size_t num_nodes_ = 0;
  uint64_t next_gen_ = 1;
};

// ---------------------------------------------------------------------------
// Trace generators.
// ---------------------------------------------------------------------------

// Conversation-shaped random sequence: extends/truncates earlier sequences
// (prefix structure, splits) or draws fresh tokens from a small alphabet
// (fan-out, collisions).
TokenSeq RandomSeq(Rng& rng, const std::vector<TokenSeq>& history) {
  TokenSeq seq;
  if (!history.empty() && rng.Bernoulli(0.6)) {
    const TokenSeq& base = history[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(history.size()) - 1))];
    size_t keep = static_cast<size_t>(
        rng.UniformInt(1, static_cast<int64_t>(base.size())));
    seq.assign(base.begin(), base.begin() + static_cast<ptrdiff_t>(keep));
    int64_t extra = rng.UniformInt(0, 8);
    for (int64_t i = 0; i < extra; ++i) {
      seq.push_back(static_cast<Token>(rng.UniformInt(0, 9)));
    }
  } else {
    int64_t len = rng.UniformInt(1, 16);
    for (int64_t i = 0; i < len; ++i) {
      seq.push_back(static_cast<Token>(rng.UniformInt(0, 9)));
    }
  }
  return seq;
}

struct CacheParams {
  uint64_t seed = 0;
  int64_t capacity = 0;
  // Divisor applied to the step counter when stamping SimTime: > 1 forces
  // duplicate LRU timestamps, stressing eviction-scan tie-breaking.
  SimTime time_divisor = 1;
};

class PrefixCacheDifferentialTest
    : public ::testing::TestWithParam<CacheParams> {};

TEST_P(PrefixCacheDifferentialTest, MatchesSeedImplementationExactly) {
  const CacheParams params = GetParam();
  Rng rng(params.seed);
  PrefixCache cache(params.capacity);
  ReferencePrefixCache ref(params.capacity);

  std::vector<TokenSeq> history;
  // Buffers some inserted slice viewed, each at offset 0 and often longer
  // than what was inserted (a conversation's later turns).
  std::vector<std::shared_ptr<const TokenSeq>> buffers;
  struct HeldPin {
    PinId mine = kInvalidPin;
    PinId theirs = kInvalidPin;
    SharedTokens seq;  // What the pin covers a prefix of; offset 0.
    int64_t len = 0;   // The covered prefix.
  };
  std::vector<HeldPin> pins;

  auto pick = [&rng](size_t n) {
    return static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  auto fresh_tokens = [&rng](TokenSeq* seq) {
    const int64_t extra = rng.UniformInt(0, 8);
    for (int64_t i = 0; i < extra; ++i) {
      seq->push_back(static_cast<Token>(rng.UniformInt(0, 9)));
    }
  };
  // Half the time a slice [0, k) of a held buffer, otherwise a copy in a
  // fresh buffer of its own.
  auto draw = [&]() -> SharedTokens {
    if (!buffers.empty() && rng.Bernoulli(0.5)) {
      const std::shared_ptr<const TokenSeq>& buffer =
          buffers[pick(buffers.size())];
      return SharedTokens(buffer, 0,
                          static_cast<size_t>(rng.UniformInt(
                              1, static_cast<int64_t>(buffer->size()))));
    }
    return SharedTokens(RandomSeq(rng, history));
  };

  for (int step = 0; step < 2000; ++step) {
    SCOPED_TRACE(step);
    const SimTime now = static_cast<SimTime>(step) / params.time_divisor;
    const double roll = rng.NextDouble();
    if (roll < 0.3) {
      SharedTokens seq;
      if (rng.Bernoulli(0.7)) {
        // New content: a buffer that may run past the inserted slice.
        TokenSeq tokens = RandomSeq(rng, history);
        history.push_back(tokens);
        const size_t len = tokens.size();
        fresh_tokens(&tokens);
        buffers.push_back(std::make_shared<const TokenSeq>(std::move(tokens)));
        seq = SharedTokens(buffers.back(), 0, len);
      } else {
        seq = draw();
      }
      ASSERT_EQ(cache.Insert(seq, now), ref.Insert(seq, now));
    } else if (roll < 0.45) {
      const SharedTokens seq = draw();
      ASSERT_EQ(cache.MatchPrefix(seq, now), ref.MatchPrefix(seq, now));
    } else if (roll < 0.6) {
      const SharedTokens seq = draw();
      auto got = cache.MatchAndRef(seq, now);
      auto want = ref.MatchAndRef(seq, now);
      ASSERT_EQ(got.cached_len, want.cached_len);
      pins.push_back(HeldPin{got.pin, want.pin, seq, got.cached_len});
    } else if (roll < 0.72 && !pins.empty()) {
      // Resume at a held pin: the sequence continues the pinned prefix, as
      // a longer slice of the pin's buffer or as a copy plus fresh tokens.
      const size_t idx = pick(pins.size());
      const HeldPin held = pins[idx];
      SharedTokens seq;
      if (rng.Bernoulli(0.5)) {
        seq = SharedTokens(
            held.seq.buffer(), 0,
            static_cast<size_t>(rng.UniformInt(
                held.len, static_cast<int64_t>(held.seq.buffer()->size()))));
      } else {
        TokenSeq tokens(held.seq.begin(), held.seq.begin() + held.len);
        fresh_tokens(&tokens);
        seq = SharedTokens(std::move(tokens));
      }
      if (rng.Bernoulli(0.5)) {
        ASSERT_EQ(cache.Insert(seq, now, nullptr, 0, held.mine),
                  ref.Insert(seq, now));
      } else {
        auto got = cache.MatchAndRef(seq, now, held.mine);
        auto want = ref.MatchAndRef(seq, now);
        ASSERT_EQ(got.cached_len, want.cached_len);
        pins.push_back(HeldPin{got.pin, want.pin, seq, got.cached_len});
        if (rng.Bernoulli(0.5)) {
          // The replica's publish order: re-pin, then drop the old pin.
          cache.Unref(held.mine);
          ref.Unref(held.theirs);
          pins.erase(pins.begin() + static_cast<ptrdiff_t>(idx));
        }
      }
    } else if (roll < 0.82 && !pins.empty()) {
      const size_t idx = pick(pins.size());
      cache.Unref(pins[idx].mine);
      ref.Unref(pins[idx].theirs);
      pins.erase(pins.begin() + static_cast<ptrdiff_t>(idx));
    } else {
      int64_t tokens = rng.UniformInt(1, 64);
      ASSERT_EQ(cache.Evict(tokens), ref.Evict(tokens));
    }
    ASSERT_EQ(cache.size_tokens(), ref.size_tokens());
    ASSERT_EQ(cache.num_nodes(), ref.num_nodes());
    ASSERT_EQ(cache.pinned_tokens(), ref.pinned_tokens());
    ASSERT_EQ(cache.active_pins(), ref.active_pins());
    ASSERT_EQ(cache.lookup_tokens(), ref.lookup_tokens());
    ASSERT_EQ(cache.hit_tokens(), ref.hit_tokens());
    ASSERT_TRUE(cache.CheckInvariants());
  }

  // Drain: release every pin, then everything must evict identically.
  for (const HeldPin& held : pins) {
    cache.Unref(held.mine);
    ref.Unref(held.theirs);
  }
  ASSERT_EQ(cache.Evict(1 << 30), ref.Evict(1 << 30));
  ASSERT_EQ(cache.size_tokens(), 0);
  ASSERT_TRUE(cache.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(
    Traces, PrefixCacheDifferentialTest,
    ::testing::Values(CacheParams{1, 1'000'000, 1},   // No eviction.
                      CacheParams{2, 200, 1},          // Heavy eviction.
                      CacheParams{3, 200, 4},          // Eviction + LRU ties.
                      CacheParams{4, 50, 1},           // Brutal eviction.
                      CacheParams{5, 1000, 8},         // Many ties.
                      CacheParams{99, 400, 2}));

// The replica's request lifecycle over conversation-shaped buffers: each
// conversation is one buffer (a system template copied from a small pool,
// then its turns' fresh tokens), and each turn is a request whose prompt
// and output are slices of it. Admission pins the prompt from the root;
// publish inserts the prompt and re-pins it, both resuming at the admission
// pin, then drops that pin; completion inserts prompt and output resuming at
// the sequence's pin, then drops it. Requests interleave under eviction
// pressure, so a resume that left its pinned chain's LRU stamps stale would
// reorder evictions. The reference walks every operation from the root.
TEST_P(PrefixCacheDifferentialTest, RequestLifecycleMatchesSeedImplementation) {
  const CacheParams params = GetParam();
  Rng rng(params.seed + 1000);
  PrefixCache cache(params.capacity);
  ReferencePrefixCache ref(params.capacity);

  std::vector<TokenSeq> templates;
  for (int t = 0; t < 3; ++t) {
    const int64_t len = rng.UniformInt(5, 20);
    TokenSeq tmpl;
    for (int64_t i = 0; i < len; ++i) {
      tmpl.push_back(static_cast<Token>(t * 100 + i));
    }
    templates.push_back(std::move(tmpl));
  }
  Token fresh = 1'000'000;
  struct Conversation {
    std::shared_ptr<const TokenSeq> buffer;
    std::vector<size_t> ends;  // Turn k: prompt [0, ends[2k]), then its
                               // output up to ends[2k + 1].
    size_t turn = 0;
  };
  auto start_conversation = [&]() {
    Conversation c;
    TokenSeq tokens = templates[static_cast<size_t>(rng.UniformInt(0, 2))];
    const int64_t turns = rng.UniformInt(1, 6);
    for (int64_t k = 0; k < 2 * turns; ++k) {
      const int64_t len = rng.UniformInt(1, 12);
      for (int64_t i = 0; i < len; ++i) {
        tokens.push_back(fresh++);
      }
      c.ends.push_back(tokens.size());
    }
    c.buffer = std::make_shared<const TokenSeq>(std::move(tokens));
    return c;
  };
  std::vector<Conversation> conversations;
  for (int i = 0; i < 12; ++i) {
    conversations.push_back(start_conversation());
  }
  struct InFlight {
    size_t conversation = 0;
    PinId mine = kInvalidPin;
    PinId theirs = kInvalidPin;
    bool published = false;
  };
  std::vector<InFlight> running;
  std::vector<bool> busy(conversations.size(), false);

  for (int step = 0; step < 1500; ++step) {
    SCOPED_TRACE(step);
    const SimTime now = static_cast<SimTime>(step) / params.time_divisor;
    const double roll = rng.NextDouble();
    const size_t c = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(conversations.size()) - 1));
    Conversation& conv = conversations[c];
    if (roll < 0.3 && !busy[c]) {
      // Admission: pin the turn's prompt.
      const SharedTokens prompt(conv.buffer, 0, conv.ends[2 * conv.turn]);
      auto got = cache.MatchAndRef(prompt, now);
      auto want = ref.MatchAndRef(prompt, now);
      ASSERT_EQ(got.cached_len, want.cached_len);
      running.push_back(InFlight{c, got.pin, want.pin, false});
      busy[c] = true;
    } else if (roll < 0.75 && !running.empty()) {
      const size_t idx = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(running.size()) - 1));
      InFlight& req = running[idx];
      Conversation& owner = conversations[req.conversation];
      const size_t prompt_end = owner.ends[2 * owner.turn];
      if (!req.published) {
        // Publish at prefill completion.
        const SharedTokens prompt(owner.buffer, 0, prompt_end);
        ASSERT_EQ(cache.Insert(prompt, now, nullptr, 0, req.mine),
                  ref.Insert(prompt, now));
        auto got = cache.MatchAndRef(prompt, now, req.mine);
        auto want = ref.MatchAndRef(prompt, now);
        ASSERT_EQ(got.cached_len, want.cached_len);
        cache.Unref(req.mine);
        ref.Unref(req.theirs);
        req = InFlight{req.conversation, got.pin, want.pin, true};
      } else {
        // Completion: prompt and output, one slice of the buffer.
        const SharedTokens full(owner.buffer, 0,
                                owner.ends[2 * owner.turn + 1]);
        ASSERT_EQ(cache.Insert(full, now, nullptr, 0, req.mine),
                  ref.Insert(full, now));
        cache.Unref(req.mine);
        ref.Unref(req.theirs);
        busy[req.conversation] = false;
        if (++owner.turn * 2 == owner.ends.size()) {
          owner = start_conversation();
        }
        running.erase(running.begin() + static_cast<ptrdiff_t>(idx));
      }
    } else if (roll < 0.85) {
      // A copy of a conversation's prefix: token-by-token compares.
      const TokenSeq copy(conv.buffer->begin(),
                          conv.buffer->begin() +
                              rng.UniformInt(1, static_cast<int64_t>(
                                                    conv.buffer->size())));
      ASSERT_EQ(cache.MatchPrefix(copy, now), ref.MatchPrefix(copy, now));
    } else {
      const int64_t tokens = rng.UniformInt(1, 64);
      ASSERT_EQ(cache.Evict(tokens), ref.Evict(tokens));
    }
    ASSERT_EQ(cache.size_tokens(), ref.size_tokens());
    ASSERT_EQ(cache.num_nodes(), ref.num_nodes());
    ASSERT_EQ(cache.pinned_tokens(), ref.pinned_tokens());
    ASSERT_EQ(cache.active_pins(), ref.active_pins());
    ASSERT_EQ(cache.lookup_tokens(), ref.lookup_tokens());
    ASSERT_EQ(cache.hit_tokens(), ref.hit_tokens());
    ASSERT_TRUE(cache.CheckInvariants());
  }
  for (const InFlight& req : running) {
    cache.Unref(req.mine);
    ref.Unref(req.theirs);
  }
  ASSERT_EQ(cache.Evict(1 << 30), ref.Evict(1 << 30));
  ASSERT_EQ(cache.size_tokens(), 0);
  ASSERT_TRUE(cache.CheckInvariants());
}

struct TrieParams {
  uint64_t seed = 0;
  int64_t capacity = 0;
};

class RoutingTrieDifferentialTest
    : public ::testing::TestWithParam<TrieParams> {};

TEST_P(RoutingTrieDifferentialTest, MatchesSeedImplementationExactly) {
  const TrieParams params = GetParam();
  Rng rng(params.seed);
  RoutingTrie trie(params.capacity);
  ReferenceRoutingTrie ref(params.capacity);

  std::vector<TokenSeq> history;
  constexpr TargetId kTargets = 6;

  for (int step = 0; step < 1200; ++step) {
    SCOPED_TRACE(step);
    const double roll = rng.NextDouble();
    if (roll < 0.45) {
      TokenSeq seq = RandomSeq(rng, history);
      history.push_back(seq);
      TargetId target = static_cast<TargetId>(rng.UniformInt(0, kTargets - 1));
      trie.Insert(seq, target);
      ref.Insert(seq, target);
    } else if (roll < 0.9) {
      TokenSeq seq = RandomSeq(rng, history);
      std::set<TargetId> avail;
      for (TargetId t = 0; t < kTargets; ++t) {
        if (rng.Bernoulli(0.6)) {
          avail.insert(t);
        }
      }
      auto pred = [&avail](TargetId id) { return avail.count(id) > 0; };
      auto got = trie.MatchBest(seq, pred);
      auto want = ref.MatchBest(seq, pred);
      ASSERT_EQ(got.match_len, want.match_len);
      ASSERT_EQ(got.candidates, want.candidates);  // Order included.
    } else {
      TargetId target = static_cast<TargetId>(rng.UniformInt(0, kTargets - 1));
      trie.RemoveTarget(target);
      ref.RemoveTarget(target);
    }
    ASSERT_EQ(trie.size_tokens(), ref.size_tokens());
    ASSERT_EQ(trie.num_nodes(), ref.num_nodes());
    ASSERT_TRUE(trie.CheckInvariants());
  }

  // Teardown: removing every target must empty both tries identically.
  for (TargetId t = 0; t < kTargets; ++t) {
    trie.RemoveTarget(t);
    ref.RemoveTarget(t);
    ASSERT_EQ(trie.size_tokens(), ref.size_tokens());
    ASSERT_EQ(trie.num_nodes(), ref.num_nodes());
    ASSERT_TRUE(trie.CheckInvariants());
  }
  ASSERT_EQ(trie.num_nodes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Traces, RoutingTrieDifferentialTest,
                         ::testing::Values(TrieParams{11, 1'000'000},
                                           TrieParams{12, 300},
                                           TrieParams{13, 60},
                                           TrieParams{14, 1000},
                                           TrieParams{77, 150}));

}  // namespace
}  // namespace skywalker
