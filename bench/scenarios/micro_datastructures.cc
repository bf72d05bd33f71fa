// Scenario port of bench/micro_datastructures.cc — microbenchmarks for the
// routing-critical data structures: radix prefix cache, routing trie,
// consistent-hash ring, and the event queue. These quantify per-request
// routing overhead, which the paper's design keeps off the critical path
// (probing is periodic; routing is a trie walk + ring lookup).
//
// Wall-clock ns_per_op is inherently nondeterministic (the scenario is
// registered with deterministic = false); each cell also emits a
// deterministic checksum of the work performed, so behavioral regressions
// in the data structures still show up as metric diffs.
//
// Timing caveat: under `skybench --all` these cells share the thread pool
// with heavy simulation cells, so ns_per_op includes scheduler contention.
// For comparable timings, run the micro scenarios standalone
// (`skybench --scenario=micro_datastructures --threads=1`).

#include <chrono>
#include <string>
#include <vector>

#include "bench/scenarios/scenarios.h"
#include "src/cache/hash_ring.h"
#include "src/cache/prefix_cache.h"
#include "src/cache/routing_trie.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/sim/event_queue.h"

namespace skywalker {

namespace {

// Builds a pool of conversation-like token sequences: shared template
// prefixes with unique continuations.
std::vector<TokenSeq> MakeSequences(size_t count, size_t len, Rng& rng) {
  std::vector<TokenSeq> seqs;
  std::vector<TokenSeq> templates;
  for (int t = 0; t < 16; ++t) {
    TokenSeq tmpl;
    for (size_t i = 0; i < len / 2; ++i) {
      tmpl.push_back(static_cast<Token>(t * 100000 + static_cast<Token>(i)));
    }
    templates.push_back(std::move(tmpl));
  }
  Token fresh = 10'000'000;
  for (size_t s = 0; s < count; ++s) {
    TokenSeq seq = templates[static_cast<size_t>(rng.UniformInt(0, 15))];
    for (size_t i = 0; i < len / 2; ++i) {
      seq.push_back(fresh++);
    }
    seqs.push_back(std::move(seq));
  }
  return seqs;
}

// The same sequences as request slices, each in a buffer of its own, built
// before the timed loop: a cache insert borrows its slice's buffer, so the
// insert cells time the cache and not a vector-to-buffer conversion.
std::vector<SharedTokens> MakeSlices(size_t count, size_t len, Rng& rng) {
  std::vector<SharedTokens> slices;
  for (TokenSeq& seq : MakeSequences(count, len, rng)) {
    slices.emplace_back(std::move(seq));
  }
  return slices;
}

// Times `op` over `iterations` calls and emits ns_per_op + the checksum the
// op accumulated.
MetricRow TimedRow(const std::string& label, int64_t iterations,
                   const std::function<double(int64_t)>& op) {
  const auto start = std::chrono::steady_clock::now();
  double checksum = 0;
  for (int64_t i = 0; i < iterations; ++i) {
    checksum += op(i);
  }
  const auto end = std::chrono::steady_clock::now();
  const double ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              end - start)
                              .count());
  MetricRow row;
  row.label = label;
  row.Set("ns_per_op", ns / static_cast<double>(iterations));
  row.Set("iterations", static_cast<double>(iterations));
  row.Set("checksum", checksum);
  return row;
}

}  // namespace

Scenario MakeMicroDatastructuresScenario() {
  Scenario scenario;
  scenario.name = "micro_datastructures";
  scenario.title = "Routing data-structure microbenchmarks";
  scenario.description =
      "ns/op for prefix-cache insert/match/eviction, routing-trie "
      "insert/match, hash-ring lookups, and event-queue push/pop.";
  scenario.metric_keys = {"ns_per_op", "iterations", "checksum"};
  scenario.deterministic = false;  // Wall-clock metrics.
  scenario.plan = [](const ScenarioOptions& options) {
    const int64_t small = options.smoke ? 2000 : 20000;
    const int64_t large = options.smoke ? 20000 : 200000;
    const uint64_t stream = options.seed_stream;
    ScenarioPlan plan;

    for (size_t len : {size_t{256}, size_t{1024}, size_t{4096}}) {
      const std::string label =
          "prefix_cache_insert/" + std::to_string(len);
      plan.cells.push_back(ScenarioCell{label, [label, len, small, stream] {
        Rng rng(MixSeed(1, stream));
        auto seqs = MakeSlices(4096, len, rng);
        PrefixCache cache(1 << 26);
        return std::vector<MetricRow>{
            TimedRow(label, small, [&](int64_t i) {
              // Newly-stored token count: deterministic and sensitive to
              // node-split / dedup behavior.
              return static_cast<double>(
                  cache.Insert(seqs[static_cast<size_t>(i) % seqs.size()],
                               static_cast<SimTime>(i)));
            })};
      }});
    }

    for (size_t len : {size_t{256}, size_t{1024}, size_t{4096}}) {
      const std::string label = "prefix_cache_match/" + std::to_string(len);
      plan.cells.push_back(ScenarioCell{label, [label, len, large, stream] {
        Rng rng(MixSeed(2, stream));
        auto seqs = MakeSequences(4096, len, rng);
        PrefixCache cache(1 << 26);
        for (size_t s = 0; s < seqs.size(); ++s) {
          cache.Insert(seqs[s], static_cast<SimTime>(s));
        }
        return std::vector<MetricRow>{
            TimedRow(label, large, [&](int64_t i) {
              return static_cast<double>(cache.MatchPrefix(
                  seqs[static_cast<size_t>(i) % seqs.size()],
                  static_cast<SimTime>(i)));
            })};
      }});
    }

    plan.cells.push_back(ScenarioCell{
        "prefix_cache_eviction_churn", [small, stream] {
          Rng rng(MixSeed(3, stream));
          auto seqs = MakeSlices(4096, 1024, rng);
          // Capacity forces eviction on nearly every insert.
          PrefixCache cache(64 * 1024);
          return std::vector<MetricRow>{
              TimedRow("prefix_cache_eviction_churn", small, [&](int64_t i) {
                return static_cast<double>(
                    cache.Insert(seqs[static_cast<size_t>(i) % seqs.size()],
                                 static_cast<SimTime>(i)));
              })};
        }});

    plan.cells.push_back(ScenarioCell{"routing_trie_insert", [small, stream] {
      Rng rng(MixSeed(4, stream));
      auto seqs = MakeSequences(4096, 1024, rng);
      RoutingTrie trie(1 << 26);
      MetricRow row =
          TimedRow("routing_trie_insert", small, [&](int64_t i) {
            trie.Insert(seqs[static_cast<size_t>(i) % seqs.size()],
                        static_cast<TargetId>(i % 12));
            return 0.0;
          });
      // Insert() returns void; probe the final trie state instead so the
      // checksum still reflects insert/split behavior.
      double probe = 0;
      for (size_t s = 0; s < seqs.size(); s += 64) {
        probe += static_cast<double>(trie.MatchBest(seqs[s], nullptr).match_len);
      }
      row.Set("checksum", probe);
      return std::vector<MetricRow>{std::move(row)};
    }});

    plan.cells.push_back(ScenarioCell{
        "routing_trie_match_best", [large, stream] {
          Rng rng(MixSeed(5, stream));
          auto seqs = MakeSequences(4096, 1024, rng);
          RoutingTrie trie(1 << 26);
          for (size_t s = 0; s < seqs.size(); ++s) {
            trie.Insert(seqs[s], static_cast<TargetId>(s % 12));
          }
          auto pred = [](TargetId id) { return id % 2 == 0; };
          return std::vector<MetricRow>{
              TimedRow("routing_trie_match_best", large, [&](int64_t i) {
                return static_cast<double>(
                    trie.MatchBest(seqs[static_cast<size_t>(i) % seqs.size()],
                                   pred)
                        .match_len);
              })};
        }});

    for (int targets : {4, 16, 64}) {
      const std::string label = "hash_ring_lookup/" + std::to_string(targets);
      plan.cells.push_back(ScenarioCell{
          label, [label, targets, large, stream] {
            HashRing ring(128);
            for (TargetId t = 0; t < static_cast<TargetId>(targets); ++t) {
              ring.AddTarget(t);
            }
            Rng rng(MixSeed(6, stream));
            return std::vector<MetricRow>{
                TimedRow(label, large, [&](int64_t) {
                  return static_cast<double>(ring.Lookup(rng.Next()));
                })};
          }});
    }

    plan.cells.push_back(ScenarioCell{
        "hash_ring_lookup_available_half_down", [large, stream] {
          HashRing ring(128);
          for (TargetId t = 0; t < 16; ++t) {
            ring.AddTarget(t);
          }
          auto pred = [](TargetId id) { return id % 2 == 0; };
          Rng rng(MixSeed(7, stream));
          return std::vector<MetricRow>{TimedRow(
              "hash_ring_lookup_available_half_down", large, [&](int64_t) {
                return static_cast<double>(
                    ring.LookupAvailable(rng.Next(), pred));
              })};
        }});

    // --- Adversarial shapes (ISSUE 3): layouts the arena rewrite must not
    // regress on. Deep single-token chains maximize per-node walk overhead
    // (no long edges to memcmp through); 256-way root fan-out forces the
    // child small-vector to spill and binary-search; split/evict churn
    // cycles nodes and pool chunks through the free lists.

    // Deep chain: inserting every prefix of one sequence leaves a chain of
    // 1-token nodes; matching the full sequence visits every node.
    {
      const size_t depth = options.smoke ? 256 : 1024;
      const std::string label = "prefix_cache_match_deep_chain";
      plan.cells.push_back(ScenarioCell{label, [label, depth, large] {
        PrefixCache cache(1 << 26);
        TokenSeq seq;
        for (size_t i = 0; i < depth; ++i) {
          seq.push_back(static_cast<Token>(i * 7 + 1));
          cache.Insert(seq, static_cast<SimTime>(i));
        }
        return std::vector<MetricRow>{
            TimedRow(label, large / 8, [&](int64_t i) {
              return static_cast<double>(
                  cache.MatchPrefix(seq, static_cast<SimTime>(i)));
            })};
      }});
    }
    {
      const size_t depth = options.smoke ? 256 : 1024;
      const std::string label = "routing_trie_match_deep_chain";
      plan.cells.push_back(ScenarioCell{label, [label, depth, large] {
        RoutingTrie trie(1 << 26);
        TokenSeq seq;
        for (size_t i = 0; i < depth; ++i) {
          seq.push_back(static_cast<Token>(i * 7 + 1));
          trie.Insert(seq, static_cast<TargetId>(i % 12));
        }
        auto pred = [](TargetId id) { return id % 2 == 0; };
        return std::vector<MetricRow>{
            TimedRow(label, large / 8, [&](int64_t) {
              return static_cast<double>(trie.MatchBest(seq, pred).match_len);
            })};
      }});
    }

    // Root fan-out: 256 distinct first tokens, so the root's child map
    // spills far past its inline capacity.
    {
      const std::string label = "prefix_cache_root_fanout_256";
      plan.cells.push_back(ScenarioCell{label, [label, large] {
        PrefixCache cache(1 << 26);
        std::vector<TokenSeq> seqs;
        for (Token base = 0; base < 256; ++base) {
          TokenSeq seq;
          for (Token i = 0; i < 32; ++i) {
            seq.push_back(base * 1000 + i);
          }
          cache.Insert(seq, static_cast<SimTime>(base));
          seqs.push_back(std::move(seq));
        }
        return std::vector<MetricRow>{
            TimedRow(label, large, [&](int64_t i) {
              return static_cast<double>(cache.MatchPrefix(
                  seqs[static_cast<size_t>(i * 131) % seqs.size()],
                  static_cast<SimTime>(i)));
            })};
      }});
    }
    {
      const std::string label = "routing_trie_root_fanout_256";
      plan.cells.push_back(ScenarioCell{label, [label, large] {
        RoutingTrie trie(1 << 26);
        std::vector<TokenSeq> seqs;
        for (Token base = 0; base < 256; ++base) {
          TokenSeq seq;
          for (Token i = 0; i < 32; ++i) {
            seq.push_back(base * 1000 + i);
          }
          trie.Insert(seq, static_cast<TargetId>(base % 12));
          seqs.push_back(std::move(seq));
        }
        auto pred = [](TargetId id) { return id % 3 != 0; };
        return std::vector<MetricRow>{
            TimedRow(label, large, [&](int64_t i) {
              return static_cast<double>(
                  trie.MatchBest(seqs[static_cast<size_t>(i * 131) %
                                      seqs.size()],
                                 pred)
                      .match_len);
            })};
      }});
    }

    // Split/evict churn: every iteration inserts a sequence that splits an
    // existing edge, in a cache small enough that eviction frees nodes at
    // the same rate — steady-state traffic over the node/chunk free lists.
    {
      const std::string label = "prefix_cache_split_evict_churn";
      plan.cells.push_back(ScenarioCell{label, [label, small] {
        PrefixCache cache(32 * 1024);
        Token fresh = 50'000'000;
        return std::vector<MetricRow>{
            TimedRow(label, small, [&](int64_t i) {
              // Shared 128-token stem per group, then a fork point: the
              // second insert of a group splits the first one's leaf edge.
              Token group = static_cast<Token>(i / 2 % 64);
              TokenSeq seq;
              for (Token t = 0; t < 128; ++t) {
                seq.push_back(group * 4096 + t);
              }
              for (int t = 0; t < 128; ++t) {
                seq.push_back(fresh++);
              }
              return static_cast<double>(
                  cache.Insert(seq, static_cast<SimTime>(i)));
            })};
      }});
    }
    {
      const std::string label = "routing_trie_split_evict_churn";
      plan.cells.push_back(ScenarioCell{label, [label, small] {
        RoutingTrie trie(32 * 1024);
        Token fresh = 90'000'000;
        MetricRow row = TimedRow(label, small, [&](int64_t i) {
          Token group = static_cast<Token>(i / 2 % 64);
          TokenSeq seq;
          for (Token t = 0; t < 128; ++t) {
            seq.push_back(group * 4096 + t);
          }
          for (int t = 0; t < 128; ++t) {
            seq.push_back(fresh++);
          }
          trie.Insert(seq, static_cast<TargetId>(i % 12));
          return 0.0;
        });
        // Insert() returns void; fold the final trie shape into the
        // checksum so split/evict behavior is still regression-checked.
        row.Set("checksum", static_cast<double>(trie.size_tokens()) +
                                static_cast<double>(trie.num_nodes()));
        return std::vector<MetricRow>{std::move(row)};
      }});
    }

    // Cancel churn: generation-stamped cancellation must stay O(1) with no
    // tombstone accumulation even when half the scheduled events die.
    {
      const std::string label = "event_queue_push_cancel_pop";
      plan.cells.push_back(ScenarioCell{label, [label, large, stream] {
        EventQueue queue;
        Rng rng(MixSeed(10, stream));
        SimTime now = 0;
        std::vector<EventId> pending(4096, kInvalidEventId);
        for (size_t i = 0; i < pending.size(); ++i) {
          pending[i] = queue.Push(
              now + static_cast<SimTime>(rng.UniformInt(0, 1000000)), [] {});
        }
        size_t cursor = 0;
        return std::vector<MetricRow>{
            TimedRow(label, large, [&](int64_t) {
              // Push one, cancel an older handle (often already popped —
              // stale-cancel is part of the shape), pop one. The push
              // precedes the pop, so the queue can never drain.
              pending[cursor] = queue.Push(
                  now + static_cast<SimTime>(rng.UniformInt(1, 1000000)),
                  [] {});
              size_t victim = (cursor + pending.size() / 2) % pending.size();
              queue.Cancel(pending[victim]);
              cursor = (cursor + 1) % pending.size();
              auto event = queue.Pop();
              now = event.at;
              return static_cast<double>(now % 1024);
            })};
      }});
    }

    for (int64_t backlog : {int64_t{1024}, int64_t{65536}}) {
      const std::string label =
          "event_queue_push_pop/" + std::to_string(backlog);
      plan.cells.push_back(ScenarioCell{
          label, [label, backlog, large, stream] {
            EventQueue queue;
            Rng rng(MixSeed(8, stream));
            // Keep a steady backlog of `backlog` events.
            SimTime now = 0;
            for (int64_t i = 0; i < backlog; ++i) {
              queue.Push(
                  now + static_cast<SimTime>(rng.UniformInt(0, 1000000)),
                  [] {});
            }
            return std::vector<MetricRow>{
                TimedRow(label, large, [&](int64_t) {
                  auto event = queue.Pop();
                  now = event.at;
                  queue.Push(
                      now + static_cast<SimTime>(rng.UniformInt(1, 1000000)),
                      [] {});
                  return static_cast<double>(now % 1024);
                })};
          }});
    }
    return plan;
  };
  return scenario;
}

}  // namespace skywalker
