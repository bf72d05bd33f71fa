// Microbenchmarks for the paged KV memory subsystem (src/memory/):
// allocator churn, radix-cache page churn, probe occupancy (scan vs
// incremental counts), LRU-leaf eviction churn, and the swap-vs-recompute
// preemption policies under an overloaded replica.
//
// ns_per_op is wall clock (deterministic = false); the checksums are
// deterministic and double as a cheap behavior pin. As with the other micro
// scenarios, timings under `skybench --all` include thread-pool contention —
// run standalone with --threads=1 for comparable numbers.

#include <chrono>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bench/scenarios/scenarios.h"
#include "src/harness/runner.h"
#include "src/cache/prefix_cache.h"
#include "src/memory/block_allocator.h"
#include "src/memory/block_table.h"
#include "src/memory/kv_controller.h"
#include "src/replica/replica.h"
#include "src/sim/simulator.h"

namespace skywalker {

namespace {

MetricRow MicroRow(const std::string& label, double total_ns,
                   int64_t iterations, double checksum) {
  MetricRow row;
  row.label = label;
  row.Set("ns_per_op", total_ns / static_cast<double>(iterations));
  row.Set("iterations", static_cast<double>(iterations));
  row.Set("checksum", checksum);
  return row;
}

double ElapsedNs(const std::chrono::steady_clock::time_point& start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

Request MakeRequest(RequestId id, int64_t prompt_len, int64_t output_len,
                    Token base) {
  Request req;
  req.id = id;
  req.client_region = 0;
  TokenSeq prompt(static_cast<size_t>(prompt_len));
  std::iota(prompt.begin(), prompt.end(), base);
  TokenSeq output(static_cast<size_t>(output_len));
  std::iota(output.begin(), output.end(), base + 1'000'000);
  req.prompt = std::move(prompt);
  req.output = std::move(output);
  return req;
}

}  // namespace

Scenario MakeMicroMemoryScenario() {
  Scenario scenario;
  scenario.name = "micro_memory";
  scenario.title = "Paged-KV memory subsystem microbenchmarks";
  scenario.description =
      "ns per allocator append/prefix-release churn op, cache page churn, "
      "probe occupancy (radix scan vs incremental counts), eviction churn, "
      "and end-to-end replica overload under recompute vs swap "
      "preemption.";
  scenario.metric_keys = {"ns_per_op", "iterations", "checksum"};
  scenario.deterministic = false;  // Wall-clock metrics.
  scenario.plan = [](const ScenarioOptions& options) {
    ScenarioPlan plan;

    // Steady-state allocator churn: grow a table, drop its front the way
    // publish does, repeat — the decode/publish cycle the replica drives.
    for (int32_t block_size : {int32_t{1}, int32_t{16}, int32_t{32}}) {
      const std::string label = "alloc_churn/b" + std::to_string(block_size);
      const int64_t iterations = options.smoke ? 20'000 : 2'000'000;
      plan.cells.push_back(ScenarioCell{
          label, [label, block_size, iterations] {
            BlockAllocator alloc(1 << 20);
            BlockTable table;
            const auto start = std::chrono::steady_clock::now();
            for (int64_t i = 0; i < iterations; ++i) {
              table.Append(alloc, block_size, 7 + (i & 63));
              if (table.num_tokens() > 48'000) {
                table.ReleasePrefix(alloc, block_size,
                                    table.num_tokens() - 1024);
              }
            }
            double checksum =
                static_cast<double>(alloc.stats().allocated) +
                static_cast<double>(alloc.stats().freed) * 1e-3 +
                static_cast<double>(table.num_tokens()) * 1e-9;
            table.Clear(alloc);
            return std::vector<MetricRow>{
                MicroRow(label, ElapsedNs(start), iterations, checksum)};
          }});
    }

    // Block-native cache churn (ISSUE 5): repeated shared-prefix publish /
    // evict cycles against an external allocator with deliberately
    // unaligned lengths, so edge splits share straddled pages, sibling
    // branches pay fresh boundary pages (fragmentation), and LRU eviction
    // returns real pages to the shared pool. The checksum pins the exact
    // occupancy the unified ledger reports.
    {
      const std::string label = "cache_block_churn";
      const int64_t iterations = options.smoke ? 1'000 : 50'000;
      plan.cells.push_back(ScenarioCell{
          label, [label, iterations] {
            constexpr int32_t kBs = 16;
            BlockAllocator alloc(1 << 18);
            PrefixCache cache(12'000, &alloc, kBs);  // Small: evicts often.
            TokenSeq shared;
            for (Token t = 0; t < 773; ++t) {  // 773 % 16 != 0: straddles.
              shared.push_back(t);
            }
            SimTime now = 0;
            const auto start = std::chrono::steady_clock::now();
            for (int64_t i = 0; i < iterations; ++i) {
              TokenSeq seq = shared;
              const int64_t suffix = 37 + (i % 211);  // Unaligned tails.
              const Token base =
                  1'000'000 + static_cast<Token>(i % 97) * 10'000;
              for (int64_t j = 0; j < suffix; ++j) {
                seq.push_back(base + static_cast<Token>(j));
              }
              auto ref = cache.MatchAndRef(seq, ++now);
              cache.Insert(seq, ++now);
              cache.Unref(ref.pin);
              if ((i & 15) == 0) {
                // Evict takes *blocks* (ISSUE 8): ask for a sizeable slice
                // of the ~750-block cache without draining it outright.
                cache.Evict(128 + (i % 64));
              }
            }
            PrefixCache::BlockOccupancy occ = cache.CountBlocks();
            double checksum =
                static_cast<double>(alloc.used_blocks()) +
                static_cast<double>(occ.held_blocks) * 1e-3 +
                static_cast<double>(occ.evictable_blocks) * 1e-6 +
                static_cast<double>(cache.size_tokens()) * 1e-12;
            return std::vector<MetricRow>{
                MicroRow(label, ElapsedNs(start), iterations, checksum)};
          }});
    }

    // Probe-occupancy cells: the cost of the heartbeat probe's
    // exact page occupancy on a churned 16-token-page cache, by full radix
    // scan (CountBlocksSlow, the test oracle) and by the allocator's
    // incremental cache-holder totals (CountBlocks, what probes call).
    // Both cells replay the same pin/unpin sequence against the same cache
    // — one pin change plus one probe per op, so the indexed cell also pays
    // for maintaining its counts — and their checksums fold every probe's
    // held/evictable figures, so they must match exactly.
    for (bool indexed : {false, true}) {
      const std::string label =
          std::string("probe_occupancy/") + (indexed ? "indexed" : "scan");
      const int64_t iterations = options.smoke ? 20'000 : 400'000;
      plan.cells.push_back(ScenarioCell{
          label, [label, indexed, iterations] {
            constexpr int32_t kBs = 16;
            BlockAllocator alloc(1 << 16);
            PrefixCache cache(12'000, &alloc, kBs);
            // Churn the cache into a warm, fragmented state: a 773-token
            // shared prefix (straddled pages) with unaligned suffix
            // families, under eviction pressure.
            std::vector<TokenSeq> prompts;
            SimTime now = 0;
            for (int64_t i = 0; i < 2'000; ++i) {
              TokenSeq seq;
              for (Token t = 0; t < 773; ++t) {
                seq.push_back(t);
              }
              const Token base =
                  1'000'000 + static_cast<Token>(i % 97) * 10'000;
              for (int64_t j = 0; j < 37 + (i % 211); ++j) {
                seq.push_back(base + static_cast<Token>(j));
              }
              cache.Insert(seq, ++now);
              if (i >= 2'000 - 16) {
                prompts.push_back(std::move(seq));
              }
            }
            // A running sequence shares its pages with the cache, as after
            // a publish: held, but not evictable.
            TokenSeq published;
            for (Token t = 0; t < 40; ++t) {
              published.push_back(50'000'000 + t);
            }
            BlockTable table;
            table.Append(alloc, kBs, 40);
            cache.Insert(published, ++now, &table, 0);
            std::vector<PinId> pins(prompts.size(), kInvalidPin);
            double checksum = 0;
            const auto start = std::chrono::steady_clock::now();
            for (int64_t i = 0; i < iterations; ++i) {
              const size_t k = static_cast<size_t>(i * 7) % prompts.size();
              if (pins[k] == kInvalidPin) {
                pins[k] = cache.MatchAndRef(prompts[k], ++now).pin;
              } else {
                cache.Unref(pins[k]);
                pins[k] = kInvalidPin;
              }
              const PrefixCache::BlockOccupancy occ =
                  indexed ? cache.CountBlocks() : cache.CountBlocksSlow();
              checksum += static_cast<double>(occ.held_blocks) +
                          static_cast<double>(occ.evictable_blocks) * 1e-4;
            }
            const double wall_ns = ElapsedNs(start);
            for (PinId pin : pins) {
              if (pin != kInvalidPin) {
                cache.Unref(pin);
              }
            }
            table.Clear(alloc);
            return std::vector<MetricRow>{
                MicroRow(label, wall_ns, iterations, checksum)};
          }});
    }

    // Eviction-churn cell (ISSUE 8): a hot/cold skewed radix tree under
    // sustained pressure. A small set of trunks is re-read constantly (hot)
    // while a churning population of abandoned branches goes cold; every
    // few inserts the cache is squeezed, and each eviction round walks the
    // tree once per leaf victim. Wall time, eviction rounds, and
    // pages-per-round also land in the BENCH_TIMING.json sidecar for the
    // perf trajectory.
    {
      const std::string label = "evict_churn/lruleaf";
      const int64_t iterations = options.smoke ? 2'000 : 100'000;
      plan.cells.push_back(ScenarioCell{
          label, [label, iterations] {
            constexpr int32_t kBs = 16;
            BlockAllocator alloc(1 << 18);
            PrefixCache cache(64'000, &alloc, kBs);
            // Eight hot trunks that must stay resident.
            std::vector<TokenSeq> trunks(8);
            for (size_t t = 0; t < trunks.size(); ++t) {
              for (Token j = 0; j < 512; ++j) {
                trunks[t].push_back(static_cast<Token>(t) * 100'000 + j);
              }
            }
            SimTime now = 0;
            for (const TokenSeq& trunk : trunks) {
              cache.Insert(trunk, ++now);
            }
            const auto start = std::chrono::steady_clock::now();
            for (int64_t i = 0; i < iterations; ++i) {
              // 100 ms per iteration.
              now += 100'000;
              cache.MatchPrefix(trunks[static_cast<size_t>(i) % trunks.size()],
                                now);
              // One abandoned ToT-style branch family: a shared unaligned
              // family prefix off a trunk, then four leaf variants; LRU-leaf
              // peels it one variant (~6 pages) per full-tree scan.
              TokenSeq fam = trunks[static_cast<size_t>(i * 7) % trunks.size()];
              const Token base =
                  10'000'000 + static_cast<Token>(i % 397) * 10'000;
              for (int64_t j = 0; j < 250; ++j) {
                fam.push_back(base + static_cast<Token>(j));
              }
              for (int64_t v = 0; v < 4; ++v) {
                TokenSeq seq = fam;
                const Token vbase = base + 1'000 + static_cast<Token>(v) * 500;
                for (int64_t j = 0; j < 90 + v * 7; ++j) {
                  seq.push_back(vbase + static_cast<Token>(j));
                }
                cache.Insert(seq, now);
              }
              if ((i & 1) == 0) {
                // Sustained pressure: reclaim a decode burst's worth.
                cache.Evict(96);
              }
            }
            const double wall_ns = ElapsedNs(start);
            const PrefixCache::EvictionStats& ev = cache.eviction_stats();
            const double rounds = static_cast<double>(ev.rounds);
            const double pages_per_round =
                rounds <= 0 ? 0.0
                            : static_cast<double>(ev.freed_blocks) / rounds;
            const double victims_per_round =
                rounds <= 0 ? 0.0
                            : static_cast<double>(ev.victims) / rounds;
            CellShardTiming timing;
            timing.scenario = "micro_memory";
            timing.cell = label;
            timing.shards = 1;
            timing.threads = 1;
            timing.wall_seconds = wall_ns * 1e-9;
            timing.extra.emplace_back("eviction_rounds", rounds);
            timing.extra.emplace_back("pages_per_eviction", pages_per_round);
            timing.extra.emplace_back("victims_per_eviction",
                                      victims_per_round);
            ShardTimingRegistry::Instance().Record(std::move(timing));
            double checksum =
                static_cast<double>(ev.freed_blocks) +
                static_cast<double>(ev.victims) * 1e-6 +
                static_cast<double>(cache.size_tokens()) * 1e-12;
            MetricRow row = MicroRow(label, wall_ns, iterations, checksum);
            row.Set("evictions", rounds);
            row.Set("pages_per_eviction", pages_per_round);
            return std::vector<MetricRow>{row};
          }});
    }

    // Swap-vs-recompute sweep: an overloaded replica (tiny KV budget, long
    // decodes) under each preemption policy. The checksum pins completions
    // and preemption counts; ns_per_op bounds simulation cost.
    for (bool swap : {false, true}) {
      const std::string label =
          std::string("overload/") + (swap ? "swap" : "recompute");
      const int64_t iterations = options.smoke ? 2 : 10;
      plan.cells.push_back(ScenarioCell{
          label, [label, swap, iterations] {
            double checksum = 0;
            const auto start = std::chrono::steady_clock::now();
            for (int64_t it = 0; it < iterations; ++it) {
              Simulator sim;
              ReplicaConfig config;
              config.kv_capacity_tokens = 4096;
              config.kv_block_size_tokens = 16;
              config.output_reserve_tokens = 64;
              config.kv_preempt_policy = swap ? PreemptPolicy::kSwap
                                              : PreemptPolicy::kRecompute;
              Replica replica(&sim, 0, 0, config);
              for (int i = 0; i < 24; ++i) {
                replica.Enqueue(
                    MakeRequest(static_cast<RequestId>(i), 200, 300,
                                static_cast<Token>(i) * 100'000),
                    {});
              }
              sim.Run();
              const KvCounters& kv = replica.kv().counters();
              checksum += static_cast<double>(replica.stats().completed) +
                          static_cast<double>(kv.preempt_recompute +
                                              kv.preempt_swap) *
                              1e-3 +
                          static_cast<double>(kv.swap_ins) * 1e-6;
            }
            return std::vector<MetricRow>{MicroRow(
                label, ElapsedNs(start), iterations * 24, checksum)};
          }});
    }
    plan.finalize = [](const std::vector<std::vector<MetricRow>>& cell_rows) {
      ScenarioReport report;
      for (const auto& rows : cell_rows) {
        report.rows.insert(report.rows.end(), rows.begin(), rows.end());
      }
      // The occupancy checksum match is deterministic; the occupancy
      // speedup is wall clock, floored far below its measured value
      // (micro_memory_floors.json).
      auto metric = [&](const char* label, const char* key) {
        const MetricRow* row = FindRow(report.rows, label);
        const double* v = row == nullptr ? nullptr : row->Find(key);
        return v == nullptr ? 0.0 : *v;
      };
      auto safe_div = [](double a, double b) { return b <= 0 ? 0.0 : a / b; };
      report.derived.emplace_back(
          "evict_churn_lruleaf_rounds",
          metric("evict_churn/lruleaf", "evictions"));
      const double scan_sum = metric("probe_occupancy/scan", "checksum");
      report.derived.emplace_back(
          "occupancy_checksums_match",
          scan_sum > 0 &&
                  scan_sum == metric("probe_occupancy/indexed", "checksum")
              ? 1.0
              : 0.0);
      report.derived.emplace_back(
          "occupancy_indexed_vs_scan_x",
          safe_div(metric("probe_occupancy/scan", "ns_per_op"),
                   metric("probe_occupancy/indexed", "ns_per_op")));
      report.notes.push_back(
          "probe_occupancy: the O(1) cache-holder totals must report the "
          "same held/evictable pages as the radix scan on every probe "
          "(occupancy_checksums_match = 1) and be much faster per "
          "pin-change + probe op.");
      return report;
    };
    return plan;
  };
  return scenario;
}

}  // namespace skywalker
