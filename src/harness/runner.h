// Executes registered scenarios: plans every (scenario, trial), flattens all
// cells into one job list, runs the jobs on the deterministic pool, then
// reassembles per-trial reports in plan order and serializes BENCH_*.json.

#ifndef SKYWALKER_HARNESS_RUNNER_H_
#define SKYWALKER_HARNESS_RUNNER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json.h"
#include "src/harness/scenario.h"
#include "src/sim/sharded_simulator.h"

namespace skywalker {

struct RunConfig {
  int trials = 1;
  uint64_t seed = 42;    // Perturbs trials >= 1; trial 0 is canonical.
  bool smoke = false;
  int threads = 1;
  // Forwarded into ScenarioOptions for traceable scenarios (ISSUE 9).
  bool trace = false;
  std::string trace_dir = ".";
  // Exact cell labels to run; empty = every planned cell (ISSUE 10). Lets
  // CI time one full-size cell without paying for the whole scenario.
  // Determinism note: each cell owns its world, so a filtered run's rows
  // are identical to the same cells of a full run — but a filtered run
  // skips the scenario's finalizer (no derived metrics or notes), so
  // filtered BENCH output must not be golden-diffed.
  std::vector<std::string> cell_filter;
};

struct TrialResult {
  int trial = 0;
  uint64_t seed_stream = 0;
  ScenarioReport report;
};

struct ScenarioRunResult {
  const Scenario* scenario = nullptr;
  RunConfig config;
  std::vector<TrialResult> trials;
  // Summed wall-clock of this scenario's cells across all trials (cells run
  // interleaved on the shared pool, so per-scenario elapsed time is not
  // well-defined — summed cell time is the scheduler-independent cost).
  double cell_seconds = 0;
  size_t cells = 0;
};

// Shard-level timing for one scenario cell that ran on a ShardedSimulator.
// Cells publish these via ShardTimingRegistry from inside their run()
// closure (cells execute on the shared pool, so a side channel — not the
// MetricRow return path — keeps nondeterministic wall time out of goldens).
struct CellShardTiming {
  std::string scenario;
  std::string cell;
  int shards = 0;
  int threads = 0;
  double wall_seconds = 0;   // Whole-cell simulation wall time.
  uint64_t windows = 0;      // Lookahead windows executed.
  // The windows' wall time beyond the mean thread's busy time, split into
  // straggler and handshake (ShardedSimulator::straggler_seconds).
  double straggler_seconds = 0;
  double handshake_seconds = 0;
  std::vector<ShardedSimulator::ShardTiming> per_shard;
  // Scenario-specific counters serialized onto the cell object verbatim
  // (e.g. the eviction-churn micro's "evictions" / "pages_per_eviction",
  // ISSUE 8). Keys must not collide with the fixed fields above.
  std::vector<std::pair<std::string, double>> extra;
};

// Process-wide sink for CellShardTiming records. Thread-safe: cells run
// concurrently on the pool. RunScenarios drains it at the end of every run,
// so records never leak across back-to-back runs in one process.
class ShardTimingRegistry {
 public:
  static ShardTimingRegistry& Instance();
  void Record(CellShardTiming timing);
  // Returns and clears all records, sorted by (scenario, cell) so the
  // sidecar layout is independent of pool scheduling.
  std::vector<CellShardTiming> Drain();

 private:
  ShardTimingRegistry() = default;
  std::mutex mu_;
  std::vector<CellShardTiming> records_;
};

// Wall-clock accounting for one RunScenarios call (the opt-in
// `skybench --timing` sidecar). Never part of BENCH_<scenario>.json: those
// files stay byte-identical across hosts and thread counts, while this is
// nondeterministic by nature.
struct RunTiming {
  double wall_seconds = 0;  // End-to-end, including planning and merging.
  // Per-cell shard breakdowns drained from ShardTimingRegistry.
  std::vector<CellShardTiming> shard_cells;
};

// Runs every requested scenario. All cells across scenarios and trials share
// one ParallelFor(threads) schedule; results are merged in (scenario, trial,
// cell) declaration order, so output is independent of thread count.
// `timing`, when non-null, receives end-to-end wall-clock for the run.
std::vector<ScenarioRunResult> RunScenarios(
    const std::vector<const Scenario*>& scenarios, const RunConfig& config,
    RunTiming* timing = nullptr);

// The BENCH_TIMING.json document: end-to-end wall seconds plus per-scenario
// summed cell seconds. Excluded from golden/determinism comparisons.
Json TimingJson(const std::vector<ScenarioRunResult>& results,
                const RunConfig& config, const RunTiming& timing);

// The BENCH_<scenario>.json document. Layout:
// {
//   "schema_version": 1,
//   "scenario": "fig09", "title": ..., "seed": ..., "trials": N,
//   "smoke": false, "metric_keys": [...],
//   "trial_results": [
//     {"trial": 0, "seed_stream": 0,
//      "rows": [{"label": ..., "dims": {...}, "metrics": {...}}],
//      "derived": {...}, "notes": [...]}
//   ],
//   "summary": {"rows": [...mean across trials...], "derived": {...}}
// }
// Deliberately excludes anything nondeterministic (wall-clock, host, thread
// count) so that identical seeds yield byte-identical files.
Json ScenarioRunJson(const ScenarioRunResult& result);

// Renders the report as the human-readable table + notes the historical
// per-figure executables printed.
std::string ScenarioReportText(const Scenario& scenario,
                               const TrialResult& trial);

}  // namespace skywalker

#endif  // SKYWALKER_HARNESS_RUNNER_H_
