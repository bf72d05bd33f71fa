// Scenario registry: the data-driven layer under the skybench CLI.
//
// Every figure/ablation/microbenchmark of the paper reproduction registers
// one Scenario — a name, a metric schema, and a plan() that decomposes the
// scenario into independent *cells* (one simulator world each). The runner
// (src/harness/runner.h) schedules all cells of all requested scenarios and
// trials onto one deterministic thread pool and reassembles results in plan
// order, so the full suite parallelizes across scenarios, trials, and cells
// while output stays byte-identical across thread counts.
//
// Seeding: trial 0 always runs with seed_stream == 0, which every scenario
// maps to its canonical (paper-calibrated) seeds — so trial 0 reproduces the
// historical per-figure executables bit for bit. Additional trials receive
// nonzero streams derived from the CLI --seed, giving independent samples
// for variance estimation.

#ifndef SKYWALKER_HARNESS_SCENARIO_H_
#define SKYWALKER_HARNESS_SCENARIO_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/metrics.h"

namespace skywalker {

struct ScenarioOptions {
  // 0 selects the scenario's canonical seeds; any other value perturbs every
  // internal seed via MixSeed() below.
  uint64_t seed_stream = 0;
  // Shrinks durations / iteration counts so every cell finishes in well
  // under a second — used by CI's bench-smoke job and the schema tests.
  // Smoke numbers are schema-valid but not comparable to full runs.
  bool smoke = false;
  // Request-lifecycle tracing (ISSUE 9, DESIGN.md §11). When true, a
  // `traceable` scenario installs a Tracer per cell and writes
  // TRACE_<scenario>_<cell>.bin (SKTRACE1) under trace_dir; a cell whose
  // trace cannot be written throws. Tracing observes without perturbing:
  // metric rows are byte-identical with it on or off.
  bool trace = false;
  std::string trace_dir = ".";
};

// Applies a trial's seed stream to a scenario-canonical seed. Stream 0 is
// the identity, preserving historical results.
uint64_t MixSeed(uint64_t canonical, uint64_t stream);

// Derives the per-trial stream from the CLI seed: trial 0 -> 0 (canonical),
// trial t -> a splitmix of (seed, t).
uint64_t TrialSeedStream(uint64_t cli_seed, int trial);

// One independent unit of work: owns its entire simulated world and returns
// its rows. Cells of one scenario must not share mutable state — the runner
// may execute them concurrently in any order. `label` names the cell in
// error reports when run() throws.
struct ScenarioCell {
  std::string label;
  std::function<std::vector<MetricRow>()> run;
};

// What a scenario reports after all its cells finished.
struct ScenarioReport {
  std::vector<MetricRow> rows;
  // Headline derived quantities (e.g. "spp_vs_bp_throughput_x") — the
  // numbers CI regression checks should watch first.
  std::vector<std::pair<std::string, double>> derived;
  // Human-readable check-vs-paper lines, printed under the table.
  std::vector<std::string> notes;
};

struct ScenarioPlan {
  std::vector<ScenarioCell> cells;
  // Receives each cell's rows in cell order (outer index = cell). Builds
  // the report: typically concatenates rows and computes derived ratios.
  // When null, the runner concatenates rows with no derived metrics.
  std::function<ScenarioReport(
      const std::vector<std::vector<MetricRow>>& cell_rows)>
      finalize;
};

struct Scenario {
  std::string name;         // CLI identifier, e.g. "fig09".
  std::string title;        // Human heading, e.g. "Figure 9: ...".
  std::string description;  // One paragraph for --list.
  // Keys guaranteed present in every row this scenario emits; the golden
  // schema test enforces this contract.
  std::vector<std::string> metric_keys;
  // False for wall-clock microbenchmarks, whose ns_per_op metrics legitimately
  // vary run to run; the determinism test skips those.
  bool deterministic = true;
  // True when plan() honors ScenarioOptions::trace (writes TRACE_* files).
  // `skybench --list` surfaces this; --trace on other scenarios is a no-op.
  bool traceable = false;
  std::function<ScenarioPlan(const ScenarioOptions&)> plan;
};

// Registration-ordered scenario table. Scenarios register explicitly via
// RegisterAllScenarios() (bench/scenarios/) rather than static initializers,
// so static-library linking cannot silently drop them.
class ScenarioRegistry {
 public:
  static ScenarioRegistry& Get();

  // Name must be unique; aborts on duplicates (programming error).
  void Register(Scenario scenario);

  const Scenario* Find(std::string_view name) const;
  std::vector<const Scenario*> All() const;

 private:
  std::vector<std::unique_ptr<Scenario>> scenarios_;
};

}  // namespace skywalker

#endif  // SKYWALKER_HARNESS_SCENARIO_H_
