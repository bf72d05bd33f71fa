// Replica-selection microbenchmark (ISSUE 10): indexed LeastLoadedAvailable
// (gen-stamped lazy min-heap, O(log R) amortized) against the retained
// linear scan oracle, at fleet sizes R in {16, 256, 1000}.
//
// Both cells of a pair run the *identical* decision sequence — same fleet,
// same seed-free deterministic load pattern, same mutations — so their
// checksums (sum of picked replica ids) must agree exactly; finalize turns
// that into `decisions_match_rN` (1.0 = indexed and linear picked the same
// replica at every step). The fleet is deliberately mixed-health: some
// replicas degraded, some ejected, so the index's availability filtering is
// on the measured path, not just the happy case.
//
// Wall-clock ns_per_op is inherently nondeterministic (deterministic =
// false); the speedup ratios land in summary.derived where
// bench_check --floors gates them in CI (bench/goldens/selection_floors.json).

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/scenarios/scenarios.h"
#include "src/net/network.h"
#include "src/net/topology.h"
#include "src/routing/dispatch_engine.h"
#include "src/sim/simulator.h"

namespace skywalker {

namespace {

constexpr int kFleetSizes[] = {16, 256, 1000};
constexpr int kOutstandingCap = 8;

// Times `op` over `iterations` calls and emits ns_per_op + the checksum the
// op accumulated (same shape as micro_datastructures).
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

// The engine requires a selector; the microbenchmark queries the engine's
// selection entry points directly and never dispatches.
class NullSelector : public ReplicaSelector {
 public:
  ReplicaId SelectReplica(const Queued&, const CandidateView&) override {
    return kInvalidReplica;
  }
};

// One self-contained world: engine + R replicas with deterministic mixed
// loads and mixed health (degraded every 7th, ejected every 13th).
struct SelectionBench {
  Simulator sim;
  std::unique_ptr<Network> net;
  NullSelector selector;
  std::vector<std::unique_ptr<Replica>> replicas;
  std::unique_ptr<DispatchEngine> engine;

  explicit SelectionBench(int total_replicas) {
    Topology topology;
    topology.AddRegion("local", Milliseconds(1));
    net = std::make_unique<Network>(&sim, topology);
    DispatchConfig config;
    config.push_mode = PushMode::kSelectiveOutstanding;
    config.max_outstanding_per_replica = kOutstandingCap;
    engine = std::make_unique<DispatchEngine>(&sim, net.get(), 0, config,
                                              &selector);
    ReplicaConfig rconfig;
    for (int i = 0; i < total_replicas; ++i) {
      replicas.push_back(std::make_unique<Replica>(&sim, i, 0, rconfig));
      engine->AttachReplica(replicas.back().get());
    }
    OutlierConfig outlier;
    for (int i = 0; i < total_replicas; ++i) {
      ReplicaState* rs = engine->FindReplica(i);
      // Deterministic scattered loads below the availability cap.
      rs->outstanding = static_cast<int>((i * 7919) % kOutstandingCap);
      if (i % 13 == 5) {
        rs->health.Eject(outlier, sim.now());
      } else if (i % 7 == 3) {
        // One failure below the ejection threshold: degraded, still
        // routable, load-deprioritized.
        rs->health.RecordFailure(outlier);
      }
    }
    engine->RefreshSelectionIndex();
  }

  // One decision + one mutation: pick, bump the winner's load (staying
  // below the cap so availability never collapses), re-index if asked.
  double StepIndexed() {
    const ReplicaId id = engine->LeastLoadedAvailable();
    ReplicaState* rs = engine->FindReplica(id);
    rs->outstanding = (rs->outstanding + 3) % kOutstandingCap;
    engine->NoteReplicaMutated(id);
    return static_cast<double>(id);
  }
  double StepLinear() {
    const ReplicaId id = engine->LeastLoadedAvailableLinear();
    ReplicaState* rs = engine->FindReplica(id);
    rs->outstanding = (rs->outstanding + 3) % kOutstandingCap;
    return static_cast<double>(id);
  }
};

}  // namespace

Scenario MakeMicroSelectionScenario() {
  Scenario scenario;
  scenario.name = "micro_selection";
  scenario.title = "Indexed vs linear replica selection (ISSUE 10)";
  scenario.description =
      "ns/op for LeastLoadedAvailable via the gen-stamped selection index "
      "vs the linear-scan oracle at R in {16, 256, 1000}, mixed-health "
      "fleets; checksums prove both made identical decisions.";
  scenario.metric_keys = {"ns_per_op", "iterations", "checksum"};
  scenario.deterministic = false;  // Wall-clock metrics.
  scenario.plan = [](const ScenarioOptions& options) {
    const int64_t iterations = options.smoke ? 20000 : 200000;
    ScenarioPlan plan;
    for (int total : kFleetSizes) {
      const std::string idx_label =
          "select_indexed/r" + std::to_string(total);
      plan.cells.push_back(ScenarioCell{
          idx_label, [idx_label, total, iterations] {
            SelectionBench bench(total);
            return std::vector<MetricRow>{
                TimedRow(idx_label, iterations,
                              [&](int64_t) { return bench.StepIndexed(); })};
          }});
      const std::string lin_label = "select_linear/r" + std::to_string(total);
      plan.cells.push_back(ScenarioCell{
          lin_label, [lin_label, total, iterations] {
            SelectionBench bench(total);
            return std::vector<MetricRow>{
                TimedRow(lin_label, iterations,
                              [&](int64_t) { return bench.StepLinear(); })};
          }});
    }
    plan.finalize = [](const std::vector<std::vector<MetricRow>>& cell_rows) {
      ScenarioReport report;
      for (const auto& rows : cell_rows) {
        report.rows.insert(report.rows.end(), rows.begin(), rows.end());
      }
      for (int total : kFleetSizes) {
        const std::string suffix = "/r" + std::to_string(total);
        const MetricRow* idx = FindRow(report.rows, "select_indexed" + suffix);
        const MetricRow* lin = FindRow(report.rows, "select_linear" + suffix);
        if (idx == nullptr || lin == nullptr) {
          continue;
        }
        const double idx_ns = *idx->Find("ns_per_op");
        const double lin_ns = *lin->Find("ns_per_op");
        report.derived.emplace_back(
            "indexed_vs_linear_speedup_x_r" + std::to_string(total),
            idx_ns <= 0 ? 0.0 : lin_ns / idx_ns);
        // Identical decision streams produce identical id sums.
        report.derived.emplace_back(
            "decisions_match_r" + std::to_string(total),
            *idx->Find("checksum") == *lin->Find("checksum") ? 1.0 : 0.0);
      }
      report.notes.push_back(
          "decisions_match_rN = 1 certifies the selection index and the "
          "linear oracle picked the same replica at every decision; the "
          "speedup ratios are wall-clock and CI-floored only at r1000 "
          "(bench/goldens/selection_floors.json).");
      return report;
    };
    return plan;
  };
  return scenario;
}

}  // namespace skywalker
