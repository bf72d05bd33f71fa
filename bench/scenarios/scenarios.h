// The paper-reproduction scenario set served by the skybench CLI.
//
// Each Make*Scenario() ports one historical bench/fig*.cc executable onto
// the scenario registry (src/harness/scenario.h); trial 0 reproduces that
// executable's numbers bit for bit — except fig09, whose constants were
// deliberately recalibrated in PR 2 so the paper's ordering holds (see
// ROADMAP). RegisterAllScenarios() installs the full
// set — registration is explicit (not static initializers) so linking the
// scenario library never silently drops a figure.

#ifndef SKYWALKER_BENCH_SCENARIOS_SCENARIOS_H_
#define SKYWALKER_BENCH_SCENARIOS_SCENARIOS_H_

#include <string>
#include <vector>

#include "src/harness/scenario.h"

namespace skywalker {

// The first row labelled `label`, or null when no such row exists (e.g. a
// cell the plan did not include). Finalizers look rows up by label, never
// by position.
inline const MetricRow* FindRow(const std::vector<MetricRow>& rows,
                                const std::string& label) {
  for (const MetricRow& row : rows) {
    if (row.label == label) {
      return &row;
    }
  }
  return nullptr;
}

Scenario MakeFig02DiurnalTrafficScenario();
Scenario MakeFig03aLoadAggregationScenario();
Scenario MakeFig03bProvisioningCostScenario();
Scenario MakeFig04aLengthCdfScenario();
Scenario MakeFig04bRrImbalanceScenario();
Scenario MakeFig05aPrefixSimilarityScenario();
Scenario MakeFig05bSimilarityHeatmapScenario();
Scenario MakeFig06ChVsOptimalScenario();
Scenario MakeFig07MemoryPressureScenario();
Scenario MakeFig08MacroScenario();
Scenario MakeFig09SelectivePushingScenario();
Scenario MakeFig10DiurnalCostScenario();
Scenario MakeAblationProbeIntervalScenario();
Scenario MakeAblationPushSlackScenario();
Scenario MakeAblationExploreThresholdScenario();
Scenario MakeAblationMigrationControlScenario();
Scenario MakeAblationHeterogeneousScenario();
Scenario MakeFleetScaleScenario();
Scenario MakeResilienceScenario();
Scenario MakeMicroDatastructuresScenario();
Scenario MakeMicroMemoryScenario();
Scenario MakeMicroReplicaScenario();
Scenario MakeMicroSelectionScenario();

// Registers every scenario above into ScenarioRegistry::Get(). Idempotent.
void RegisterAllScenarios();

}  // namespace skywalker

#endif  // SKYWALKER_BENCH_SCENARIOS_SCENARIOS_H_
