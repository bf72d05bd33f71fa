#include "bench/scenarios/scenarios.h"

namespace skywalker {

void RegisterAllScenarios() {
  static const bool registered = [] {
    ScenarioRegistry& registry = ScenarioRegistry::Get();
    registry.Register(MakeFig02DiurnalTrafficScenario());
    registry.Register(MakeFig03aLoadAggregationScenario());
    registry.Register(MakeFig03bProvisioningCostScenario());
    registry.Register(MakeFig04aLengthCdfScenario());
    registry.Register(MakeFig04bRrImbalanceScenario());
    registry.Register(MakeFig05aPrefixSimilarityScenario());
    registry.Register(MakeFig05bSimilarityHeatmapScenario());
    registry.Register(MakeFig06ChVsOptimalScenario());
    registry.Register(MakeFig07MemoryPressureScenario());
    registry.Register(MakeFig08MacroScenario());
    registry.Register(MakeFig09SelectivePushingScenario());
    registry.Register(MakeFig10DiurnalCostScenario());
    registry.Register(MakeAblationProbeIntervalScenario());
    registry.Register(MakeAblationPushSlackScenario());
    registry.Register(MakeAblationExploreThresholdScenario());
    registry.Register(MakeAblationMigrationControlScenario());
    registry.Register(MakeAblationHeterogeneousScenario());
    registry.Register(MakeFleetScaleScenario());
    registry.Register(MakeResilienceScenario());
    registry.Register(MakeMicroDatastructuresScenario());
    registry.Register(MakeMicroMemoryScenario());
    registry.Register(MakeMicroReplicaScenario());
    registry.Register(MakeMicroSelectionScenario());
    return true;
  }();
  (void)registered;
}

}  // namespace skywalker
