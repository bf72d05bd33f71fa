// Scenario port of bench/micro_replica.cc — microbenchmarks for the replica
// engine simulator: cost of simulating engine steps and full request
// lifecycles. These bound how large a fleet/duration the macro scenarios can
// simulate per wall-clock second.
//
// ns_per_op is wall clock (deterministic = false); the completed-request
// checksum is deterministic. As with micro_datastructures, ns_per_op under
// `skybench --all` includes thread-pool contention — run this scenario
// standalone with --threads=1 for comparable timings.

#include <chrono>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bench/scenarios/scenarios.h"
#include "src/replica/replica.h"
#include "src/sim/simulator.h"

namespace skywalker {

namespace {

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

}  // namespace

Scenario MakeMicroReplicaScenario() {
  Scenario scenario;
  scenario.name = "micro_replica";
  scenario.title = "Replica engine-simulation microbenchmarks";
  scenario.description =
      "ns per simulated request lifecycle (cold and cached) and per "
      "saturated-batch drain.";
  scenario.metric_keys = {"ns_per_op", "iterations", "checksum"};
  scenario.deterministic = false;  // Wall-clock metrics.
  scenario.plan = [](const ScenarioOptions& options) {
    ScenarioPlan plan;

    // One full request lifecycle per iteration (cold cache). Setup (fresh
    // simulator + replica) is inside the timed region — unlike the old
    // google-benchmark PauseTiming split — so ns_per_op here is an upper
    // bound that includes world construction.
    for (int64_t prompt : {int64_t{128}, int64_t{512}, int64_t{2048}}) {
      const std::string label =
          "single_request_lifecycle/" + std::to_string(prompt);
      const int64_t iterations = options.smoke ? 20 : 200;
      plan.cells.push_back(ScenarioCell{
          label, [label, prompt, iterations] {
            double checksum = 0;
            const auto start = std::chrono::steady_clock::now();
            Token base = 0;
            for (int64_t i = 0; i < iterations; ++i) {
              Simulator sim;
              Replica replica(&sim, 0, 0, ReplicaConfig{});
              replica.Enqueue(
                  MakeRequest(static_cast<RequestId>(i + 1), prompt, 64,
                              base),
                  {});
              base += 2'000'000;
              sim.Run();
              checksum += static_cast<double>(replica.stats().completed);
            }
            return std::vector<MetricRow>{
                MicroRow(label, ElapsedNs(start), iterations, checksum)};
          }});
    }

    // Simulated-seconds-per-wallclock-second under a saturated batch.
    {
      const int64_t iterations = options.smoke ? 3 : 20;
      plan.cells.push_back(ScenarioCell{
          "saturated_batch", [iterations] {
            double checksum = 0;
            const auto start = std::chrono::steady_clock::now();
            for (int64_t it = 0; it < iterations; ++it) {
              Simulator sim;
              Replica replica(&sim, 0, 0, ReplicaConfig{});
              for (int i = 0; i < 64; ++i) {
                replica.Enqueue(
                    MakeRequest(static_cast<RequestId>(i), 512, 256,
                                static_cast<Token>(i) * 100000),
                    {});
              }
              sim.Run();
              checksum += static_cast<double>(replica.stats().completed);
            }
            return std::vector<MetricRow>{MicroRow(
                "saturated_batch", ElapsedNs(start), iterations * 64,
                checksum)};
          }});
    }

    // Hot-cache lifecycle: same prompt repeatedly (prefix cache fully warm).
    {
      const int64_t iterations = options.smoke ? 200 : 2000;
      plan.cells.push_back(ScenarioCell{
          "cached_request_lifecycle", [iterations] {
            Simulator sim;
            Replica replica(&sim, 0, 0, ReplicaConfig{});
            replica.Enqueue(MakeRequest(0, 1024, 8, 0), {});
            sim.Run();
            double checksum = 0;
            const auto start = std::chrono::steady_clock::now();
            for (int64_t i = 0; i < iterations; ++i) {
              replica.Enqueue(
                  MakeRequest(static_cast<RequestId>(i + 1), 1024, 8, 0), {});
              sim.Run();
            }
            checksum = static_cast<double>(replica.stats().completed);
            return std::vector<MetricRow>{
                MicroRow("cached_request_lifecycle", ElapsedNs(start),
                         iterations, checksum)};
          }});
    }
    return plan;
  };
  return scenario;
}

}  // namespace skywalker
