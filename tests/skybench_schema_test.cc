// Golden-schema test for the skybench harness: every registered scenario,
// run in smoke mode, must emit a BENCH_*.json document that (a) parses as
// strict JSON, (b) carries the envelope fields tooling depends on, and
// (c) contains every declared metric key in every row — the contract CI
// regression checks are built on.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "bench/scenarios/scenarios.h"
#include "src/common/json.h"
#include "src/harness/runner.h"

namespace skywalker {
namespace {

class SkybenchSchemaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { RegisterAllScenarios(); }
};

RunConfig SmokeConfig() {
  RunConfig config;
  config.trials = 1;
  config.seed = 42;
  config.smoke = true;
  config.threads = 2;
  return config;
}

void ExpectRowsCarryKeys(const Json& rows, const Scenario& scenario) {
  ASSERT_TRUE(rows.is_array()) << scenario.name;
  ASSERT_FALSE(rows.elements().empty()) << scenario.name;
  std::set<std::string> labels;
  for (const Json& row : rows.elements()) {
    const Json* label = row.Find("label");
    ASSERT_NE(label, nullptr) << scenario.name;
    EXPECT_TRUE(label->is_string());
    EXPECT_FALSE(label->AsString().empty()) << scenario.name;
    EXPECT_TRUE(labels.insert(label->AsString()).second)
        << scenario.name << ": duplicate row label " << label->AsString();
    const Json* metrics = row.Find("metrics");
    ASSERT_NE(metrics, nullptr) << scenario.name;
    ASSERT_TRUE(metrics->is_object());
    for (const std::string& key : scenario.metric_keys) {
      const Json* value = metrics->Find(key);
      ASSERT_NE(value, nullptr)
          << scenario.name << " row '" << label->AsString()
          << "' missing metric '" << key << "'";
      EXPECT_TRUE(value->is_number() || value->is_null())
          << scenario.name << "/" << key;
    }
  }
}

TEST_F(SkybenchSchemaTest, RegistryIsPopulated) {
  // The historical 11 bench executables map onto at least this many
  // scenarios; losing one silently would gut CI coverage.
  EXPECT_GE(ScenarioRegistry::Get().All().size(), 19u);
}

TEST_F(SkybenchSchemaTest, EveryScenarioEmitsValidJsonWithDeclaredKeys) {
  for (const Scenario* scenario : ScenarioRegistry::Get().All()) {
    SCOPED_TRACE(scenario->name);
    ASSERT_FALSE(scenario->metric_keys.empty());
    const std::vector<ScenarioRunResult> results =
        RunScenarios({scenario}, SmokeConfig());
    ASSERT_EQ(results.size(), 1u);
    const std::string text = ScenarioRunJson(results[0]).Dump();

    std::optional<Json> doc = Json::Parse(text);
    ASSERT_TRUE(doc.has_value()) << "invalid JSON for " << scenario->name;

    // Envelope.
    ASSERT_NE(doc->Find("schema_version"), nullptr);
    EXPECT_EQ(doc->Find("schema_version")->AsDouble(), 1);
    ASSERT_NE(doc->Find("scenario"), nullptr);
    EXPECT_EQ(doc->Find("scenario")->AsString(), scenario->name);
    ASSERT_NE(doc->Find("metric_keys"), nullptr);
    EXPECT_EQ(doc->Find("metric_keys")->size(),
              scenario->metric_keys.size());
    ASSERT_NE(doc->Find("smoke"), nullptr);
    EXPECT_TRUE(doc->Find("smoke")->AsBool());

    // Per-trial rows and the cross-trial summary obey the metric contract.
    const Json* trials = doc->Find("trial_results");
    ASSERT_NE(trials, nullptr);
    ASSERT_EQ(trials->size(), 1u);
    const Json& trial = trials->elements()[0];
    EXPECT_EQ(trial.Find("trial")->AsDouble(), 0);
    // Seed streams serialize as decimal strings (64-bit values would lose
    // precision as JSON doubles); trial 0 is canonical.
    EXPECT_EQ(trial.Find("seed_stream")->AsString(), "0");
    ExpectRowsCarryKeys(*trial.Find("rows"), *scenario);
    const Json* summary = doc->Find("summary");
    ASSERT_NE(summary, nullptr);
    ExpectRowsCarryKeys(*summary->Find("rows"), *scenario);
  }
}

TEST_F(SkybenchSchemaTest, MultiTrialSummaryAveragesAcrossTrials) {
  const Scenario* scenario = ScenarioRegistry::Get().Find("fig04a");
  ASSERT_NE(scenario, nullptr);
  RunConfig config = SmokeConfig();
  config.trials = 3;
  const std::vector<ScenarioRunResult> results =
      RunScenarios({scenario}, config);
  ASSERT_EQ(results[0].trials.size(), 3u);
  // Trial 0 is canonical; later trials get distinct nonzero streams.
  EXPECT_EQ(results[0].trials[0].seed_stream, 0u);
  EXPECT_NE(results[0].trials[1].seed_stream, 0u);
  EXPECT_NE(results[0].trials[2].seed_stream, 0u);
  EXPECT_NE(results[0].trials[1].seed_stream,
            results[0].trials[2].seed_stream);

  // The summary row is the mean of the per-trial rows.
  const std::string key = "input_len";
  double sum = 0;
  for (const TrialResult& trial : results[0].trials) {
    sum += *trial.report.rows[0].Find(key);
  }
  std::optional<Json> doc = Json::Parse(ScenarioRunJson(results[0]).Dump());
  ASSERT_TRUE(doc.has_value());
  const Json& summary_row =
      doc->Find("summary")->Find("rows")->elements()[0];
  EXPECT_NEAR(summary_row.Find("metrics")->Find(key)->AsDouble(), sum / 3,
              1e-9);
}

TEST_F(SkybenchSchemaTest, CellFilterSkipsFinalizer) {
  // fig07's and fig09's finalizers assume every planned cell ran; a
  // one-cell --cells run must skip them and report just that cell's row.
  const std::pair<const char*, const char*> filters[] = {
      {"fig07_memory_pressure", "bp/b16/recompute"}, {"fig09", "BP"}};
  for (const auto& [name, cell] : filters) {
    SCOPED_TRACE(name);
    const Scenario* scenario = ScenarioRegistry::Get().Find(name);
    ASSERT_NE(scenario, nullptr);
    RunConfig config = SmokeConfig();
    config.cell_filter = {cell};
    const std::vector<ScenarioRunResult> results =
        RunScenarios({scenario}, config);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_EQ(results[0].trials.size(), 1u);
    const ScenarioReport& report = results[0].trials[0].report;
    ASSERT_EQ(report.rows.size(), 1u);
    EXPECT_EQ(report.rows[0].label, cell);
    EXPECT_TRUE(report.derived.empty());
    EXPECT_TRUE(report.notes.empty());
    std::optional<Json> doc = Json::Parse(ScenarioRunJson(results[0]).Dump());
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->Find("summary")->Find("derived"), nullptr);
  }
}

// A traced cell whose trace cannot be written fails the run, naming the
// cell, instead of finishing without its trace.
TEST_F(SkybenchSchemaTest, UnwritableTraceFailsTheRun) {
  // Nothing can be created under a regular file.
  const std::string blocker = ::testing::TempDir() + "skybench_trace_blocker";
  std::ofstream(blocker) << "not a directory";
  const std::pair<const char*, const char*> cells[] = {
      {"fig07_memory_pressure", "sat/spp/b16/swap/lruleaf"},
      {"fig_resilience", "gray_ej_on"}};
  for (const auto& [name, cell] : cells) {
    SCOPED_TRACE(name);
    const Scenario* scenario = ScenarioRegistry::Get().Find(name);
    ASSERT_NE(scenario, nullptr);
    RunConfig config = SmokeConfig();
    config.trace = true;
    config.trace_dir = blocker + "/traces";
    config.cell_filter = {cell};
    try {
      RunScenarios({scenario}, config);
      ADD_FAILURE() << "the run succeeded without writing its trace";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(cell), std::string::npos)
          << e.what();
    }
  }
  std::remove(blocker.c_str());
}

}  // namespace
}  // namespace skywalker
