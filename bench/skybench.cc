// skybench — the single entry point for every benchmark scenario in this
// repo (the 11 historical bench/ executables are all registered scenarios
// now; see bench/scenarios/).
//
//   skybench --list
//   skybench --scenario=fig09 --trials=8 --seed=42 --out=BENCH_fig09.json
//   skybench --all --trials=1 --smoke --out-dir=results
//
// Trials and scenario cells run in parallel on a deterministic thread pool;
// per-trial RNG streams and merge-ordered results make BENCH_*.json
// byte-identical across thread counts. Trial 0 always uses each scenario's
// canonical seeds, so its headline numbers are comparable across runs and
// match the historical executables.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/scenarios/scenarios.h"
#include "src/common/strings.h"
#include "src/harness/parallel.h"
#include "src/harness/runner.h"

namespace skywalker {
namespace {

struct CliOptions {
  std::vector<std::string> scenario_names;
  std::vector<std::string> cell_labels;  // --cells: exact labels, empty = all.
  bool all = false;
  bool list = false;
  bool smoke = false;
  bool quiet = false;       // Suppress tables; still writes JSON.
  bool write_json = true;
  bool timing = false;      // Write the BENCH_TIMING.json sidecar.
  bool trace = false;       // Request-lifecycle tracing (ISSUE 9).
  std::string trace_dir = ".";
  int trials = 1;
  uint64_t seed = 42;
  int threads = DefaultThreadCount();
  std::string out_dir = ".";
  std::string out_file;  // Single-scenario override.
};

void PrintUsage() {
  std::printf(
      "skybench — SkyWalker reproduction benchmark harness\n"
      "\n"
      "  --list                 list registered scenarios and exit\n"
      "  --scenario=NAME[,..]   run the named scenario(s) (repeatable)\n"
      "  --all                  run every registered scenario\n"
      "  --trials=N             independent trials per scenario (default 1;\n"
      "                         trial 0 uses canonical seeds)\n"
      "  --seed=S               base seed perturbing trials >= 1 (default "
      "42)\n"
      "  --threads=T            worker threads (default: hardware "
      "concurrency)\n"
      "  --cells=LABEL[,..]     run only the named cells of the selected\n"
      "                         scenario(s); a filtered run reports their\n"
      "                         rows only (no derived metrics), so do not\n"
      "                         golden-diff it\n"
      "  --smoke                tiny durations for schema/CI checks\n"
      "  --timing               also write BENCH_TIMING.json (wall-clock\n"
      "                         sidecar; excluded from golden comparisons)\n"
      "  --trace                write TRACE_<scenario>_<cell>.bin\n"
      "                         request-lifecycle traces (traceable\n"
      "                         scenarios only, see --list; results are\n"
      "                         unchanged — tracing observes, never\n"
      "                         perturbs; `skytrace --chrome=FILE`\n"
      "                         converts one for Perfetto)\n"
      "  --trace-dir=DIR        directory for TRACE_* files (default .)\n"
      "  --out=FILE             JSON path (single scenario only)\n"
      "  --out-dir=DIR          directory for BENCH_<scenario>.json "
      "(default .)\n"
      "  --no-json              skip writing JSON files\n"
      "  --quiet                suppress tables (JSON still written)\n");
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (std::strcmp(arg, "--list") == 0) {
      options->list = true;
    } else if (std::strcmp(arg, "--all") == 0) {
      options->all = true;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      options->smoke = true;
    } else if (std::strcmp(arg, "--timing") == 0) {
      options->timing = true;
    } else if (std::strcmp(arg, "--trace") == 0) {
      options->trace = true;
    } else if (ParseFlag(arg, "--trace-dir", &value)) {
      options->trace_dir = value;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      options->quiet = true;
    } else if (std::strcmp(arg, "--no-json") == 0) {
      options->write_json = false;
    } else if (ParseFlag(arg, "--scenario", &value)) {
      for (const std::string& name : StrSplit(value, ',')) {
        if (!name.empty()) {
          options->scenario_names.push_back(name);
        }
      }
    } else if (ParseFlag(arg, "--cells", &value)) {
      for (const std::string& label : StrSplit(value, ',')) {
        if (!label.empty()) {
          options->cell_labels.push_back(label);
        }
      }
    } else if (ParseFlag(arg, "--trials", &value)) {
      options->trials = std::atoi(value.c_str());
      if (options->trials < 1) {
        std::fprintf(stderr, "skybench: --trials must be >= 1\n");
        return false;
      }
    } else if (ParseFlag(arg, "--seed", &value)) {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "--threads", &value)) {
      options->threads = std::atoi(value.c_str());
      if (options->threads < 1) {
        std::fprintf(stderr, "skybench: --threads must be >= 1\n");
        return false;
      }
    } else if (ParseFlag(arg, "--out", &value)) {
      options->out_file = value;
    } else if (ParseFlag(arg, "--out-dir", &value)) {
      options->out_dir = value;
    } else if (std::strcmp(arg, "--help") == 0 ||
               std::strcmp(arg, "-h") == 0) {
      PrintUsage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "skybench: unknown argument '%s'\n\n", arg);
      PrintUsage();
      return false;
    }
  }
  return true;
}

int ListScenarios() {
  std::printf("%-28s %5s %6s  %s\n", "scenario", "cells", "trace", "title");
  for (const Scenario* scenario : ScenarioRegistry::Get().All()) {
    // Cell count from a smoke plan: planning is cheap and cell structure
    // does not depend on smoke mode (only cell durations do).
    ScenarioOptions options;
    options.smoke = true;
    const size_t cells = scenario->plan(options).cells.size();
    std::printf("%-28s %5zu %6s  %s\n", scenario->name.c_str(), cells,
                scenario->traceable ? "yes" : "-",
                scenario->title.c_str());
  }
  return 0;
}

bool WriteFile(const std::string& path, const std::string& content) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);  // Failure surfaces below.
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out << content;
  return static_cast<bool>(out);
}

}  // namespace

int SkybenchMain(int argc, char** argv) {
  RegisterAllScenarios();
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    return 1;
  }
  if (options.list) {
    return ListScenarios();
  }
  if (!options.all && options.scenario_names.empty()) {
    std::fprintf(stderr,
                 "skybench: nothing to run (use --scenario=... or --all)\n\n");
    PrintUsage();
    return 1;
  }

  std::vector<const Scenario*> scenarios;
  if (options.all) {
    scenarios = ScenarioRegistry::Get().All();
  } else {
    for (const std::string& name : options.scenario_names) {
      const Scenario* scenario = ScenarioRegistry::Get().Find(name);
      if (scenario == nullptr) {
        std::vector<std::string> known;
        for (const Scenario* s : ScenarioRegistry::Get().All()) {
          known.push_back(s->name);
        }
        const std::vector<std::string> close = SuggestClosest(name, known);
        if (close.empty()) {
          std::fprintf(stderr,
                       "skybench: unknown scenario '%s' (see --list)\n",
                       name.c_str());
        } else {
          std::fprintf(stderr,
                       "skybench: unknown scenario '%s'; did you mean %s? "
                       "(see --list)\n",
                       name.c_str(), StrJoin(close, " or ").c_str());
        }
        return 1;
      }
      scenarios.push_back(scenario);
    }
  }
  if (!options.out_file.empty() && scenarios.size() != 1) {
    std::fprintf(stderr,
                 "skybench: --out only applies to a single scenario; use "
                 "--out-dir\n");
    return 1;
  }

  RunConfig config;
  config.trials = options.trials;
  config.seed = options.seed;
  config.smoke = options.smoke;
  config.threads = options.threads;
  config.trace = options.trace;
  config.trace_dir = options.trace_dir;
  config.cell_filter = options.cell_labels;
  if (options.trace) {
    std::error_code ec;
    std::filesystem::create_directories(options.trace_dir, ec);
    bool any_traceable = false;
    for (const Scenario* scenario : scenarios) {
      any_traceable = any_traceable || scenario->traceable;
    }
    if (!any_traceable) {
      std::fprintf(stderr,
                   "skybench: --trace has no effect: none of the selected "
                   "scenarios are traceable (see --list)\n");
    }
  }

  if (!options.quiet) {
    std::printf("skybench: %zu scenario(s), %d trial(s), %d thread(s)%s\n",
                scenarios.size(), config.trials, config.threads,
                config.smoke ? ", smoke mode" : "");
  }

  RunTiming timing;
  std::vector<ScenarioRunResult> results;
  try {
    results = RunScenarios(scenarios, config, &timing);
  } catch (const std::exception& e) {
    // A failing cell (e.g. a trace it cannot write) fails the whole run.
    std::fprintf(stderr, "skybench: %s\n", e.what());
    return 1;
  }

  int exit_code = 0;
  if (!options.cell_labels.empty()) {
    size_t total_cells = 0;
    for (const ScenarioRunResult& result : results) {
      total_cells += result.cells;
    }
    if (total_cells == 0) {
      std::fprintf(stderr,
                   "skybench: --cells matched no cell of the selected "
                   "scenario(s)\n");
      return 1;
    }
  }
  for (const ScenarioRunResult& result : results) {
    if (!options.quiet) {
      // The canonical trial is the human-facing one; extra trials are for
      // variance and live in the JSON.
      std::printf("\n%s",
                  ScenarioReportText(*result.scenario, result.trials[0])
                      .c_str());
    }
    if (options.write_json) {
      const std::string path =
          !options.out_file.empty()
              ? options.out_file
              : options.out_dir + "/BENCH_" + result.scenario->name + ".json";
      if (!WriteFile(path, ScenarioRunJson(result).Dump())) {
        std::fprintf(stderr, "skybench: failed to write %s\n", path.c_str());
        exit_code = 1;
      } else if (!options.quiet) {
        std::printf("wrote %s\n", path.c_str());
      }
    }
  }
  if (options.timing && options.write_json) {
    // The wall-clock sidecar: nondeterministic by design, so it lives in a
    // separate file that the golden/determinism suites never compare.
    const std::string path = options.out_dir + "/BENCH_TIMING.json";
    if (!WriteFile(path, TimingJson(results, config, timing).Dump())) {
      std::fprintf(stderr, "skybench: failed to write %s\n", path.c_str());
      exit_code = 1;
    } else if (!options.quiet) {
      std::printf("wrote %s (wall %.2fs)\n", path.c_str(),
                  timing.wall_seconds);
    }
  }
  return exit_code;
}

}  // namespace skywalker

int main(int argc, char** argv) {
  return skywalker::SkybenchMain(argc, argv);
}
