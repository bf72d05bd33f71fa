// perfbench: the repo benchmark's program (BENCHMARK.json runs it through
// perfbench/run.py, which builds it first).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir D]
//
// --trace 0 measures the end-to-end metrics: one warm-up call of the
// workload, then repeated calls for S seconds (plus set-up-only builds
// between them), reporting medians of the wall metrics and the served
// metrics every call must reproduce bit for bit. --trace 1 measures the
// per-layer metrics: untraced calls for the always-on timers, one traced
// call of the same seed, and the layer replays (layers.h).
//
// Human-readable lines come first; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}. A failed
// correctness check sets "correct": false and counts every request of the
// run as failed.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "layers.h"
#include "report.h"
#include "spans.h"
#include "world.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 7;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_build/out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(), value);
      return false;
    }
  }
  if (!have_workload || args->seconds <= 0 ||
      (args->trace != 0 && args->trace != 1)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n");
    return false;
  }
  return true;
}

// Calls the workload for `seconds` after one warm-up call and reports the
// end-to-end metrics. Calls rotate over the seed's worlds; the first call of
// each world provides its served window, and every later call must
// reproduce it bit for bit.
int RunEndToEnd(const WorkloadSpec& spec, const Args& args) {
  Spans spans;
  Checks checks;
  const std::vector<uint64_t> seeds = SubSeeds(spec, args.seed);
  PrintWorkload(spec, args.seed);
  std::vector<RepResult> reference;
  auto check_against_reference = [&](size_t world, const RepResult& rep) {
    if (world == reference.size()) {
      CheckRep(spec, rep, &checks);
      PrintWorld(seeds[world], rep);
      reference.push_back(rep);
      return;
    }
    checks.Expect(rep.served.Canonical() == reference[world].served.Canonical(),
                  "served metrics differ between calls of one world: " +
                      rep.served.Canonical() + " vs " +
                      reference[world].served.Canonical());
    checks.Expect(rep.warmup == reference[world].warmup &&
                      rep.total == reference[world].total,
                  "request counts differ between calls of one world");
  };
  // The first simulation in a fresh process runs 5-35% slower than repeats
  // (cold heap, page faults); it is checked but not timed.
  const RepResult warm = RunRep(spec, seeds[0], nullptr, &spans);
  check_against_reference(0, warm);

  // Set-up is short next to a call, so each call is followed by set-up-only
  // builds worth about a fifth of its run time; setup_s is the median over
  // the calls' set-ups and these.
  const int setups_per_call = std::clamp(
      static_cast<int>(0.2 * warm.timing.run_s /
                       std::max(warm.timing.setup_s, 1e-6)),
      2, 50);
  constexpr int kMinCalls = 5;
  const int min_calls = std::max(kMinCalls, spec.worlds);
  std::vector<double> setup_s;
  std::vector<double> run_s;
  int64_t attempted = 0;
  int64_t failed = 0;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  for (size_t call = 0;
       static_cast<int>(call) < min_calls || elapsed() < args.seconds; ++call) {
    const size_t world = (call + 1) % seeds.size();
    const RepResult rep = RunRep(spec, seeds[world], nullptr, &spans);
    check_against_reference(world, rep);
    std::printf("call %zu (world %zu): setup %.6f s, run %.6f s\n", call + 1,
                world, rep.timing.setup_s, rep.timing.run_s);
    setup_s.push_back(rep.timing.setup_s);
    run_s.push_back(rep.timing.run_s);
    attempted += rep.total.sent;
    failed += rep.total.failed + rep.total.vanished;
    for (int i = 0; i < setups_per_call; ++i) {
      setup_s.push_back(SetupOnly(spec, seeds[world], &spans));
    }
  }
  std::printf("timed %zu calls and %zu set-ups in %.1f s\n", run_s.size(),
              setup_s.size(), elapsed());
  PrintSpread("setup_s", setup_s);
  PrintSpread("run_s", run_s);

  std::vector<const WindowSamples*> windows;
  for (const RepResult& rep : reference) {
    windows.push_back(&rep.window);
  }
  const Served served = Pool(windows, spec.measure);
  PrintServed(served);
  std::vector<Metric> metrics = ServedMetrics(served);
  metrics.insert(metrics.begin(),
                 {{"setup_s", Median(setup_s), "s"},
                  {"run_s", Median(run_s), "s"},
                  {"peak_rss_mb", PeakRssMb(), "MB"}});
  PrintResult(checks, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s; choose one of:",
                 args.workload.c_str());
    for (const WorkloadSpec& w : Workloads()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  if (args.trace == 1) {
    return RunLayers(*spec, args.seed, args.out_dir);
  }
  return RunEndToEnd(*spec, args);
}
