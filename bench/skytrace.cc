// skytrace — attribution tooling over skybench request-lifecycle traces
// (ISSUE 9). Loads a TRACE_*.bin compact binary (written by `skybench
// --trace`), decomposes every request's TTFT into named components
// (network / lb_queue / stall / preempt / prefill), and prints:
//
//   * the aggregate attribution table (mean / p50 / p90 / p99 per component
//     and each component's share of mean TTFT);
//   * the top-K slowest-request timelines with full component breakdowns;
//   * the per-replica utilization / preemption timeline.
//
// It also converts the trace to Chrome trace_event JSON (`--chrome`), for
// Perfetto or chrome://tracing; runs write only the binary.
//
//   skytrace TRACE_fig07_memory_pressure_sat_bp_....bin
//   skytrace --top=20 --json=ATTRIB.json --metrics=METRICS.json TRACE.bin
//   skytrace --quiet --chrome=TRACE.json TRACE.bin
//
// Everything here is derived state: a pure function of the trace bytes, so
// output is deterministic and byte-identical across machines.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/obs/attribution.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace skywalker {
namespace {

struct CliOptions {
  std::string trace_path;
  std::string json_out;     // Attribution report (CI artifact).
  std::string metrics_out;  // Registry snapshot.
  std::string chrome_out;   // Chrome trace_event JSON of the records.
  int top = 10;
  bool quiet = false;  // Suppress tables; JSON outputs still written.
};

void PrintUsage() {
  std::printf(
      "skytrace — per-request TTFT attribution over skybench traces\n"
      "\n"
      "  skytrace [flags] TRACE_<scenario>_<cell>.bin\n"
      "\n"
      "  --top=K          slowest-request rows to print (default 10)\n"
      "  --json=FILE      write the machine-readable attribution report\n"
      "  --metrics=FILE   write the derived metrics-registry snapshot\n"
      "  --chrome=FILE    write the trace as Chrome trace_event JSON\n"
      "                   (opens in Perfetto / chrome://tracing)\n"
      "  --quiet          suppress tables (JSON outputs still written)\n");
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
    if (ParseFlag(arg, "--top", &value)) {
      options->top = std::atoi(value.c_str());
      if (options->top < 1) {
        std::fprintf(stderr, "skytrace: --top must be >= 1\n");
        return false;
      }
    } else if (ParseFlag(arg, "--json", &value)) {
      options->json_out = value;
    } else if (ParseFlag(arg, "--metrics", &value)) {
      options->metrics_out = value;
    } else if (ParseFlag(arg, "--chrome", &value)) {
      options->chrome_out = value;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      options->quiet = true;
    } else if (std::strcmp(arg, "--help") == 0 ||
               std::strcmp(arg, "-h") == 0) {
      PrintUsage();
      std::exit(0);
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "skytrace: unknown argument '%s'\n\n", arg);
      PrintUsage();
      return false;
    } else if (options->trace_path.empty()) {
      options->trace_path = arg;
    } else {
      std::fprintf(stderr, "skytrace: more than one trace file given\n");
      return false;
    }
  }
  if (options->trace_path.empty()) {
    std::fprintf(stderr, "skytrace: no trace file given\n\n");
    PrintUsage();
    return false;
  }
  return true;
}

bool ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return static_cast<bool>(in) || in.eof();
}

bool WriteFileBytes(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out << content;
  return static_cast<bool>(out);
}

}  // namespace

int SkytraceMain(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    return 1;
  }

  std::string bytes;
  if (!ReadFileBytes(options.trace_path, &bytes)) {
    std::fprintf(stderr, "skytrace: cannot read %s\n",
                 options.trace_path.c_str());
    return 1;
  }
  std::vector<TraceRecord> records;
  std::vector<std::pair<std::string, std::string>> meta;
  if (!ParseTraceBinary(bytes, &records, &meta)) {
    std::fprintf(stderr,
                 "skytrace: %s is not a valid SKTRACE1 binary trace\n",
                 options.trace_path.c_str());
    return 1;
  }

  const std::vector<RequestAttribution> attributions =
      AttributeRequests(records);

  if (!options.quiet) {
    std::printf("trace: %s\n", options.trace_path.c_str());
    for (const auto& [key, value] : meta) {
      std::printf("  %s: %s\n", key.c_str(), value.c_str());
    }
    std::printf("  records: %zu, requests: %zu\n\n", records.size(),
                attributions.size());
    // Each report carries its own heading line.
    std::printf("%s\n", AttributionSummaryTable(attributions).c_str());
    std::printf("%s\n", SlowestRequestsTable(attributions, options.top).c_str());
    std::printf("%s", ReplicaTimelineTable(records).c_str());
  }

  int exit_code = 0;
  auto write_output = [&](const std::string& path,
                          const std::string& content) {
    if (!WriteFileBytes(path, content)) {
      std::fprintf(stderr, "skytrace: failed to write %s\n", path.c_str());
      exit_code = 1;
    } else if (!options.quiet) {
      std::printf("wrote %s\n", path.c_str());
    }
  };
  if (!options.json_out.empty()) {
    Json report = AttributionReportJson(records, attributions, options.top);
    Json m = Json::Object();
    for (const auto& [key, value] : meta) {
      m.Set(key, value);
    }
    report.Set("meta", std::move(m));
    write_output(options.json_out, report.Dump());
  }
  if (!options.metrics_out.empty()) {
    MetricsRegistry registry;
    BuildMetricsFromTrace(records, Seconds(1), &registry);
    write_output(options.metrics_out, registry.Snapshot().Dump());
  }
  if (!options.chrome_out.empty()) {
    write_output(options.chrome_out, TraceToChromeJson(records, meta));
  }
  return exit_code;
}

}  // namespace skywalker

int main(int argc, char** argv) {
  return skywalker::SkytraceMain(argc, argv);
}
