// The per-layer run (--trace 1): the numbers that say which layer of the
// simulator a change moved. Layers are the src/ modules (sim, replica,
// memory, cache, routing, core, net, workload, obs, harness).
//
// Three sources feed them, all for the run's first world seed:
//  * untraced calls: the always-on timers (event-loop wall per event,
//    ShardedSimulator::Timing, the benchmark's own spans around each layer's
//    build and the summarization);
//  * one traced call: counts derived from the lifecycle Tracer's record
//    types, TTFT shares from AttributeRequests, public counters read before
//    teardown, and the per-request conservation proof. Its served metrics
//    must be byte-identical to the untraced calls';
//  * the layer replays (replays.h).
// No tracing is added inside src/: the benchmark times only the calls it
// makes into each layer.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>

#include "world.h"

namespace perfbench {

// Prints the per-layer metrics (the last line is the JSON result) and writes
// the run's spans to `out_dir`. Returns the process exit code.
int RunLayers(const WorkloadSpec& spec, uint64_t seed,
              const std::string& out_dir);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
