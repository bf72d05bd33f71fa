// Deterministic request-lifecycle tracer (ISSUE 9, DESIGN.md §11).
//
// A Tracer is a passive sink of fixed-size POD TraceRecords appended by the
// serving stack at lifecycle points: submit -> route decision (with
// per-candidate scores) -> forward -> enqueue -> admit -> prefill chunks ->
// first token -> preempt/swap/restore -> complete|timeout, plus the
// replica-level engine-step / memory-sample stream and the control-plane
// events (ejection, recovery, config reswap). It never schedules events,
// never reads RNG state, and never mutates actor state — tracing observes,
// it cannot perturb: a traced run's metrics are byte-identical to an
// untraced run's, which tests/trace_determinism_test.cc pins.
//
// Zero overhead when off: every emission site is
//     if (Tracer* t = sim->tracer()) { t->Emit({...}); }
// — one pointer load and a predictable branch when no tracer is installed
// (the default). No record is constructed on the off path.
//
// Determinism contract (the §7.2 keyed-ordering extension): records are
// buffered per *region* in slab-backed rings. A region's events execute on
// exactly one shard under the sharded simulator, and keyed ordering makes a
// region's execution history a pure function of the workload — so each
// region's append stream is identical for any grouping of regions into
// shards and any thread count. Each record keeps the order position of the
// event that emitted it (the bound simulator's horizon, or an explicit
// order), outside the exported bytes. The merged order is (time, region,
// emitting event's order, append index). For real events that is the
// append order; a replica's stable stretch emits its virtual steps' records
// late, at catch-up, under the order of the per-step events they replace
// (DESIGN.md §13), and the merge puts them back in place. Exported trace
// bytes are therefore bit-identical across shard/thread counts and to the
// per-step path.
//
// Memory: each ring grows in 4096-record slabs up to `max_records_per_region`
// and then recycles its oldest slab (drop-oldest, counted in dropped()).
// Steady state allocates nothing — slab recycling reuses storage, and
// dropping is per-region-local, so a capped trace is still deterministic.
// Drops follow append order, in which a stretch's virtual steps come late,
// so only an uncapped trace matches the per-step path byte for byte.

#ifndef SKYWALKER_OBS_TRACE_H_
#define SKYWALKER_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/sim/event_queue.h"

namespace skywalker {

class Simulator;

// Stable on-disk ids (the compact binary stores the numeric value; renaming
// an enumerator is fine, renumbering is a format break).
enum class TraceEventType : uint16_t {
  kInvalid = 0,
  // --- request lifecycle -------------------------------------------------
  kSubmit = 1,          // client. a=prompt_tokens.
  kLbEnqueue = 2,       // LB FCFS queue entry. a=queue_len_after, b=forwarded_in.
  kRouteCandidate = 3,  // one per candidate. replica=candidate, a=available, x=effective_load.
  kRouteDecision = 4,   // replica=chosen. a=queue_len_before, x=queue_wait_us.
  kForward = 5,         // cross-region offload. a=dest_region.
  kDispatch = 6,        // committed to replica. x=queue_wait_us.
  kReplicaArrive = 7,   // landed in the replica pending queue. a=pending_after.
  kAdmit = 8,           // entered the continuous batch. a=cached_len, b=prefill_remaining.
  kPrefillChunk = 9,    // a=tokens_this_step, b=remaining_after.
  kFirstToken = 10,     // prefill complete, TTFT endpoint. a=cached_len.
  kComplete = 11,       // a=output_tokens.
  kTimeout = 12,        // LB-side request timeout fired.
  kDrop = 13,           // replica dropped the arrival (failed engine).
  kLbError = 14,        // LB errored the queued request (flush).
  kPreempt = 15,        // victim of ReclaimMemory. a=resident_tokens, b=policy(0 recompute/1 swap).
  kRestore = 16,        // swapped sequence re-entered the batch.
  // --- replica / memory telemetry (request = -1) -------------------------
  kEngineStep = 17,     // a=prefill_tokens, b=decode_count, x=step_us.
  kMemSample = 18,      // a=free_blocks, b=running, x=memory_utilization.
  kCacheEvict = 19,     // a=victims, b=freed_blocks, x=policy.
  kKvSwapOut = 20,      // kv ledger swap-out. a=tokens, x=transfer_us.
  kKvSwapIn = 21,       // kv ledger swap-in admission. a=tokens, x=transfer_us.
  kWatermarkReject = 22,// admission blocked by watermark. a=free_blocks, b=committed_blocks.
  // --- control plane (request = -1) --------------------------------------
  kProbe = 23,          // probe response landed. a=version, b=pending, x=ewma_us_per_token.
  kEject = 24,          // health machine ejected replica. a=reason(0 failures/1 latency).
  kRecover = 25,        // half-open recovery confirmed.
  kConfigSwap = 26,     // engine ApplyConfig. a=push_mode.
};

// Human-readable name ("submit", "route_decision", ...) for exporters.
const char* TraceEventTypeName(TraceEventType type);

// One trace event. Fixed 48-byte POD with no padding, so the compact binary
// format is a straight memcpy of the merged stream. Field meaning per type
// is documented on TraceEventType; unused fields stay at their defaults.
struct TraceRecord {
  SimTime time = 0;     // Simulated microseconds.
  int64_t request = -1; // RequestId, or -1 for replica/control-plane records.
  int64_t a = 0;
  int64_t b = 0;
  double x = 0;
  uint16_t type = 0;    // TraceEventType.
  int16_t region = -1;  // Emitting actor's region (ring index).
  int32_t replica = -1;
};
static_assert(sizeof(TraceRecord) == 48, "binary trace format is 48B records");

class Tracer {
 public:
  // `num_regions` sizes the ring table (region -1 shares ring 0 with
  // nothing else; region r uses ring r+1). Emitting for a region >=
  // num_regions aborts in debug builds and drops in release.
  explicit Tracer(int32_t num_regions,
                  int64_t max_records_per_region = kDefaultMaxRecords);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Appends to the record's region ring, stamped with the order position
  // of the emitting event: the horizon of the simulator bound to that
  // region (none bound: a zero order, i.e. plain append order). Thread-safe
  // across *different* regions (each region's events run on one shard);
  // never safe for one region from two threads — which the sharded
  // simulator's region ownership rules out.
  void Emit(const TraceRecord& record);
  // Same, stamped with an explicit order whose time is `record.time` (a
  // virtual stretch step's records, emitted after the fact).
  void Emit(const TraceRecord& record, const EventOrder& order);

  // Binds the simulator whose horizon stamps implicit emissions: for every
  // ring, or for one region's. Simulator::SetTracer binds itself; a bound
  // simulator must outlive every implicit emission into its rings.
  void BindClock(const Simulator* sim);
  void BindClock(int32_t region, const Simulator* sim);

  // Records retained across all rings / records dropped by ring caps.
  int64_t size() const;
  int64_t dropped() const;

  // All retained records in the deterministic (time, region, emitting
  // event's order, append index) order.
  std::vector<TraceRecord> Merged() const;

  static constexpr int64_t kDefaultMaxRecords = 1 << 22;  // 256 MiB/region cap.
  static constexpr size_t kSlabRecords = 4096;

 private:
  // A record and its emitting event's order position (its time is the
  // record's own), kept out of the exported 48 bytes.
  struct Entry {
    TraceRecord record;
    SimTime sched;
    uint64_t key;
  };
  struct Slab {
    Entry entries[kSlabRecords];
  };
  // One per region: slabs in append order; all full except the tail.
  struct Ring {
    std::vector<std::unique_ptr<Slab>> slabs;
    size_t tail_used = 0;   // Records in the last slab.
    int64_t dropped = 0;
    const Simulator* clock = nullptr;  // Stamps implicit emissions.
  };
  // Reads one ring in merge order (trace.cc).
  class RingReader;

  Ring& RingFor(int16_t region);

  std::vector<Ring> rings_;
  size_t max_slabs_per_ring_;
};

// Emission-site helper: one call per record, common fields first. Sites
// guard with `if (Tracer* t = sim->tracer())` so the off path never even
// builds the arguments.
inline TraceRecord MakeTraceRecord(SimTime time, TraceEventType type,
                                   int32_t region, int32_t replica,
                                   int64_t request, int64_t a, int64_t b,
                                   double x) {
  TraceRecord record;
  record.time = time;
  record.request = request;
  record.a = a;
  record.b = b;
  record.x = x;
  record.type = static_cast<uint16_t>(type);
  record.region = static_cast<int16_t>(region);
  record.replica = replica;
  return record;
}

inline void EmitTrace(Tracer* tracer, SimTime time, TraceEventType type,
                      int32_t region, int32_t replica, int64_t request,
                      int64_t a = 0, int64_t b = 0, double x = 0.0) {
  tracer->Emit(MakeTraceRecord(time, type, region, replica, request, a, b, x));
}

// Emits at an explicit event order, stamped with its time.
inline void EmitTrace(Tracer* tracer, const EventOrder& order,
                      TraceEventType type, int32_t region, int32_t replica,
                      int64_t request, int64_t a = 0, int64_t b = 0,
                      double x = 0.0) {
  tracer->Emit(
      MakeTraceRecord(order.at, type, region, replica, request, a, b, x),
      order);
}

// --- exporters -----------------------------------------------------------

// Chrome/Perfetto trace_event JSON: {"traceEvents": [...], "skywalker":
// {...metadata...}}. ts in microseconds; pid = region, tid = replica (or 0
// for LB-level events). Engine steps become duration ("X") slices, memory
// samples become counter ("C") series, everything else instants ("i").
// `meta` keys/values are copied into the "skywalker" object verbatim.
// Runs never write it: `skytrace --chrome=FILE` converts a SKTRACE1 file.
std::string TraceToChromeJson(
    const std::vector<TraceRecord>& records,
    const std::vector<std::pair<std::string, std::string>>& meta);

// Compact binary: "SKTRACE1" magic, little-endian header, a metadata blob,
// then the raw 48-byte records. The one format a run writes, and what
// `skytrace` loads.
std::string TraceToBinary(
    const std::vector<TraceRecord>& records,
    const std::vector<std::pair<std::string, std::string>>& meta);

// Parses TraceToBinary output. Returns false on a malformed buffer. `meta`
// (optional) receives the metadata blob's key/value pairs.
bool ParseTraceBinary(
    const std::string& bytes, std::vector<TraceRecord>* records,
    std::vector<std::pair<std::string, std::string>>* meta = nullptr);

// Writes TRACE_<scenario>_<cell>.bin (compact binary, the skytrace input)
// under `dir`, sanitizing '/' in the cell label to '_'. `scenario` and
// `cell` are prepended to `meta`. Returns false if the write fails.
[[nodiscard]] bool WriteTraceArtifacts(
    const Tracer& tracer, const std::string& dir, const std::string& scenario,
    const std::string& cell,
    std::vector<std::pair<std::string, std::string>> meta = {});

}  // namespace skywalker

#endif  // SKYWALKER_OBS_TRACE_H_
