// Shared dispatch engine under every load-balancer stack (DESIGN.md §5).
//
// The paper's local-placement machinery — per-replica probe state, the FCFS
// request queue, the 100 ms heartbeat probe loop (§4.1), and the three
// pushing disciplines of §3.3 — is policy-agnostic: the baselines of §5.1
// (RR/LL/CH/SGL) and SkyWalker's regional balancer (§3.1) differ only in
// *which* available replica they pick and in what happens when no local
// replica can take the queue head. This engine implements the shared half
// exactly once:
//
//  * PushMode availability (IsAvailable):
//      kBlind                — route immediately on arrival;
//      kSelectiveOutstanding — cap LB-tracked in-flight per replica (SP-O);
//      kSelectivePending     — push only to replicas whose last probe saw an
//                              empty pending queue (SP-P, the paper's
//                              proposal), with an optimistic push-slack bound
//                              between probes (DESIGN.md §5.3).
//  * The FCFS queue with head-of-line blocking.
//  * The probe loop: LB -> replica (read the ProbePayload) -> LB round trips
//    every probe_interval.
//  * Dispatch mechanics: outcome assembly, response-path latency (including
//    the extra origin-LB hop for forwarded-in requests), and completion
//    accounting.
//  * The resilience control plane (DESIGN.md §10): a per-replica passive
//    health state machine (src/routing/health.h) driven by request timeouts,
//    probe misses, and latency-outlier detection against the fleet median,
//    with bounded max-ejection fraction and half-open recovery. Entirely
//    inert unless DispatchConfig::outlier.enabled.
//
// A balancer plugs in through one interface, ReplicaSelector: placement
// through SelectReplica over a CandidateView, and the cross-region half of
// a balancer (peer probing, forwarding, stickiness, overload advertisement
// — src/core) through its queue and probe-loop hooks. Every hook has a
// neutral default, so a selector that overrides only SelectReplica is a
// purely local balancer.
//
// Replica state lives in a flat vector with an id -> index side map, so the
// per-dispatch hot path (availability scans, outstanding updates) is O(1)
// amortized instead of O(log n) map walks.
//
// Selection is indexed (ISSUE 10): the engine maintains a gen-stamped lazy
// min-heap over (EffectiveLoad, position) plus incremental available/ejected
// counters, refreshed at every state mutation point (dispatch, completion,
// probe response, health transition, config swap). LeastLoadedAvailable,
// AnyAvailable, AvailableCount, and EjectedCount are O(log R) amortized /
// O(1) instead of O(R) scans, with tie-breaking fixed to the lowest replica
// position so decisions are provably identical to the retained linear scan
// (the test-only differential oracle, see set_selection_oracle).

#ifndef SKYWALKER_ROUTING_DISPATCH_ENGINE_H_
#define SKYWALKER_ROUTING_DISPATCH_ENGINE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/sim_time.h"
#include "src/net/network.h"
#include "src/replica/replica.h"
#include "src/routing/health.h"
#include "src/sim/simulator.h"
#include "src/workload/request.h"

namespace skywalker {

// Pushing disciplines analysed in §3.3.
enum class PushMode {
  kBlind,
  kSelectiveOutstanding,
  kSelectivePending,
};

// Engine knobs shared by every balancer; policy-specific knobs stay in the
// owning stack's config (LbConfig / SkyWalkerConfig). This struct is the
// `dispatch` half of a RuntimeConfig snapshot (src/core/runtime_config.h)
// and can be swapped mid-run via DispatchEngine::ApplyConfig.
struct DispatchConfig {
  PushMode push_mode = PushMode::kBlind;

  // Heartbeat probe period (paper §4.1 uses 100 ms).
  SimDuration probe_interval = Milliseconds(100);

  // SP-O: fixed cap on outstanding requests per replica.
  int max_outstanding_per_replica = 24;

  // SP-P: optimistic pushes allowed per replica between two probes. Bounds
  // burst overshoot caused by probe staleness (DESIGN.md §5.3) while still
  // letting an empty continuous batch fill within one probe window.
  int push_slack = 32;

  // Free-block-aware routing gate (ISSUE 4): a probed replica whose last
  // snapshot shows fewer than this fraction of its KV blocks free is
  // treated as unavailable, on top of the push-mode test. 0 disables (the
  // seed behavior); kBlind never probes, so the gate cannot affect it.
  double min_free_block_fraction = 0.0;

  // Passive outlier detection + request/probe timeouts (DESIGN.md §10).
  // Disabled by default: every resilience code path is gated on
  // outlier.enabled, keeping default-config runs byte-identical to the
  // pre-resilience engine.
  OutlierConfig outlier;
};

// Engine-tracked state for one managed replica, refreshed by the probe loop.
struct ReplicaState {
  Replica* replica = nullptr;
  int outstanding = 0;        // LB-tracked in-flight (pushed, not completed).
  // Decoded payload of the last heartbeat probe (one construction site on
  // the replica — Replica::Probe — and this one decode site).
  ProbePayload probed;
  int pushes_since_probe = 0;
  bool probed_once = false;
  // Passive health state machine (src/routing/health.h). Stays kHealthy
  // forever when outlier detection is disabled.
  ReplicaHealth health;
  // Probe-miss detection: every probe sent carries epoch = ++probe_epoch_sent
  // and the response records it; a timeout whose epoch was never received is
  // a miss. Tracked unconditionally (cheap), acted on only when enabled.
  int64_t probe_epoch_sent = 0;
  int64_t probe_epoch_received = 0;
  // Latency-sample count at the moment of the last ejection: a recovering
  // replica only exits half-open on evidence newer than this.
  int64_t latency_samples_at_ejection = 0;

  // Free-block fraction from the last probe; 1 when never probed or the
  // replica reports no block budget.
  double ProbedFreeBlockFraction() const {
    if (!probed_once || probed.total_blocks <= 0) {
      return 1.0;
    }
    return static_cast<double>(probed.free_blocks) /
           static_cast<double>(probed.total_blocks);
  }
};

// One FCFS-queued request. `lb_arrival` is stamped by Enqueue.
// `forwarded_in` marks a request another region offloaded here (terminal:
// it must be placed locally; its response path hops back through the
// origin LB).
struct Queued {
  Request req;
  RequestCallbacks callbacks;
  SimTime lb_arrival = 0;
  bool forwarded_in = false;
  RegionId origin_lb_region = kInvalidRegion;
};

// What a selector's queue-head hooks tell the engine to do with the head.
enum class HeadAction {
  kPlaceLocal,  // Proceed to local placement via SelectReplica.
  kTaken,       // The hook consumed the request (moved it out); pop and
                // continue with the next queue head.
  kStall,       // Stop dispatching; the head stays queued.
};

class DispatchEngine;

// Read-only window over the engine's replicas that a selector sees: indexed
// iteration in attach order, id lookup, and the engine's push-mode
// availability test. Also carries the least-loaded scans that several
// policies share as their fallback.
class CandidateView {
 public:
  explicit CandidateView(const DispatchEngine* engine) : engine_(engine) {}

  size_t size() const;
  const ReplicaState& operator[](size_t index) const;
  const ReplicaState* Find(ReplicaId id) const;

  // Pushing-discipline availability test (§3.3), delegated to the engine.
  bool IsAvailable(const ReplicaState& state) const;
  bool IsAvailable(ReplicaId id) const;

  // Load score the least-loaded selection minimizes: outstanding, plus the
  // degraded penalty for replicas the health machine has deprioritized (the
  // soft priority tier of DESIGN.md §10). With health disabled this is
  // exactly the outstanding count (ties resolved by scan order, as ever).
  double EffectiveLoad(const ReplicaState& state) const;

  // Lowest-EffectiveLoad *available* replica, or kInvalidReplica.
  ReplicaId LeastLoadedAvailable() const;

  // Least-outstanding among `candidates` (already filtered for availability
  // by the caller, e.g. a trie match); kInvalidReplica when none is known.
  ReplicaId LeastLoadedAmong(const std::vector<int32_t>& candidates) const;

 private:
  const DispatchEngine* engine_;
};

// A balancer's policy, the engine's one plug-in interface. Only
// SelectReplica is required; every hook below has a neutral default.
class ReplicaSelector {
 public:
  virtual ~ReplicaSelector() = default;

  // Chooses a replica for the queue head, or kInvalidReplica to keep it
  // queued. Implementations must only return available replicas (per
  // CandidateView::IsAvailable). A non-invalid return commits the dispatch,
  // so selectors may update their routing state (trie/ring/counters) before
  // returning.
  virtual ReplicaId SelectReplica(const Queued& queued,
                                  const CandidateView& candidates) = 0;

  // Registry lifecycle notifications (keep rings/tries in sync).
  virtual void OnReplicaAttached(Replica* /*replica*/) {}
  virtual void OnReplicaDetached(ReplicaId /*replica_id*/) {}

  // Gate on every dispatch iteration (e.g. LB health).
  virtual bool ShouldDispatch() const { return true; }

  // Pre-placement intercept for the queue head (e.g. sticky remote
  // affinity). kTaken means the hook moved the request out of `head`.
  virtual HeadAction OnQueueHead(Queued& /*head*/) {
    return HeadAction::kPlaceLocal;
  }

  // Local placement failed for `head` (SelectReplica found no replica). The
  // hook may consume it (cross-region forwarding) by moving it out and
  // returning kTaken; kStall keeps it queued. kPlaceLocal is treated as
  // kStall.
  virtual HeadAction OnUnplaced(Queued& /*head*/) { return HeadAction::kStall; }

  // A request was committed to a local replica (record placement in policy
  // state, refresh last-local-availability, ...).
  virtual void OnLocalDispatch(const Queued& /*queued*/,
                               ReplicaId /*replica_id*/) {}

  // Probe-loop extension points: start of a probe tick (before replica
  // probes go out), after replica probes were sent (peer probing), and
  // each time a replica probe response lands (before the engine's
  // TryDispatch).
  virtual void OnProbeTick() {}
  virtual void OnAfterReplicaProbes() {}
  virtual void OnReplicaProbeResult() {}
};

// The policy-agnostic dispatch machinery. One instance per balancer.
class DispatchEngine {
 public:
  struct Stats {
    int64_t received = 0;
    int64_t dispatched = 0;
    int64_t completed = 0;
    int64_t probes_sent = 0;
    int64_t max_queue_len = 0;
    // Resilience counters (all zero unless outlier detection is enabled).
    int64_t request_timeouts = 0;   // Dispatched, never answered in time.
    int64_t probe_misses = 0;       // Heartbeats that timed out.
    int64_t ejections = 0;          // Transitions into kEjected.
    int64_t recoveries = 0;         // kRecovering -> kHealthy confirmations.
    int64_t late_completions = 0;   // Replies landing after their timeout.
  };

  // `selector` is borrowed and must outlive the engine.
  DispatchEngine(Simulator* sim, Network* net, RegionId region,
                 const DispatchConfig& config, ReplicaSelector* selector);
  ~DispatchEngine();

  DispatchEngine(const DispatchEngine&) = delete;
  DispatchEngine& operator=(const DispatchEngine&) = delete;

  // --- replica registry ---
  void AttachReplica(Replica* replica);
  bool DetachReplica(ReplicaId replica_id);

  const std::vector<ReplicaState>& replicas() const { return replicas_; }
  size_t num_replicas() const { return replicas_.size(); }
  ReplicaState* FindReplica(ReplicaId id);
  const ReplicaState* FindReplica(ReplicaId id) const;

  // --- probe loop ---
  // Starts the heartbeat probe loop when the configuration needs one
  // (selective pushing probes for load; outlier detection probes for
  // liveness even under kBlind).
  void Start();
  void Stop();
  // Clears probe freshness and per-replica health so a restarted loop
  // re-establishes availability (LB recovery).
  void ResetProbeState();

  // --- runtime config (DESIGN.md §10) ---
  // Swaps the engine onto a new knob snapshot mid-run: push mode, probe
  // interval (takes effect at the next tick), slack, gates, and the outlier
  // machinery can all change without dropping queue or replica state.
  void ApplyConfig(const DispatchConfig& next);

  // --- request path ---
  // Admits a request into the FCFS queue (stamping its arrival time) and
  // dispatches as far as possible.
  void Enqueue(Queued queued);
  // Dispatches queue-head requests while a policy target exists (FCFS
  // head-of-line blocking otherwise).
  void TryDispatch();
  // Errors out every queued request (LB failure); returns how many.
  int64_t FlushQueueWithError();

  // --- availability (§3.3 + §10) ---
  bool IsAvailable(const ReplicaState& state) const;
  bool IsAvailable(ReplicaId id) const;
  // The load score selection minimizes (see CandidateView::EffectiveLoad).
  double EffectiveLoadOf(const ReplicaState& state) const;
  // O(1) reads of the incrementally maintained availability counters.
  bool AnyAvailable() const { return available_count_ > 0; }
  int AvailableCount() const { return available_count_; }

  // Replicas currently in kEjected (max-ejection-fraction accounting).
  int EjectedCount() const { return ejected_count_; }

  // --- indexed selection (ISSUE 10) ---
  // Lowest-EffectiveLoad available replica via the selection index,
  // tie-broken by lowest position (attach order) — provably the same
  // decision as the linear scan. O(log R) amortized.
  ReplicaId LeastLoadedAvailable() const;
  // The retained linear scan — the differential oracle the index is
  // verified against (property test + set_selection_oracle below).
  ReplicaId LeastLoadedAvailableLinear() const;
  // Rebuilds the index from scratch. Only needed after out-of-band
  // mutations of ReplicaState through the mutable FindReplica (tests);
  // every engine-internal mutation path refreshes the index itself.
  void RefreshSelectionIndex() { RebuildSelectionIndex(); }
  // Re-indexes a single replica after an out-of-band ReplicaState mutation
  // — the O(log R) alternative to RefreshSelectionIndex when the caller
  // knows exactly which replica changed (tests, microbenchmarks).
  void NoteReplicaMutated(ReplicaId id);
  // Test-only differential oracle: engines constructed while this is on
  // cross-check every LeastLoadedAvailable answer against the linear scan
  // and CHECK-fail on divergence. Process-wide so whole fleets built by Run
  // (sharded, multi-threaded) take it; set it before building them. Far too
  // slow for benchmarks.
  static void set_selection_oracle(bool on);

  // Per-engine selection counters for the timing sidecar (never part of
  // deterministic results): indexed queries answered and index entries
  // (re)built — the denominators of the O(log R)-vs-O(R) claim.
  int64_t selection_queries() const { return selection_queries_; }
  int64_t index_touches() const { return index_touches_; }

  // Current LB-tracked outstanding per replica (imbalance metrics).
  std::vector<int> OutstandingSnapshot() const;

  size_t queue_size() const { return queue_.size(); }
  const Stats& stats() const { return stats_; }
  const DispatchConfig& config() const { return config_; }
  Simulator* sim() const { return sim_; }
  Network* net() const { return net_; }
  RegionId region() const { return region_; }

 private:
  // Shared per-dispatch context: outcome + client callbacks, plus the
  // timeout guard flags (all reads/writes happen on this engine's shard).
  struct DispatchCtx {
    RequestOutcome outcome;
    RequestCallbacks callbacks;
    bool finished = false;   // Completion accounted (timeout must no-op).
    bool timed_out = false;  // Timeout fired (completion must no-op).
  };

  // Commits `queued` to `replica_id`: bookkeeping, outcome assembly,
  // response-path latency, network round trips, completion accounting.
  void DispatchTo(Queued queued, ReplicaId replica_id);
  void ProbeAll();
  // One probe response landing at the LB: refresh the replica's probed
  // snapshot + index entry, then dispatch. Shared verbatim by the
  // per-replica and batched fan-out paths so they cannot diverge.
  void ApplyProbeResponse(ReplicaId replica_id, int64_t epoch,
                          const ProbePayload& payload);
  // Latency-outlier pass over the fleet, run at each probe tick when
  // enabled: expire ejections into half-open, compare probed decode-latency
  // EWMAs against the fleet median, apply verdicts under the ejection clamp.
  void EvaluateOutliers();

  bool ProbeLoopNeeded() const {
    return config_.push_mode != PushMode::kBlind || config_.outlier.enabled;
  }

  // Health bookkeeping entry points (no-ops when outlier detection is off).
  void NoteReplicaSuccess(ReplicaState& state);
  void NoteReplicaFailure(ReplicaState& state);
  // `latency_outlier` distinguishes the two ejection causes in traces.
  void EjectReplica(ReplicaState& state, bool latency_outlier = false);

  // --- selection index internals (ISSUE 10) ---
  // One lazily invalidated heap candidate: the replica at `pos` had
  // EffectiveLoad `load` when stamp_[pos] was `stamp`. A stamp mismatch
  // means the replica mutated since and the entry is dead weight.
  struct HeapEntry {
    double load;
    uint32_t pos;
    uint32_t stamp;
  };
  static bool EntryGreater(const HeapEntry& a, const HeapEntry& b) {
    if (a.load != b.load) {
      return a.load > b.load;
    }
    return a.pos > b.pos;  // Min-heap tie-break: lowest position wins.
  }

  // Re-derives availability/ejection bits, counters, and (when available)
  // a fresh heap entry for the replica at `pos`. Must run after *every*
  // mutation that can change IsAvailable or EffectiveLoad.
  void TouchReplica(size_t pos);
  void TouchReplica(ReplicaState& state) {
    TouchReplica(static_cast<size_t>(&state - replicas_.data()));
  }
  void RebuildSelectionIndex();
  // Drops dead entries once the heap outgrows the live set; cached loads
  // are recomputed but bit-identical (pure function of unchanged state).
  void CompactSelectionHeap() const;

  Simulator* sim_;
  Network* net_;
  RegionId region_;
  DispatchConfig config_;
  ReplicaSelector* selector_;

  // Flat registry: hot-path scans iterate `replicas_`; `index_` maps
  // ReplicaId -> position (swap-remove keeps it dense on detach).
  std::vector<ReplicaState> replicas_;
  std::unordered_map<ReplicaId, size_t> index_;

  std::deque<Queued> queue_;
  std::unique_ptr<PeriodicTask> probe_task_;
  bool started_ = false;
  Stats stats_;

  // Selection index (ISSUE 10). The heap is mutable because const queries
  // pop stale tops and may compact; both are pure bookkeeping — the set of
  // live (load, pos) candidates they expose never changes.
  mutable std::vector<HeapEntry> heap_;
  std::vector<uint32_t> stamp_;     // Per-position generation stamps.
  std::vector<uint8_t> avail_bit_;  // Cached IsAvailable per position.
  std::vector<uint8_t> ejected_bit_;
  int available_count_ = 0;
  int ejected_count_ = 0;
  const bool selection_oracle_;  // See set_selection_oracle.
  mutable int64_t selection_queries_ = 0;
  int64_t index_touches_ = 0;
};

}  // namespace skywalker

#endif  // SKYWALKER_ROUTING_DISPATCH_ENGINE_H_
