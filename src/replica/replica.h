// Discrete-event model of one LLM inference replica: an SGLang-style engine
// with continuous batching, chunked prefill, a paged KV memory subsystem
// (src/memory/), and a radix-tree prefix cache (paper §2.1).
//
// The model reproduces the observables the load-balancing layer depends on:
//  * a *pending queue* of requests accepted by the engine but not yet in the
//    continuous batch — the signal SP-P probes (§3.3); preempted sequences
//    parked for swap-in count as pending, since the batch cannot admit them;
//  * prefill time proportional to non-cached prompt tokens (≈300 ms for a
//    512-token prompt on an L4, §2.1), so prefix-cache hits directly cut
//    TTFT;
//  * step times of tens of milliseconds that grow with batch size;
//  * a KV capacity that bounds concurrent requests at 20–50 for typical
//    conversation lengths (§3.3), with LRU eviction and policy-driven
//    preemption (recompute or swap-to-host, src/memory/kv_controller.h)
//    under pressure.
//
// Timing model per engine step:
//   duration = step_base + prefill_tokens · prefill_per_token
//            + decoding_seqs · decode_per_seq
//
// Stable stretches (DESIGN.md §13): when the next steps of a batch differ
// only by context growth — pure decode, no completion, no admission to try,
// no reclaim — MaybeStep plans them all, records what each sequence's
// ledger does over them, and schedules one event at the end of the last
// one. Every reader first walks the step boundaries the simulator has run
// past, once each; only the KV ledger waits. Value readers (Probe,
// Snapshot, the memory getters) add the plan's growth at the walked
// boundaries to it, and reference readers and mutators apply it (Sync).
// Every observable matches the per-step path.
//
// Prompt KV is published to the prefix cache when prefill completes (SGLang
// inserts computed KV into its radix tree immediately, so concurrent
// identical prompts share from that point); generated tokens are published
// at completion.
//
// Memory accounting runs through one unified block ledger (ISSUE 5,
// DESIGN.md §9): the KvController owns the page pool, the radix cache's
// nodes charge their per-node page spans straight into it, and sequences
// hold path-aligned tables whose pages transfer to the cache by reference
// when prefill completes. Admission is a free-block watermark check over
// the exact pooled occupancy, and ReclaimMemory picks preemption victims
// whose treatment the configured policy decides. The default configuration
// (kv_block_size_tokens == 1, no watermark, recompute preemption) is the
// *coarse compatibility mode*, bit-identical to the seed token-counter
// accounting.

#ifndef SKYWALKER_REPLICA_REPLICA_H_
#define SKYWALKER_REPLICA_REPLICA_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "src/cache/prefix_cache.h"
#include "src/common/sim_time.h"
#include "src/memory/kv_controller.h"
#include "src/sim/simulator.h"
#include "src/workload/request.h"

namespace skywalker {

struct ReplicaConfig {
  // KV memory in tokens. Default models an L4 (24 GB) serving
  // Llama-3.1-8B: ~6 GB free for KV at 128 KiB/token ≈ 49K tokens.
  int64_t kv_capacity_tokens = 49152;

  // Engine cap on batch size (vLLM/SGLang max_num_seqs analogue).
  int max_running_requests = 64;

  // Chunked-prefill budget per engine step.
  int64_t max_prefill_tokens_per_step = 1024;

  // Admission headroom reserved per request for its future output.
  int64_t output_reserve_tokens = 128;

  // Timing constants (microseconds). Defaults calibrated so a 512-token
  // prefill costs ~300 ms (paper §2.1) and decode steps are tens of ms.
  // The per-context-token term models attention/KV-bandwidth cost, which
  // gives decode throughput its knee: beyond a few dozen sequences, adding
  // batch slots stops paying (as on a real L4).
  double step_base_us = 20000.0;
  double prefill_us_per_token = 550.0;
  double decode_us_per_seq = 400.0;
  double decode_us_per_context_token = 0.5;

  bool enable_prefix_cache = true;

  // Record a memory-utilization sample every N engine steps (0 disables).
  int memory_sample_every_steps = 4;

  // --- paged KV memory (src/memory/, ISSUE 4/5) ------------------------
  // Page size in tokens. 1 = coarse compatibility mode (seed-identical
  // token-granular accounting); real engines use 16 or 32.
  int32_t kv_block_size_tokens = 1;
  // Admission keeps this many blocks free as decode headroom.
  int64_t kv_watermark_blocks = 0;
  // What preemption does to its victim: recompute (seed behavior) or
  // swap-to-host with modeled PCIe transfer latency (KvConfig's
  // swap_us_per_token).
  PreemptPolicy kv_preempt_policy = PreemptPolicy::kRecompute;

  // Victim selection for the prefix cache under memory pressure (ISSUE 8).
  // kLruLeaf is the behavior-frozen seed policy; kColdSubtree evicts whole
  // cold subtrees ranked by pages-per-expected-future-hit.
  EvictionPolicy cache_eviction_policy = EvictionPolicy::kLruLeaf;

  KvConfig kv() const {
    KvConfig config;
    config.capacity_tokens = kv_capacity_tokens;
    config.block_size_tokens = kv_block_size_tokens;
    config.watermark_blocks = kv_watermark_blocks;
    config.preempt_policy = kv_preempt_policy;
    return config;
  }
};

// The versioned heartbeat-probe payload (ISSUE 7): everything a balancer
// routes on, in one struct with exactly one construction site
// (Replica::Probe) and one decode site (the dispatch engine's probe-response
// handler). `version` is a per-replica monotonic probe counter. The EWMA
// decode-latency sample feeds passive latency-outlier detection
// (src/routing/health.h); full diagnostic detail stays on
// Replica::LoadSnapshot, which metrics and tests read directly.
struct ProbePayload {
  int64_t version = 0;
  int pending = 0;        // Accepted, not in the batch (incl. swapped).
  int running = 0;
  int free_capacity = 0;  // Admission headroom (see Replica::FreeCapacity).
  int64_t free_blocks = 0;
  int64_t total_blocks = 0;
  int64_t swapped = 0;
  // EWMA over decode steps of the step's wall time — the per-token service
  // latency a straggler inflates, whatever its load.
  double ewma_decode_us_per_token = 0.0;
  int64_t latency_samples = 0;  // Decode steps folded into the EWMA.
};

class Replica {
 public:
  struct Handlers {
    // First output token produced (prefill finished). `cached_tokens` is the
    // prefix-cache hit length at admission.
    std::function<void(const Request&, int64_t cached_tokens)> on_first_token;
    // All output tokens produced.
    std::function<void(const Request&, int64_t cached_tokens)> on_complete;
  };

  struct Stats {
    int64_t enqueued = 0;
    int64_t completed = 0;
    int64_t prefill_tokens_computed = 0;
    int64_t cached_tokens_reused = 0;
    int64_t output_tokens_generated = 0;
    int64_t preemptions = 0;  // Recompute + swap victims.
    int64_t dropped_requests = 0;  // Arrivals while failed (vanish, §10).
    int64_t engine_steps = 0;    // Finished steps (one kEngineStep each).
    double busy_us = 0;          // Total time of the finished steps.
    double peak_memory_utilization = 0;
    int peak_running = 0;
    int peak_pending = 0;
  };

  // What a heartbeat probe RPC reports (§3.3 + ISSUE 4/5): queue state plus
  // the paged-memory headroom signals balancers can route on. Since ISSUE 5
  // the block figures are *exact* — computed from the unified ledger, not
  // estimated from token counters.
  struct LoadSnapshot {
    int pending = 0;        // Accepted, not in the batch (incl. swapped).
    int running = 0;
    int free_capacity = 0;  // Admission headroom (see FreeCapacity).
    // Blocks a new admission could claim right now: raw free pages plus
    // pages that would drain if every unpinned cache node were evicted
    // (a warm LRU cache keeps raw free blocks at ~0), minus committed
    // future.
    int64_t free_blocks = 0;
    int64_t total_blocks = 0;
    // Exact occupancy of the radix cache in pages, and the evictable
    // subset (pages whose every reference comes from unpinned nodes).
    int64_t cache_blocks = 0;
    int64_t evictable_blocks = 0;
    int64_t fragmentation_tokens = 0;
    int64_t preemptions = 0;  // Cumulative.
    int64_t swapped = 0;      // Currently swapped out or restoring.
  };

  Replica(Simulator* sim, ReplicaId id, RegionId region,
          const ReplicaConfig& config);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  // Test-only oracle: replicas constructed while this is on plan one engine
  // step per event — the per-step path that stable-stretch coalescing must
  // reproduce bit for bit (DESIGN.md §13). Process-wide so whole fleets
  // built by Run can take the oracle arm; set it before building them.
  static void set_per_step_oracle(bool on);

  // Request arrival at the replica (network latency already applied by the
  // caller). Enters the pending queue until the batch admits it.
  void Enqueue(Request req, Handlers handlers);

  // --- Probe interface (what a heartbeat RPC would report, §3.3) ---

  // Requests not yet scheduled into the continuous batch. "> 0" is the
  // paper's definition of a full replica. Swapped-out or restoring
  // sequences count: they are accepted work the batch cannot hold.
  int pending_count() const {
    return static_cast<int>(pending_.size()) + swapped_count();
  }
  int running_count() const { return static_cast<int>(running_.size()); }
  // LB-visible total load (outstanding = pending + running).
  int outstanding_count() const { return pending_count() + running_count(); }
  // Sequences preempted to host memory (incl. in-flight restores).
  int swapped_count() const {
    return static_cast<int>(swapped_.size() + restoring_.size());
  }

  // Resident KV in tokens: cache content plus sequence-private tokens
  // (token positions are disjoint even where they share a boundary page).
  int64_t memory_used_tokens() const;
  double memory_utilization() const;

  // One-call probe payload: queue depths plus paged-memory headroom. Mid-
  // stretch it walks the passed boundaries and adds their ledger growth to
  // the ledger without applying it.
  LoadSnapshot Snapshot() const;

  // The heartbeat-probe RPC body: stamps the next probe version and
  // attaches the decode-latency EWMA, which the walk has folded up to now.
  // Non-const on purpose — probing advances the version counter, and
  // keeping it here gives the payload exactly one construction site.
  ProbePayload Probe();

  // KV held by *running* requests (pinned cache paths + private tokens).
  // Excludes cached-but-idle content, which an LRU cache keeps resident
  // anyway; this is the "KV cache memory utilization" a serving dashboard
  // (and the paper's Fig. 4b) reports.
  int64_t active_memory_tokens() const;
  double active_memory_utilization() const;

  // Output reserve still committed to admitted sequences. Returns to zero
  // whenever the batch drains — completion, abort, and preemption all hand
  // their reserve back (regression-tested; ISSUE 4).
  int64_t reserved_future_tokens() const {
    return kv_.committed_reserve_tokens() - Projected().reserve_tokens;
  }

  ReplicaId id() const { return id_; }
  RegionId region() const { return region_; }
  const ReplicaConfig& config() const { return config_; }
  const PrefixCache& cache() const {
    Sync();
    return cache_;
  }
  const Stats& stats() const {
    Sync();
    return stats_;
  }
  const KvController& kv() const {
    Sync();
    return kv_;
  }

  // Fraction of wall time the engine executed steps since construction.
  double BusyFraction() const;

  // (time, utilization in [0,1]) samples for memory time-series figures.
  const std::vector<std::pair<SimTime, double>>& memory_series() const {
    Sync();
    return memory_series_;
  }

  // Drops all queued and running work (used by failure-injection tests).
  // Running requests vanish without callbacks, like a crashed engine.
  void Crash();

  // --- fault injection (DESIGN.md §10) ---
  // Hard failure: crashes (running work vanishes) and stops serving — later
  // arrivals are dropped without callbacks and probes go unanswered, so an
  // outlier-detecting balancer observes timeouts, not refusals.
  void Fail();
  void Recover();
  bool serving() const { return serving_; }

  // Gray-failure injection: multiplies every engine-step duration (a 6x
  // straggler decodes 6x slower but stays reachable — the hard case for
  // least-loaded routing). 1.0 is the identity and leaves timing
  // bit-identical to a build without the knob.
  void SetSlowdown(double factor);
  double slowdown() const { return slowdown_; }

  // Walks every stable-stretch step boundary the simulator has run past,
  // then applies the walked boundaries' growth to the KV ledger, bringing
  // the replica to the state the per-step path would have at this point of
  // the event order. Mutators and the reference-returning readers (stats,
  // kv, cache, memory_series) call it first; value readers only walk. It
  // changes no observable, so it is const. Call it before exporting a
  // trace, so every step finished by the deadline is in it.
  void Sync() const {
    Walk();
    if (walked_ > 0) {
      const_cast<Replica*>(this)->ApplyWalked();
    }
  }

  // Recomputes the incrementally maintained probe inputs from scratch — the
  // batch's uncached-token sum behind FreeCapacity, the remaining
  // reserves a stretch's projection starts from, and the cache invariants
  // behind the snapshot's block figures (tests only).
  bool CheckInvariants() const;

 private:
  struct Seq {
    Request req;
    Handlers handlers;
    int64_t cached_len = 0;         // Admission-time hit (reporting).
    PinId pin = kInvalidPin;
    KvController::SeqId kv = KvController::kInvalidSeq;
    int64_t kv_base = 0;            // Path position of the table's token 0.
    int64_t prefill_remaining = 0;  // Prompt tokens still to compute.
    int64_t generated = 0;          // Output tokens produced so far.
    bool prefill_done = false;
    bool first_token_sent = false;
    int64_t prefill_alloc = 0;      // Tokens assigned in the current step.
    // Planned to decode one token in the current step. FinishStep applies
    // decode only to planned sequences, so a swap-in joining mid-step never
    // receives a token the step was not priced (or EWMA-sampled) for.
    bool decode_alloc = false;
    SimTime decode_start = 0;       // When the first output token fired.

    int64_t prompt_len() const { return req.prompt_tokens(); }
    int64_t output_len() const { return req.output_tokens(); }
    // Prompt tokens the admission-time cache hit did not cover.
    int64_t uncached_len() const { return prompt_len() - cached_len; }
  };

  // A sequence preempted to host memory (kSwap policy). Keeps its prefix-
  // cache pin: the shared blocks stay device-resident (still referenced by
  // the radix tree), only private KV crossed PCIe.
  struct SwappedSeq {
    Seq seq;
    int64_t swap_tokens = 0;  // Private KV held on the host.
    SimTime ready_at = 0;     // Swap-out transfer completion.
  };

  // A swap-in in flight: blocks are charged, arrival is scheduled.
  struct RestoringSeq {
    Seq seq;
    int64_t ticket = 0;
    EventId arrival = kInvalidEventId;
  };

  // Output reserve still unconsumed by `seq` (what re-admission and
  // swap-in must re-commit).
  int64_t ReserveRemaining(const Seq& seq) const;

  // Moves pending requests into the batch while memory and slots allow;
  // swapped-out sequences re-enter first (resume priority).
  void Admit();
  void MaybeStartSwapIns();
  void FinishSwapIn(int64_t ticket);

  // Starts an engine step if work exists and none is in flight — or a
  // stable stretch of steps, scheduled as one event (DESIGN.md §13).
  void MaybeStep();

  // Wall duration of a step with this plan, slowdown included: the one
  // formula every planned step, real or virtual, goes through.
  double StepUs(int64_t prefill_tokens, int decode_count,
                int64_t decode_context_tokens) const;

  // How many steps, counting the pure-decode step just planned, can run as
  // one stretch: every boundary before the last must leave nothing to
  // admit, no sequence complete and no block to reclaim, and no sequence's
  // first token may copy a shared tail. 1 = no stretch. Records the
  // stretch's ledger plan in `stretch_`. `min_remaining` is the fewest
  // output tokens any sequence still owes.
  int64_t PlanStretch(int64_t min_remaining);

  // The step event: syncs the stretch's earlier boundaries, then finishes
  // the step in flight.
  void OnStepEvent();

  // Applies the effects of the step that just finished. `step_us` is the
  // step's wall duration and `decode_count` how many sequences decoded a
  // token in it — every such sequence experienced the full step duration as
  // its inter-token latency, which is the decode-latency sample.
  void FinishStep(double step_us, int decode_count);

  // Counts a finished step: step totals and the decode-latency EWMA fold.
  void CountStep(double step_us, int decode_count);

  // --- stable stretches (DESIGN.md §13) ---
  // Every reader's first step: walks the stretch boundaries the simulator
  // has run past (Simulator::HasRun), once each. Const for the readers'
  // sake, like Sync.
  void Walk() const {
    if (stretch_steps_ > 0 && sim_->HasRun(boundary_)) {
      const_cast<Replica*>(this)->WalkBoundaries();
    }
  }
  // Walk's slow path. Per boundary, the per-step path's FinishStep for a
  // pure decode step that completes nothing (count and EWMA fold, output
  // tokens, trace record, memory sample from the plan's totals) and its
  // plan of the next step. The ledger waits: it counts in `walked_`.
  void WalkBoundaries();
  // Sync's second half: every sequence's tokens of the walked boundaries in
  // one ledger call.
  void ApplyWalked();
  // Ends the stretch at the next boundary (after Sync): cancels its end
  // event and schedules the event the per-step path has pending there,
  // at the same order position. Mutators that change what the next plan
  // would be call it.
  void CutStretch();
  // Walks, then returns the ledger growth of the walked boundaries: what
  // value readers add to the ledger (zero when none waits).
  KvController::DecodeGrowth Projected() const;
  // End of the step in flight, and the order position of its boundary.
  SimTime StepEnd() const;
  EventOrder StepEndOrder() const {
    return sim_->StepOrder(StepEnd(), step_start_, region_, step_ordinal_);
  }
  // Whether the batch has a slot for an admission or a swap-in.
  bool HasFreeSlot() const {
    return running_.size() + restoring_.size() <
           static_cast<size_t>(config_.max_running_requests);
  }

  // Handles a seq whose prefill completed in this step: publishes the
  // prompt's pages to the shared cache by reference transfer and drops the
  // sequence's claim on the published span.
  void OnPrefillComplete(Seq& seq);

  void CompleteSeq(Seq& seq);

  // Frees memory under pressure: cache eviction first, then policy-driven
  // preemption of the youngest running request (recompute or swap-out).
  void ReclaimMemory();

  // Post-step memory sample, stamped with the finishing step's order, of
  // the ledger `growth` past its applied state.
  void SampleMemory(const EventOrder& at,
                    const KvController::DecodeGrowth& growth);

  // Value readers over the ledger `growth` past its applied state.
  int64_t MemoryUsedTokens(const KvController::DecodeGrowth& growth) const;
  int64_t ActiveMemoryTokens(const KvController::DecodeGrowth& growth) const;
  // Allocated-but-unoccupied page slots across the whole pool — the exact
  // figure: pages shared between the cache and a sequence count once, with
  // both sides' tokens occupying them.
  int64_t FragmentationTokens(const KvController::DecodeGrowth& growth) const;
  // Engine-reported admission headroom: how many more requests of typical
  // size the continuous batch could admit right now, bounded by both batch
  // slots and KV memory. Heartbeat probes report this alongside the pending
  // count so balancers can bound their optimistic pushes between probes.
  int FreeCapacity(const KvController::DecodeGrowth& growth) const;
  double Utilization(int64_t tokens) const {
    return static_cast<double>(tokens) /
           static_cast<double>(config_.kv_capacity_tokens);
  }

  // Every cache mutation that can evict — Evict, an over-capacity Insert,
  // Clear — runs through TracingEvictions, which emits one kCacheEvict
  // record when `mutate` removed at least one node.
  template <typename Fn>
  void TracingEvictions(Fn&& mutate);
  // cache_.Evict under TracingEvictions; returns the blocks freed.
  int64_t EvictCache(int64_t blocks);

  Simulator* sim_;
  ReplicaId id_;
  RegionId region_;
  KvController kv_;     // Owns the page pool; declared before the cache,
  PrefixCache cache_;   // which charges its node spans into kv_'s allocator.
  // Declared after kv_ and cache_: with the config ahead of them, member
  // placement alone made kv_wall's run_s ~4% slower (4-vCPU x86 host).
  ReplicaConfig config_;
  // Tie-break among this simulator's step events (Simulator::StepOrder).
  uint32_t step_ordinal_;

  bool serving_ = true;
  double slowdown_ = 1.0;
  int64_t probe_version_ = 0;  // Last ProbePayload::version stamped.
  // Inter-token decode-latency EWMA, folded per decode step (alpha = 0.25):
  // a straggler's slowdown becomes probe-visible within a few steps instead
  // of only after whole sequences complete, which is what makes passive
  // latency-outlier ejection react on a useful timescale.
  double decode_ewma_us_per_token_ = 0.0;
  int64_t latency_samples_ = 0;

  std::deque<Seq> pending_;
  std::vector<Seq> running_;  // Admission order (oldest first).
  // Σ uncached_len() over running_, updated wherever running_ changes, so
  // FreeCapacity (every probe) is O(1).
  int64_t running_uncached_tokens_ = 0;
  std::deque<SwappedSeq> swapped_;  // Swap-out order (oldest first).
  std::vector<RestoringSeq> restoring_;
  int64_t next_restore_ticket_ = 0;
  bool step_in_flight_ = false;
  // The step in flight: start, duration, decode count, and the context
  // tokens its decode cost was priced on (each stretch step adds one per
  // sequence).
  SimTime step_start_ = 0;
  double step_us_ = 0;
  int step_decode_count_ = 0;
  int64_t step_context_tokens_ = 0;
  // Steps of the stable stretch still to run after the one in flight; each
  // starts at a virtual boundary that Walk passes. `boundary_` is the order
  // position of the next one (StepEndOrder), kept for Walk's check.
  int64_t stretch_steps_ = 0;
  // Boundaries walked whose ledger growth Sync has not applied. Beside
  // stretch_steps_, so a probe outside a stretch reads no further line.
  int64_t walked_ = 0;
  EventOrder boundary_;
  EventId step_event_ = kInvalidEventId;  // Ends the stretch's last step.
  // The stretch's ledger plan: one run per running sequence, in batch
  // order, rebased whenever Sync applies it. Reused across stretches.
  std::vector<KvController::DecodeRun> stretch_;
  bool per_step_;  // The test-only oracle (set_per_step_oracle).
  // Deduplicates watermark-rejection counting: one count per blocked
  // request's episode (keyed by id — the head can rotate under preemption).
  RequestId watermark_reject_id_ = 0;
  bool watermark_reject_id_valid_ = false;

  Stats stats_;
  std::vector<std::pair<SimTime, double>> memory_series_;

};

}  // namespace skywalker

#endif  // SKYWALKER_REPLICA_REPLICA_H_
