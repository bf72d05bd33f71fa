#include "src/replica/replica.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/trace.h"

namespace skywalker {

namespace {

std::atomic<bool> g_per_step_oracle{false};

// Event delay of a step: what ScheduleAfter(static_cast<SimDuration>(us))
// would add to the clock.
SimDuration StepDelay(double step_us) {
  return std::max<SimDuration>(static_cast<SimDuration>(step_us), 0);
}

}  // namespace

void Replica::set_per_step_oracle(bool on) {
  g_per_step_oracle.store(on, std::memory_order_relaxed);
}

Replica::Replica(Simulator* sim, ReplicaId id, RegionId region,
                 const ReplicaConfig& config)
    : sim_(sim),
      id_(id),
      region_(region),
      kv_(config.kv()),
      cache_(config.kv_capacity_tokens, &kv_.allocator(),
             config.kv_block_size_tokens, config.cache_eviction_policy),
      config_(config),
      step_ordinal_(sim->AssignStepOrdinal()),
      per_step_(g_per_step_oracle.load(std::memory_order_relaxed)) {}

void Replica::Enqueue(Request req, Handlers handlers) {
  SKYWALKER_CHECK(!req.output.empty()) << "request must generate >= 1 token";
  Sync();
  if (!serving_) {
    // A crashed engine accepts nothing; the request vanishes exactly like
    // in-flight work did at the crash. The dispatching balancer's request
    // timeout is what converts this silence into a client-visible error.
    ++stats_.dropped_requests;
    if (Tracer* t = sim_->tracer()) {
      EmitTrace(t, sim_->now(), TraceEventType::kDrop, region_, id_,
                static_cast<int64_t>(req.id));
    }
    return;
  }
  Seq seq;
  seq.req = std::move(req);
  seq.handlers = std::move(handlers);
  pending_.push_back(std::move(seq));
  ++stats_.enqueued;
  stats_.peak_pending = std::max(stats_.peak_pending, pending_count());
  if (Tracer* t = sim_->tracer()) {
    EmitTrace(t, sim_->now(), TraceEventType::kReplicaArrive, region_, id_,
              static_cast<int64_t>(pending_.back().req.id), pending_count());
  }
  if (HasFreeSlot()) {
    CutStretch();  // The next boundary's Admit has this request to try.
  }
  MaybeStep();
}

int64_t Replica::ReserveRemaining(const Seq& seq) const {
  return std::max<int64_t>(0, config_.output_reserve_tokens - seq.generated);
}

int64_t Replica::memory_used_tokens() const {
  return MemoryUsedTokens(Projected());
}

int64_t Replica::MemoryUsedTokens(
    const KvController::DecodeGrowth& growth) const {
  return cache_.size_tokens() + kv_.seq_resident_tokens() + growth.tokens;
}

int64_t Replica::ActiveMemoryTokens(
    const KvController::DecodeGrowth& growth) const {
  return cache_.pinned_tokens() + kv_.seq_resident_tokens() + growth.tokens;
}

int64_t Replica::FragmentationTokens(
    const KvController::DecodeGrowth& growth) const {
  return (kv_.used_blocks() + growth.blocks) * config_.kv_block_size_tokens -
         MemoryUsedTokens(growth);
}

int Replica::FreeCapacity(const KvController::DecodeGrowth& growth) const {
  int free_slots = config_.max_running_requests -
                   static_cast<int>(running_.size()) - pending_count();
  if (free_slots <= 0) {
    return 0;
  }
  // Memory headroom in units of a typical request: average the footprint of
  // the current batch, falling back to a conservative default when idle.
  int64_t free_tokens = config_.kv_capacity_tokens -
                        MemoryUsedTokens(growth) -
                        (kv_.committed_tokens() - growth.reserve_tokens);
  if (free_tokens <= 0) {
    return 0;
  }
  int64_t per_request = 512 + config_.output_reserve_tokens;
  if (!running_.empty()) {
    // Σ(uncached + reserve) over the batch, from the running sum.
    const int64_t n = static_cast<int64_t>(running_.size());
    const int64_t total =
        running_uncached_tokens_ + n * config_.output_reserve_tokens;
    per_request = std::max<int64_t>(64, total / n);
  }
  int by_memory = static_cast<int>(free_tokens / per_request);
  return std::max(0, std::min(free_slots, by_memory));
}

Replica::LoadSnapshot Replica::Snapshot() const {
  // Mid-stretch, the passed boundaries only grow the sequence side of the
  // ledger; the cache, the queues and the preemption count are frozen.
  const KvController::DecodeGrowth growth = Projected();
  LoadSnapshot snap;
  snap.pending = pending_count();
  snap.running = running_count();
  snap.free_capacity = FreeCapacity(growth);
  // Routing headroom, exact (ISSUE 5): pages free in the pool plus pages a
  // full eviction of unpinned cache content would return (raw free blocks
  // read ~0 forever once the LRU cache warms up — the cache deliberately
  // keeps otherwise-idle pages resident), minus committed future. In coarse
  // mode this equals the seed estimate capacity - active - committed.
  PrefixCache::BlockOccupancy occ = cache_.CountBlocks();
  snap.cache_blocks = occ.held_blocks;
  snap.evictable_blocks = occ.evictable_blocks;
  snap.free_blocks = std::max<int64_t>(
      0, (kv_.free_blocks() - growth.blocks) + occ.evictable_blocks -
             (kv_.committed_blocks() - growth.reserve_blocks));
  snap.total_blocks = kv_.total_blocks();
  snap.fragmentation_tokens = FragmentationTokens(growth);
  snap.preemptions = stats_.preemptions;
  snap.swapped = swapped_count();
  return snap;
}

ProbePayload Replica::Probe() {
  LoadSnapshot snap = Snapshot();
  ProbePayload payload;
  payload.version = ++probe_version_;
  payload.pending = snap.pending;
  payload.running = snap.running;
  payload.free_capacity = snap.free_capacity;
  payload.free_blocks = snap.free_blocks;
  payload.total_blocks = snap.total_blocks;
  payload.swapped = snap.swapped;
  // Snapshot walked every boundary that has run into the EWMA.
  payload.ewma_decode_us_per_token = decode_ewma_us_per_token_;
  payload.latency_samples = latency_samples_;
  return payload;
}

int64_t Replica::active_memory_tokens() const {
  return ActiveMemoryTokens(Projected());
}

void Replica::Admit() {
  MaybeStartSwapIns();
  // Strict resume priority: while any swapped-out sequence is still waiting
  // to come back, fresh pending requests must not consume the memory its
  // restore needs — otherwise a stream of small admissions can starve a
  // large swap-in indefinitely. (The wait is bounded: a completion or the
  // swap-out transfer's completion poke re-enters here, and the swap-in
  // claims the freed blocks first.)
  if (!swapped_.empty()) {
    return;
  }
  while (!pending_.empty() && HasFreeSlot()) {
    Seq& candidate = pending_.front();
    const PrefixCache::MatchRef match =
        cache_.MatchAndRef(candidate.req.prompt, sim_->now());
    // A fully cached prompt still recomputes its last token so the engine
    // produces the first output token (SGLang does the same).
    const int64_t cached =
        std::min(match.cached_len, candidate.prompt_len() - 1);
    const int64_t prefill_need = candidate.prompt_len() - cached;
    // The admission check prices a full fresh request's reserve; the commit
    // below re-prices for already-generated tokens (a re-admitted
    // preemption victim).
    const int64_t reserve = config_.output_reserve_tokens;
    if (!kv_.CanAdmit(prefill_need, reserve)) {
      EvictCache(kv_.AdmissionDeficitBlocks(prefill_need, reserve));
    }
    if (!kv_.CanAdmit(prefill_need, reserve) &&
        (!running_.empty() || !restoring_.empty())) {
      // Not enough memory; wait for completions. (Pinned content cannot be
      // evicted, and running seqs release memory as they finish.) Count a
      // watermark rejection once per blocked request's episode — keyed by
      // request id, since Admit re-runs every engine step and preemption
      // can rotate the queue head mid-episode.
      if (kv_.CanAdmitIgnoringWatermark(prefill_need, reserve) &&
          (!watermark_reject_id_valid_ ||
           watermark_reject_id_ != candidate.req.id)) {
        kv_.NoteWatermarkRejection();
        watermark_reject_id_ = candidate.req.id;
        watermark_reject_id_valid_ = true;
        if (Tracer* t = sim_->tracer()) {
          EmitTrace(t, sim_->now(), TraceEventType::kWatermarkReject, region_,
                    id_, static_cast<int64_t>(candidate.req.id),
                    kv_.free_blocks(), kv_.committed_blocks());
        }
      }
      cache_.Unref(match.pin);
      break;
    }
    // Either it fits, or the batch is empty and we force-admit to guarantee
    // progress (real engines recompute/preempt to handle this case).
    Seq seq = std::move(candidate);
    pending_.pop_front();
    if (watermark_reject_id_valid_ && watermark_reject_id_ == seq.req.id) {
      watermark_reject_id_valid_ = false;  // Its episode ended in admission.
    }
    seq.cached_len = cached;
    seq.pin = match.pin;
    seq.kv_base = cached;
    seq.prefill_remaining = seq.prompt_len() - cached;
    // The table is path-aligned: its pages sit at the positions the radix
    // tree would charge them, so publishing at prefill completion is a
    // reference transfer.
    seq.kv = kv_.AdmitSeq(
        seq.prefill_remaining, ReserveRemaining(seq),
        static_cast<int32_t>(cached % config_.kv_block_size_tokens));
    seq.prefill_done = false;
    seq.prefill_alloc = 0;
    seq.decode_alloc = false;
    stats_.cached_tokens_reused += cached;
    running_uncached_tokens_ += seq.uncached_len();
    running_.push_back(std::move(seq));
    stats_.peak_running =
        std::max(stats_.peak_running, static_cast<int>(running_.size()));
    if (Tracer* t = sim_->tracer()) {
      const Seq& admitted = running_.back();
      EmitTrace(t, sim_->now(), TraceEventType::kAdmit, region_, id_,
                static_cast<int64_t>(admitted.req.id), admitted.cached_len,
                admitted.prefill_remaining);
    }
  }
}

void Replica::MaybeStartSwapIns() {
  while (!swapped_.empty() && HasFreeSlot()) {
    SwappedSeq& front = swapped_.front();
    if (sim_->now() < front.ready_at) {
      break;  // The swap-out completion poke re-enters here.
    }
    const int64_t tokens = front.swap_tokens;
    const int64_t reserve = ReserveRemaining(front.seq);
    const int64_t prefill = front.seq.prefill_remaining;
    if (!kv_.CanAdmitRestore(tokens, prefill, reserve)) {
      EvictCache(kv_.RestoreDeficitBlocks(tokens, prefill, reserve));
    }
    if (!kv_.CanAdmitRestore(tokens, prefill, reserve) &&
        !(running_.empty() && restoring_.empty())) {
      break;  // Wait for completions; a drained engine forces the restore.
    }
    RestoringSeq restoring;
    restoring.seq = std::move(front.seq);
    swapped_.pop_front();
    SimDuration transfer = 0;
    restoring.seq.kv = kv_.BeginSwapIn(
        tokens, restoring.seq.prefill_remaining, reserve,
        static_cast<int32_t>(restoring.seq.kv_base %
                             config_.kv_block_size_tokens),
        &transfer);
    restoring.ticket = next_restore_ticket_++;
    const int64_t ticket = restoring.ticket;
    restoring.arrival =
        sim_->ScheduleAfter(transfer, [this, ticket] { FinishSwapIn(ticket); });
    if (Tracer* t = sim_->tracer()) {
      EmitTrace(t, sim_->now(), TraceEventType::kKvSwapIn, region_, id_,
                static_cast<int64_t>(restoring.seq.req.id), tokens, 0,
                static_cast<double>(transfer));
    }
    restoring_.push_back(std::move(restoring));
  }
}

void Replica::FinishSwapIn(int64_t ticket) {
  for (auto it = restoring_.begin(); it != restoring_.end(); ++it) {
    if (it->ticket != ticket) {
      continue;
    }
    Seq seq = std::move(it->seq);
    restoring_.erase(it);
    running_uncached_tokens_ += seq.uncached_len();
    running_.push_back(std::move(seq));
    stats_.peak_running =
        std::max(stats_.peak_running, static_cast<int>(running_.size()));
    if (Tracer* t = sim_->tracer()) {
      EmitTrace(t, sim_->now(), TraceEventType::kRestore, region_, id_,
                static_cast<int64_t>(running_.back().req.id));
    }
    MaybeStep();
    return;
  }
}

void Replica::MaybeStep() {
  if (step_in_flight_) {
    return;
  }
  Admit();
  if (running_.empty()) {
    return;
  }
  // Plan the step: chunked prefill up to the per-step budget plus one
  // decode token per decode-phase seq (mixed batch, SGLang-style).
  int64_t prefill_budget = config_.max_prefill_tokens_per_step;
  int64_t prefill_total = 0;
  int decode_count = 0;
  int64_t decode_context_tokens = 0;
  int64_t min_remaining = std::numeric_limits<int64_t>::max();
  for (Seq& seq : running_) {
    seq.prefill_alloc = 0;
    seq.decode_alloc = false;
    if (!seq.prefill_done) {
      if (prefill_budget > 0) {
        seq.prefill_alloc = std::min(seq.prefill_remaining, prefill_budget);
        prefill_budget -= seq.prefill_alloc;
        prefill_total += seq.prefill_alloc;
      }
    } else if (seq.generated < seq.output_len()) {
      seq.decode_alloc = true;
      ++decode_count;
      decode_context_tokens += seq.prompt_len() + seq.generated;
      min_remaining = std::min(min_remaining, seq.output_len() - seq.generated);
    }
  }
  if (prefill_total == 0 && decode_count == 0) {
    return;  // Nothing to do (all seqs stalled behind the prefill budget).
  }
  step_in_flight_ = true;
  step_start_ = sim_->now();
  step_us_ = StepUs(prefill_total, decode_count, decode_context_tokens);
  step_decode_count_ = decode_count;
  step_context_tokens_ = decode_context_tokens;
  // A pure-decode batch may run a stable stretch: walk its step durations
  // to the start of its last step, which the end event carries as its
  // scheduling time. Only steps at least 1 us long end at a virtual
  // boundary, so the per-step path would have scheduled each boundary's
  // event strictly before it runs (what Simulator::HasRun relies on).
  const bool pure_decode =
      prefill_total == 0 && static_cast<size_t>(decode_count) == running_.size();
  const int64_t steps = pure_decode ? PlanStretch(min_remaining) : 1;
  SimTime last_start = step_start_;
  double last_us = step_us_;
  int64_t context = decode_context_tokens;
  int64_t planned = 1;
  while (planned < steps && StepDelay(last_us) >= 1) {
    last_start += StepDelay(last_us);
    context += decode_count;
    last_us = StepUs(0, decode_count, context);
    ++planned;
  }
  stretch_steps_ = planned - 1;
  boundary_ = StepEndOrder();
  step_event_ = sim_->ScheduleStep(last_start + StepDelay(last_us), last_start,
                                   region_, step_ordinal_,
                                   [this] { OnStepEvent(); });
}

double Replica::StepUs(int64_t prefill_tokens, int decode_count,
                       int64_t decode_context_tokens) const {
  double duration_us =
      config_.step_base_us +
      static_cast<double>(prefill_tokens) * config_.prefill_us_per_token +
      static_cast<double>(decode_count) * config_.decode_us_per_seq +
      static_cast<double>(decode_context_tokens) *
          config_.decode_us_per_context_token;
  // Gray-failure knob: a straggler executes every step slower. The
  // multiplication by the default 1.0 is exact for finite doubles, so
  // unslowed replicas keep bit-identical step times.
  return duration_us * slowdown_;
}

int64_t Replica::PlanStretch(int64_t min_remaining) {
  // Admit must have nothing to try at any boundary: no swap to resume, and
  // no pending request unless the batch is full (a memory-blocked head
  // would be retried, re-stamping LRU times and maybe evicting).
  if (per_step_ || !swapped_.empty() || !restoring_.empty() ||
      (!pending_.empty() && HasFreeSlot()) || min_remaining <= 1) {
    return 1;
  }
  // What each sequence's ledger does over the stretch.
  stretch_.clear();
  for (const Seq& seq : running_) {
    stretch_.push_back(kv_.PlanDecode(seq.kv));
  }
  // No sequence completes before the last step.
  int64_t steps = min_remaining;
  // The ledger never needs reclaim at a boundary before the last: the
  // blocks m steps of decode allocate must fit the headroom for m < steps.
  const int64_t headroom = kv_.total_blocks() - kv_.used_blocks();
  auto grown = [this](int64_t m) { return kv_.DecodeBlocks(stretch_, m); };
  if (grown(steps - 1) > headroom) {
    // The largest m < steps - 1 that still fits (growth is monotone).
    int64_t fits = 0;
    int64_t overflows = steps - 1;
    while (overflows - fits > 1) {
      const int64_t mid = fits + (overflows - fits) / 2;
      (grown(mid) <= headroom ? fits : overflows) = mid;
    }
    steps = fits + 1;
  }
  return steps;
}

SimTime Replica::StepEnd() const { return step_start_ + StepDelay(step_us_); }

void Replica::OnStepEvent() {
  step_event_ = kInvalidEventId;
  Sync();  // Every earlier boundary of the stretch precedes this event.
  FinishStep(step_us_, step_decode_count_);
}

void Replica::WalkBoundaries() {
  // Boundary by boundary, FinishStep's bookkeeping for a pure decode step
  // that completes no sequence, in its order. The ledger is still where
  // Sync last applied it, so memory samples read the plan's totals.
  do {
    ++walked_;
    --stretch_steps_;
    const EventOrder at = boundary_;
    CountStep(step_us_, step_decode_count_);
    stats_.output_tokens_generated += step_decode_count_;
    if (Tracer* t = sim_->tracer()) {
      EmitTrace(t, at, TraceEventType::kEngineStep, region_, id_, -1, 0,
                step_decode_count_, step_us_);
    }
    KvController::DecodeGrowth growth;  // What a memory sample reads.
    growth.tokens = walked_ * step_decode_count_;
    growth.blocks = kv_.DecodeBlocks(stretch_, walked_);
    SampleMemory(at, growth);
    // MaybeStep's plan of the next step: the same batch, one more context
    // token per sequence.
    step_start_ = at.at;
    step_context_tokens_ += step_decode_count_;
    step_us_ = StepUs(0, step_decode_count_, step_context_tokens_);
    boundary_ = StepEndOrder();
  } while (stretch_steps_ > 0 && sim_->HasRun(boundary_));
}

void Replica::ApplyWalked() {
  kv_.OnDecodeSteps(&stretch_, walked_);
  for (Seq& seq : running_) {
    seq.generated += walked_;
  }
  walked_ = 0;
  // Growth is monotone, so the last boundary bounds every earlier one.
  SKYWALKER_CHECK(kv_.ReclaimNeededBlocks() == 0)
      << "PlanStretch let a virtual step outgrow the ledger";
}

KvController::DecodeGrowth Replica::Projected() const {
  Walk();
  return walked_ > 0 ? kv_.ProjectDecode(stretch_, walked_)
                     : KvController::DecodeGrowth{};
}

void Replica::CutStretch() {
  if (stretch_steps_ == 0) {
    return;
  }
  stretch_steps_ = 0;
  sim_->Cancel(step_event_);
  step_event_ = sim_->ScheduleStep(StepEnd(), step_start_, region_,
                                   step_ordinal_, [this] { OnStepEvent(); });
}

void Replica::CountStep(double step_us, int decode_count) {
  ++stats_.engine_steps;
  stats_.busy_us += step_us;
  // Fold this step's duration into the probe-visible inter-token-latency
  // EWMA: each decoding sequence waited the whole step for its token. This
  // includes time spent on co-batched prefill chunks — that is latency the
  // decode stream really experienced — and it surfaces a straggler's
  // slowdown within a few steps, not after whole sequences complete.
  if (decode_count > 0) {
    decode_ewma_us_per_token_ =
        latency_samples_ == 0
            ? step_us
            : 0.25 * step_us + 0.75 * decode_ewma_us_per_token_;
    ++latency_samples_;
  }
}

void Replica::FinishStep(double step_us, int decode_count) {
  step_in_flight_ = false;
  CountStep(step_us, decode_count);

  // Apply prefill progress and decode increments.
  int64_t prefill_applied = 0;
  for (Seq& seq : running_) {
    if (seq.prefill_alloc > 0) {
      seq.prefill_remaining -= seq.prefill_alloc;
      kv_.OnPrefillChunk(seq.kv, seq.prefill_alloc);
      stats_.prefill_tokens_computed += seq.prefill_alloc;
      prefill_applied += seq.prefill_alloc;
      if (Tracer* t = sim_->tracer()) {
        EmitTrace(t, sim_->now(), TraceEventType::kPrefillChunk, region_, id_,
                  static_cast<int64_t>(seq.req.id), seq.prefill_alloc,
                  seq.prefill_remaining);
      }
      seq.prefill_alloc = 0;
      if (seq.prefill_remaining == 0) {
        OnPrefillComplete(seq);
      }
    } else if (seq.decode_alloc) {
      // Only sequences the plan priced (and EWMA-sampled) decode; a swap-in
      // that joined the batch mid-step waits for the next plan.
      seq.decode_alloc = false;
      ++seq.generated;
      kv_.OnDecodeToken(seq.kv);
      ++stats_.output_tokens_generated;
    }
  }

  // Completions (collected first: CompleteSeq mutates the cache).
  std::vector<Seq> finished;
  for (auto it = running_.begin(); it != running_.end();) {
    if (it->prefill_done && it->generated >= it->output_len()) {
      running_uncached_tokens_ -= it->uncached_len();
      finished.push_back(std::move(*it));
      it = running_.erase(it);
    } else {
      ++it;
    }
  }
  for (Seq& seq : finished) {
    CompleteSeq(seq);
  }

  if (Tracer* t = sim_->tracer()) {
    EmitTrace(t, sim_->now(), TraceEventType::kEngineStep, region_, id_, -1,
              prefill_applied, decode_count, step_us);
  }

  ReclaimMemory();
  SampleMemory(sim_->horizon(), KvController::DecodeGrowth{});
  MaybeStep();
}

template <typename Fn>
void Replica::TracingEvictions(Fn&& mutate) {
  const PrefixCache::EvictionStats before = cache_.eviction_stats();
  mutate();
  if (Tracer* t = sim_->tracer()) {
    const PrefixCache::EvictionStats& after = cache_.eviction_stats();
    if (after.victims > before.victims) {
      EmitTrace(t, sim_->now(), TraceEventType::kCacheEvict, region_, id_, -1,
                after.victims - before.victims,
                after.freed_blocks - before.freed_blocks, 0.0);
    }
  }
}

void Replica::OnPrefillComplete(Seq& seq) {
  seq.prefill_done = true;
  // The final prefill chunk's forward pass produces the first output token.
  if (seq.generated == 0) {
    seq.generated = 1;
    kv_.OnDecodeToken(seq.kv);
    ++stats_.output_tokens_generated;
  }

  // Publish prompt KV to the shared cache: the new radix node takes
  // references on the very pages this sequence filled (the table is
  // path-aligned), so concurrent identical prompts share them from now
  // on. Then re-pin the full prompt and drop the sequence's claim on the
  // published span — only generated tokens remain private, and a page
  // straddling the prompt boundary stays shared between the cache's tail
  // node and this sequence (cached_len keeps the admission-time value for
  // reporting; it reflects the compute actually saved). Both walks resume
  // at the admission pin, which covers a prefix of the prompt, so the
  // re-pin comes before that pin's release.
  TracingEvictions([&] {
    cache_.Insert(seq.req.prompt, sim_->now(), &kv_.table(seq.kv),
                  seq.kv_base, seq.pin);
  });
  auto match = cache_.MatchAndRef(seq.req.prompt, sim_->now(), seq.pin);
  cache_.Unref(seq.pin);
  seq.pin = match.pin;
  // The span to keep, positionally: the prompt remainder the cache does
  // not cover, plus the generated tokens actually present in the table. A
  // recompute-preemption victim re-admits with `generated == 1` but an
  // all-prompt table (its first token's KV was dropped with the rest); it
  // is re-materialized below as a fresh append at its true path position,
  // never by aliasing the prompt's tail page.
  const int64_t current = kv_.SeqTokens(seq.kv);
  const int64_t generated_in_table =
      current - (seq.prompt_len() - seq.kv_base);
  const int64_t keep =
      (seq.prompt_len() - match.cached_len) + generated_in_table;
  SKYWALKER_CHECK(keep >= 0 && keep <= current) << "publish span";
  kv_.ReleaseSeqPrefix(seq.kv, current - keep);
  seq.kv_base += current - keep;
  if (seq.generated > generated_in_table) {
    kv_.RestoreDecodedTokens(seq.kv, seq.generated - generated_in_table);
  }

  if (!seq.first_token_sent) {
    seq.first_token_sent = true;
    seq.decode_start = sim_->now();
    if (Tracer* t = sim_->tracer()) {
      EmitTrace(t, sim_->now(), TraceEventType::kFirstToken, region_, id_,
                static_cast<int64_t>(seq.req.id), seq.cached_len);
    }
    if (seq.handlers.on_first_token) {
      seq.handlers.on_first_token(seq.req, seq.cached_len);
    }
  }
}

void Replica::CompleteSeq(Seq& seq) {
  // Prompt ⊕ output: a view of the generator's buffer, where the output
  // continues the prompt. The generated suffix publishes the same way the
  // prompt did: by reference transfer from the sequence's path-aligned
  // table, walking on from the sequence's pin on its prompt.
  const SharedTokens full = Concat(seq.req.prompt, seq.req.output);
  TracingEvictions([&] {
    cache_.Insert(full, sim_->now(), &kv_.table(seq.kv), seq.kv_base,
                  seq.pin);
  });
  cache_.Unref(seq.pin);
  seq.pin = kInvalidPin;
  // Blocks and the unconsumed output reserve return here — exactly once.
  // Pages the cache took references on survive; the rest free.
  kv_.ReleaseSeq(seq.kv);
  seq.kv = KvController::kInvalidSeq;
  ++stats_.completed;
  if (Tracer* t = sim_->tracer()) {
    EmitTrace(t, sim_->now(), TraceEventType::kComplete, region_, id_,
              static_cast<int64_t>(seq.req.id),
              static_cast<int64_t>(seq.req.output_tokens()));
  }
  if (seq.handlers.on_complete) {
    seq.handlers.on_complete(seq.req, seq.cached_len);
  }
}

void Replica::ReclaimMemory() {
  int64_t over = kv_.ReclaimNeededBlocks();
  if (over <= 0) {
    return;
  }
  // Cache eviction first. Evict reports the pages that actually hit the
  // free list — a straddled page a pinned path or live sequence still
  // references frees nothing and is not counted — so the deficit carries
  // forward by subtraction; no re-read of the ledger needed.
  over -= EvictCache(over);
  // Preempt youngest running requests until we fit (never the last one —
  // progress must remain possible). The policy decides the victim's fate.
  while (over > 0 && running_.size() > 1) {
    Seq seq = std::move(running_.back());
    running_.pop_back();
    running_uncached_tokens_ -= seq.uncached_len();
    ++stats_.preemptions;
    const bool swap = config_.kv_preempt_policy == PreemptPolicy::kSwap;
    if (Tracer* t = sim_->tracer()) {
      EmitTrace(t, sim_->now(), TraceEventType::kPreempt, region_, id_,
                static_cast<int64_t>(seq.req.id), kv_.SeqTokens(seq.kv),
                swap ? 1 : 0);
    }
    if (swap) {
      // Swap-to-host: private KV crosses PCIe and comes back later without
      // recomputation. The prefix-cache pin is kept — shared blocks stay
      // device-resident (the radix tree still references them).
      SwappedSeq swapped;
      swapped.swap_tokens = kv_.SeqTokens(seq.kv);
      SimDuration transfer = kv_.SwapOut(seq.kv);
      if (Tracer* t = sim_->tracer()) {
        EmitTrace(t, sim_->now(), TraceEventType::kKvSwapOut, region_, id_,
                  static_cast<int64_t>(seq.req.id), swapped.swap_tokens, 0,
                  static_cast<double>(transfer));
      }
      seq.kv = KvController::kInvalidSeq;
      seq.prefill_alloc = 0;
      seq.decode_alloc = false;
      swapped.ready_at = sim_->now() + transfer;
      swapped.seq = std::move(seq);
      swapped_.push_back(std::move(swapped));
      // Poke the engine when the transfer completes, so a drained batch can
      // start the swap-in even with no other event pending.
      sim_->ScheduleAfter(transfer, [this] { MaybeStep(); });
    } else {
      // Recompute: restarts from scratch on re-admission; the prefix cache
      // usually makes the recomputation cheap. first_token_sent stays true
      // so the client sees no duplicate first-token callback.
      kv_.ReleaseSeq(seq.kv);
      kv_.NoteRecomputePreemption();
      seq.kv = KvController::kInvalidSeq;
      cache_.Unref(seq.pin);
      seq.pin = kInvalidPin;
      seq.cached_len = 0;
      seq.kv_base = 0;
      seq.prefill_remaining = seq.prompt_len();
      seq.generated = seq.first_token_sent ? 1 : 0;
      seq.prefill_done = false;
      seq.prefill_alloc = 0;
      seq.decode_alloc = false;
      pending_.push_front(std::move(seq));
    }
    over = kv_.ReclaimNeededBlocks();
  }
}

void Replica::SampleMemory(const EventOrder& at,
                           const KvController::DecodeGrowth& growth) {
  const int64_t used = MemoryUsedTokens(growth);
  stats_.peak_memory_utilization =
      std::max(stats_.peak_memory_utilization, Utilization(used));
  kv_.NoteFragmentationSample(FragmentationTokens(growth));
  if (config_.memory_sample_every_steps <= 0) {
    return;
  }
  if (stats_.engine_steps %
          static_cast<int64_t>(config_.memory_sample_every_steps) ==
      0) {
    memory_series_.emplace_back(at.at,
                                Utilization(ActiveMemoryTokens(growth)));
    if (Tracer* t = sim_->tracer()) {
      EmitTrace(t, at, TraceEventType::kMemSample, region_, id_, -1,
                kv_.free_blocks() - growth.blocks, running_count(),
                Utilization(used));
    }
  }
}

int64_t Replica::EvictCache(int64_t blocks) {
  if (blocks <= 0) {
    return 0;
  }
  int64_t freed = 0;
  TracingEvictions([&] { freed = cache_.Evict(blocks); });
  return freed;
}

void Replica::Crash() {
  Sync();
  CutStretch();  // The step in flight still finishes, over an empty batch.
  for (Seq& seq : running_) {
    cache_.Unref(seq.pin);
    kv_.ReleaseSeq(seq.kv);
  }
  running_.clear();
  running_uncached_tokens_ = 0;
  for (SwappedSeq& swapped : swapped_) {
    cache_.Unref(swapped.seq.pin);
  }
  swapped_.clear();
  for (RestoringSeq& restoring : restoring_) {
    sim_->Cancel(restoring.arrival);
    cache_.Unref(restoring.seq.pin);
    kv_.ReleaseSeq(restoring.seq.kv);
  }
  restoring_.clear();
  pending_.clear();
  watermark_reject_id_valid_ = false;
  TracingEvictions([&] { cache_.Clear(); });
}

bool Replica::CheckInvariants() const {
  Sync();
  int64_t uncached = 0;
  int64_t reserve = 0;
  for (const Seq& seq : running_) {
    uncached += seq.uncached_len();
    reserve += ReserveRemaining(seq);
  }
  for (const RestoringSeq& restoring : restoring_) {
    reserve += ReserveRemaining(restoring.seq);
  }
  return uncached == running_uncached_tokens_ &&
         reserve == kv_.committed_reserve_tokens() && cache_.CheckInvariants() &&
         kv_.CheckConsistency();
}

void Replica::Fail() {
  serving_ = false;
  Crash();
}

void Replica::Recover() { serving_ = true; }

void Replica::SetSlowdown(double factor) {
  SKYWALKER_CHECK(factor > 0.0) << "slowdown must be positive";
  Sync();
  CutStretch();  // The stretch priced its steps at the old factor.
  slowdown_ = factor;
}

}  // namespace skywalker
