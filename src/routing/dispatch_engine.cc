#include "src/routing/dispatch_engine.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/trace.h"

namespace skywalker {

namespace {

std::atomic<bool> g_selection_oracle{false};

}  // namespace

// --- CandidateView -----------------------------------------------------

size_t CandidateView::size() const { return engine_->num_replicas(); }

const ReplicaState& CandidateView::operator[](size_t index) const {
  return engine_->replicas()[index];
}

const ReplicaState* CandidateView::Find(ReplicaId id) const {
  return engine_->FindReplica(id);
}

bool CandidateView::IsAvailable(const ReplicaState& state) const {
  return engine_->IsAvailable(state);
}

bool CandidateView::IsAvailable(ReplicaId id) const {
  return engine_->IsAvailable(id);
}

double CandidateView::EffectiveLoad(const ReplicaState& state) const {
  return engine_->EffectiveLoadOf(state);
}

ReplicaId CandidateView::LeastLoadedAvailable() const {
  return engine_->LeastLoadedAvailable();
}

ReplicaId CandidateView::LeastLoadedAmong(
    const std::vector<int32_t>& candidates) const {
  ReplicaId best = kInvalidReplica;
  double best_load = std::numeric_limits<double>::infinity();
  for (int32_t candidate : candidates) {
    const ReplicaState* state = Find(candidate);
    if (state == nullptr) {
      continue;
    }
    const double load = EffectiveLoad(*state);
    if (load < best_load) {
      best = candidate;
      best_load = load;
    }
  }
  return best;
}

// --- DispatchEngine ----------------------------------------------------

DispatchEngine::DispatchEngine(Simulator* sim, Network* net, RegionId region,
                               const DispatchConfig& config,
                               ReplicaSelector* selector)
    : sim_(sim),
      net_(net),
      region_(region),
      config_(config),
      selector_(selector),
      selection_oracle_(g_selection_oracle.load(std::memory_order_relaxed)) {
  SKYWALKER_CHECK(selector_ != nullptr) << "engine needs a replica selector";
  probe_task_ = std::make_unique<PeriodicTask>(sim_, config_.probe_interval,
                                               [this] { ProbeAll(); });
  RebuildSelectionIndex();
}

DispatchEngine::~DispatchEngine() = default;

void DispatchEngine::set_selection_oracle(bool on) {
  g_selection_oracle.store(on, std::memory_order_relaxed);
}

void DispatchEngine::AttachReplica(Replica* replica) {
  if (index_.count(replica->id()) > 0) {
    return;
  }
  ReplicaState state;
  state.replica = replica;
  index_.emplace(replica->id(), replicas_.size());
  replicas_.push_back(std::move(state));
  RebuildSelectionIndex();
  selector_->OnReplicaAttached(replica);
  TryDispatch();
}

bool DispatchEngine::DetachReplica(ReplicaId replica_id) {
  auto it = index_.find(replica_id);
  if (it == index_.end()) {
    return false;
  }
  size_t pos = it->second;
  index_.erase(it);
  if (pos + 1 != replicas_.size()) {
    replicas_[pos] = std::move(replicas_.back());
    index_[replicas_[pos].replica->id()] = pos;
  }
  replicas_.pop_back();
  RebuildSelectionIndex();  // Swap-remove moved a position; stamps reset.
  selector_->OnReplicaDetached(replica_id);
  return true;
}

ReplicaState* DispatchEngine::FindReplica(ReplicaId id) {
  auto it = index_.find(id);
  return it == index_.end() ? nullptr : &replicas_[it->second];
}

const ReplicaState* DispatchEngine::FindReplica(ReplicaId id) const {
  auto it = index_.find(id);
  return it == index_.end() ? nullptr : &replicas_[it->second];
}

void DispatchEngine::Start() {
  started_ = true;
  if (ProbeLoopNeeded()) {
    probe_task_->StartWithDelay(0);
  }
}

void DispatchEngine::Stop() {
  started_ = false;
  probe_task_->Stop();
}

void DispatchEngine::ResetProbeState() {
  for (ReplicaState& state : replicas_) {
    state.probed_once = false;
    state.pushes_since_probe = 0;
    state.health.Reset();
    state.latency_samples_at_ejection = 0;
  }
  RebuildSelectionIndex();
}

void DispatchEngine::ApplyConfig(const DispatchConfig& next) {
  config_ = next;
  if (Tracer* t = sim_->tracer()) {
    EmitTrace(t, sim_->now(), TraceEventType::kConfigSwap, region_,
              kInvalidReplica, -1, static_cast<int64_t>(config_.push_mode));
  }
  // The probe task picks the new interval up at its next reschedule; the
  // loop itself starts or stops with the need for one (a kBlind engine
  // gaining outlier detection must begin probing for liveness).
  probe_task_->set_interval(config_.probe_interval);
  if (started_) {
    if (ProbeLoopNeeded() && !probe_task_->running()) {
      probe_task_->StartWithDelay(0);
    } else if (!ProbeLoopNeeded() && probe_task_->running()) {
      probe_task_->Stop();
    }
  }
  // Config participates in every availability/load computation, so the
  // whole index is stale after a swap.
  RebuildSelectionIndex();
  // Availability may have widened (e.g. push slack raised, gate lowered).
  TryDispatch();
}

double DispatchEngine::EffectiveLoadOf(const ReplicaState& state) const {
  // The exact outstanding count (int -> double is lossless here), so the
  // strict-less comparisons keep the seed tie-breaks.
  double load = static_cast<double>(state.outstanding);
  // Soft failover priority (DESIGN.md §10): degraded and half-open replicas
  // lose least-loaded selection to healthy ones until the healthy tier is
  // this many requests deeper. Unreachable while health is disabled (status
  // stays kHealthy).
  const HealthStatus status = state.health.status();
  if (status == HealthStatus::kDegraded ||
      status == HealthStatus::kRecovering) {
    load += config_.outlier.degraded_load_penalty;
  }
  return load;
}

bool DispatchEngine::IsAvailable(const ReplicaState& state) const {
  const HealthStatus status = state.health.status();
  if (!CanServe(status)) {
    return false;
  }
  // Half-open (DESIGN.md §10): a recovering replica takes one request at a
  // time until a success confirms it.
  if (status == HealthStatus::kRecovering && state.outstanding > 0) {
    return false;
  }
  // Free-block-aware gate (ISSUE 4): route around replicas whose probed KV
  // headroom is below the floor, whatever the push mode decides. Inactive
  // at the default 0 and before the first probe.
  if (config_.min_free_block_fraction > 0.0 &&
      state.ProbedFreeBlockFraction() < config_.min_free_block_fraction) {
    return false;
  }
  switch (config_.push_mode) {
    case PushMode::kBlind:
      return true;
    case PushMode::kSelectiveOutstanding:
      return state.outstanding < config_.max_outstanding_per_replica;
    case PushMode::kSelectivePending:
      // Fresh engines have not probed yet; treat as available so cold starts
      // make progress (the first probe lands within one interval).
      if (!state.probed_once) {
        return state.pushes_since_probe < config_.push_slack;
      }
      // Selective pushing by pending requests (§3.3): a replica is full when
      // its continuous batch cannot admit more work, i.e. it has pending
      // requests. Optimistic pushes between probes are bounded by push_slack
      // (DESIGN.md §5.3).
      return state.probed.pending == 0 &&
             state.pushes_since_probe < config_.push_slack;
  }
  return false;
}

bool DispatchEngine::IsAvailable(ReplicaId id) const {
  const ReplicaState* state = FindReplica(id);
  return state != nullptr && IsAvailable(*state);
}

// --- selection index (ISSUE 10) ------------------------------------------

void DispatchEngine::TouchReplica(size_t pos) {
  ReplicaState& state = replicas_[pos];
  const bool avail = IsAvailable(state);
  const bool ejected = state.health.status() == HealthStatus::kEjected;
  available_count_ += (avail ? 1 : 0) - (avail_bit_[pos] ? 1 : 0);
  ejected_count_ += (ejected ? 1 : 0) - (ejected_bit_[pos] ? 1 : 0);
  avail_bit_[pos] = avail ? 1 : 0;
  ejected_bit_[pos] = ejected ? 1 : 0;
  ++stamp_[pos];
  ++index_touches_;
  if (avail) {
    heap_.push_back({EffectiveLoadOf(state), static_cast<uint32_t>(pos),
                     stamp_[pos]});
    std::push_heap(heap_.begin(), heap_.end(), EntryGreater);
    if (heap_.size() > 4 * replicas_.size() + 64) {
      CompactSelectionHeap();
    }
  }
}

void DispatchEngine::RebuildSelectionIndex() {
  const size_t n = replicas_.size();
  stamp_.assign(n, 0);
  avail_bit_.assign(n, 0);
  ejected_bit_.assign(n, 0);
  available_count_ = 0;
  ejected_count_ = 0;
  heap_.clear();
  for (size_t pos = 0; pos < n; ++pos) {
    const ReplicaState& state = replicas_[pos];
    if (state.health.status() == HealthStatus::kEjected) {
      ejected_bit_[pos] = 1;
      ++ejected_count_;
    }
    if (IsAvailable(state)) {
      avail_bit_[pos] = 1;
      ++available_count_;
      heap_.push_back({EffectiveLoadOf(state), static_cast<uint32_t>(pos), 0});
    }
  }
  std::make_heap(heap_.begin(), heap_.end(), EntryGreater);
  ++index_touches_;
}

void DispatchEngine::NoteReplicaMutated(ReplicaId id) {
  auto it = index_.find(id);
  SKYWALKER_CHECK(it != index_.end()) << "unknown replica " << id;
  TouchReplica(it->second);
}

void DispatchEngine::CompactSelectionHeap() const {
  heap_.clear();
  for (size_t pos = 0; pos < replicas_.size(); ++pos) {
    if (avail_bit_[pos]) {
      heap_.push_back({EffectiveLoadOf(replicas_[pos]),
                       static_cast<uint32_t>(pos), stamp_[pos]});
    }
  }
  std::make_heap(heap_.begin(), heap_.end(), EntryGreater);
}

ReplicaId DispatchEngine::LeastLoadedAvailable() const {
  ++selection_queries_;
  ReplicaId best = kInvalidReplica;
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    if (top.pos < replicas_.size() && stamp_[top.pos] == top.stamp &&
        avail_bit_[top.pos]) {
      best = replicas_[top.pos].replica->id();
      break;
    }
    std::pop_heap(heap_.begin(), heap_.end(), EntryGreater);
    heap_.pop_back();
  }
  if (selection_oracle_) {
    const ReplicaId oracle = LeastLoadedAvailableLinear();
    SKYWALKER_CHECK(best == oracle)
        << "selection index diverged from linear scan: indexed=" << best
        << " oracle=" << oracle;
  }
  return best;
}

ReplicaId DispatchEngine::LeastLoadedAvailableLinear() const {
  ReplicaId best = kInvalidReplica;
  double best_load = std::numeric_limits<double>::infinity();
  for (const ReplicaState& state : replicas_) {
    if (!IsAvailable(state)) {
      continue;
    }
    const double load = EffectiveLoadOf(state);
    if (load < best_load) {
      best = state.replica->id();
      best_load = load;
    }
  }
  return best;
}

std::vector<int> DispatchEngine::OutstandingSnapshot() const {
  std::vector<int> out;
  out.reserve(replicas_.size());
  for (const ReplicaState& state : replicas_) {
    out.push_back(state.outstanding);
  }
  return out;
}

void DispatchEngine::Enqueue(Queued queued) {
  ++stats_.received;
  queued.lb_arrival = sim_->now();
  if (Tracer* t = sim_->tracer()) {
    EmitTrace(t, queued.lb_arrival, TraceEventType::kLbEnqueue, region_,
              kInvalidReplica, static_cast<int64_t>(queued.req.id),
              static_cast<int64_t>(queue_.size()) + 1,
              queued.forwarded_in ? 1 : 0);
  }
  queue_.push_back(std::move(queued));
  stats_.max_queue_len = std::max<int64_t>(
      stats_.max_queue_len, static_cast<int64_t>(queue_.size()));
  TryDispatch();
}

void DispatchEngine::TryDispatch() {
  while (selector_->ShouldDispatch() && !queue_.empty()) {
    Queued& head = queue_.front();
    const HeadAction action = selector_->OnQueueHead(head);
    if (action == HeadAction::kStall) {
      return;
    }
    if (action == HeadAction::kTaken) {
      queue_.pop_front();
      continue;
    }
    ReplicaId target = selector_->SelectReplica(head, CandidateView(this));
    if (target != kInvalidReplica) {
      if (Tracer* t = sim_->tracer()) {
        // Route decision with the candidate scores the selector saw: one
        // record per candidate (availability + effective load), then the
        // decision itself. Emitted only on a committed placement so a
        // head-of-line-blocked queue does not flood the trace.
        const CandidateView view(this);
        const int64_t rid = static_cast<int64_t>(head.req.id);
        for (const ReplicaState& state : replicas_) {
          EmitTrace(t, sim_->now(), TraceEventType::kRouteCandidate, region_,
                    state.replica->id(), rid, IsAvailable(state) ? 1 : 0, 0,
                    view.EffectiveLoad(state));
        }
        EmitTrace(t, sim_->now(), TraceEventType::kRouteDecision, region_,
                  target, rid, static_cast<int64_t>(queue_.size()), 0,
                  static_cast<double>(sim_->now() - head.lb_arrival));
      }
      Queued queued = std::move(head);
      queue_.pop_front();
      DispatchTo(std::move(queued), target);
      continue;
    }
    if (selector_->OnUnplaced(head) == HeadAction::kTaken) {
      queue_.pop_front();
      continue;
    }
    return;  // FCFS head-of-line: wait for capacity.
  }
}

void DispatchEngine::NoteReplicaSuccess(ReplicaState& state) {
  if (!config_.outlier.enabled) {
    return;
  }
  if (state.health.RecordSuccess()) {
    ++stats_.recoveries;
    if (Tracer* t = sim_->tracer()) {
      EmitTrace(t, sim_->now(), TraceEventType::kRecover, region_,
                state.replica->id(), -1);
    }
  }
}

void DispatchEngine::NoteReplicaFailure(ReplicaState& state) {
  if (!config_.outlier.enabled) {
    return;
  }
  if (state.health.RecordFailure(config_.outlier) &&
      EjectionAllowed(EjectedCount(), replicas_.size(),
                      kMaxEjectionFraction)) {
    EjectReplica(state);
  }
}

void DispatchEngine::EjectReplica(ReplicaState& state, bool latency_outlier) {
  state.health.Eject(config_.outlier, sim_->now());
  state.latency_samples_at_ejection = state.probed.latency_samples;
  TouchReplica(state);
  ++stats_.ejections;
  if (Tracer* t = sim_->tracer()) {
    EmitTrace(t, sim_->now(), TraceEventType::kEject, region_,
              state.replica->id(), -1, latency_outlier ? 1 : 0);
  }
}

void DispatchEngine::DispatchTo(Queued queued, ReplicaId replica_id) {
  ReplicaState* state = FindReplica(replica_id);
  SKYWALKER_CHECK(state != nullptr) << "dispatch to unknown replica";
  Replica* replica = state->replica;
  ++state->outstanding;
  ++state->pushes_since_probe;
  TouchReplica(*state);
  ++stats_.dispatched;
  if (Tracer* t = sim_->tracer()) {
    EmitTrace(t, sim_->now(), TraceEventType::kDispatch, region_, replica_id,
              static_cast<int64_t>(queued.req.id), 0, 0,
              static_cast<double>(sim_->now() - queued.lb_arrival));
  }
  selector_->OnLocalDispatch(queued, replica_id);

  const RegionId client_region = queued.req.client_region;
  const RegionId replica_region = replica->region();
  // Streamed responses travel replica -> LB -> client; a forwarded-in
  // request additionally hops back through its origin LB.
  SimDuration response_latency = net_->Latency(replica_region, region_);
  int hops = 1;
  if (queued.forwarded_in) {
    response_latency += net_->Latency(region_, queued.origin_lb_region) +
                        net_->Latency(queued.origin_lb_region, client_region);
    hops = 2;
  } else {
    response_latency += net_->Latency(region_, client_region);
  }

  auto ctx = std::make_shared<DispatchCtx>();
  ctx->callbacks = std::move(queued.callbacks);
  RequestOutcome& outcome = ctx->outcome;
  outcome.id = queued.req.id;
  outcome.user_id = queued.req.user_id;
  outcome.client_region = client_region;
  outcome.served_region = replica_region;
  outcome.replica = replica_id;
  outcome.submit_time = queued.req.submit_time;
  outcome.prompt_tokens = queued.req.prompt_tokens();
  outcome.output_tokens = queued.req.output_tokens();
  outcome.hops = hops;
  outcome.forwarded = queued.forwarded_in;

  const bool guarded =
      config_.outlier.enabled && config_.outlier.request_timeout > 0;
  Simulator* replica_sim = net_->SimForRegion(replica_region);
  // The handlers run on the *replica's* shard (the replica invokes them), so
  // times come from the replica-side clock and client callbacks travel back
  // through the network; in plain mode both reduce to the seed behavior (one
  // simulator, Deliver == ScheduleAfter). The first token only stamps the
  // outcome the client receives on completion.
  Replica::Handlers handlers;
  handlers.on_first_token = [ctx, response_latency, replica_sim](
                                const Request& /*req*/, int64_t cached) {
    ctx->outcome.cached_prompt_tokens = cached;
    ctx->outcome.first_token_time = replica_sim->now() + response_latency;
  };
  if (!guarded) {
    handlers.on_complete = [this, ctx, response_latency, replica_sim,
                            replica_region, client_region,
                            replica_id](const Request& /*req*/,
                                        int64_t cached) {
      ctx->outcome.cached_prompt_tokens = cached;
      ctx->outcome.completion_time = replica_sim->now() + response_latency;
      if (ctx->callbacks.on_complete) {
        net_->Deliver(replica_region, client_region, response_latency,
                      [ctx] { ctx->callbacks.on_complete(ctx->outcome); });
      }
      // LB-side accounting flows back over the replica->LB hop only.
      net_->Send(ctx->outcome.served_region, region_, [this, replica_id] {
        ReplicaState* rs = FindReplica(replica_id);
        if (rs != nullptr && rs->outstanding > 0) {
          --rs->outstanding;
          TouchReplica(*rs);
        }
        ++stats_.completed;
        TryDispatch();
      });
    };
  } else {
    // Guarded dispatch (DESIGN.md §10): the response path becomes two hops —
    // replica -> LB (timeout adjudication on this engine's shard) ->
    // client — so the outstanding slot, the health machine, and the timeout
    // flags are only ever touched on the LB shard. A request unanswered
    // within request_timeout is failed here (on_error sends the client
    // elsewhere) and its eventual completion, if any, is suppressed.
    const SimDuration first_hop = net_->Latency(replica_region, region_);
    const SimDuration remainder = response_latency - first_hop;

    sim_->ScheduleAfter(
        config_.outlier.request_timeout,
        [this, ctx, replica_id, client_region] {
          if (ctx->finished || ctx->timed_out) {
            return;
          }
          ctx->timed_out = true;
          ++stats_.request_timeouts;
          if (Tracer* t = sim_->tracer()) {
            EmitTrace(t, sim_->now(), TraceEventType::kTimeout, region_,
                      replica_id, static_cast<int64_t>(ctx->outcome.id));
          }
          ReplicaState* rs = FindReplica(replica_id);
          if (rs != nullptr) {
            if (rs->outstanding > 0) {
              --rs->outstanding;
            }
            NoteReplicaFailure(*rs);
            TouchReplica(*rs);
          }
          if (ctx->callbacks.on_error) {
            net_->Deliver(region_, client_region,
                          net_->Latency(region_, client_region),
                          [ctx] { ctx->callbacks.on_error(); });
          }
          TryDispatch();
        });

    handlers.on_complete = [this, ctx, response_latency, first_hop, remainder,
                            replica_sim, replica_region, client_region,
                            replica_id](const Request& /*req*/,
                                        int64_t cached) {
      ctx->outcome.cached_prompt_tokens = cached;
      ctx->outcome.completion_time = replica_sim->now() + response_latency;
      net_->Deliver(
          replica_region, region_, first_hop,
          [this, ctx, remainder, replica_id, client_region] {
            if (ctx->timed_out) {
              ++stats_.late_completions;
              return;
            }
            ctx->finished = true;
            ReplicaState* rs = FindReplica(replica_id);
            if (rs != nullptr) {
              if (rs->outstanding > 0) {
                --rs->outstanding;
              }
              NoteReplicaSuccess(*rs);
              TouchReplica(*rs);
            }
            ++stats_.completed;
            if (ctx->callbacks.on_complete) {
              net_->Deliver(region_, client_region, remainder, [ctx] {
                ctx->callbacks.on_complete(ctx->outcome);
              });
            }
            TryDispatch();
          });
    };
  }

  net_->Send(region_, replica_region,
             [replica, req = std::move(queued.req),
              handlers = std::move(handlers)]() mutable {
               replica->Enqueue(std::move(req), std::move(handlers));
             });
}

void DispatchEngine::EvaluateOutliers() {
  const OutlierConfig& outlier = config_.outlier;
  // Expired ejections go half-open: eligible for exactly one request, and
  // for latency re-evaluation once fresh samples arrive.
  for (ReplicaState& state : replicas_) {
    if (state.health.EjectionExpired(sim_->now())) {
      state.health.BeginRecovery();
      TouchReplica(state);
    }
  }
  if (outlier.latency_factor <= 0.0) {
    return;
  }
  // Fleet median of the probed decode-latency EWMAs, over replicas that are
  // reporting enough samples to mean something.
  std::vector<double> ewmas;
  ewmas.reserve(replicas_.size());
  for (const ReplicaState& state : replicas_) {
    if (state.probed_once && state.probed.latency_samples >= 3 &&
        CanServe(state.health.status())) {
      ewmas.push_back(state.probed.ewma_decode_us_per_token);
    }
  }
  if (static_cast<int>(ewmas.size()) < kMinLatencyHosts) {
    return;
  }
  std::nth_element(ewmas.begin(), ewmas.begin() + ewmas.size() / 2,
                   ewmas.end());
  const double median = ewmas[ewmas.size() / 2];
  if (median <= 0.0) {
    return;
  }
  for (ReplicaState& state : replicas_) {
    if (!state.probed_once || state.probed.latency_samples < 3) {
      continue;
    }
    const bool is_outlier =
        state.probed.ewma_decode_us_per_token > outlier.latency_factor * median;
    const bool fresh_sample =
        state.probed.latency_samples > state.latency_samples_at_ejection;
    switch (state.health.EvaluateLatency(outlier, is_outlier, fresh_sample)) {
      case LatencyVerdict::kWantsEject:
        if (EjectionAllowed(EjectedCount(), replicas_.size(),
                            kMaxEjectionFraction)) {
          EjectReplica(state, /*latency_outlier=*/true);
        }
        break;
      case LatencyVerdict::kRecovered:
        ++stats_.recoveries;
        if (Tracer* t = sim_->tracer()) {
          EmitTrace(t, sim_->now(), TraceEventType::kRecover, region_,
                    state.replica->id(), -1, /*a=*/1);
        }
        break;
      case LatencyVerdict::kDegraded:
      case LatencyVerdict::kNone:
        break;
    }
    // EvaluateLatency may have moved the health machine (degraded,
    // recovered, ejected); refresh this replica's index entry either way.
    TouchReplica(state);
  }
}

void DispatchEngine::ApplyProbeResponse(ReplicaId replica_id, int64_t epoch,
                                        const ProbePayload& payload) {
  ReplicaState* rs = FindReplica(replica_id);
  if (rs == nullptr) {
    return;
  }
  rs->probe_epoch_received = std::max(rs->probe_epoch_received, epoch);
  rs->probed = payload;
  rs->pushes_since_probe = 0;
  rs->probed_once = true;
  if (config_.outlier.enabled) {
    rs->health.RecordProbeSuccess();
  }
  TouchReplica(*rs);
  if (Tracer* t = sim_->tracer()) {
    EmitTrace(t, sim_->now(), TraceEventType::kProbe, region_, replica_id, -1,
              payload.version, payload.pending,
              payload.ewma_decode_us_per_token);
  }
  selector_->OnReplicaProbeResult();
  TryDispatch();
}

void DispatchEngine::ProbeAll() {
  selector_->OnProbeTick();
  if (config_.outlier.enabled) {
    EvaluateOutliers();
  }
  // Batched fan-out (ISSUE 10): with jitter-free links and the outlier
  // machinery off (its per-replica timeout events interleave sender keys),
  // the per-replica probe round trips coalesce into one event per
  // destination region in each direction. This is byte-identical to the
  // per-replica path: within one destination the per-replica work runs in
  // attach order, exactly the order the individual events would have
  // executed (they carry consecutive sender keys at one timestamp, which
  // admit no interleaving event); across destinations ordering is governed
  // by (time, origin region) both ways; and per-origin response keys are
  // assigned in the same order, so downstream ordering is unchanged.
  // Message counters advance per logical message (SendBatch).
  if (!config_.outlier.enabled && net_->ZeroJitter() && !replicas_.empty()) {
    struct ProbeTarget {
      Replica* replica;
      int64_t epoch;
    };
    struct ProbeReply {
      ReplicaId id;
      int64_t epoch;
      ProbePayload payload;
    };
    // Group targets by destination region in first-appearance (attach)
    // order; almost always a single group (engines manage local replicas).
    std::vector<std::pair<RegionId, std::vector<ProbeTarget>>> groups;
    for (ReplicaState& state : replicas_) {
      ++stats_.probes_sent;
      const int64_t epoch = ++state.probe_epoch_sent;
      const RegionId dst = state.replica->region();
      std::vector<ProbeTarget>* bucket = nullptr;
      for (auto& group : groups) {
        if (group.first == dst) {
          bucket = &group.second;
          break;
        }
      }
      if (bucket == nullptr) {
        groups.emplace_back(dst, std::vector<ProbeTarget>());
        bucket = &groups.back().second;
        bucket->reserve(replicas_.size());
      }
      bucket->push_back(ProbeTarget{state.replica, epoch});
    }
    for (auto& group : groups) {
      const RegionId dst = group.first;
      // The count must be read before the capture moves the vector out
      // (argument evaluation order is unspecified).
      const int fanout = static_cast<int>(group.second.size());
      net_->SendBatch(
          region_, dst, fanout,
          [this, dst, targets = std::move(group.second)] {
            // A non-serving (crashed) replica never answers; with the
            // outlier machinery off its silence is simply ignored, as in
            // the per-replica path.
            std::vector<ProbeReply> replies;
            replies.reserve(targets.size());
            for (const ProbeTarget& target : targets) {
              if (!target.replica->serving()) {
                continue;
              }
              replies.push_back(ProbeReply{target.replica->id(), target.epoch,
                                           target.replica->Probe()});
            }
            if (replies.empty()) {
              return;
            }
            const int respondents = static_cast<int>(replies.size());
            net_->SendBatch(dst, region_, respondents,
                            [this, replies = std::move(replies)] {
                              for (const ProbeReply& reply : replies) {
                                ApplyProbeResponse(reply.id, reply.epoch,
                                                   reply.payload);
                              }
                            });
          });
    }
    selector_->OnAfterReplicaProbes();
    return;
  }
  for (ReplicaState& state : replicas_) {
    ++stats_.probes_sent;
    Replica* replica = state.replica;
    RegionId replica_region = replica->region();
    ReplicaId replica_id = replica->id();
    const int64_t epoch = ++state.probe_epoch_sent;
    // Probe round trip: LB -> replica (read the probe payload) -> LB. A
    // non-serving (crashed) replica never answers; the probe-timeout event
    // below converts its silence into a health failure.
    net_->Send(region_, replica_region, [this, replica, replica_id,
                                         replica_region, epoch] {
      if (!replica->serving()) {
        return;
      }
      ProbePayload payload = replica->Probe();
      net_->Send(replica_region, region_, [this, replica_id, payload, epoch] {
        ApplyProbeResponse(replica_id, epoch, payload);
      });
    });
    if (config_.outlier.enabled && config_.outlier.probe_timeout > 0) {
      sim_->ScheduleAfter(config_.outlier.probe_timeout,
                          [this, replica_id, epoch] {
                            ReplicaState* rs = FindReplica(replica_id);
                            if (rs == nullptr ||
                                rs->probe_epoch_received >= epoch) {
                              return;
                            }
                            ++stats_.probe_misses;
                            NoteReplicaFailure(*rs);
                            TouchReplica(*rs);
                          });
    }
  }
  selector_->OnAfterReplicaProbes();
}

int64_t DispatchEngine::FlushQueueWithError() {
  std::deque<Queued> drained;
  drained.swap(queue_);
  for (Queued& queued : drained) {
    if (Tracer* t = sim_->tracer()) {
      EmitTrace(t, sim_->now(), TraceEventType::kLbError, region_,
                kInvalidReplica, static_cast<int64_t>(queued.req.id));
    }
    if (queued.callbacks.on_error) {
      queued.callbacks.on_error();
    }
  }
  return static_cast<int64_t>(drained.size());
}

}  // namespace skywalker
