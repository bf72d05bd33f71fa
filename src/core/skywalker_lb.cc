#include "src/core/skywalker_lb.h"

#include <limits>
#include <utility>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/obs/trace.h"

namespace skywalker {

namespace {

// Overload advertisement (DESIGN.md §4b): a region refuses inbound offloads
// while the EWMA of its available-replica fraction (OnProbeTick) is below
// this. Point-in-time probe snapshots flap at saturation; the EWMA separates
// "briefly busy" from "no real headroom".
constexpr double kOverloadAvailEwmaThreshold = 0.25;

}  // namespace

SkyWalkerLb::SkyWalkerLb(Simulator* sim, Network* net, LbId id,
                         RegionId region, const SkyWalkerConfig& config)
    : sim_(sim),
      net_(net),
      id_(id),
      region_(region),
      config_(config),
      replica_trie_(kBalancerTrieCapacityTokens),
      snapshot_trie_(kBalancerTrieCapacityTokens),
      engine_(sim, net, region, config.engine, /*selector=*/this) {}

SkyWalkerLb::~SkyWalkerLb() = default;

void SkyWalkerLb::AttachReplica(Replica* replica) {
  engine_.AttachReplica(replica);
}

void SkyWalkerLb::OnReplicaAttached(Replica* replica) {
  replica_ring_.AddTarget(replica->id());
}

void SkyWalkerLb::DetachReplica(ReplicaId replica_id) {
  engine_.DetachReplica(replica_id);
}

void SkyWalkerLb::OnReplicaDetached(ReplicaId replica_id) {
  replica_ring_.RemoveTarget(replica_id);
  replica_trie_.RemoveTarget(replica_id);
}

void SkyWalkerLb::AddPeer(SkyWalkerLb* peer) {
  if (peer == this) {
    return;
  }
  PeerState state;
  state.peer = peer;
  peers_.emplace(peer->id(), state);
  lb_ring_.AddTarget(peer->id());
}

std::vector<Replica*> SkyWalkerLb::ManagedReplicas() const {
  std::vector<Replica*> out;
  out.reserve(engine_.num_replicas());
  for (const ReplicaState& state : engine_.replicas()) {
    out.push_back(state.replica);
  }
  return out;
}

void SkyWalkerLb::Start() {
  // Keyed-ordering scope: events armed here (the probe loop) originate from
  // this LB's region. No-op in plain mode.
  sim_->SetCurrentRegion(region_);
  engine_.Start();
}

void SkyWalkerLb::ApplyRuntimeConfig(const RuntimeConfig& config) {
  config_.engine = config.dispatch;
  config_.routing = config.routing;
  engine_.ApplyConfig(config.dispatch);
  ++stats_.config_swaps;
}

bool SkyWalkerLb::PeerAvailable(const PeerState& state) const {
  if (!state.peer->Serving()) {
    return false;
  }
  if (!state.probed_once) {
    return false;  // Never forward before the first availability exchange.
  }
  // Reciprocal-offload suppression: a region that is itself out of local
  // capacity has no headroom to donate, whatever its instantaneous probe
  // snapshot says; forwarding there only displaces its own traffic.
  if (state.probed_overloaded) {
    return false;
  }
  // Listing 1 line 12: available iff it has >= 1 available replica and its
  // queue is within the τ buffer. Forwards since the last probe count as
  // optimistic queue growth.
  size_t effective_queue =
      state.probed_queue_size + static_cast<size_t>(state.forwards_since_probe);
  return state.probed_avail_replicas > 0 &&
         effective_queue <= config_.routing.queue_tau;
}

bool SkyWalkerLb::PeerEligible(TargetId id) const {
  auto it = peers_.find(id);
  if (it == peers_.end() || !PeerAvailable(it->second)) {
    return false;
  }
  return !config_.forward_allowed ||
         config_.forward_allowed(region_, it->second.peer->region());
}

bool SkyWalkerLb::IsOverloaded() const {
  if (!Serving()) {
    return true;
  }
  return avail_fraction_ewma_ < kOverloadAvailEwmaThreshold;
}

int SkyWalkerLb::AvailableReplicaCount() const {
  if (!Serving()) {
    return 0;
  }
  return engine_.AvailableCount();
}

SkyWalkerLb::PeerState* SkyWalkerLb::FindPeer(LbId lbid) {
  auto it = peers_.find(lbid);
  return it == peers_.end() ? nullptr : &it->second;
}

void SkyWalkerLb::HandleRequest(Request req, RequestCallbacks callbacks) {
  if (!Serving()) {
    // Connection refused; the client re-resolves DNS and retries.
    ++stats_.errors_reported;
    if (callbacks.on_error) {
      callbacks.on_error();
    }
    return;
  }
  ++stats_.received_client;
  Queued queued;
  queued.req = std::move(req);
  queued.callbacks = std::move(callbacks);
  engine_.Enqueue(std::move(queued));
}

void SkyWalkerLb::HandleForwarded(Request req, RequestCallbacks callbacks,
                                  RegionId origin_lb_region) {
  if (!Serving()) {
    ++stats_.errors_reported;
    if (callbacks.on_error) {
      callbacks.on_error();
    }
    return;
  }
  ++stats_.received_forwarded;
  Queued queued;
  queued.req = std::move(req);
  queued.callbacks = std::move(callbacks);
  queued.forwarded_in = true;
  queued.origin_lb_region = origin_lb_region;
  engine_.Enqueue(std::move(queued));
}

ReplicaId SkyWalkerLb::SelectReplica(const Queued& queued,
                                     const CandidateView& candidates) {
  auto avail = [&candidates](TargetId id) {
    return candidates.IsAvailable(id);
  };

  if (config_.routing.policy == RoutingPolicyKind::kConsistentHash) {
    uint64_t key = HashString(queued.req.routing_key);
    TargetId target = replica_ring_.LookupAvailable(key, avail);
    return target == kInvalidTarget ? kInvalidReplica : target;
  }

  // kPrefixTree (Listing 1 lines 18-21). Short prompts have little prefill
  // worth saving; balance load instead (§7 request-characteristic routing).
  if (config_.routing.short_prompt_threshold > 0 &&
      queued.req.prompt_tokens() < config_.routing.short_prompt_threshold) {
    // OnLocalDispatch records the placement in the trie as usual.
    return candidates.LeastLoadedAvailable();
  }
  RoutingTrie::Match match = replica_trie_.MatchBest(queued.req.prompt, avail);
  double ratio = queued.req.prompt.empty()
                     ? 0.0
                     : static_cast<double>(match.match_len) /
                           static_cast<double>(queued.req.prompt.size());
  if (!match.candidates.empty() && ratio >= config_.routing.explore_threshold) {
    // Longest-prefix placement; tie-break toward the least-loaded candidate
    // recorded at the deepest usable node.
    ReplicaId best = candidates.LeastLoadedAmong(match.candidates);
    if (best != kInvalidReplica) {
      return best;
    }
  }
  // Low affinity: spread load across under-utilized available replicas.
  return candidates.LeastLoadedAvailable();
}

LbId SkyWalkerLb::StickyRemotePeer(const Queued& queued) {
  auto avail = [this](TargetId id) { return PeerEligible(id); };
  RoutingTrie::Match match = snapshot_trie_.MatchBest(queued.req.prompt, avail);
  if (match.candidates.empty() || queued.req.prompt.empty()) {
    return kInvalidLb;
  }
  double ratio = static_cast<double>(match.match_len) /
                 static_cast<double>(queued.req.prompt.size());
  return ratio >= config_.routing.remote_affinity_threshold
             ? match.candidates.front()
             : kInvalidLb;
}

LbId SkyWalkerLb::SelectPeer(const Queued& queued) {
  auto avail = [this](TargetId id) { return PeerEligible(id); };

  if (config_.routing.policy == RoutingPolicyKind::kConsistentHash) {
    uint64_t key = HashString(queued.req.routing_key);
    TargetId target = lb_ring_.LookupAvailable(key, avail);
    return target == kInvalidTarget ? kInvalidLb : target;
  }

  // kPrefixTree: pick the available region with the highest prefix hit
  // ratio from the regional snapshot (§4.1).
  RoutingTrie::Match match = snapshot_trie_.MatchBest(queued.req.prompt, avail);
  if (!match.candidates.empty() && match.match_len > 0) {
    return match.candidates.front();
  }
  // No snapshot affinity: nearest available peer.
  LbId best = kInvalidLb;
  SimDuration best_latency = std::numeric_limits<SimDuration>::max();
  for (const auto& [lbid, state] : peers_) {
    if (!avail(lbid)) {
      continue;
    }
    SimDuration l = net_->Latency(region_, state.peer->region());
    if (l < best_latency) {
      best = lbid;
      best_latency = l;
    }
  }
  return best;
}

HeadAction SkyWalkerLb::OnQueueHead(Queued& head) {
  // Sticky remote affinity: a conversation whose KV context already lives
  // in another region keeps going there while that peer stays available
  // (otherwise every availability flap would re-prefill the full context
  // on both sides).
  if (!head.forwarded_in && config_.routing.enable_forwarding &&
      config_.routing.policy == RoutingPolicyKind::kPrefixTree) {
    LbId sticky = StickyRemotePeer(head);
    if (sticky != kInvalidLb) {
      Forward(std::move(head), sticky);
      return HeadAction::kTaken;
    }
  }
  // HANDLEREQUEST (Listing 1 line 28): local replicas take precedence.
  return HeadAction::kPlaceLocal;
}

HeadAction SkyWalkerLb::OnUnplaced(Queued& head) {
  if (head.forwarded_in || !config_.routing.enable_forwarding) {
    return HeadAction::kStall;  // Terminal here; wait for local capacity.
  }
  // Flap damping: offload only when local unavailability persists (see
  // RoutingRuntimeConfig::forward_patience).
  if (sim_->now() - last_local_avail_ < config_.routing.forward_patience) {
    return HeadAction::kStall;
  }
  LbId peer = SelectPeer(head);
  if (peer == kInvalidLb) {
    return HeadAction::kStall;  // Nobody available anywhere; stay queued.
  }
  Forward(std::move(head), peer);
  return HeadAction::kTaken;
}

void SkyWalkerLb::OnLocalDispatch(const Queued& queued, ReplicaId replica_id) {
  last_local_avail_ = sim_->now();
  if (config_.routing.policy == RoutingPolicyKind::kPrefixTree) {
    replica_trie_.Insert(queued.req.prompt, replica_id);
  }
}

void SkyWalkerLb::Forward(Queued queued, LbId peer_id) {
  PeerState* state = FindPeer(peer_id);
  SKYWALKER_CHECK(state != nullptr);
  SkyWalkerLb* peer = state->peer;
  ++state->forwards_since_probe;
  ++stats_.forwarded_out;

  if (config_.routing.policy == RoutingPolicyKind::kPrefixTree) {
    // Regional snapshot update (§4.1): remember what this region offloaded
    // where, so future similar prompts follow their cached prefixes.
    snapshot_trie_.Insert(queued.req.prompt, peer_id);
  }

  RegionId peer_region = peer->region();
  if (Tracer* t = sim_->tracer()) {
    EmitTrace(t, sim_->now(), TraceEventType::kForward, region_,
              kInvalidReplica, static_cast<int64_t>(queued.req.id),
              peer_region);
  }
  net_->Send(region_, peer_region,
             [peer, origin = region_, req = std::move(queued.req),
              callbacks = std::move(queued.callbacks)]() mutable {
               peer->HandleForwarded(std::move(req), std::move(callbacks),
                                     origin);
             });
}

void SkyWalkerLb::OnProbeTick() {
  // Track smoothed local headroom for the overload advertisement
  // (kOverloadAvailEwmaThreshold).
  if (engine_.num_replicas() > 0) {
    double fraction = static_cast<double>(AvailableReplicaCount()) /
                      static_cast<double>(engine_.num_replicas());
    avail_fraction_ewma_ = 0.8 * avail_fraction_ewma_ + 0.2 * fraction;
  }
}

void SkyWalkerLb::OnReplicaProbeResult() {
  if (engine_.AnyAvailable()) {
    last_local_avail_ = sim_->now();
  }
}

void SkyWalkerLb::OnAfterReplicaProbes() {
  // Peer LB availability: (available replicas, queue size, overload bit).
  for (auto& [lbid, state] : peers_) {
    SkyWalkerLb* peer = state.peer;
    RegionId peer_region = peer->region();
    LbId peer_id = lbid;
    net_->Send(region_, peer_region, [this, peer, peer_id, peer_region] {
      int avail = peer->AvailableReplicaCount();
      size_t qsize = peer->QueueSize();
      bool overloaded = peer->IsOverloaded();
      net_->Send(peer_region, region_,
                 [this, peer_id, avail, qsize, overloaded] {
                   PeerState* ps = FindPeer(peer_id);
                   if (ps == nullptr) {
                     return;
                   }
                   ps->probed_avail_replicas = avail;
                   ps->probed_queue_size = qsize;
                   ps->probed_overloaded = overloaded;
                   ps->forwards_since_probe = 0;
                   ps->probed_once = true;
                   engine_.TryDispatch();
                 });
    });
  }
}

void SkyWalkerLb::Fail() {
  status_ = HealthStatus::kFailed;
  engine_.Stop();
  stats_.errors_reported += engine_.FlushQueueWithError();
}

void SkyWalkerLb::Recover() {
  status_ = HealthStatus::kHealthy;
  // Reset stale probe state; the restarted loop refreshes it.
  engine_.ResetProbeState();
  for (auto& [lbid, state] : peers_) {
    state.probed_once = false;
    state.forwards_since_probe = 0;
  }
  engine_.Start();
}

}  // namespace skywalker
