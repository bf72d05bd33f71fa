#include "src/workload/client.h"

#include <atomic>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/trace.h"

namespace skywalker {

RequestId NextRequestId() {
  // Atomic because skybench runs independent simulator cells on a thread
  // pool. Ids only label requests (no routing or ordering decision reads
  // them), so cross-cell allocation order does not affect results — the
  // determinism tests verify byte-identical output across thread counts.
  static std::atomic<RequestId> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void SubmitViaNetwork(Network* net, RegionId client_region, Frontend* frontend,
                      Request req, RequestCallbacks callbacks) {
  Simulator* sim = net->SimForRegion(client_region);
  req.submit_time = sim->now();
  if (Tracer* t = sim->tracer()) {
    EmitTrace(t, req.submit_time, TraceEventType::kSubmit, client_region,
              kInvalidReplica, static_cast<int64_t>(req.id),
              req.prompt_tokens());
  }
  RegionId to = frontend->region();
  net->Send(client_region, to,
            [frontend, req = std::move(req),
             callbacks = std::move(callbacks)]() mutable {
              frontend->HandleRequest(std::move(req), std::move(callbacks));
            });
}

ConversationClient::ConversationClient(
    Simulator* sim, Network* net, FrontendResolver* resolver,
    ConversationGenerator* generator, MetricsSink* metrics, RegionId region,
    const ClientConfig& config, uint64_t seed)
    : sim_(sim),
      net_(net),
      resolver_(resolver),
      generator_(generator),
      metrics_(metrics),
      region_(region),
      config_(config),
      rng_(seed) {
  user_ = generator_->MakeUser(region_);
  next_request_id_ = config_.request_id_base;
}

void ConversationClient::Start(SimDuration initial_delay) {
  // Keyed-ordering scope (no-op in plain mode): the kickoff event belongs
  // to this client's region.
  sim_->SetCurrentRegion(region_);
  sim_->ScheduleAfter(initial_delay, [this] { BeginConversation(); });
}

void ConversationClient::BeginConversation() {
  if (sim_->now() > config_.stop_issuing_after) {
    return;
  }
  current_ = generator_->MakeConversation(user_);
  next_turn_ = 0;
  IssueTurn();
}

void ConversationClient::IssueTurn() {
  if (sim_->now() > config_.stop_issuing_after) {
    return;
  }
  Frontend* frontend = resolver_->Resolve(region_);
  if (frontend == nullptr) {
    // No healthy frontend; retry after a backoff (DNS re-resolution).
    sim_->ScheduleAfter(Seconds(1), [this] { IssueTurn(); });
    return;
  }
  const auto& turn = current_.turns[next_turn_];
  Request req;
  req.id = config_.request_id_base == 0 ? NextRequestId() : next_request_id_++;
  req.user_id = user_.user_id;
  req.session_id = current_.session_id;
  req.client_region = region_;
  req.prompt = turn.prompt;
  req.output = turn.output;
  req.routing_key = user_.routing_key;

  RequestCallbacks callbacks;
  callbacks.on_complete = [this](const RequestOutcome& outcome) {
    OnTurnComplete(outcome);
  };
  callbacks.on_error = [this] {
    // Re-resolve DNS after a short backoff and retry the same turn.
    ++errors_;
    sim_->ScheduleAfter(Milliseconds(500), [this] { IssueTurn(); });
  };
  ++issued_requests_;
  SubmitViaNetwork(net_, region_, frontend, std::move(req),
                   std::move(callbacks));
}

void ConversationClient::OnTurnComplete(const RequestOutcome& outcome) {
  ++completed_requests_;
  if (metrics_ != nullptr) {
    metrics_->RecordOutcome(outcome);
  }
  ++next_turn_;
  if (next_turn_ < current_.turns.size()) {
    SimDuration think = static_cast<SimDuration>(
        rng_.Exponential(1.0 / ToSeconds(config_.think_time_mean)) * 1e6);
    sim_->ScheduleAfter(think, [this] { IssueTurn(); });
  } else {
    ++completed_conversations_;
    SimDuration gap = static_cast<SimDuration>(
        rng_.Exponential(1.0 / ToSeconds(config_.program_gap_mean)) * 1e6);
    sim_->ScheduleAfter(gap, [this] { BeginConversation(); });
  }
}

ToTClient::ToTClient(Simulator* sim, Network* net, FrontendResolver* resolver,
                     ToTGenerator* generator, MetricsSink* metrics,
                     RegionId region, const ClientConfig& config,
                     uint64_t seed)
    : sim_(sim),
      net_(net),
      resolver_(resolver),
      generator_(generator),
      metrics_(metrics),
      region_(region),
      config_(config),
      rng_(seed) {
  user_id_ = static_cast<UserId>(rng_.Next() >> 1);
  next_request_id_ = config_.request_id_base;
}

void ToTClient::Start(SimDuration initial_delay) {
  sim_->SetCurrentRegion(region_);
  sim_->ScheduleAfter(initial_delay, [this] { BeginTree(); });
}

void ToTClient::BeginTree() {
  if (sim_->now() > config_.stop_issuing_after) {
    return;
  }
  current_ = generator_->MakeTree();
  current_level_ = 0;
  IssueLevel();
}

void ToTClient::IssueLevel() {
  const auto& level =
      current_.levels[static_cast<size_t>(current_level_)];
  level_pending_ = level.size();
  Frontend* frontend = resolver_->Resolve(region_);
  if (frontend == nullptr) {
    sim_->ScheduleAfter(Seconds(1), [this] { IssueLevel(); });
    return;
  }
  for (int node_idx : level) {
    const auto& node = current_.nodes[static_cast<size_t>(node_idx)];
    Request req;
    req.id =
        config_.request_id_base == 0 ? NextRequestId() : next_request_id_++;
    req.user_id = user_id_;
    req.session_id = current_.session_id;
    req.client_region = region_;
    req.prompt = node.prompt;
    req.output = node.output;
    req.routing_key = current_.routing_key;

    RequestCallbacks callbacks;
    callbacks.on_complete = [this](const RequestOutcome& outcome) {
      OnNodeComplete(outcome);
    };
    ++issued_requests_;
    SubmitViaNetwork(net_, region_, frontend, std::move(req),
                     std::move(callbacks));
  }
}

void ToTClient::OnNodeComplete(const RequestOutcome& outcome) {
  ++completed_requests_;
  if (metrics_ != nullptr) {
    metrics_->RecordOutcome(outcome);
  }
  SKYWALKER_CHECK(level_pending_ > 0);
  if (--level_pending_ > 0) {
    return;
  }
  ++current_level_;
  if (current_level_ < static_cast<int>(current_.levels.size())) {
    IssueLevel();
  } else {
    ++completed_trees_;
    SimDuration gap = static_cast<SimDuration>(
        rng_.Exponential(1.0 / ToSeconds(config_.program_gap_mean)) * 1e6);
    sim_->ScheduleAfter(gap, [this] { BeginTree(); });
  }
}

}  // namespace skywalker
