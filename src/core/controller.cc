#include "src/core/controller.h"

#include <limits>

#include "src/common/logging.h"

namespace skywalker {

Controller::Controller(Simulator* sim, Network* net,
                       const ControllerConfig& config)
    : sim_(sim), net_(net), config_(config) {
  probe_task_ = std::make_unique<PeriodicTask>(
      sim_, config_.health_probe_interval, [this] { ProbeHealth(); });
}

Controller::~Controller() = default;

void Controller::ManageLb(SkyWalkerLb* lb) {
  ManagedLb entry;
  entry.lb = lb;
  lbs_.emplace(lb->id(), entry);
}

void Controller::Start() {
  // Keyed-ordering scope for the probe loop (no-op in plain mode).
  sim_->SetCurrentRegion(config_.home_region);
  probe_task_->StartWithDelay(0);
}

SkyWalkerLb* Controller::NearestHealthyLb(RegionId region, LbId exclude) {
  SkyWalkerLb* best = nullptr;
  SimDuration best_latency = std::numeric_limits<SimDuration>::max();
  for (auto& [lbid, entry] : lbs_) {
    if (lbid == exclude || !entry.lb->Serving()) {
      continue;
    }
    SimDuration l = net_->Latency(region, entry.lb->region());
    if (l < best_latency) {
      best = entry.lb;
      best_latency = l;
    }
  }
  return best;
}

void Controller::ProbeHealth() {
  for (auto& [lbid, entry] : lbs_) {
    // Failover reacts to hard LB failure only; degraded/ejected replica
    // states below a live LB are the dispatch engine's business.
    if (entry.lb->Status() == HealthStatus::kFailed &&
        !entry.failover_active) {
      HandleFailure(entry);
    }
  }
}

void Controller::HandleFailure(ManagedLb& entry) {
  entry.failover_active = true;
  ++stats_.failovers_handled;
  SkyWalkerLb* failed = entry.lb;
  SkyWalkerLb* backup = NearestHealthyLb(failed->region(), failed->id());
  if (backup == nullptr) {
    SKYWALKER_LOG(Error) << "no healthy LB to absorb replicas of LB "
                         << failed->id();
    return;
  }
  // Reassign the failed LB's replicas to the nearest healthy LB, which
  // temporarily treats them as local replicas (§4.2).
  std::vector<Replica*> replicas = failed->ManagedReplicas();
  for (Replica* replica : replicas) {
    failed->DetachReplica(replica->id());
    backup->AttachReplica(replica);
    entry.displaced.emplace_back(replica, backup);
    ++stats_.replicas_reassigned;
  }
  if (config_.auto_recovery_delay > 0) {
    LbId failed_id = failed->id();
    sim_->ScheduleAfter(config_.auto_recovery_delay,
                        [this, failed_id] { RecoverLb(failed_id); });
  }
}

bool Controller::RecoverLb(LbId lb_id) {
  auto it = lbs_.find(lb_id);
  if (it == lbs_.end() || !it->second.failover_active) {
    return false;
  }
  ManagedLb& entry = it->second;
  entry.lb->Recover();
  // Transfer displaced replicas back to their home LB.
  for (auto& [replica, host] : entry.displaced) {
    host->DetachReplica(replica->id());
    entry.lb->AttachReplica(replica);
  }
  entry.displaced.clear();
  entry.failover_active = false;
  ++stats_.recoveries_completed;
  return true;
}

}  // namespace skywalker
