#include "src/lb/gateway.h"

#include <limits>
#include <utility>

#include "src/common/logging.h"

namespace skywalker {

class GatewayLb::Endpoint : public Frontend {
 public:
  Endpoint(GatewayLb* owner, RegionId region) : owner_(owner), region_(region) {}

  RegionId region() const override { return region_; }

  void HandleRequest(Request req, RequestCallbacks callbacks) override {
    owner_->Route(region_, std::move(req), std::move(callbacks));
  }

 private:
  GatewayLb* owner_;
  RegionId region_;
};

GatewayLb::GatewayLb(Simulator* sim, Network* net, const GatewayConfig& config)
    : sim_(sim), net_(net), config_(config) {}

GatewayLb::~GatewayLb() = default;

int GatewayLb::Cluster::TotalOutstanding() const {
  int total = 0;
  for (const ReplicaSlot& slot : replicas) {
    total += slot.outstanding;
  }
  return total;
}

void GatewayLb::AttachReplica(Replica* replica) {
  Cluster& cluster = clusters_[replica->region()];
  cluster.region = replica->region();
  cluster.replicas.push_back(ReplicaSlot{replica, 0});
}

Frontend* GatewayLb::EndpointFor(RegionId region) {
  auto it = endpoints_.find(region);
  if (it == endpoints_.end()) {
    it = endpoints_
             .emplace(region, std::make_unique<Endpoint>(this, region))
             .first;
  }
  return it->second.get();
}

GatewayLb::Cluster* GatewayLb::ClusterFor(RegionId region) {
  auto it = clusters_.find(region);
  return it == clusters_.end() ? nullptr : &it->second;
}

GatewayLb::Cluster* GatewayLb::PickCluster(RegionId client_cluster_region) {
  auto under_threshold = [this](const Cluster& c) {
    if (c.replicas.empty()) {
      return false;
    }
    double mean = static_cast<double>(c.TotalOutstanding()) /
                  static_cast<double>(c.replicas.size());
    return mean < config_.spill_outstanding_per_replica;
  };

  Cluster* local = ClusterFor(client_cluster_region);
  if (local != nullptr && under_threshold(*local)) {
    return local;
  }
  // Nearest cluster (by one-way latency) with headroom.
  Cluster* best = nullptr;
  SimDuration best_latency = std::numeric_limits<SimDuration>::max();
  for (auto& [region, cluster] : clusters_) {
    if (!under_threshold(cluster)) {
      continue;
    }
    SimDuration l = net_->Latency(client_cluster_region, region);
    if (l < best_latency) {
      best = &cluster;
      best_latency = l;
    }
  }
  if (best != nullptr) {
    return best;
  }
  // Everyone saturated: globally least utilized non-empty cluster.
  double best_mean = std::numeric_limits<double>::max();
  for (auto& [region, cluster] : clusters_) {
    if (cluster.replicas.empty()) {
      continue;
    }
    double mean = static_cast<double>(cluster.TotalOutstanding()) /
                  static_cast<double>(cluster.replicas.size());
    if (mean < best_mean) {
      best = &cluster;
      best_mean = mean;
    }
  }
  return best;
}

GatewayLb::ReplicaSlot* GatewayLb::PickReplica(Cluster* cluster) {
  ReplicaSlot* best = nullptr;
  int best_outstanding = std::numeric_limits<int>::max();
  for (ReplicaSlot& slot : cluster->replicas) {
    if (slot.outstanding < best_outstanding) {
      best = &slot;
      best_outstanding = slot.outstanding;
    }
  }
  return best;
}

void GatewayLb::Route(RegionId endpoint_region, Request req,
                      RequestCallbacks callbacks) {
  ++stats_.received;
  Cluster* cluster = PickCluster(endpoint_region);
  SKYWALKER_CHECK(cluster != nullptr) << "gateway has no clusters";
  ReplicaSlot* slot = PickReplica(cluster);
  SKYWALKER_CHECK(slot != nullptr);
  if (cluster->region != endpoint_region) {
    ++stats_.spilled;
  }
  Replica* replica = slot->replica;
  ++slot->outstanding;

  const RegionId client_region = req.client_region;
  const RegionId replica_region = replica->region();
  const SimDuration response_latency =
      net_->Latency(replica_region, endpoint_region) +
      net_->Latency(endpoint_region, client_region);

  auto outcome = std::make_shared<RequestOutcome>();
  outcome->id = req.id;
  outcome->user_id = req.user_id;
  outcome->client_region = client_region;
  outcome->served_region = replica_region;
  outcome->replica = replica->id();
  outcome->submit_time = req.submit_time;
  outcome->prompt_tokens = req.prompt_tokens();
  outcome->output_tokens = req.output_tokens();
  outcome->hops = cluster->region == endpoint_region ? 1 : 2;
  outcome->forwarded = cluster->region != endpoint_region;

  auto shared_callbacks =
      std::make_shared<RequestCallbacks>(std::move(callbacks));

  Replica::Handlers handlers;
  handlers.on_first_token = [this, outcome, response_latency](
                                const Request& /*r*/, int64_t cached) {
    outcome->cached_prompt_tokens = cached;
    outcome->first_token_time = sim_->now() + response_latency;
  };
  ReplicaId rid = replica->id();
  RegionId cluster_region = cluster->region;
  handlers.on_complete = [this, outcome, shared_callbacks, response_latency,
                          rid, cluster_region](const Request& /*r*/,
                                               int64_t cached) {
    outcome->cached_prompt_tokens = cached;
    outcome->completion_time = sim_->now() + response_latency;
    if (shared_callbacks->on_complete) {
      sim_->ScheduleAfter(response_latency, [shared_callbacks, outcome] {
        shared_callbacks->on_complete(*outcome);
      });
    }
    ++stats_.completed;
    Cluster* c = ClusterFor(cluster_region);
    if (c != nullptr) {
      for (ReplicaSlot& slot_ref : c->replicas) {
        if (slot_ref.replica->id() == rid && slot_ref.outstanding > 0) {
          --slot_ref.outstanding;
          break;
        }
      }
    }
  };

  net_->Send(endpoint_region, replica_region,
             [replica, req = std::move(req),
              handlers = std::move(handlers)]() mutable {
               replica->Enqueue(std::move(req), std::move(handlers));
             });
}

}  // namespace skywalker
