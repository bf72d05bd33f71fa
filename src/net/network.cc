#include "src/net/network.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace skywalker {

Network::Network(Simulator* sim, Topology topology, double jitter_fraction,
                 uint64_t seed)
    : sim_(sim),
      topology_(std::move(topology)),
      jitter_fraction_(jitter_fraction),
      rng_(seed),
      counters_(1) {}

Network::Network(ShardedSimulator* sharded, double jitter_fraction,
                 uint64_t seed)
    : sharded_(sharded),
      topology_(sharded->topology()),
      jitter_fraction_(jitter_fraction),
      rng_(seed),
      counters_(static_cast<size_t>(sharded->num_shards())) {
  // One jitter stream per region: draws are consumed in the region's own
  // deterministic execution order, independent of shard grouping.
  region_rngs_.reserve(topology_.num_regions());
  for (size_t r = 0; r < topology_.num_regions(); ++r) {
    region_rngs_.push_back(rng_.Fork(r));
  }
}

void Network::Send(RegionId from, RegionId to, EventFn deliver) {
  if (sharded_ == nullptr) {
    ++counters_[0].messages_sent;
    if (from != to) {
      ++counters_[0].cross_region;
    }
    SimDuration latency = topology_.Latency(from, to);
    if (jitter_fraction_ > 0) {
      double factor =
          rng_.Uniform(1.0 - jitter_fraction_, 1.0 + jitter_fraction_);
      latency =
          static_cast<SimDuration>(static_cast<double>(latency) * factor);
    }
    sim_->ScheduleAfter(latency, std::move(deliver));
    return;
  }

  const int from_shard = sharded_->ShardOf(from);
  ShardCounters& counters = counters_[static_cast<size_t>(from_shard)];
  ++counters.messages_sent;
  if (from != to) {
    ++counters.cross_region;
  }
  SimDuration latency = topology_.Latency(from, to);
  if (jitter_fraction_ > 0) {
    double factor = region_rngs_[static_cast<size_t>(from)].Uniform(
        1.0 - jitter_fraction_, 1.0 + jitter_fraction_);
    latency = static_cast<SimDuration>(static_cast<double>(latency) * factor);
  }
  Simulator* sender = sharded_->shard(from_shard);
  const EventOrder order{sender->now() + latency, sender->now(),
                         sender->NextOrderKey(from)};
  if (sharded_->ShardOf(to) == from_shard) {
    sender->ScheduleKeyedAt(order, to, std::move(deliver));
  } else {
    sharded_->PostCrossShard(from_shard, order, to, std::move(deliver));
  }
}

void Network::SendBatch(RegionId from, RegionId to, int count,
                        EventFn deliver) {
  SKYWALKER_CHECK(ZeroJitter())
      << "SendBatch requires a jitter-free network";
  SKYWALKER_CHECK(count >= 1);
  if (sharded_ == nullptr) {
    counters_[0].messages_sent += static_cast<uint64_t>(count);
    if (from != to) {
      counters_[0].cross_region += static_cast<uint64_t>(count);
    }
    sim_->ScheduleAfter(topology_.Latency(from, to), std::move(deliver));
    return;
  }
  const int from_shard = sharded_->ShardOf(from);
  ShardCounters& counters = counters_[static_cast<size_t>(from_shard)];
  counters.messages_sent += static_cast<uint64_t>(count);
  if (from != to) {
    counters.cross_region += static_cast<uint64_t>(count);
  }
  Simulator* sender = sharded_->shard(from_shard);
  const EventOrder order{sender->now() + topology_.Latency(from, to),
                         sender->now(), sender->NextOrderKey(from)};
  if (sharded_->ShardOf(to) == from_shard) {
    sender->ScheduleKeyedAt(order, to, std::move(deliver));
  } else {
    sharded_->PostCrossShard(from_shard, order, to, std::move(deliver));
  }
}

void Network::Deliver(RegionId from, RegionId to, SimDuration delay,
                      EventFn fn) {
  delay = std::max<SimDuration>(delay, 0);
  if (sharded_ == nullptr) {
    sim_->ScheduleAfter(delay, std::move(fn));
    return;
  }
  const int from_shard = sharded_->ShardOf(from);
  Simulator* sender = sharded_->shard(from_shard);
  const EventOrder order{sender->now() + delay, sender->now(),
                         sender->NextOrderKey(from)};
  if (sharded_->ShardOf(to) == from_shard) {
    sender->ScheduleKeyedAt(order, to, std::move(fn));
  } else {
    SKYWALKER_CHECK(delay >= topology_.Latency(from, to))
        << "cross-shard Deliver below the link latency";
    sharded_->PostCrossShard(from_shard, order, to, std::move(fn));
  }
}

uint64_t Network::messages_sent() const {
  uint64_t total = 0;
  for (const ShardCounters& c : counters_) {
    total += c.messages_sent;
  }
  return total;
}

uint64_t Network::cross_region_messages() const {
  uint64_t total = 0;
  for (const ShardCounters& c : counters_) {
    total += c.cross_region;
  }
  return total;
}

}  // namespace skywalker
