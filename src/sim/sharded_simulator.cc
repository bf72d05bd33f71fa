#include "src/sim/sharded_simulator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/trace.h"

namespace skywalker {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

ShardedSimulator::ShardedSimulator(const Topology& topology, int num_shards,
                                   int num_threads, double jitter_fraction)
    : topology_(topology) {
  SKYWALKER_CHECK(num_shards >= 1);
  SKYWALKER_CHECK(topology_.num_regions() >= 1);
  SKYWALKER_CHECK(jitter_fraction >= 0.0 && jitter_fraction < 1.0);
  num_shards = std::min<int>(num_shards,
                             static_cast<int>(topology_.num_regions()));
  num_threads_ = num_threads <= 0 ? num_shards : std::min(num_threads,
                                                          num_shards);

  shard_of_region_.resize(topology_.num_regions());
  for (size_t r = 0; r < topology_.num_regions(); ++r) {
    shard_of_region_[r] = static_cast<int>(r) % num_shards;
  }
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Simulator>());
    shards_.back()->EnableKeyedOrdering(topology_.num_regions());
  }
  mailboxes_.resize(static_cast<size_t>(num_shards) *
                    static_cast<size_t>(num_shards));
  busy_seconds_.assign(static_cast<size_t>(num_shards), 0.0);
  mailbox_in_.assign(static_cast<size_t>(num_shards), 0);
  frontier_.assign(static_cast<size_t>(num_shards), 0);
  target_.assign(static_cast<size_t>(num_shards), 0);
  active_.assign(static_cast<size_t>(num_shards), 0);

  // Per-pair lookahead: for each ordered shard pair (src, dst), the min
  // src->dst one-way latency over region pairs straddling them, discounted
  // by the jitter bound (jittered latency can be as low as
  // floor(latency * (1 - j))). The global lookahead_ is their minimum —
  // identical to the pre-ISSUE-10 single bound.
  pair_lookahead_.assign(static_cast<size_t>(num_shards) *
                             static_cast<size_t>(num_shards),
                         kSimTimeMax);
  const RegionId n = static_cast<RegionId>(topology_.num_regions());
  for (RegionId a = 0; a < n; ++a) {
    for (RegionId b = 0; b < n; ++b) {
      if (ShardOf(a) == ShardOf(b)) {
        continue;
      }
      SimDuration& slot =
          pair_lookahead_[static_cast<size_t>(ShardOf(a)) *
                              static_cast<size_t>(num_shards) +
                          static_cast<size_t>(ShardOf(b))];
      slot = std::min(slot, topology_.Latency(a, b));
    }
  }
  if (num_shards == 1) {
    lookahead_ = kSimTimeMax;
    return;
  }
  lookahead_ = kSimTimeMax;
  for (int src = 0; src < num_shards; ++src) {
    for (int dst = 0; dst < num_shards; ++dst) {
      if (src == dst) {
        continue;
      }
      SimDuration& slot = pair_lookahead_[static_cast<size_t>(src) *
                                              static_cast<size_t>(num_shards) +
                                          static_cast<size_t>(dst)];
      slot = static_cast<SimDuration>(
          std::floor(static_cast<double>(slot) * (1.0 - jitter_fraction)));
      SKYWALKER_CHECK(slot >= 1)
          << "cross-shard latency too small for a lookahead window";
      lookahead_ = std::min(lookahead_, slot);
    }
  }
}

ShardedSimulator::~ShardedSimulator() {
  if (!pool_.empty()) {
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      quit_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& worker : pool_) {
      worker.join();
    }
  }
}

void ShardedSimulator::SetTracer(Tracer* tracer) {
  for (auto& shard : shards_) {
    shard->SetTracer(tracer);
  }
  if (tracer != nullptr) {
    for (size_t r = 0; r < topology_.num_regions(); ++r) {
      const auto region = static_cast<RegionId>(r);
      tracer->BindClock(region, SimForRegion(region));
    }
  }
}

void ShardedSimulator::PostCrossShard(int from_shard, const EventOrder& order,
                                      RegionId target, EventFn fn) {
  Mailbox(from_shard, ShardOf(target))
      .push_back(Mail{order, target, std::move(fn)});
}

void ShardedSimulator::DrainMailboxes() {
  const int S = num_shards();
  for (int dst = 0; dst < S; ++dst) {
    Simulator* sim = shard(dst);
    const SimTime window_end = target_[static_cast<size_t>(dst)];
    for (int src = 0; src < S; ++src) {
      std::vector<Mail>& box = Mailbox(src, dst);
      if (box.empty()) {
        continue;
      }
      for (Mail& mail : box) {
        // The per-pair lookahead contract: target_[dst] <= frontier_[src] +
        // PairLookahead(src, dst) for every src, and anything src sent this
        // round left at or after frontier_[src] with at least the
        // discounted pair latency in flight.
        SKYWALKER_CHECK(mail.order.at >= window_end)
            << "cross-shard message violates the lookahead bound";
        sim->ScheduleKeyedAt(mail.order, mail.target, std::move(mail.fn));
      }
      mailbox_in_[static_cast<size_t>(dst)] += box.size();
      // clear() keeps capacity, so steady-state drains never allocate.
      box.clear();
    }
  }
}

size_t ShardedSimulator::RunUntil(SimTime deadline) {
  const size_t before = executed_events();
  if (num_shards() == 1) {
    const auto t0 = std::chrono::steady_clock::now();
    shards_[0]->RunUntil(deadline);
    busy_seconds_[0] += SecondsSince(t0);
    parallel_seconds_ += SecondsSince(t0);
    ++windows_;
    frontier_[0] = deadline + 1;
    return executed_events() - before;
  }
  RunRounds(deadline);
  for (auto& sim : shards_) {
    sim->AdvanceTo(deadline);
  }
  return executed_events() - before;
}

void ShardedSimulator::RunRounds(SimTime deadline) {
  const int S = num_shards();
  // SimTime is integral, so events with at <= deadline are exactly those
  // with at < deadline + 1 — the final (possibly partial) round.
  const SimTime stop = deadline + 1;
  for (;;) {
    SimTime low = stop;
    for (int s = 0; s < S; ++s) {
      low = std::min(low, frontier_[static_cast<size_t>(s)]);
    }
    if (low >= stop) {
      break;  // Every shard has covered [0, deadline].
    }

    // Each shard advances to the min over its incoming edges. Targets are
    // monotone (minima over frontiers that only grow) and the least
    // frontier gains at least min PairLookahead per round, so the loop
    // terminates.
    int active = 0;
    for (int dst = 0; dst < S; ++dst) {
      SimTime target = stop;
      for (int src = 0; src < S; ++src) {
        if (src == dst) {
          continue;
        }
        target = std::min(target, frontier_[static_cast<size_t>(src)] +
                                      PairLookahead(src, dst));
      }
      SKYWALKER_CHECK(target >= frontier_[static_cast<size_t>(dst)]);
      target_[static_cast<size_t>(dst)] = target;
      const bool busy =
          shards_[static_cast<size_t>(dst)]->NextEventTime() < target;
      active_[static_cast<size_t>(dst)] = busy ? 1 : 0;
      active += busy ? 1 : 0;
    }

    if (active == 0) {
      // Pure frontier bookkeeping: nothing to run, nothing to drain (mail
      // only appears while a shard executes).
      frontier_ = target_;
      continue;
    }

    const auto w0 = std::chrono::steady_clock::now();
    if (active == 1 || num_threads_ <= 1) {
      // A lone busy shard (or serial mode) runs inline: no handshake, no
      // wakeup. The pool — if spawned — is parked on start_cv_, so the
      // main thread may touch shard state freely.
      for (int s = 0; s < S; ++s) {
        if (!active_[static_cast<size_t>(s)]) {
          continue;
        }
        const auto t0 = std::chrono::steady_clock::now();
        shards_[static_cast<size_t>(s)]->RunBefore(
            target_[static_cast<size_t>(s)]);
        busy_seconds_[static_cast<size_t>(s)] += SecondsSince(t0);
      }
    } else {
      EnsurePool();
      // target_ / active_ writes above happen-before the epoch bump under
      // pool_mu_, which workers acquire before reading them.
      {
        std::lock_guard<std::mutex> lock(pool_mu_);
        done_ = 0;
        ++epoch_;
      }
      start_cv_.notify_all();
      {
        std::unique_lock<std::mutex> lock(pool_mu_);
        const int workers = static_cast<int>(pool_.size());
        done_cv_.wait(lock, [this, workers] { return done_ == workers; });
      }
    }
    parallel_seconds_ += SecondsSince(w0);
    ++windows_;
    // Mailboxes were written under the round and are read here after the
    // barrier handshake (mutex-ordered), so the drain needs no extra locks.
    DrainMailboxes();
    frontier_ = target_;
  }
}

void ShardedSimulator::EnsurePool() {
  if (!pool_.empty()) {
    return;
  }
  const int S = num_shards();
  const int W = num_threads_;
  pool_.reserve(static_cast<size_t>(W));
  for (int w = 0; w < W; ++w) {
    pool_.emplace_back([this, w, W, S] {
      uint64_t seen = 0;
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(pool_mu_);
          start_cv_.wait(lock,
                         [this, seen] { return quit_ || epoch_ > seen; });
          if (quit_) {
            return;
          }
          seen = epoch_;
        }
        for (int s = w; s < S; s += W) {
          if (!active_[static_cast<size_t>(s)]) {
            continue;
          }
          const auto t0 = std::chrono::steady_clock::now();
          shards_[static_cast<size_t>(s)]->RunBefore(
              target_[static_cast<size_t>(s)]);
          busy_seconds_[static_cast<size_t>(s)] += SecondsSince(t0);
        }
        {
          std::lock_guard<std::mutex> lock(pool_mu_);
          if (++done_ == W) {
            done_cv_.notify_one();
          }
        }
      }
    });
  }
}

size_t ShardedSimulator::executed_events() const {
  size_t total = 0;
  for (const auto& sim : shards_) {
    total += sim->executed_events();
  }
  return total;
}

std::vector<ShardedSimulator::ShardTiming> ShardedSimulator::Timing() const {
  std::vector<ShardTiming> out(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    out[s].busy_seconds = busy_seconds_[s];
    out[s].barrier_seconds = std::max(0.0, parallel_seconds_ -
                                               busy_seconds_[s]);
    out[s].executed_events = shards_[s]->executed_events();
    out[s].mailbox_in = mailbox_in_[s];
  }
  return out;
}

}  // namespace skywalker
