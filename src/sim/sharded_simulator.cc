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

// One spin-wait step: tells the core a spin loop is running, so it yields
// pipeline resources to a sibling hyperthread.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
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
  // floor(latency * (1 - j))).
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
    }
  }
}

ShardedSimulator::~ShardedSimulator() {
  if (pool_.empty()) {
    return;
  }
  // No round is in flight (RunUntil has returned), so every worker is
  // spinning, yielding or parked on the current generation.
  quit_ = true;
  Publish();
  for (std::thread& worker : pool_) {
    worker.join();
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
    const double busy = SecondsSince(t0);
    busy_seconds_[0] += busy;
    AccountRound(busy, busy, busy);
    frontier_[0] = deadline + 1;
    return executed_events() - before;
  }
  // SimTime is integral, so events with at <= deadline are exactly those
  // with at < deadline + 1 — the final (possibly partial) round.
  const SimTime stop = deadline + 1;
  if (num_threads_ <= 1) {
    RunSerial(stop);
  } else if (PlanRound(stop)) {
    RunPooled(stop);
  }
  for (auto& sim : shards_) {
    sim->AdvanceTo(deadline);
  }
  return executed_events() - before;
}

bool ShardedSimulator::PlanRound(SimTime stop) {
  const int S = num_shards();
  for (;;) {
    SimTime low = stop;
    for (int s = 0; s < S; ++s) {
      low = std::min(low, frontier_[static_cast<size_t>(s)]);
    }
    if (low >= stop) {
      return false;  // Every shard has covered [0, stop).
    }

    // Each shard advances to the min over its incoming edges. Targets are
    // monotone (minima over frontiers that only grow) and the least
    // frontier gains at least min PairLookahead per round, so the loop
    // terminates.
    bool any_active = false;
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
      any_active = any_active || busy;
    }
    if (any_active) {
      return true;
    }
    // Pure frontier bookkeeping: nothing to run, nothing to drain (mail
    // only appears while a shard executes).
    frontier_ = target_;
  }
}

void ShardedSimulator::AccountRound(double wall, double busy_max,
                                    double busy_sum) {
  // Clock reads on different threads can land a hair apart; the round
  // lasted at least as long as its slowest thread was busy.
  wall = std::max(wall, busy_max);
  parallel_seconds_ += wall;
  straggler_seconds_ +=
      std::max(0.0, busy_max - busy_sum / static_cast<double>(num_threads_));
  handshake_seconds_ += wall - busy_max;
  ++windows_;
}

double ShardedSimulator::RunActiveShards(int first, int stride) {
  double busy = 0;
  for (int s = first; s < num_shards(); s += stride) {
    if (!active_[static_cast<size_t>(s)]) {
      continue;
    }
    const auto t0 = std::chrono::steady_clock::now();
    shards_[static_cast<size_t>(s)]->RunBefore(
        target_[static_cast<size_t>(s)]);
    const double seconds = SecondsSince(t0);
    busy_seconds_[static_cast<size_t>(s)] += seconds;
    busy += seconds;
  }
  return busy;
}

void ShardedSimulator::RunSerial(SimTime stop) {
  while (PlanRound(stop)) {
    const auto w0 = std::chrono::steady_clock::now();
    const double busy = RunActiveShards(0, 1);
    DrainMailboxes();
    frontier_ = target_;
    AccountRound(SecondsSince(w0), busy, busy);
  }
}

void ShardedSimulator::RunPooled(SimTime stop) {
  EnsurePool();
  stop_ = stop;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    run_done_ = false;
  }
  round_start_ = std::chrono::steady_clock::now();
  Publish();
  // The one park per call: the pool runs every round, including the last
  // drain, before it sets run_done_.
  std::unique_lock<std::mutex> lock(pool_mu_);
  done_cv_.wait(lock, [this] { return run_done_; });
}

void ShardedSimulator::EnsurePool() {
  if (!pool_.empty()) {
    return;
  }
  worker_busy_.resize(static_cast<size_t>(num_threads_));
  pool_.reserve(static_cast<size_t>(num_threads_));
  for (int w = 0; w < num_threads_; ++w) {
    pool_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

void ShardedSimulator::WorkerLoop(int worker) {
  uint64_t seen = 0;
  for (;;) {
    seen = AwaitRound(seen);
    if (quit_) {
      return;
    }
    worker_busy_[static_cast<size_t>(worker)].seconds =
        RunActiveShards(worker, num_threads_);
    // acq_rel: the last arriver's increment reads the release sequence of
    // every earlier one, so it sees every worker's round.
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        num_threads_) {
      arrived_.store(0, std::memory_order_relaxed);
      FinishRound();
    }
  }
}

void ShardedSimulator::FinishRound() {
  double busy_max = 0;
  double busy_sum = 0;
  for (const WorkerBusy& worker : worker_busy_) {
    busy_max = std::max(busy_max, worker.seconds);
    busy_sum += worker.seconds;
  }
  DrainMailboxes();
  frontier_ = target_;
  const bool more = PlanRound(stop_);
  const auto now = std::chrono::steady_clock::now();
  AccountRound(
      std::chrono::duration<double>(now - round_start_).count(), busy_max,
      busy_sum);
  if (more) {
    round_start_ = now;
    Publish();
    return;
  }
  std::lock_guard<std::mutex> lock(pool_mu_);
  run_done_ = true;
  done_cv_.notify_one();
}

void ShardedSimulator::Publish() {
  // seq_cst pairs with AwaitRound's park: either the parking worker's
  // re-check sees the new generation, or this load sees it parked.
  generation_.fetch_add(1, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) > 0) {
    // Taking the mutex waits out a worker between its re-check and its
    // wait, so the notify cannot fall before the wait.
    { std::lock_guard<std::mutex> lock(pool_mu_); }
    wake_cv_.notify_all();
  }
}

uint64_t ShardedSimulator::AwaitRound(uint64_t seen) {
  for (int i = 0; i < kSpinPauses; ++i) {
    const uint64_t generation = generation_.load(std::memory_order_acquire);
    if (generation != seen) {
      return generation;
    }
    CpuRelax();
  }
  const auto yield_start = std::chrono::steady_clock::now();
  do {
    std::this_thread::yield();
    const uint64_t generation = generation_.load(std::memory_order_acquire);
    if (generation != seen) {
      return generation;
    }
  } while (std::chrono::steady_clock::now() - yield_start < kYieldFor);
  std::unique_lock<std::mutex> lock(pool_mu_);
  parked_.fetch_add(1, std::memory_order_seq_cst);
  wake_cv_.wait(lock, [this, seen] {
    return generation_.load(std::memory_order_seq_cst) != seen;
  });
  parked_.fetch_sub(1, std::memory_order_relaxed);
  return generation_.load(std::memory_order_acquire);
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
