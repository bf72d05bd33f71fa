// Region-sharded parallel discrete-event simulation with conservative
// lookahead (ISSUE 6; classic Chandy–Misra–Bryant windowing).
//
// The fleet's regions are partitioned into N shards, each owning one
// Simulator (queue + clock + RNG domains for its regions). Execution
// proceeds in rounds against per-shard frontiers (ISSUE 10): shard pair
// (src, dst) carries a conservative bound L[src][dst] = the minimum
// src->dst one-way latency over region pairs, and each round shard s runs
// its events in [frontier[s], target[s]) where
//     target[s] = min over src != s of (frontier[src] + L[src][s]),
// because any message src sent during its own window delivers at
// sender_now + latency >= frontier[src] + L[src][s] >= target[s]. A close
// region pair therefore throttles only the shards it actually feeds, not
// the whole fleet (the pre-ISSUE-10 scheme ran every shard to the single
// global minimum). Frontiers are monotone (each new target is a min over
// frontiers that only grew) and live (the least-advanced shard strictly
// gains at least min L per round). Shards with no event before their
// target skip execution entirely.
//
// With more than one thread, the rounds run on a persistent worker pool
// that synchronizes itself: RunUntil plans the first round, hands the
// deadline to the workers and parks once until the pool reports the
// deadline covered; it runs no shard itself, which keeps the
// simulation's allocations out of the malloc arena the caller builds its
// next run with (DESIGN.md §12.2). Worker w runs its statically owned
// shards (w, w+W, ...) and arrives at an atomic counter. The last worker
// to arrive does the serial step: it drains the per-(src,dst) mailboxes
// into the destination queues in a fixed order — CHECKing
// mail.at >= target[dst] — advances the frontiers, plans the next round,
// and publishes it by bumping an atomic generation. Waiting workers spin
// with a CPU pause, then yield, then park on a condition variable
// (kSpinPauses, kYieldFor). With one thread the same rounds run inline on
// the calling thread.
//
// Determinism is structural, not scheduling-dependent: every event carries
// an order (time, origin region, scheduling time, per-origin key) — see
// event_queue.h — so each shard's execution order, and therefore each
// region's observable behavior, is a pure function of per-region histories.
// Shard count, thread count and which worker happens to drain change only
// which queue an event waits in, never the order regions observe. Mailbox
// drain order (ascending source shard) is fixed for reproducible queue
// internals, though any drain order yields the same execution: the heap
// orders by the carried key.
//
// Restrictions in sharded mode (single-shard/plain mode is unaffected):
//  * cross-region interaction must flow through Network::Send /
//    Network::Deliver (direct cross-region method calls would race);
//  * fault injection (LB Fail/Recover, controller failover) is not
//    supported — those paths mutate remote-region state directly.

#ifndef SKYWALKER_SIM_SHARDED_SIMULATOR_H_
#define SKYWALKER_SIM_SHARDED_SIMULATOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/sim_time.h"
#include "src/net/topology.h"
#include "src/sim/simulator.h"

namespace skywalker {

class ShardedSimulator {
 public:
  // Fixed shard assignment: region r -> shard r % num_shards (part of the
  // determinism contract; see DESIGN.md §7.2). `num_threads` sizes the
  // worker pool, capped at the shard count (0 = one thread per shard; 1 =
  // serial rounds on the calling thread, same results). `jitter_fraction`
  // must be an upper bound on the Network jitter so the lookahead window
  // stays conservative under jittered latencies.
  ShardedSimulator(const Topology& topology, int num_shards,
                   int num_threads = 0, double jitter_fraction = 0.0);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int num_threads() const { return num_threads_; }
  const Topology& topology() const { return topology_; }

  // The per-pair conservative bound: min src->dst one-way latency over
  // region pairs straddling the two shards, jitter-discounted. kSimTimeMax
  // on the diagonal (a shard never throttles itself).
  SimDuration PairLookahead(int src_shard, int dst_shard) const {
    return pair_lookahead_[static_cast<size_t>(src_shard) *
                               static_cast<size_t>(num_shards()) +
                           static_cast<size_t>(dst_shard)];
  }

  // Installs one shared Tracer on every shard (ISSUE 9). Safe because the
  // tracer buffers per *region* and each region's events execute on exactly
  // one shard; see src/obs/trace.h. Each region's ring is stamped by its
  // own shard's clock.
  void SetTracer(Tracer* tracer);

  int ShardOf(RegionId region) const {
    return shard_of_region_[static_cast<size_t>(region)];
  }
  Simulator* shard(int s) { return shards_[static_cast<size_t>(s)].get(); }
  Simulator* SimForRegion(RegionId region) { return shard(ShardOf(region)); }

  // Cross-shard message injection (Network's sharded send path). Only the
  // thread currently executing `from_shard` may call this; the mail is
  // drained into the destination shard at the next window barrier.
  void PostCrossShard(int from_shard, const EventOrder& order,
                      RegionId target, EventFn fn);

  // Windowed parallel execution of all shards up to and including
  // `deadline`; every shard clock ends at >= deadline (Simulator::RunUntil
  // parity). With a pool, the calling thread parks until the workers have
  // covered the deadline. Returns events executed across shards during
  // this call.
  size_t RunUntil(SimTime deadline);

  size_t executed_events() const;

  // Per-shard wall-time breakdown of all RunUntil calls so far: busy is
  // in-window event execution on the shard, barrier is the remainder of the
  // rounds' wall time (waiting on straggler shards, the barrier itself and
  // mailbox drains). Nondeterministic; feeds the BENCH_TIMING.json sidecar
  // and perfbench only.
  struct ShardTiming {
    double busy_seconds = 0;
    double barrier_seconds = 0;
    uint64_t executed_events = 0;
    uint64_t mailbox_in = 0;  // Cross-shard messages delivered to the shard.
  };
  std::vector<ShardTiming> Timing() const;
  // Rounds that executed at least one shard window. Rounds where every
  // shard was already past its target (pure frontier bookkeeping) are not
  // counted — they do no simulation work.
  uint64_t windows() const { return windows_; }
  // The rounds' wall time split per round into the mean thread's busy
  // time, the straggler (slowest thread's busy time minus the mean) and
  // the handshake (round wall time minus the slowest thread's busy time:
  // wakeups, the barrier, the drain and planning). Summed over rounds,
  //   sum(busy_seconds) / num_threads() + straggler + handshake
  // equals the rounds' wall time, busy_seconds[s] + barrier_seconds[s].
  double straggler_seconds() const { return straggler_seconds_; }
  double handshake_seconds() const { return handshake_seconds_; }

 private:
  struct Mail {
    EventOrder order;  // The sender's key and clock, carried end to end.
    RegionId target;
    EventFn fn;
  };

  std::vector<Mail>& Mailbox(int from_shard, int to_shard) {
    return mailboxes_[static_cast<size_t>(from_shard) *
                          static_cast<size_t>(num_shards()) +
                      static_cast<size_t>(to_shard)];
  }

  // Moves all pending mail into destination queues; mail delivery into
  // shard d must land at or after target_[d] (the per-pair lookahead
  // guarantee, CHECKed).
  void DrainMailboxes();

  // Plans the next round toward `stop` (deadline + 1): sets target_ and
  // active_, skipping rounds with no shard to run. Returns false once every
  // frontier has reached `stop`.
  bool PlanRound(SimTime stop);
  // Adds one executed round to windows_ and the timing split.
  void AccountRound(double wall, double busy_max, double busy_sum);
  // Runs the round's active shards among first, first + stride, ...;
  // returns their summed busy time.
  double RunActiveShards(int first, int stride);
  // The rounds inline on the calling thread (num_threads_ == 1).
  void RunSerial(SimTime stop);
  // The rounds on the worker pool; the first is already planned.
  void RunPooled(SimTime stop);

  // Pool side. Spawns the workers on first use.
  void EnsurePool();
  void WorkerLoop(int worker);
  // The last arriver's serial step: account, drain, plan, publish or
  // report the deadline covered.
  void FinishRound();
  // Starts the planned round (or the shutdown) on every worker.
  void Publish();
  // Returns the first generation other than `seen`: spins, yields, parks.
  uint64_t AwaitRound(uint64_t seen);

  // A waiting worker first spins this many CPU pauses (about 11 us at the
  // 21 ns a pause takes on a current Xeon), then yields for at most
  // kYieldFor, then parks. A spinning worker keeps its core from every
  // other thread, so the spin stays short: 2048 pauses won no more on
  // perfbench fleet_sharded, and made full-size skybench --all, whose
  // cells run beside each other's pools, burn 5 s more CPU and take 25%
  // longer than 512 did.
  static constexpr int kSpinPauses = 512;
  static constexpr std::chrono::microseconds kYieldFor{500};

  Topology topology_;
  int num_threads_;
  std::vector<SimDuration> pair_lookahead_;  // Dense S x S; see PairLookahead.
  std::vector<int> shard_of_region_;
  std::vector<std::unique_ptr<Simulator>> shards_;
  // Dense (src, dst) mailbox matrix. A box is written only by the thread
  // executing its source shard inside a round and drained only after every
  // thread has finished the round (by the last arriver, or inline), so no
  // synchronization beyond the barrier itself is needed.
  std::vector<std::vector<Mail>> mailboxes_;
  // Per-shard window state. frontier_[s]: everything before it has executed
  // on shard s. target_[s] / active_[s]: the window end and participation
  // flag for the round in flight, written by whoever plans the round and
  // published to workers by the generation bump.
  std::vector<SimTime> frontier_;
  std::vector<SimTime> target_;
  std::vector<uint8_t> active_;
  SimTime stop_ = 0;  // The pooled RunUntil's deadline + 1.

  // Timing accounting (telemetry only). busy_seconds_[s] is written solely
  // by the thread running shard s; the rest by whoever finishes a round.
  std::vector<double> busy_seconds_;
  std::vector<uint64_t> mailbox_in_;
  double parallel_seconds_ = 0;
  double straggler_seconds_ = 0;
  double handshake_seconds_ = 0;
  uint64_t windows_ = 0;

  // Persistent worker pool (num_threads_ > 1). Worker w owns shards w,
  // w+W, ... — static ownership keeps busy_seconds_[s] single-writer.
  // Every write a round makes is ordered before the next round's reads by
  // the arrival counter (acq_rel) and the generation bump (release/
  // acquire). parked_ counts workers parked on wake_cv_, so a publish
  // touches the mutex only when one is; the caller parks on done_cv_ until
  // run_done_. Spawned on first use, joined in the destructor.
  struct alignas(64) WorkerBusy {
    double seconds = 0;  // This worker's busy time in the current round.
  };
  std::vector<WorkerBusy> worker_busy_;
  alignas(64) std::atomic<uint64_t> generation_{0};
  bool quit_ = false;  // Read by workers right after a new generation.
  alignas(64) std::atomic<int> arrived_{0};
  std::atomic<int> parked_{0};
  std::chrono::steady_clock::time_point round_start_;
  std::mutex pool_mu_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  bool run_done_ = false;
  // Declared last: the workers use every member above.
  std::vector<std::thread> pool_;
};

}  // namespace skywalker

#endif  // SKYWALKER_SIM_SHARDED_SIMULATOR_H_
