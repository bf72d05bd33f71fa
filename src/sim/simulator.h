// Single-threaded discrete-event simulator. All actors (clients, load
// balancers, replicas, the controller) share one Simulator instance; the
// simulated clock only advances between events, so event handlers observe a
// consistent "now".
//
// Events run in scheduling-time order: (time, origin region, scheduling
// time, key), see EventOrder in event_queue.h. In plain mode every event
// has the same (empty) origin and ordinary keys count up in scheduling
// order, so equal-time events run in the order they were scheduled. Engine
// step events are stamped with the start of the step they end (a replica
// may schedule one event for a whole stretch of steps, DESIGN.md §13).
//
// Sharded mode (ISSUE 6): a ShardedSimulator owns one Simulator per region
// group and advances them in conservative-lookahead windows. Each shard then
// runs with *keyed ordering* enabled: the origin is the region that
// scheduled the event and the key counts per origin, instead of one global
// sequence. That order is a pure function of each region's own execution
// history, so results are bit-identical for any grouping of regions into
// shards and any thread count. See DESIGN.md §7.2.

#ifndef SKYWALKER_SIM_SIMULATOR_H_
#define SKYWALKER_SIM_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "src/common/sim_time.h"
#include "src/sim/event_queue.h"

namespace skywalker {

class Tracer;  // src/obs/trace.h; sim/ stores only the pointer.

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedules `fn` at absolute simulated time `at` (clamped to now).
  // EventFn stores small lambdas inline — scheduling does not allocate.
  // With keyed ordering enabled, the event is keyed to the current region
  // (it targets the region whose handler — or Start() scope — is running).
  EventId ScheduleAt(SimTime at, EventFn fn);

  // Schedules `fn` after `delay` (clamped to zero).
  EventId ScheduleAfter(SimDuration delay, EventFn fn);

  // Cancels a pending event; false if it already fired or was cancelled.
  bool Cancel(EventId id) { return events_.Cancel(id); }

  // Runs until the event queue drains. Returns events executed.
  size_t Run();

  // Runs events with timestamp <= `deadline`; the clock ends at
  // min(deadline, time of last event) or `deadline` if events remain.
  size_t RunUntil(SimTime deadline);

  // RunUntil(now + d).
  size_t RunFor(SimDuration d) { return RunUntil(now_ + d); }

  // Executes at most one event. Returns false when the queue is empty.
  bool Step();

  bool HasPendingEvents() const { return !events_.empty(); }
  size_t pending_events() const { return events_.size(); }
  size_t executed_events() const { return executed_; }

  // Timestamp of the earliest pending event, kSimTimeMax when idle. The
  // sharded round planner uses this to skip shards with nothing to run
  // inside their window (ISSUE 10).
  SimTime NextEventTime() {
    return events_.empty() ? kSimTimeMax : events_.PeekTime();
  }

  // --- keyed (region-deterministic) ordering: sharded-simulator mode ---

  // Switches this shard to per-origin-region keys (see the file comment).
  // Must be called before anything is scheduled. Region ids are global
  // (topology) ids; only regions owned by this shard allocate keys here.
  void EnableKeyedOrdering(size_t num_regions);
  bool keyed_ordering() const { return keyed_; }

  // The region whose code is currently executing. Step() sets it from the
  // popped event; actor Start() methods set it while scheduling from setup
  // code (no-op information in plain mode).
  void SetCurrentRegion(EventRegion region) { current_region_ = region; }
  EventRegion current_region() const { return current_region_; }

  // Allocates the next ordering key for events originated by `origin`.
  // Requires keyed ordering; `origin` must be owned by this shard.
  uint64_t NextOrderKey(EventRegion origin);

  // Schedules at an explicit order position and target region — the
  // injection path for network sends and cross-shard mailbox drains, whose
  // order carries the sender's key and clock. `order.at` must not lie in
  // this shard's past (the conservative-lookahead guarantee).
  EventId ScheduleKeyedAt(const EventOrder& order, EventRegion target,
                          EventFn fn);

  // Runs all events with timestamp < `end` (one lookahead window). Does not
  // advance the clock to `end`; the ShardedSimulator calls AdvanceTo at the
  // final deadline for RunUntil parity.
  size_t RunBefore(SimTime end);

  // now = max(now, t), with every event at or before `t` counted as run
  // (the sharded RunUntil's final step, after all shards covered `t`).
  void AdvanceTo(SimTime t);

  // --- engine-step events (DESIGN.md §13) ---

  // A per-simulator ordinal for one replica: the tie-break among step
  // events of one origin with equal (time, scheduling time). Replicas take
  // ordinals in construction order, so the relative order of one region's
  // replicas does not depend on how regions are grouped into shards.
  uint32_t AssignStepOrdinal() { return next_step_ordinal_++; }

  // The order position of the step event a replica with `ordinal` in
  // `region` schedules to run at `at` for the step that started at
  // `start`. Stretch coalescing compares these against horizon() for the
  // step boundaries it has not materialized yet.
  EventOrder StepOrder(SimTime at, SimTime start, EventRegion region,
                       uint32_t ordinal) const {
    return EventOrder{
        at, start,
        MakeStepKey(keyed_ ? region : kInvalidEventRegion, ordinal)};
  }

  // Schedules a step event at StepOrder(at, start, region, ordinal).
  // `start` may lie in the future: a stretch's end event carries the start
  // of its last step.
  EventId ScheduleStep(SimTime at, SimTime start, EventRegion region,
                       uint32_t ordinal, EventFn fn);

  // Everything ordered before the horizon has run: during an event it is
  // the largest order executed so far (normally the running event's own);
  // after RunUntil(t) or AdvanceTo(t) it covers all of instant t.
  const EventOrder& horizon() const { return horizon_; }
  bool HasRun(const EventOrder& order) const { return order < horizon_; }

  // --- observability (ISSUE 9) ---
  // Installs a request-lifecycle tracer (borrowed; may be null). Emission
  // sites do `if (Tracer* t = sim->tracer()) t->Emit(...)`, so with no
  // tracer installed — the default — tracing costs one pointer load and a
  // never-taken branch per site. The tracer is a passive record sink: it
  // never schedules events or mutates actor state, so traced runs stay
  // bit-identical to untraced runs (DESIGN.md §11). In sharded mode every
  // shard's Simulator shares one Tracer, whose per-region rings make that
  // safe (each region's events execute on exactly one shard).
  // Installing a tracer binds this simulator's horizon as the order stamp
  // of the records emitted under it (src/obs/trace.h).
  void SetTracer(Tracer* tracer);
  Tracer* tracer() const { return tracer_; }

 private:
  // Raises the horizon to the end of instant `t`.
  void CoverThrough(SimTime t);

  EventQueue events_;
  SimTime now_ = 0;
  EventOrder horizon_;
  size_t executed_ = 0;
  Tracer* tracer_ = nullptr;
  uint64_t plain_seq_ = 0;  // Ordinary-event sequence in plain mode.
  uint32_t next_step_ordinal_ = 0;

  bool keyed_ = false;
  EventRegion current_region_ = kInvalidEventRegion;
  // Per-origin-region sequence counters (keyed mode). Indexed by global
  // region id; only this shard's regions advance.
  std::vector<uint64_t> origin_seq_;
};

// Repeats a callback at a fixed interval until stopped or the owner is
// destroyed. Used for heartbeat probes and availability sync. The callback
// is an EventFn (InlineFunction), so ticking stays allocation-free for
// small captures, like every other event on the hot path.
class PeriodicTask {
 public:
  PeriodicTask(Simulator* sim, SimDuration interval, EventFn fn);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  // Starts ticking; first tick after one interval (or `initial_delay`).
  void Start();
  void StartWithDelay(SimDuration initial_delay);
  void Stop();
  bool running() const { return running_; }

  SimDuration interval() const { return interval_; }
  void set_interval(SimDuration interval) { interval_ = interval; }

 private:
  void Tick();

  Simulator* sim_;
  SimDuration interval_;
  EventFn fn_;
  EventId pending_ = kInvalidEventId;
  bool running_ = false;
};

}  // namespace skywalker

#endif  // SKYWALKER_SIM_SIMULATOR_H_
