#include "src/sim/simulator.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/trace.h"

namespace skywalker {

EventId Simulator::ScheduleAt(SimTime at, EventFn fn) {
  const SimTime when = std::max(at, now_);
  if (keyed_) {
    // Self-scheduling: the event both originates from and targets the
    // region whose code is running (handlers re-arming themselves, think
    // timers, probe loops). Cross-region scheduling goes through
    // Network::Send / Network::Deliver.
    SKYWALKER_CHECK(current_region_ != kInvalidEventRegion)
        << "keyed scheduling outside any region scope";
    return events_.PushOrdered(
        EventOrder{when, now_, NextOrderKey(current_region_)},
        current_region_, std::move(fn));
  }
  return events_.PushOrdered(
      EventOrder{when, now_, MakeOrderKey(kInvalidEventRegion, ++plain_seq_)},
      kInvalidEventRegion, std::move(fn));
}

EventId Simulator::ScheduleAfter(SimDuration delay, EventFn fn) {
  return ScheduleAt(now_ + std::max<SimDuration>(delay, 0), std::move(fn));
}

void Simulator::EnableKeyedOrdering(size_t num_regions) {
  SKYWALKER_CHECK(events_.empty() && executed_ == 0)
      << "keyed ordering must be enabled before any scheduling";
  keyed_ = true;
  origin_seq_.assign(num_regions, 0);
}

uint64_t Simulator::NextOrderKey(EventRegion origin) {
  SKYWALKER_CHECK(keyed_);
  SKYWALKER_CHECK(origin >= 0 &&
                  static_cast<size_t>(origin) < origin_seq_.size())
      << "origin region out of range";
  return MakeOrderKey(origin, ++origin_seq_[static_cast<size_t>(origin)]);
}

EventId Simulator::ScheduleKeyedAt(const EventOrder& order,
                                   EventRegion target, EventFn fn) {
  SKYWALKER_CHECK(keyed_);
  // Conservative lookahead: injected events must not land in this shard's
  // executed past, or the event order would be violated.
  SKYWALKER_CHECK(order.at >= now_) << "keyed event scheduled in the past";
  return events_.PushOrdered(order, target, std::move(fn));
}

EventId Simulator::ScheduleStep(SimTime at, SimTime start, EventRegion region,
                                uint32_t ordinal, EventFn fn) {
  SKYWALKER_CHECK(at >= now_ && start <= at) << "step event in the past";
  return events_.PushOrdered(StepOrder(at, start, region, ordinal),
                             keyed_ ? region : kInvalidEventRegion,
                             std::move(fn));
}

void Simulator::SetTracer(Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) {
    tracer_->BindClock(this);
  }
}

void Simulator::CoverThrough(SimTime t) {
  const EventOrder end_of_instant{t, std::numeric_limits<SimTime>::max(),
                                  std::numeric_limits<uint64_t>::max()};
  if (horizon_ < end_of_instant) {
    horizon_ = end_of_instant;
  }
}

size_t Simulator::Run() {
  size_t n = 0;
  while (Step()) {
    ++n;
  }
  return n;
}

size_t Simulator::RunUntil(SimTime deadline) {
  size_t n = 0;
  while (!events_.empty() && events_.PeekTime() <= deadline) {
    Step();
    ++n;
  }
  now_ = std::max(now_, deadline);
  CoverThrough(deadline);
  return n;
}

size_t Simulator::RunBefore(SimTime end) {
  size_t n = 0;
  while (!events_.empty() && events_.PeekTime() < end) {
    Step();
    ++n;
  }
  CoverThrough(end - 1);
  return n;
}

void Simulator::AdvanceTo(SimTime t) {
  now_ = std::max(now_, t);
  CoverThrough(t);
}

bool Simulator::Step() {
  if (events_.empty()) {
    return false;
  }
  EventQueue::Event event = events_.Pop();
  now_ = std::max(now_, event.at);
  if (horizon_ < event.order) {
    horizon_ = event.order;
  }
  if (event.target != kInvalidEventRegion) {
    current_region_ = event.target;
  }
  ++executed_;
  event.fn();
  return true;
}

PeriodicTask::PeriodicTask(Simulator* sim, SimDuration interval, EventFn fn)
    : sim_(sim), interval_(interval), fn_(std::move(fn)) {}

PeriodicTask::~PeriodicTask() { Stop(); }

void PeriodicTask::Start() { StartWithDelay(interval_); }

void PeriodicTask::StartWithDelay(SimDuration initial_delay) {
  Stop();
  running_ = true;
  pending_ = sim_->ScheduleAfter(initial_delay, [this] { Tick(); });
}

void PeriodicTask::Stop() {
  if (pending_ != kInvalidEventId) {
    sim_->Cancel(pending_);
    pending_ = kInvalidEventId;
  }
  running_ = false;
}

void PeriodicTask::Tick() {
  pending_ = kInvalidEventId;
  if (!running_) {
    return;
  }
  fn_();
  if (running_) {  // fn_ may have called Stop().
    pending_ = sim_->ScheduleAfter(interval_, [this] { Tick(); });
  }
}

}  // namespace skywalker
