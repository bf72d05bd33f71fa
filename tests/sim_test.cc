// Unit tests for the discrete-event core: event ordering, cancellation,
// deterministic FIFO tie-breaking, periodic tasks.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"

namespace skywalker {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Push(30, [&] { order.push_back(3); });
  q.Push(10, [&] { order.push_back(1); });
  q.Push(20, [&] { order.push_back(2); });
  while (!q.empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoTieBreakAtSameTime) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Push(100, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  EventId id = q.Push(10, [&] { ++fired; });
  q.Push(20, [&] { ++fired; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // Double cancel fails.
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, CancelledHeadSkipped) {
  EventQueue q;
  int fired = 0;
  EventId first = q.Push(5, [&] { fired = 1; });
  q.Push(10, [&] { fired = 2; });
  q.Cancel(first);
  EXPECT_EQ(q.PeekTime(), 10);
  q.Pop().fn();
  EXPECT_EQ(fired, 2);
}

// The scheduling-time order (DESIGN.md §7.2) must not move ordinary
// events: with per-origin sequence numbers that grow with scheduling time,
// (time, origin, scheduling time, key) pops exactly in the old (time, key)
// order.
TEST(EventQueueTest, SchedulingTimeOrderKeepsTimeKeyOrderForOrdinaryEvents) {
  Rng rng(7);
  EventQueue q;
  struct Pushed {
    SimTime at;
    uint64_t key;
    int tag;
  };
  std::vector<Pushed> pushed;
  std::vector<int> popped;
  std::vector<uint64_t> seq(5, 0);
  SimTime now = 0;
  for (int i = 0; i < 4000; ++i) {
    now += rng.UniformInt(0, 3);
    const auto origin = static_cast<EventRegion>(rng.UniformInt(-1, 3));
    const SimTime at = now + rng.UniformInt(0, 20);
    const uint64_t key =
        MakeOrderKey(origin, ++seq[static_cast<size_t>(origin + 1)]);
    q.PushOrdered(EventOrder{at, now, key}, origin,
                  [&popped, i] { popped.push_back(i); });
    pushed.push_back(Pushed{at, key, i});
  }
  std::sort(pushed.begin(), pushed.end(), [](const Pushed& a, const Pushed& b) {
    return std::tie(a.at, a.key) < std::tie(b.at, b.key);
  });
  std::vector<int> expected;
  for (const Pushed& p : pushed) {
    expected.push_back(p.tag);
  }
  while (!q.empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(popped, expected);
}

// A step event is stamped with the start of the step it ends and sorts
// first among its origin's events scheduled at that instant, by replica
// ordinal.
TEST(EventQueueTest, StepEventPopsFirstAtEqualTimeOriginAndSchedulingTime) {
  EventQueue q;
  std::vector<int> order;
  auto push = [&](SimTime sched, uint64_t key, int tag) {
    q.PushOrdered(EventOrder{100, sched, key}, 1,
                  [&order, tag] { order.push_back(tag); });
  };
  push(50, MakeOrderKey(1, 7), 4);   // Ordinary, scheduled at 50.
  push(50, MakeStepKey(1, 3), 3);    // Step of replica ordinal 3 from 50.
  push(51, MakeOrderKey(1, 8), 5);   // Scheduled after the step began.
  push(50, MakeStepKey(1, 2), 2);    // Step of replica ordinal 2 from 50.
  push(49, MakeOrderKey(1, 6), 1);   // Scheduled before the step began.
  q.PushOrdered(EventOrder{100, 60, MakeOrderKey(0, 9)}, 0,
                [&order] { order.push_back(0); });  // Lower origin first.
  while (!q.empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

// The horizon decides whether a step boundary nobody scheduled yet counts
// as run: during an event, by the running event's order; after
// RunUntil(t), for all of instant t.
TEST(SimulatorTest, HorizonOrdersUnscheduledStepBoundaries) {
  Simulator sim;
  // A step event at 100 for a step that started at 40.
  const EventOrder step = sim.StepOrder(100, 40, kInvalidEventRegion, 0);
  EXPECT_FALSE(sim.HasRun(step));
  bool before = true;
  bool after = false;
  // Scheduled at 0 (before the step started): sorts before the step event.
  sim.ScheduleAt(100, [&] { before = sim.HasRun(step); });
  // Scheduled at 60 (after it started): sorts after it.
  sim.ScheduleAt(60, [&] {
    sim.ScheduleAt(100, [&] { after = sim.HasRun(step); });
  });
  sim.RunUntil(99);
  EXPECT_FALSE(sim.HasRun(step));
  sim.RunUntil(100);
  EXPECT_TRUE(sim.HasRun(step));
  EXPECT_FALSE(before);
  EXPECT_TRUE(after);
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  SimTime observed = -1;
  sim.ScheduleAt(500, [&] { observed = sim.now(); });
  sim.Run();
  EXPECT_EQ(observed, 500);
  EXPECT_EQ(sim.now(), 500);
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime second = -1;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAfter(50, [&] { second = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(second, 150);
}

TEST(SimulatorTest, PastEventsClampToNow) {
  Simulator sim;
  sim.ScheduleAt(100, [] {});
  sim.Run();
  SimTime fired_at = -1;
  sim.ScheduleAt(10, [&] { fired_at = sim.now(); });  // In the past.
  sim.Run();
  EXPECT_EQ(fired_at, 100);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(100, [&] { ++fired; });
  sim.ScheduleAt(200, [&] { ++fired; });
  sim.ScheduleAt(300, [&] { ++fired; });
  size_t executed = sim.RunUntil(250);
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 250);
  EXPECT_TRUE(sim.HasPendingEvents());
}

TEST(SimulatorTest, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.RunUntil(1000);
  EXPECT_EQ(sim.now(), 1000);
}

TEST(SimulatorTest, CancelScheduledEvent) {
  Simulator sim;
  int fired = 0;
  EventId id = sim.ScheduleAt(10, [&] { ++fired; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_EQ(fired, 0);
}

TEST(SimulatorTest, EventsScheduledDuringRunExecute) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.ScheduleAt(10, [&] {
    times.push_back(sim.now());
    sim.ScheduleAfter(5, [&] { times.push_back(sim.now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(PeriodicTaskTest, TicksAtInterval) {
  Simulator sim;
  std::vector<SimTime> ticks;
  PeriodicTask task(&sim, 100, [&] { ticks.push_back(sim.now()); });
  task.Start();
  sim.RunUntil(350);
  task.Stop();
  EXPECT_EQ(ticks, (std::vector<SimTime>{100, 200, 300}));
}

TEST(PeriodicTaskTest, StartWithDelayZeroFiresImmediately) {
  Simulator sim;
  std::vector<SimTime> ticks;
  PeriodicTask task(&sim, 100, [&] { ticks.push_back(sim.now()); });
  task.StartWithDelay(0);
  sim.RunUntil(250);
  task.Stop();
  EXPECT_EQ(ticks, (std::vector<SimTime>{0, 100, 200}));
}

TEST(PeriodicTaskTest, StopInsideCallbackHalts) {
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(&sim, 10, [&] {
    ++ticks;
    // Self-stop after 3 ticks.
  });
  task.Start();
  sim.ScheduleAt(35, [&] { task.Stop(); });
  sim.Run();
  EXPECT_EQ(ticks, 3);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTaskTest, DestructorCancelsPendingTick) {
  Simulator sim;
  int ticks = 0;
  {
    PeriodicTask task(&sim, 10, [&] { ++ticks; });
    task.Start();
  }  // Destroyed before any tick.
  sim.Run();
  EXPECT_EQ(ticks, 0);
}

TEST(PeriodicTaskTest, RestartResetsPhase) {
  Simulator sim;
  std::vector<SimTime> ticks;
  PeriodicTask task(&sim, 100, [&] { ticks.push_back(sim.now()); });
  task.Start();
  sim.RunUntil(150);               // One tick at 100.
  task.StartWithDelay(30);         // Next at 180.
  sim.RunUntil(200);
  task.Stop();
  EXPECT_EQ(ticks, (std::vector<SimTime>{100, 180}));
}

}  // namespace
}  // namespace skywalker
