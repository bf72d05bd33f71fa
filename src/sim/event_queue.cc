#include "src/sim/event_queue.h"

#include <cassert>
#include <utility>

namespace skywalker {

namespace {
constexpr size_t kArity = 4;
}  // namespace

void EventQueue::SiftUp(size_t i) {
  const Entry moving = heap_[i];
  while (i > 0) {
    size_t parent = (i - 1) / kArity;
    if (!Before(moving, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = moving;
}

void EventQueue::SiftDown(size_t i) {
  const size_t n = heap_.size();
  const Entry moving = heap_[i];
  for (;;) {
    size_t first = i * kArity + 1;
    if (first >= n) {
      break;
    }
    size_t last = first + kArity < n ? first + kArity : n;
    size_t best = first;
    for (size_t c = first + 1; c < last; ++c) {
      if (Before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Before(heap_[best], moving)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = moving;
}

void EventQueue::PopHeapTop() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDown(0);
  }
}

EventId EventQueue::Push(SimTime at, EventFn fn) {
  return PushOrdered(
      EventOrder{at, 0, MakeOrderKey(kInvalidEventRegion, next_seq_++)},
      kInvalidEventRegion, std::move(fn));
}

EventId EventQueue::PushOrdered(const EventOrder& order, EventRegion target,
                                EventFn fn) {
  uint32_t slot = slots_.Acquire();
  slots_[slot] = Payload{std::move(fn), target};
  heap_.push_back(Entry{order, slot, slots_.gen(slot)});
  SiftUp(heap_.size() - 1);
  return slots_.MakeHandle(slot);
}

void EventQueue::ReleaseSlot(uint32_t slot) {
  // Drop the callback; slots may idle on the free list.
  slots_[slot] = Payload{};
  slots_.Release(slot);
}

bool EventQueue::Cancel(EventId id) {
  if (!slots_.IsValid(id)) {
    return false;  // Already ran, already cancelled, or never existed.
  }
  // The heap entry stays behind; SkipStale drops it (generation mismatch)
  // when it reaches the top.
  ReleaseSlot(GenSlotPool<Payload>::HandleSlot(id));
  return true;
}

EventQueue::Event EventQueue::Pop() {
  SkipStale();
  assert(!heap_.empty());
  const Entry top = heap_.front();
  PopHeapTop();
  Event event{top.order.at, slots_.MakeHandle(top.slot),
              std::move(slots_[top.slot].fn), slots_[top.slot].target,
              top.order};
  ReleaseSlot(top.slot);
  return event;
}

}  // namespace skywalker
