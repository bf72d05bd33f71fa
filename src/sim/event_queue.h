// Priority event queue for the discrete-event simulator.
//
// Events run in a strict total order: (time, origin region, scheduling
// time, key) — see EventOrder. An ordinary event's key carries a sequence
// number that grows with scheduling time, so equal-time ordinary events
// execute in scheduling order, which makes runs deterministic. An engine
// step event is stamped with the start of the step it ends, and sorts
// first among events of its origin scheduled at that instant (DESIGN.md
// §7.2, §13).
//
// Layout (ISSUE 3): the binary heap holds 32-byte POD entries
// {order, slot, generation} — sift operations are memcpy-speed — while
// the callback lives in a slot slab addressed by index. Cancellation is
// zero-tombstone: Cancel bumps the slot's generation and recycles it, and
// Pop/PeekTime discard heap entries whose generation no longer matches (the
// stale entry is the only residue, and it is dropped the moment it reaches
// the heap top — there is no side set to maintain). Callbacks are
// InlineFunction, so neither Push nor Pop allocates in steady state: slots
// come from a free list, the heap vector reuses its capacity, and small
// lambdas are stored in place.

#ifndef SKYWALKER_SIM_EVENT_QUEUE_H_
#define SKYWALKER_SIM_EVENT_QUEUE_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "src/common/gen_slot_pool.h"
#include "src/common/inline_function.h"
#include "src/common/sim_time.h"

namespace skywalker {

using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// Matches RegionId in src/net/topology.h. Spelled as the underlying type
// here so sim/ stays independent of net/ (net/ layers on top of sim/).
using EventRegion = int32_t;
inline constexpr EventRegion kInvalidEventRegion = -1;

// Scheduled-callback type. Small captures are stored inline (no heap);
// oversized functors transparently fall back to one allocation.
using EventFn = InlineFunction;

// Deterministic cross-shard ordering key (ISSUE 6): packs (origin region,
// low bits) so that the key's high bits order equal-time events by origin
// region first. The low bits are a per-origin sequence for ordinary events
// and a per-simulator replica ordinal for engine-step events, which sort
// below every ordinary event: at equal (time, origin, scheduling time), step
// events run first, in ordinal order. Every key is a pure function of the
// origin region's own execution history, so the resulting total order is
// independent of how regions are grouped into shards and of thread count.
inline constexpr int kOrderKeySeqBits = 40;
inline constexpr uint64_t kOrdinaryKeyBit = uint64_t{1}
                                            << (kOrderKeySeqBits - 1);
inline constexpr uint64_t MakeOrderKey(EventRegion origin, uint64_t seq) {
  return (static_cast<uint64_t>(origin + 1) << kOrderKeySeqBits) |
         kOrdinaryKeyBit | seq;
}
inline constexpr uint64_t MakeStepKey(EventRegion origin, uint32_t ordinal) {
  return (static_cast<uint64_t>(origin + 1) << kOrderKeySeqBits) | ordinal;
}

// An event's position in the total order: (at, origin, sched, key), where
// origin is the key's high bits. Ordinary events' sequence numbers grow
// with scheduling time within an origin, so for them this is exactly the
// (at, key) order; `sched` only decides ties against step events, whose
// key holds no sequence (DESIGN.md §7.2).
struct EventOrder {
  SimTime at = 0;     // When the event runs.
  SimTime sched = 0;  // When it was scheduled; a step event: its step's start.
  uint64_t key = 0;   // MakeOrderKey / MakeStepKey.
};

inline bool operator<(const EventOrder& a, const EventOrder& b) {
  if (a.at != b.at) {
    return a.at < b.at;
  }
  const uint64_t a_origin = a.key >> kOrderKeySeqBits;
  const uint64_t b_origin = b.key >> kOrderKeySeqBits;
  if (a_origin != b_origin) {
    return a_origin < b_origin;
  }
  if (a.sched != b.sched) {
    return a.sched < b.sched;
  }
  return a.key < b.key;
}

class EventQueue {
 public:
  // Enqueues `fn` to run at absolute time `at`. Returns a handle usable with
  // Cancel(). Tie-break at equal times: push (FIFO) order — an ordinary
  // event of no region, scheduled at time 0.
  EventId Push(SimTime at, EventFn fn);

  // Enqueues at an explicit order position (see EventOrder) targeting
  // `target`, which Pop() surfaces so a sharded executor can scope the
  // handler to its region. Orders must be unique; the simulator allocates
  // them, and FIFO pushes must not be mixed in (their sequence would
  // interleave arbitrarily with the caller's).
  EventId PushOrdered(const EventOrder& order, EventRegion target, EventFn fn);

  // Cancels a pending event. Returns false if the event already ran, was
  // already cancelled, or never existed.
  bool Cancel(EventId id);

  bool empty() const { return slots_.live() == 0; }
  size_t size() const { return slots_.live(); }

  // Timestamp of the earliest live event. Requires !empty(). Inline: the
  // sharded round loop peeks once per shard per round and the simulator
  // once per executed event (ISSUE 10).
  SimTime PeekTime() {
    SkipStale();
    assert(!heap_.empty());
    return heap_.front().order.at;
  }

  // Pops the earliest live event. Requires !empty(). `target` is the region
  // given to PushOrdered, or kInvalidEventRegion for FIFO pushes.
  struct Event {
    SimTime at;
    EventId id;
    EventFn fn;
    EventRegion target = kInvalidEventRegion;
    EventOrder order;
  };
  Event Pop();

 private:
  // Slot payload: the callback plus the target region for ordered events.
  struct Payload {
    EventFn fn;
    EventRegion target = kInvalidEventRegion;
  };
  // Trivially copyable heap entry; the heap never touches callbacks, which
  // live in the generation-stamped slot pool (releasing a slot invalidates
  // both the outstanding EventId and any stale heap entry in one store).
  struct Entry {
    EventOrder order;
    uint32_t slot;
    uint32_t gen;
  };
  static_assert(sizeof(Entry) == 32, "heap entries stay 32-byte PODs");

  bool IsLive(const Entry& entry) const {
    return slots_.gen(entry.slot) == entry.gen;
  }

  // 4-ary min-heap on the event order: half the sift depth of a binary
  // heap, and the four children of a node share two cache lines. The order
  // is strict and total — keys are unique — so pop order is independent of
  // heap arity.
  static bool Before(const Entry& a, const Entry& b) {
    return a.order < b.order;
  }
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  void PopHeapTop();

  // Drops stale (cancelled) entries from the heap top. Inline because the
  // common case — a live front — is a single generation compare.
  void SkipStale() {
    while (!heap_.empty() && !IsLive(heap_.front())) {
      PopHeapTop();
    }
  }

  void ReleaseSlot(uint32_t slot);

  std::vector<Entry> heap_;
  GenSlotPool<Payload> slots_;
  uint64_t next_seq_ = 1;
};

}  // namespace skywalker

#endif  // SKYWALKER_SIM_EVENT_QUEUE_H_
