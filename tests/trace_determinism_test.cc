// Trace determinism contract (ISSUE 9, DESIGN.md §11):
//
//   1. Lifecycle tracing never perturbs the simulation: a traced fleet run's
//      per-request outcome stream, summary metrics and event count are
//      bit-identical to the untraced run's, with coalesced engine steps and
//      on the per-step oracle alike, and both export the same trace bytes —
//      as does a run whose one-token pages are named rather than counted.
//   2. Exported trace bytes are bit-identical across shard/thread counts —
//      {1, 4} shards x {1, 8} threads and the plain reference all produce
//      the same SKTRACE1 buffer, because records are buffered per region and
//      merged by the (time, region, emitting event's order, append index)
//      order.
//   3. A capped tracer's steady state allocates nothing: once a ring reaches
//      its slab cap, drop-oldest recycles slab storage instead of growing.
//      (Counted with a global operator new replacement, the
//      tests/event_queue_alloc_test.cc idiom.)

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/harness/run.h"
#include "src/memory/kv_controller.h"
#include "src/obs/trace.h"
#include "src/replica/replica.h"

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#define SKYWALKER_NOINLINE __attribute__((noinline))
#else
#define SKYWALKER_NOINLINE
#endif

namespace {
std::atomic<long long> g_news{0};
}  // namespace

SKYWALKER_NOINLINE void* operator new(size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
SKYWALKER_NOINLINE void* operator new[](size_t size) {
  return ::operator new(size);
}
SKYWALKER_NOINLINE void* operator new(size_t size, std::align_val_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  void* p = std::aligned_alloc(static_cast<size_t>(align),
                               (size + static_cast<size_t>(align) - 1) &
                                   ~(static_cast<size_t>(align) - 1));
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
SKYWALKER_NOINLINE void* operator new[](size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// std::stable_sort's temporary buffer (Tracer::Merged) comes from the
// nothrow form and goes back through sized delete; replacing it too keeps
// every allocation on malloc/free, so ASan sees matched pairs.
SKYWALKER_NOINLINE void* operator new(size_t size,
                                      const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
SKYWALKER_NOINLINE void* operator new[](size_t size,
                                        const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
SKYWALKER_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
SKYWALKER_NOINLINE void operator delete[](void* p) noexcept {
  ::operator delete(p);
}
SKYWALKER_NOINLINE void operator delete(void* p, size_t) noexcept {
  ::operator delete(p);
}
SKYWALKER_NOINLINE void operator delete[](void* p, size_t) noexcept {
  ::operator delete(p);
}
SKYWALKER_NOINLINE void operator delete(void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
SKYWALKER_NOINLINE void operator delete[](void* p,
                                          std::align_val_t) noexcept {
  ::operator delete(p);
}
SKYWALKER_NOINLINE void operator delete(void* p, size_t,
                                        std::align_val_t) noexcept {
  ::operator delete(p);
}
SKYWALKER_NOINLINE void operator delete[](void* p, size_t,
                                          std::align_val_t) noexcept {
  ::operator delete(p);
}

namespace skywalker {
namespace {

long long NewCount() { return g_news.load(std::memory_order_relaxed); }

constexpr int kRegions = 4;

RunSpec SmallFleet() {
  RunSpec spec;
  spec.topology = Topology::FourRegions();
  spec.system.replicas_per_region = {2, 2, 2, 2};
  spec.workload = ChatWorkload({3, 3, 3, 3}, ClientConfig(), 23);
  spec.warmup = Seconds(2);
  spec.measure = Seconds(6);
  spec.collect_trace = true;
  return spec;
}

// Both engine-step paths: coalesced stable stretches and the per-step
// oracle (DESIGN.md §13). Tracing never changes a run or its event count on
// either, and both export the same trace bytes — a stretch's virtual steps
// are emitted at catch-up and merged back into per-step order.
TEST(TraceDeterminismTest, TracingNeverPerturbsTheRun) {
  std::string trace_bytes[2];
  size_t events[2] = {0, 0};
  for (bool oracle : {false, true}) {
    SCOPED_TRACE(oracle ? "per-step oracle" : "coalesced");
    Replica::set_per_step_oracle(oracle);
    RunSpec spec = SmallFleet();
    spec.num_shards = 0;
    const RunResult untraced = skywalker::Run(spec);
    ASSERT_GT(untraced.completed, 0u);

    Tracer tracer(kRegions);
    spec.tracer = &tracer;
    const RunResult traced = skywalker::Run(spec);
    Replica::set_per_step_oracle(false);
    EXPECT_GT(tracer.size(), 0);

    // Every observable of the run is bit-identical with tracing on.
    EXPECT_EQ(traced.trace, untraced.trace);
    EXPECT_EQ(traced.completed, untraced.completed);
    EXPECT_EQ(traced.throughput_tok_s, untraced.throughput_tok_s);
    EXPECT_EQ(traced.ttft_p50_s, untraced.ttft_p50_s);
    EXPECT_EQ(traced.ttft_p90_s, untraced.ttft_p90_s);
    EXPECT_EQ(traced.e2e_p90_s, untraced.e2e_p90_s);
    EXPECT_EQ(traced.messages_sent, untraced.messages_sent);
    EXPECT_EQ(traced.executed_events, untraced.executed_events);
    trace_bytes[oracle ? 1 : 0] = TraceToBinary(tracer.Merged(), {});
    events[oracle ? 1 : 0] = traced.executed_events;
  }
  EXPECT_TRUE(trace_bytes[0] == trace_bytes[1])
      << "coalesced and per-step traces differ";
  EXPECT_LT(events[0], events[1]);

  // Named one-token pages, the counted pool's reference (DESIGN.md §9).
  RunSpec spec = SmallFleet();
  spec.num_shards = 0;
  Tracer tracer(kRegions);
  spec.tracer = &tracer;
  KvController::set_named_pages_oracle(true);
  const RunResult named = skywalker::Run(spec);
  KvController::set_named_pages_oracle(false);
  EXPECT_GT(named.completed, 0u);
  EXPECT_EQ(named.executed_events, events[0]);
  EXPECT_TRUE(TraceToBinary(tracer.Merged(), {}) == trace_bytes[0])
      << "named-page and counted-page traces differ";
}

TEST(TraceDeterminismTest, TraceBytesIdenticalAcrossShardsAndThreads) {
  // Reference: plain single-threaded simulator.
  RunSpec spec = SmallFleet();
  spec.num_shards = 0;
  Tracer reference_tracer(kRegions);
  spec.tracer = &reference_tracer;
  const RunResult reference = skywalker::Run(spec);
  ASSERT_GT(reference.completed, 0u);
  ASSERT_GT(reference_tracer.size(), 0);
  const std::string reference_bytes =
      TraceToBinary(reference_tracer.Merged(), {});

  struct Config {
    int shards;
    int threads;
  };
  for (Config config :
       std::vector<Config>{{1, 1}, {1, 8}, {4, 1}, {4, 8}}) {
    SCOPED_TRACE("shards=" + std::to_string(config.shards) +
                 " threads=" + std::to_string(config.threads));
    RunSpec run_spec = SmallFleet();
    run_spec.num_shards = config.shards;
    run_spec.num_threads = config.threads;
    Tracer tracer(kRegions);
    run_spec.tracer = &tracer;
    const RunResult result = skywalker::Run(run_spec);
    EXPECT_EQ(result.trace, reference.trace);
    EXPECT_EQ(TraceToBinary(tracer.Merged(), {}), reference_bytes);
  }
}

TEST(TraceDeterminismTest, CappedTracerSteadyStateDoesNotAllocate) {
  // Cap each ring at 4 slabs, then emit far past the cap: every further
  // emission recycles the oldest slab in place (std::rotate of the pointer
  // vector), so the counting window sees zero allocations.
  constexpr int64_t kCap = 4 * static_cast<int64_t>(Tracer::kSlabRecords);
  Tracer tracer(2, kCap);
  // Alternate regions so *each* ring fills past its cap and starts
  // recycling.
  for (int64_t i = 0; i < 2 * (kCap + 1); ++i) {
    EmitTrace(&tracer, i, TraceEventType::kSubmit, static_cast<int32_t>(i % 2),
              -1, i);
  }
  ASSERT_GT(tracer.dropped(), 0);  // Both rings warm and at cap.

  const long long baseline = NewCount();
  for (int64_t i = 0; i < 200'000; ++i) {
    EmitTrace(&tracer, kCap + i, TraceEventType::kEngineStep,
              static_cast<int32_t>(i % 2), 1, -1, 8, 2, 100.0);
  }
  EXPECT_EQ(NewCount() - baseline, 0)
      << "emitting against capped warm rings must not allocate";
  EXPECT_GT(tracer.dropped(), kCap);
}

}  // namespace
}  // namespace skywalker
