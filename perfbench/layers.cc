#include "layers.h"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "replays.h"
#include "report.h"
#include "src/obs/attribution.h"
#include "src/obs/trace.h"

namespace perfbench {

using namespace skywalker;

namespace {

constexpr int kUntracedCalls = 3;
// Rings grow in 4096-record slabs only as needed; the cap just has to sit
// above every workload's per-region record count, so nothing is dropped.
constexpr int64_t kMaxRecordsPerRegion = int64_t{1} << 26;

// Counts by record type over a merged trace.
struct Tally {
  int64_t steps = 0;
  int64_t prefill_tokens = 0;
  int64_t decoded = 0;  // Sequences that decoded a token, summed over steps.
  int64_t preemptions = 0;
  int64_t swap_outs = 0;
  int64_t watermark_rejects = 0;
  int64_t evict_victims = 0;  // Evictions the replica asked for.
  int64_t admitted_prompt_tokens = 0;
  int64_t decisions = 0;
  int64_t probes = 0;
  int64_t completes = 0;  // Replica-side completions.
};

Tally TallyRecords(const std::vector<TraceRecord>& records) {
  Tally t;
  for (const TraceRecord& r : records) {
    switch (static_cast<TraceEventType>(r.type)) {
      case TraceEventType::kEngineStep:
        ++t.steps;
        t.prefill_tokens += r.a;
        t.decoded += r.b;
        break;
      case TraceEventType::kPreempt:
        ++t.preemptions;
        break;
      case TraceEventType::kKvSwapOut:
        ++t.swap_outs;
        break;
      case TraceEventType::kWatermarkReject:
        ++t.watermark_rejects;
        break;
      case TraceEventType::kCacheEvict:
        t.evict_victims += r.a;
        break;
      case TraceEventType::kAdmit:
        t.admitted_prompt_tokens += r.a + r.b;  // Cached + to prefill.
        break;
      case TraceEventType::kRouteDecision:
        ++t.decisions;
        break;
      case TraceEventType::kProbe:
        ++t.probes;
        break;
      case TraceEventType::kComplete:
        ++t.completes;
        break;
      default:
        break;
    }
  }
  return t;
}

// Each component's share of the summed TTFT (client submit to first token
// at the replica) over requests whose first token fell in the window.
struct TtftShares {
  double network = 0;
  double lb_queue = 0;
  double stall = 0;
  double preempt = 0;
  double prefill = 0;
};

TtftShares Shares(const std::vector<RequestAttribution>& attributions,
                  SimTime from, SimTime to) {
  double total = 0;
  TtftShares s;
  for (const RequestAttribution& a : attributions) {
    if (a.ttft_us < 0 || a.first_token < from || a.first_token >= to) {
      continue;
    }
    total += static_cast<double>(a.ttft_us);
    s.network += static_cast<double>(a.network_us);
    s.lb_queue += static_cast<double>(a.lb_queue_us);
    s.stall += static_cast<double>(a.stall_us);
    s.preempt += static_cast<double>(a.preempt_us);
    s.prefill += static_cast<double>(a.prefill_us);
  }
  if (total > 0) {
    for (double* share :
         {&s.network, &s.lb_queue, &s.stall, &s.preempt, &s.prefill}) {
      *share /= total;
    }
  }
  return s;
}

// Public counters of the traced world, read before teardown.
struct Observed {
  int64_t steps = 0;
  int64_t preemptions = 0;
  // Cache evictions, including those PrefixCache::Insert makes on its own,
  // which carry no kCacheEvict record.
  int64_t evict_victims = 0;
  int64_t evict_freed_pages = 0;
  int64_t replica_completed = 0;
  double hit_rate = 0;
  double prefix_hit_frac = 0;
  uint64_t messages = 0;
  uint64_t cross_region_messages = 0;
  std::unordered_set<uint64_t> client_completed;
};

Observed Observe(const World& world) {
  Observed o;
  for (const auto& replica : world.deployment().replicas()) {
    o.steps += replica->stats().engine_steps;
    o.preemptions += replica->stats().preemptions;
    o.replica_completed += replica->stats().completed;
    o.evict_victims += replica->cache().eviction_stats().victims;
    o.evict_freed_pages += replica->cache().eviction_stats().freed_blocks;
  }
  o.hit_rate = world.deployment().AggregateCacheHitRate();
  o.messages = world.network().messages_sent();
  o.cross_region_messages = world.network().cross_region_messages();
  int64_t in_window = 0;
  int64_t hit = 0;
  for (const RequestOutcome& outcome : world.outcomes()) {
    o.client_completed.insert(outcome.id);
    if (outcome.completion_time >= world.spec().warmup &&
        outcome.completion_time < world.spec().end()) {
      ++in_window;
      hit += outcome.cached_prompt_tokens > 0 ? 1 : 0;
    }
  }
  o.prefix_hit_frac = in_window == 0 ? 0.0
                                     : static_cast<double>(hit) /
                                           static_cast<double>(in_window);
  return o;
}

// The per-request conservation proof of the traced call: every request a
// balancer accepted from a client completed at the client, errored, or is
// still in flight; submissions no balancer accepted are still crossing the
// client->balancer hop. The replica emits kComplete, so a completed request
// whose reply is still on the wire counts as in flight, awaiting its reply.
struct Conservation {
  int64_t accepted = 0;
  int64_t completed = 0;
  int64_t errored = 0;
  int64_t in_flight = 0;
  int64_t awaiting_reply = 0;
  int64_t in_submit_hop = 0;
};

Conservation Conserve(const std::vector<TraceRecord>& records,
                      const Observed& observed, const WorkloadSpec& spec,
                      const Counts& counts, Checks* checks) {
  struct Life {
    SimTime submit = -1;
    bool accepted = false;
    bool replica_done = false;
    bool errored = false;
  };
  std::unordered_map<int64_t, Life> lives;
  for (const TraceRecord& r : records) {
    if (r.request < 0) {
      continue;
    }
    switch (static_cast<TraceEventType>(r.type)) {
      case TraceEventType::kSubmit:
        lives[r.request].submit = r.time;
        break;
      case TraceEventType::kLbEnqueue:
        if (r.b == 0) {  // First contact, not a forwarded-in request.
          lives[r.request].accepted = true;
        }
        break;
      case TraceEventType::kComplete:
        lives[r.request].replica_done = true;
        break;
      case TraceEventType::kLbError:
      case TraceEventType::kTimeout:
        lives[r.request].errored = true;
        break;
      default:
        break;
    }
  }
  int64_t unexplained = 0;
  for (uint64_t id : observed.client_completed) {
    auto it = lives.find(static_cast<int64_t>(id));
    if (it == lives.end() || it->second.submit < 0 || !it->second.accepted ||
        !it->second.replica_done) {
      ++unexplained;
    }
  }
  checks->Expect(unexplained == 0,
                 std::to_string(unexplained) +
                     " client completions lack a submit, accept or complete "
                     "record");

  SimDuration max_hop = 0;
  const auto regions = static_cast<RegionId>(spec.topology.num_regions());
  for (RegionId a = 0; a < regions; ++a) {
    for (RegionId b = 0; b < regions; ++b) {
      max_hop = std::max(max_hop, spec.topology.Latency(a, b));
    }
  }
  Conservation c;
  int64_t stale_submits = 0;
  for (const auto& [id, life] : lives) {
    if (!life.accepted) {
      ++c.in_submit_hop;
      stale_submits += life.submit < spec.end() - max_hop ? 1 : 0;
      continue;
    }
    ++c.accepted;
    if (observed.client_completed.count(static_cast<uint64_t>(id)) > 0) {
      ++c.completed;
    } else if (life.errored) {
      ++c.errored;
    } else {
      ++c.in_flight;
      c.awaiting_reply += life.replica_done ? 1 : 0;
    }
  }
  checks->Expect(stale_submits == 0,
                 std::to_string(stale_submits) +
                     " submissions never reached a balancer");
  checks->Expect(c.accepted == counts.sent && c.completed == counts.succeeded &&
                     c.errored == counts.failed,
                 "trace and balancer/client counters disagree on accepted, "
                 "completed or errored requests");
  checks->Expect(c.in_flight == counts.InFlight(),
                 "in flight per trace (" + std::to_string(c.in_flight) +
                     ") != sent - succeeded - failed (" +
                     std::to_string(counts.InFlight()) + ")");
  checks->Expect(counts.issued < 0 ||
                     counts.issued - counts.sent == c.in_submit_hop,
                 "clients issued - balancers accepted != submissions in the "
                 "client->balancer hop");
  return c;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace

int RunLayers(const WorkloadSpec& spec, uint64_t seed,
              const std::string& out_dir) {
  Spans spans;
  Checks checks;
  int64_t attempted = 0;
  int64_t failed = 0;
  auto account = [&](const RepResult& rep) {
    attempted += rep.total.sent;
    failed += rep.total.failed + rep.total.vanished;
  };
  auto expect_same_world = [&](const RepResult& rep, const RepResult& ref,
                               const std::string& what) {
    checks.Expect(rep.served.Canonical() == ref.served.Canonical(),
                  what + ": served metrics differ: " + rep.served.Canonical() +
                      " vs " + ref.served.Canonical());
    checks.Expect(rep.warmup == ref.warmup && rep.total == ref.total,
                  what + ": request counts differ");
    checks.Expect(rep.events == ref.events, what + ": event counts differ");
  };
  PrintWorkload(spec, seed);

  // Untraced calls: the first warms the process and is not timed.
  const RepResult warm = RunRep(spec, seed, nullptr, &spans);
  CheckRep(spec, warm, &checks);
  PrintWorld(seed, warm);
  PrintServed(warm.served);
  account(warm);
  std::vector<RepResult> untraced;
  double probe_ns = 0;
  for (int i = 0; i < kUntracedCalls; ++i) {
    std::function<void(const World&)> inspect;
    if (i + 1 == kUntracedCalls) {
      inspect = [&probe_ns](const World& world) {
        probe_ns = ReplayProbeNs(world);
      };
    }
    untraced.push_back(RunRep(spec, seed, nullptr, &spans, inspect));
    expect_same_world(untraced.back(), warm, "untraced call");
    account(untraced.back());
  }
  auto median_of = [&untraced](const std::function<double(const RepResult&)>& f) {
    std::vector<double> values;
    for (const RepResult& rep : untraced) {
      values.push_back(f(rep));
    }
    return Median(values);
  };
  auto loop_s = [](const RepResult& r) {
    return r.timing.loop_warmup_s + r.timing.loop_window_s;
  };
  // Busy time: the loop wall on the plain simulator, summed shard busy time
  // on the sharded one.
  auto busy_s = [&loop_s](const RepResult& r) {
    if (r.shard_timing.empty()) {
      return loop_s(r);
    }
    double busy = 0;
    for (const auto& shard : r.shard_timing) {
      busy += shard.busy_seconds;
    }
    return busy;
  };
  const double run_s = median_of([](const RepResult& r) { return r.timing.run_s; });
  const double median_busy_s = median_of(busy_s);
  double barrier_frac = 0;
  double busy_imbalance = 0;
  if (spec.num_shards > 0) {
    barrier_frac = median_of([&](const RepResult& r) {
      return 1.0 - busy_s(r) / (r.threads * loop_s(r));
    });
    busy_imbalance = median_of([&busy_s](const RepResult& r) {
      double most = 0;
      for (const auto& shard : r.shard_timing) {
        most = std::max(most, shard.busy_seconds);
      }
      return Ratio(most, busy_s(r) / static_cast<double>(r.shard_timing.size()));
    });
  }

  // The traced call: same seed, tracer installed before any actor is built.
  auto tracer = std::make_unique<Tracer>(
      static_cast<int32_t>(spec.topology.num_regions()), kMaxRecordsPerRegion);
  Observed observed;
  const RepResult traced =
      RunRep(spec, seed, tracer.get(), &spans,
             [&observed](const World& world) { observed = Observe(world); });
  expect_same_world(traced, warm, "traced call");
  account(traced);
  checks.Expect(tracer->dropped() == 0, "the tracer dropped records");

  // Hand the torn-down world's heap back before the merge copies the trace:
  // on fleet_sharded the world and each copy of the trace are ~400 MB apiece.
  malloc_trim(0);
  int span = spans.Begin("trace.merge");
  std::vector<TraceRecord> records = tracer->Merged();
  const auto num_records = static_cast<int64_t>(records.size());
  tracer.reset();
  spans.End(span);

  span = spans.Begin("trace.attribute");
  const Tally tally = TallyRecords(records);
  const TtftShares shares =
      Shares(AttributeRequests(records), spec.warmup, spec.end());
  const Conservation conservation =
      Conserve(records, observed, spec, traced.total, &checks);
  spans.End(span);
  auto audit = [&checks](const char* what, int64_t traced, int64_t counted) {
    checks.Expect(traced == counted,
                  std::string(what) + ": " + std::to_string(traced) +
                      " trace records vs " + std::to_string(counted) +
                      " counted by the replicas");
  };
  // A replica counts a step when it starts and traces it when it finishes,
  // so each replica may have one step in flight at the end.
  checks.Expect(observed.steps >= tally.steps &&
                    observed.steps - tally.steps <= spec.total_replicas(),
                "engine steps: " + std::to_string(tally.steps) +
                    " trace records vs " + std::to_string(observed.steps) +
                    " started by the replicas");
  audit("preemptions", tally.preemptions, observed.preemptions);
  audit("completions", tally.completes, observed.replica_completed);
  checks.Expect(tally.evict_victims <= observed.evict_victims,
                "more eviction victims traced than counted");
  std::printf(
      "conservation: accepted %lld = completed %lld + errored %lld + in "
      "flight %lld (%lld awaiting their reply); %lld submissions still in "
      "the client->balancer hop\n",
      static_cast<long long>(conservation.accepted),
      static_cast<long long>(conservation.completed),
      static_cast<long long>(conservation.errored),
      static_cast<long long>(conservation.in_flight),
      static_cast<long long>(conservation.awaiting_reply),
      static_cast<long long>(conservation.in_submit_hop));

  span = spans.Begin("trace.export");
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string trace_path = out_dir + "/TRACE_" + spec.name + ".bin";
  double export_mb = 0;
  {
    const std::string bytes = TraceToBinary(
        records, {{"workload", spec.name}, {"seed", std::to_string(seed)}});
    std::ofstream out(trace_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    checks.Expect(static_cast<bool>(out), "cannot write " + trace_path);
    export_mb = static_cast<double>(bytes.size()) / 1e6;
  }
  spans.End(span);
  const double export_s = spans.Seconds(span);
  // The trace is measured, not kept: it runs to hundreds of MB.
  std::filesystem::remove(trace_path, ec);
  records = {};

  if (spec.num_shards > 1) {
    // The same world on one shard must serve the same results.
    WorkloadSpec one_shard = spec;
    one_shard.name += ".one_shard";
    one_shard.num_shards = 1;
    one_shard.num_threads = 1;
    const RepResult single = RunRep(one_shard, seed, nullptr, &spans);
    expect_same_world(single, warm, "one-shard call");
    account(single);
    std::printf("one shard: served metrics %s the %d-shard run's\n",
                single.served.Canonical() == warm.served.Canonical()
                    ? "equal"
                    : "DIFFER from",
                spec.num_shards);
  }

  span = spans.Begin("replay");
  const double sim_ns = ReplaySimNsPerEvent(median_of(
      [](const RepResult& r) { return r.backlog; }));
  const double cache_ns = ReplayCacheNsPerToken(spec, seed);
  const double select_ns = ReplaySelectNs(spec);
  const double step_ns = ReplayReplicaNsPerStep(spec, seed);
  spans.End(span);

  const double events = static_cast<double>(traced.events);
  const double completes = static_cast<double>(tally.completes);
  const double busy_ns = median_busy_s * 1e9;
  const std::vector<Metric> metrics = {
      {"sim.events", events, "count"},
      {"sim.ns_per_event",
       median_of([&](const RepResult& r) {
         return loop_s(r) * 1e9 / static_cast<double>(r.events);
       }),
       "ns"},
      {"sim.windows", static_cast<double>(traced.windows), "count"},
      {"sim.barrier_frac", barrier_frac, "frac"},
      {"sim.busy_imbalance", busy_imbalance, "ratio"},
      {"sim.build_s", median_of([](const RepResult& r) {
         return r.timing.build_sim_s;
       }),
       "s"},
      {"sim.replay_ns_per_event", sim_ns, "ns"},
      {"sim.replay_share", events * sim_ns / busy_ns, "frac"},
      {"replica.steps", static_cast<double>(tally.steps), "count"},
      {"replica.steps_per_request", Ratio(static_cast<double>(tally.steps), completes),
       "ratio"},
      {"replica.decode_batch_mean",
       Ratio(static_cast<double>(tally.decoded), static_cast<double>(tally.steps)),
       "seqs"},
      {"replica.prefill_tokens", static_cast<double>(tally.prefill_tokens), "tok"},
      {"replica.stall_ttft_share", shares.stall, "frac"},
      {"replica.prefill_ttft_share", shares.prefill, "frac"},
      {"replica.replay_ns_per_step", step_ns, "ns"},
      {"replica.replay_share", static_cast<double>(tally.steps) * step_ns / busy_ns,
       "frac"},
      {"memory.preemptions", static_cast<double>(tally.preemptions), "count"},
      {"memory.swap_outs", static_cast<double>(tally.swap_outs), "count"},
      {"memory.watermark_rejects", static_cast<double>(tally.watermark_rejects),
       "count"},
      {"memory.ttft_share", shares.preempt, "frac"},
      {"cache.hit_frac", observed.hit_rate, "frac"},
      {"cache.evict_victims", static_cast<double>(observed.evict_victims),
       "count"},
      {"cache.pages_per_eviction",
       Ratio(static_cast<double>(observed.evict_freed_pages),
             static_cast<double>(observed.evict_victims)),
       "pages"},
      {"cache.replay_ns_per_token", cache_ns, "ns"},
      {"cache.replay_share",
       static_cast<double>(tally.admitted_prompt_tokens) * cache_ns / busy_ns,
       "frac"},
      {"routing.decisions", static_cast<double>(tally.decisions), "count"},
      {"routing.probes", static_cast<double>(tally.probes), "count"},
      {"routing.prefix_hit_frac", observed.prefix_hit_frac, "frac"},
      {"routing.ttft_share", shares.lb_queue, "frac"},
      {"routing.replay_ns_per_select", select_ns, "ns"},
      {"routing.replay_ns_per_probe", probe_ns, "ns"},
      {"routing.replay_share",
       (static_cast<double>(tally.decisions) * select_ns +
        static_cast<double>(tally.probes) * probe_ns) /
           busy_ns,
       "frac"},
      {"core.forwarded_frac", traced.character.forwarded_frac, "frac"},
      {"core.build_s", median_of([](const RepResult& r) {
         return r.timing.build_core_s;
       }),
       "s"},
      {"net.messages", static_cast<double>(observed.messages), "count"},
      {"net.cross_region_frac",
       Ratio(static_cast<double>(observed.cross_region_messages),
             static_cast<double>(observed.messages)),
       "frac"},
      {"net.ttft_share", shares.network, "frac"},
      {"workload.build_s", median_of([](const RepResult& r) {
         return r.timing.build_clients_s;
       }),
       "s"},
      {"obs.records", static_cast<double>(num_records), "count"},
      {"obs.trace_overhead_frac", traced.timing.run_s / run_s - 1.0, "frac"},
      {"obs.export_s", export_s, "s"},
      {"obs.export_mb", export_mb, "MB"},
      {"harness.summarize_s", median_of([](const RepResult& r) {
         return r.timing.summarize_s;
       }),
       "s"},
  };
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  const std::string spans_path =
      out_dir + "/spans_" + spec.name + "_seed" + std::to_string(seed) + ".json";
  std::ofstream spans_out(spans_path, std::ios::trunc);
  spans_out << spans.ToJson();
  checks.Expect(static_cast<bool>(spans_out), "cannot write " + spans_path);
  std::printf("spans: %s; peak memory %.1f MB\n", spans_path.c_str(),
              PeakRssMb());
  PrintResult(checks, attempted, failed, metrics);
  return 0;
}

}  // namespace perfbench
