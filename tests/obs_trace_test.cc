// Unit tests for the observability layer (ISSUE 9): the per-region
// slab-ring Tracer and its keyed merge order, the binary / Chrome JSON
// exporters, TTFT attribution over hand-built record streams, the derived
// metrics registry, and the skybench scenario-name suggestion helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/obs/attribution.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace skywalker {
namespace {

TraceRecord Rec(SimTime time, TraceEventType type, int16_t region,
                int32_t replica = -1, int64_t request = -1, int64_t a = 0,
                int64_t b = 0, double x = 0.0) {
  TraceRecord r;
  r.time = time;
  r.request = request;
  r.a = a;
  r.b = b;
  r.x = x;
  r.type = static_cast<uint16_t>(type);
  r.region = region;
  r.replica = replica;
  return r;
}

// --- Tracer rings ---------------------------------------------------------

TEST(TracerTest, MergedIsTimeThenRegionThenAppendOrder) {
  Tracer tracer(/*num_regions=*/3);
  // Deliberately emit out of region order, with time ties across regions
  // and within one region.
  EmitTrace(&tracer, 100, TraceEventType::kSubmit, 2, -1, 7);
  EmitTrace(&tracer, 100, TraceEventType::kSubmit, 0, -1, 5);
  EmitTrace(&tracer, 50, TraceEventType::kSubmit, 1, -1, 3);
  EmitTrace(&tracer, 100, TraceEventType::kLbEnqueue, 0, -1, 5);
  EmitTrace(&tracer, 100, TraceEventType::kProbe, -1, -1, -1);

  const std::vector<TraceRecord> merged = tracer.Merged();
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged[0].time, 50);
  EXPECT_EQ(merged[0].region, 1);
  // Time tie at 100 resolves by region (-1 first), then per-region append
  // order (region 0's submit before its enqueue).
  EXPECT_EQ(merged[1].region, -1);
  EXPECT_EQ(merged[2].region, 0);
  EXPECT_EQ(merged[2].type, static_cast<uint16_t>(TraceEventType::kSubmit));
  EXPECT_EQ(merged[3].region, 0);
  EXPECT_EQ(merged[3].type,
            static_cast<uint16_t>(TraceEventType::kLbEnqueue));
  EXPECT_EQ(merged[4].region, 2);
}

TEST(TracerTest, MergeOrderIndependentOfEmissionInterleaving) {
  // The determinism keystone: two tracers fed the same per-region streams in
  // different global interleavings (as different shard schedules would)
  // produce identical merged bytes.
  std::vector<TraceRecord> region0;
  std::vector<TraceRecord> region1;
  for (int i = 0; i < 100; ++i) {
    region0.push_back(
        Rec(i * 10, TraceEventType::kSubmit, 0, -1, i));
    region1.push_back(
        Rec(i * 10 + (i % 3 == 0 ? 0 : 5), TraceEventType::kAdmit, 1, 2, i));
  }

  Tracer a(2);
  for (const TraceRecord& r : region0) a.Emit(r);
  for (const TraceRecord& r : region1) a.Emit(r);

  Tracer b(2);
  size_t i0 = 0, i1 = 0;  // Alternating interleave.
  while (i0 < region0.size() || i1 < region1.size()) {
    if (i0 < region0.size()) b.Emit(region0[i0++]);
    if (i1 < region1.size()) b.Emit(region1[i1++]);
    if (i1 < region1.size()) b.Emit(region1[i1++]);
  }

  EXPECT_EQ(TraceToBinary(a.Merged(), {}), TraceToBinary(b.Merged(), {}));
}

// Records emitted late under an explicit event order — a replica's
// virtual stretch steps (DESIGN.md §13) — merge back to where that event
// would have appended them; one event's records keep their append order.
TEST(TracerTest, ExplicitOrdersMergeBackIntoEventOrder) {
  Tracer tracer(1);
  tracer.Emit(Rec(100, TraceEventType::kSubmit, 0, -1, 1),
              EventOrder{100, 10, MakeOrderKey(0, 5)});
  tracer.Emit(Rec(100, TraceEventType::kSubmit, 0, -1, 2),
              EventOrder{100, 30, MakeOrderKey(0, 9)});
  // Emitted last, for a step event at 100 that started at 20.
  tracer.Emit(Rec(90, TraceEventType::kEngineStep, 0, 3),
              EventOrder{90, 50, MakeStepKey(0, 0)});
  tracer.Emit(Rec(100, TraceEventType::kEngineStep, 0, 3),
              EventOrder{100, 20, MakeStepKey(0, 0)});
  tracer.Emit(Rec(100, TraceEventType::kMemSample, 0, 3),
              EventOrder{100, 20, MakeStepKey(0, 0)});
  std::vector<TraceRecord> merged = tracer.Merged();
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged[0].time, 90);
  EXPECT_EQ(merged[1].request, 1);
  EXPECT_EQ(merged[2].type, static_cast<uint16_t>(TraceEventType::kEngineStep));
  EXPECT_EQ(merged[3].type, static_cast<uint16_t>(TraceEventType::kMemSample));
  EXPECT_EQ(merged[4].request, 2);
}

// Merged() against a direct sort: random regions, times, scheduling times
// and keys (many ties, some equal orders), mostly in event order with late
// records mixed in, across several slabs per ring. The result must be the
// stable sort of the emissions by (time, region, event order).
TEST(TracerTest, MergedMatchesStableSortOfEmissions) {
  struct Emission {
    TraceRecord record;
    EventOrder order;
  };
  Rng rng(11);
  Tracer tracer(3);
  std::vector<Emission> emitted;
  std::vector<SimTime> clock(4, 0);  // Per ring: the latest real event time.
  for (int64_t i = 0; i < 3 * static_cast<int64_t>(Tracer::kSlabRecords);
       ++i) {
    const auto region = static_cast<int16_t>(rng.UniformInt(-1, 2));
    SimTime& now = clock[static_cast<size_t>(region + 1)];
    Emission e;
    if (rng.Bernoulli(0.3)) {
      // Late: an earlier step boundary, emitted at catch-up.
      const SimTime at = std::max<SimTime>(0, now - rng.UniformInt(0, 6));
      e.order = EventOrder{at, at - rng.UniformInt(0, 3),
                           MakeStepKey(region, static_cast<uint32_t>(
                                                   rng.UniformInt(0, 2)))};
    } else {
      now += rng.UniformInt(0, 2);
      e.order = EventOrder{now, now - rng.UniformInt(0, 3),
                           MakeOrderKey(region, static_cast<uint64_t>(
                                                    rng.UniformInt(0, 3)))};
    }
    e.record = Rec(e.order.at, TraceEventType::kEngineStep, region, -1, i);
    tracer.Emit(e.record, e.order);
    emitted.push_back(e);
  }
  std::stable_sort(emitted.begin(), emitted.end(),
                   [](const Emission& a, const Emission& b) {
                     if (a.record.time != b.record.time) {
                       return a.record.time < b.record.time;
                     }
                     if (a.record.region != b.record.region) {
                       return a.record.region < b.record.region;
                     }
                     return a.order < b.order;
                   });
  const std::vector<TraceRecord> merged = tracer.Merged();
  ASSERT_EQ(merged.size(), emitted.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    ASSERT_EQ(merged[i].request, emitted[i].record.request) << "position " << i;
  }
}

TEST(TracerTest, RingCapsDropOldestAndCount) {
  // Cap of one slab: the ring holds at most kSlabRecords records and drops
  // whole slabs from the head.
  Tracer tracer(1, /*max_records_per_region=*/Tracer::kSlabRecords);
  const int total = static_cast<int>(Tracer::kSlabRecords) + 100;
  for (int i = 0; i < total; ++i) {
    EmitTrace(&tracer, i, TraceEventType::kSubmit, 0, -1, i);
  }
  EXPECT_EQ(tracer.dropped(), static_cast<int64_t>(Tracer::kSlabRecords));
  const std::vector<TraceRecord> merged = tracer.Merged();
  EXPECT_EQ(merged.size(), static_cast<size_t>(100));
  // Survivors are the newest records, still in order.
  EXPECT_EQ(merged.front().time,
            static_cast<SimTime>(Tracer::kSlabRecords));
  EXPECT_EQ(merged.back().time, static_cast<SimTime>(total - 1));
}

// --- exporters ------------------------------------------------------------

TEST(TraceExportTest, BinaryRoundTripsRecordsAndMeta) {
  std::vector<TraceRecord> records;
  records.push_back(Rec(10, TraceEventType::kSubmit, 0, -1, 1, 128));
  records.push_back(
      Rec(20, TraceEventType::kEngineStep, 0, 3, -1, 64, 2, 1500.5));
  const std::vector<std::pair<std::string, std::string>> meta = {
      {"scenario", "fig07"}, {"cell", "sat/bp"}};

  const std::string bytes = TraceToBinary(records, meta);
  std::vector<TraceRecord> parsed;
  std::vector<std::pair<std::string, std::string>> parsed_meta;
  ASSERT_TRUE(ParseTraceBinary(bytes, &parsed, &parsed_meta));
  ASSERT_EQ(parsed.size(), records.size());
  EXPECT_EQ(parsed[0].request, 1);
  EXPECT_EQ(parsed[0].a, 128);
  EXPECT_EQ(parsed[1].replica, 3);
  EXPECT_DOUBLE_EQ(parsed[1].x, 1500.5);
  ASSERT_EQ(parsed_meta.size(), 2u);
  // Json objects keep insertion order, so meta round-trips verbatim.
  EXPECT_EQ(parsed_meta[0].first, "scenario");
  EXPECT_EQ(parsed_meta[0].second, "fig07");
  EXPECT_EQ(parsed_meta[1].first, "cell");
  EXPECT_EQ(parsed_meta[1].second, "sat/bp");
}

TEST(TraceExportTest, BinaryRejectsCorruptBuffers) {
  std::vector<TraceRecord> records = {Rec(1, TraceEventType::kSubmit, 0)};
  std::string bytes = TraceToBinary(records, {});
  std::vector<TraceRecord> parsed;
  EXPECT_FALSE(ParseTraceBinary("", &parsed));
  EXPECT_FALSE(ParseTraceBinary("not a trace", &parsed));
  EXPECT_FALSE(
      ParseTraceBinary(bytes.substr(0, bytes.size() - 1), &parsed));
  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  EXPECT_FALSE(ParseTraceBinary(wrong_magic, &parsed));
  EXPECT_TRUE(ParseTraceBinary(bytes, &parsed));
}

// One record of every type a tracer emits exports under its own name, with
// the phase its type requires: engine steps as "X" slices with a duration,
// memory samples as "C" counters, everything else as "i" instants.
TEST(TraceExportTest, ChromeJsonIsParseableWithSchema) {
  constexpr auto kLastType = static_cast<uint16_t>(TraceEventType::kConfigSwap);
  // No id past the last one names a type, so a new type extends this test.
  ASSERT_STREQ(TraceEventTypeName(static_cast<TraceEventType>(kLastType + 1)),
               "unknown");
  std::vector<TraceRecord> records;
  for (uint16_t id = 1; id <= kLastType; ++id) {
    records.push_back(Rec(100 + 10 * id, static_cast<TraceEventType>(id), 0, 2,
                          id, 8, 1, 20.0));
  }
  const std::string json = TraceToChromeJson(records, {{"cell", "x"}});
  auto doc = Json::Parse(json);
  ASSERT_TRUE(doc.has_value());
  const Json* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->elements().size(), records.size());
  std::set<std::string> names;
  for (size_t i = 0; i < records.size(); ++i) {
    const auto type = static_cast<TraceEventType>(records[i].type);
    SCOPED_TRACE(TraceEventTypeName(type));
    const Json& event = events->elements()[i];
    const Json* name = event.Find("name");
    ASSERT_TRUE(name != nullptr && name->is_string());
    EXPECT_EQ(name->AsString(), TraceEventTypeName(type));
    EXPECT_NE(name->AsString(), "unknown");
    EXPECT_NE(name->AsString(), "invalid");
    names.insert(name->AsString());
    const Json* ph = event.Find("ph");
    ASSERT_TRUE(ph != nullptr && ph->is_string());
    const Json* ts = event.Find("ts");
    ASSERT_TRUE(ts != nullptr && ts->is_number());
    const Json* dur = event.Find("dur");
    if (type == TraceEventType::kEngineStep) {
      // The slice starts x us before the step's completion stamp.
      EXPECT_EQ(ph->AsString(), "X");
      ASSERT_TRUE(dur != nullptr && dur->is_number());
      EXPECT_DOUBLE_EQ(dur->AsDouble(), 20.0);
      EXPECT_DOUBLE_EQ(ts->AsDouble(),
                       static_cast<double>(records[i].time) - 20.0);
    } else {
      EXPECT_EQ(ph->AsString(),
                type == TraceEventType::kMemSample ? "C" : "i");
      EXPECT_EQ(dur, nullptr);
      EXPECT_DOUBLE_EQ(ts->AsDouble(), static_cast<double>(records[i].time));
    }
  }
  EXPECT_EQ(names.size(), records.size());  // Every type has its own name.
  const Json* meta = doc->Find("skywalker");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->Find("schema_version")->AsDouble(), 1);
  EXPECT_EQ(meta->Find("records")->AsDouble(),
            static_cast<double>(records.size()));
  EXPECT_EQ(meta->Find("cell")->AsString(), "x");
}

// `skytrace --chrome` converts what it loads from a SKTRACE1 file; the
// result is the export of the records and metadata the run held.
TEST(TraceExportTest, ChromeJsonFromBinaryMatchesDirectExport) {
  std::vector<TraceRecord> records;
  records.push_back(Rec(10, TraceEventType::kSubmit, 0, -1, 1, 128));
  records.push_back(
      Rec(20, TraceEventType::kEngineStep, 1, 3, -1, 64, 2, 1500.5));
  records.push_back(Rec(30, TraceEventType::kMemSample, 1, 3, -1, 9, 2, 0.25));
  const std::vector<std::pair<std::string, std::string>> meta = {
      {"scenario", "fig07"}, {"cell", "sat/bp"}, {"dropped_records", "0"}};
  std::vector<TraceRecord> parsed;
  std::vector<std::pair<std::string, std::string>> parsed_meta;
  ASSERT_TRUE(
      ParseTraceBinary(TraceToBinary(records, meta), &parsed, &parsed_meta));
  EXPECT_EQ(TraceToChromeJson(parsed, parsed_meta),
            TraceToChromeJson(records, meta));
}

// --- attribution ----------------------------------------------------------

TEST(AttributionTest, ComponentsSumExactlyToTtft) {
  // Full lifecycle: submit 0, enqueue 100 (network 100), dispatch 400
  // (lb_queue 300), arrive 450 (network +50), admit 700 (stall 250),
  // preempt 900..1400 (preempt 500), first token 2000 (prefill 600+?).
  std::vector<TraceRecord> records;
  records.push_back(Rec(0, TraceEventType::kSubmit, 0, -1, 9, 512));
  records.push_back(Rec(100, TraceEventType::kLbEnqueue, 0, -1, 9));
  records.push_back(Rec(400, TraceEventType::kDispatch, 0, -1, 9));
  records.push_back(Rec(450, TraceEventType::kReplicaArrive, 0, 1, 9));
  records.push_back(Rec(700, TraceEventType::kAdmit, 0, 1, 9));
  records.push_back(Rec(900, TraceEventType::kPreempt, 0, 1, 9));
  records.push_back(Rec(1400, TraceEventType::kAdmit, 0, 1, 9));
  records.push_back(Rec(2000, TraceEventType::kFirstToken, 0, 1, 9, 64));
  records.push_back(Rec(5000, TraceEventType::kComplete, 0, 1, 9, 128));

  const std::vector<RequestAttribution> atts = AttributeRequests(records);
  ASSERT_EQ(atts.size(), 1u);
  const RequestAttribution& att = atts[0];
  EXPECT_EQ(att.request, 9);
  EXPECT_EQ(att.replica, 1);
  EXPECT_EQ(att.prompt_tokens, 512);
  EXPECT_EQ(att.cached_tokens, 64);
  EXPECT_EQ(att.ttft_us, 2000);
  EXPECT_EQ(att.latency_us, 5000);
  EXPECT_EQ(att.network_us, 150);
  EXPECT_EQ(att.lb_queue_us, 300);
  EXPECT_EQ(att.stall_us, 250);
  EXPECT_EQ(att.preempt_us, 500);
  EXPECT_EQ(att.prefill_us, 800);
  EXPECT_EQ(att.preemptions, 1);
  EXPECT_EQ(att.network_us + att.lb_queue_us + att.stall_us +
                att.preempt_us + att.prefill_us,
            att.ttft_us);
}

TEST(AttributionTest, MissingEventsCollapseIntoNeighbors) {
  // A minimal trace (submit -> first token) still decomposes, with the whole
  // span attributed to prefill and the sum exact.
  std::vector<TraceRecord> records;
  records.push_back(Rec(0, TraceEventType::kSubmit, 2, -1, 4, 100));
  records.push_back(Rec(700, TraceEventType::kFirstToken, 2, 0, 4));
  const std::vector<RequestAttribution> atts = AttributeRequests(records);
  ASSERT_EQ(atts.size(), 1u);
  EXPECT_EQ(atts[0].ttft_us, 700);
  EXPECT_EQ(atts[0].network_us + atts[0].lb_queue_us + atts[0].stall_us +
                atts[0].preempt_us + atts[0].prefill_us,
            atts[0].ttft_us);
  EXPECT_EQ(atts[0].prefill_us, 700);
}

TEST(AttributionTest, PostFirstTokenPreemptionCountsButAddsNoTtftTime) {
  std::vector<TraceRecord> records;
  records.push_back(Rec(0, TraceEventType::kSubmit, 0, -1, 1, 10));
  records.push_back(Rec(100, TraceEventType::kAdmit, 0, 0, 1));
  records.push_back(Rec(300, TraceEventType::kFirstToken, 0, 0, 1));
  records.push_back(Rec(400, TraceEventType::kPreempt, 0, 0, 1));
  records.push_back(Rec(900, TraceEventType::kRestore, 0, 0, 1));
  records.push_back(Rec(1500, TraceEventType::kComplete, 0, 0, 1));
  const std::vector<RequestAttribution> atts = AttributeRequests(records);
  ASSERT_EQ(atts.size(), 1u);
  EXPECT_EQ(atts[0].preemptions, 1);
  EXPECT_EQ(atts[0].preempt_us, 0);  // Decode-phase gap: not TTFT time.
  EXPECT_EQ(atts[0].ttft_us, 300);
}

TEST(AttributionTest, RequestsWithoutSubmitAreSkipped) {
  std::vector<TraceRecord> records;
  records.push_back(Rec(10, TraceEventType::kAdmit, 0, 0, 77));
  records.push_back(Rec(20, TraceEventType::kFirstToken, 0, 0, 77));
  EXPECT_TRUE(AttributeRequests(records).empty());
}

TEST(AttributionTest, ReportJsonHasComponentsAndSlowest) {
  std::vector<TraceRecord> records;
  for (int64_t id = 0; id < 5; ++id) {
    records.push_back(Rec(id * 10, TraceEventType::kSubmit, 0, -1, id, 8));
    records.push_back(
        Rec(id * 10 + 100 * (id + 1), TraceEventType::kFirstToken, 0, 0, id));
  }
  const std::vector<RequestAttribution> atts = AttributeRequests(records);
  Json report = AttributionReportJson(records, atts, /*top_k=*/2);
  EXPECT_EQ(report.Find("requests")->AsDouble(), 5);
  const Json* components = report.Find("ttft_components");
  ASSERT_NE(components, nullptr);
  for (const char* name :
       {"network", "lb_queue", "stall", "preempt", "prefill"}) {
    ASSERT_NE(components->Find(name), nullptr) << name;
  }
  const Json* slowest = report.Find("slowest_requests");
  ASSERT_NE(slowest, nullptr);
  ASSERT_EQ(slowest->elements().size(), 2u);
  // Sorted by TTFT descending: request 4 (500 us) first.
  EXPECT_EQ(slowest->elements()[0].Find("request")->AsDouble(), 4);
}

// --- registry -------------------------------------------------------------

TEST(RegistryTest, BuildMetricsFromTraceCountsLifecycle) {
  std::vector<TraceRecord> records;
  records.push_back(Rec(0, TraceEventType::kSubmit, 0, -1, 1, 100));
  records.push_back(Rec(50, TraceEventType::kAdmit, 0, 0, 1));
  records.push_back(Rec(200, TraceEventType::kFirstToken, 0, 0, 1));
  records.push_back(Rec(900, TraceEventType::kComplete, 0, 0, 1, 32));
  records.push_back(Rec(950, TraceEventType::kPreempt, 0, 0, 2));
  records.push_back(
      Rec(1000, TraceEventType::kMemSample, 0, 0, -1, 40, 2, 0.75));

  MetricsRegistry registry;
  BuildMetricsFromTrace(records, /*window=*/Milliseconds(1), &registry);
  EXPECT_EQ(registry.GetCounter("requests_submitted", "region=0")->value(),
            1);
  EXPECT_EQ(
      registry.GetCounter("requests_completed", "region=0,replica=0")
          ->value(),
      1);
  EXPECT_EQ(
      registry.GetCounter("preemptions", "region=0,replica=0")->value(), 1);

  Json snapshot = registry.Snapshot();
  const Json* counters = snapshot.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find("requests_submitted{region=0}"), nullptr);
  const Json* histograms = snapshot.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  // TTFT histogram tagged by the submitting region.
  const Json* ttft = histograms->Find("ttft_us{region=0}");
  ASSERT_NE(ttft, nullptr);
  EXPECT_EQ(ttft->Find("count")->AsDouble(), 1);
}

TEST(RegistryTest, SnapshotOrderIsDeterministic) {
  MetricsRegistry registry;
  registry.GetCounter("zeta")->Add(1);
  registry.GetCounter("alpha")->Add(2);
  registry.GetCounter("alpha", "region=1")->Add(3);
  const std::string a = registry.Snapshot().Dump();

  MetricsRegistry reversed;
  reversed.GetCounter("alpha", "region=1")->Add(3);
  reversed.GetCounter("zeta")->Add(1);
  reversed.GetCounter("alpha")->Add(2);
  EXPECT_EQ(a, reversed.Snapshot().Dump());
}

TEST(RegistryTest, FormatTagsJoinsPairs) {
  EXPECT_EQ(FormatTags({}), "");
  EXPECT_EQ(FormatTags({{"region", "2"}}), "region=2");
  EXPECT_EQ(FormatTags({{"region", "2"}, {"replica", "5"}}),
            "region=2,replica=5");
}

// --- scenario-name suggestions -------------------------------------------

TEST(SuggestTest, EditDistanceBasics) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("fig07", "fig09"), 1u);
}

TEST(SuggestTest, SuggestsCloseScenarioNames) {
  const std::vector<std::string> known = {
      "fig07_memory_pressure", "fig_resilience", "fig_fleet_scale"};
  const std::vector<std::string> close =
      SuggestClosest("fig_resilence", known);  // One deletion away.
  ASSERT_FALSE(close.empty());
  EXPECT_EQ(close[0], "fig_resilience");
  // Gibberish is not close to anything.
  EXPECT_TRUE(SuggestClosest("zzzzzzzzzzzzzzzz", known).empty());
}

}  // namespace
}  // namespace skywalker
