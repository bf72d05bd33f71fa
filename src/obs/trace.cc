#include "src/obs/trace.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "src/common/json.h"
#include "src/sim/simulator.h"

namespace skywalker {

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kInvalid: return "invalid";
    case TraceEventType::kSubmit: return "submit";
    case TraceEventType::kLbEnqueue: return "lb_enqueue";
    case TraceEventType::kRouteCandidate: return "route_candidate";
    case TraceEventType::kRouteDecision: return "route_decision";
    case TraceEventType::kForward: return "forward";
    case TraceEventType::kDispatch: return "dispatch";
    case TraceEventType::kReplicaArrive: return "replica_arrive";
    case TraceEventType::kAdmit: return "admit";
    case TraceEventType::kPrefillChunk: return "prefill_chunk";
    case TraceEventType::kFirstToken: return "first_token";
    case TraceEventType::kComplete: return "complete";
    case TraceEventType::kTimeout: return "timeout";
    case TraceEventType::kDrop: return "drop";
    case TraceEventType::kLbError: return "lb_error";
    case TraceEventType::kPreempt: return "preempt";
    case TraceEventType::kRestore: return "restore";
    case TraceEventType::kEngineStep: return "engine_step";
    case TraceEventType::kMemSample: return "mem_sample";
    case TraceEventType::kCacheEvict: return "cache_evict";
    case TraceEventType::kKvSwapOut: return "kv_swap_out";
    case TraceEventType::kKvSwapIn: return "kv_swap_in";
    case TraceEventType::kWatermarkReject: return "watermark_reject";
    case TraceEventType::kProbe: return "probe";
    case TraceEventType::kEject: return "eject";
    case TraceEventType::kRecover: return "recover";
    case TraceEventType::kConfigSwap: return "config_swap";
  }
  return "unknown";
}

Tracer::Tracer(int32_t num_regions, int64_t max_records_per_region)
    : rings_(static_cast<size_t>(num_regions) + 1),
      max_slabs_per_ring_(std::max<size_t>(
          1, (static_cast<size_t>(max_records_per_region) + kSlabRecords - 1) /
                 kSlabRecords)) {}

Tracer::Ring& Tracer::RingFor(int16_t region) {
  size_t index = static_cast<size_t>(region + 1);
  assert(index < rings_.size() && "region outside the tracer's ring table");
  if (index >= rings_.size()) {
    index = 0;  // Release builds: misrouted rather than out of bounds.
  }
  return rings_[index];
}

void Tracer::BindClock(const Simulator* sim) {
  for (Ring& ring : rings_) {
    ring.clock = sim;
  }
}

void Tracer::BindClock(int32_t region, const Simulator* sim) {
  RingFor(static_cast<int16_t>(region)).clock = sim;
}

void Tracer::Emit(const TraceRecord& record) {
  const Simulator* clock = RingFor(record.region).clock;
  Emit(record, clock != nullptr ? clock->horizon() : EventOrder{});
}

void Tracer::Emit(const TraceRecord& record, const EventOrder& order) {
  Ring& ring = RingFor(record.region);
  if (ring.slabs.empty() || ring.tail_used == kSlabRecords) {
    if (ring.slabs.size() < max_slabs_per_ring_) {
      ring.slabs.push_back(std::make_unique<Slab>());
    } else {
      // Drop-oldest: recycle the head slab as the new tail. Rotating the
      // pointer vector is O(slabs) per 4096 records — amortized O(1)/record
      // — and allocates nothing, which keeps steady state allocation-free.
      std::rotate(ring.slabs.begin(), ring.slabs.begin() + 1,
                  ring.slabs.end());
      ring.dropped += static_cast<int64_t>(kSlabRecords);
    }
    ring.tail_used = 0;
  }
  ring.slabs.back()->entries[ring.tail_used++] =
      Entry{record, order.sched, order.key};
}

int64_t Tracer::size() const {
  int64_t total = 0;
  for (const Ring& ring : rings_) {
    if (ring.slabs.empty()) {
      continue;
    }
    total += static_cast<int64_t>((ring.slabs.size() - 1) * kSlabRecords +
                                  ring.tail_used);
  }
  return total;
}

int64_t Tracer::dropped() const {
  int64_t total = 0;
  for (const Ring& ring : rings_) {
    total += ring.dropped;
  }
  return total;
}

// Reads one ring in (time, emitting event's order, append index) order.
// Real events append in that order already; the records a stretch's
// virtual steps emit late, at catch-up (DESIGN.md §13), are the ones
// ordered below something appended before them. Only their indices are
// sorted, then merged back in: the slabs are neither copied nor sorted.
class Tracer::RingReader {
 public:
  explicit RingReader(const Ring& ring)
      : ring_(&ring),
        size_(ring.slabs.empty() ? 0
                                 : (ring.slabs.size() - 1) * kSlabRecords +
                                       ring.tail_used) {
    EventOrder high = kNothingWalked;
    for (size_t i = 0; i < size_; ++i) {
      const EventOrder key = Key(i);
      if (key < high) {
        late_.push_back(i);
      } else {
        high = key;
      }
    }
    // The index breaks ties, so the unstable sort yields the stable order.
    std::sort(late_.begin(), late_.end(), [this](size_t a, size_t b) {
      return Before(a, b);
    });
    Advance();
  }

  bool done() const { return head_ == kDone; }
  const TraceRecord& head() const { return At(head_).record; }

  // Moves past the head record.
  void Pop() {
    if (late_next_ < late_.size() && late_[late_next_] == head_) {
      ++late_next_;
    } else {
      high_ = Key(next_);
      ++next_;
    }
    Advance();
  }

 private:
  static constexpr EventOrder kNothingWalked{
      std::numeric_limits<SimTime>::min(), 0, 0};
  static constexpr size_t kDone = std::numeric_limits<size_t>::max();

  const Entry& At(size_t i) const {
    return ring_->slabs[i / kSlabRecords]->entries[i % kSlabRecords];
  }
  EventOrder Key(size_t i) const {
    const Entry& e = At(i);
    return EventOrder{e.record.time, e.sched, e.key};
  }
  bool Before(size_t a, size_t b) const {
    const EventOrder ka = Key(a);
    const EventOrder kb = Key(b);
    return ka < kb || (!(kb < ka) && a < b);
  }

  // Finds the next record: the earlier of the next in-order one (skipping
  // the late ones, found by the same running-maximum test as above) and
  // the next late one.
  void Advance() {
    while (next_ < size_ && Key(next_) < high_) {
      ++next_;
    }
    const bool in_order = next_ < size_;
    const bool late = late_next_ < late_.size();
    if (late && (!in_order || Before(late_[late_next_], next_))) {
      head_ = late_[late_next_];
    } else {
      head_ = in_order ? next_ : kDone;
    }
  }

  const Ring* ring_;
  size_t size_;
  std::vector<size_t> late_;
  size_t late_next_ = 0;
  size_t next_ = 0;                  // Next in-order candidate.
  EventOrder high_ = kNothingWalked;  // Largest in-order key read so far.
  size_t head_ = kDone;
};

std::vector<TraceRecord> Tracer::Merged() const {
  // Each ring reads in (time, emitting event's order, append index) order;
  // merging the rings by (time, ring) then realizes the total order
  // (time, region, event order, append index) — what concatenating the
  // rings in region order and stable-sorting by time would give.
  std::vector<RingReader> readers;
  readers.reserve(rings_.size());
  for (const Ring& ring : rings_) {
    readers.emplace_back(ring);
  }
  std::vector<TraceRecord> merged;
  merged.reserve(static_cast<size_t>(size()));
  for (;;) {
    RingReader* first = nullptr;
    for (RingReader& reader : readers) {
      // Strictly earlier only: a tie goes to the lower region.
      if (!reader.done() &&
          (first == nullptr || reader.head().time < first->head().time)) {
        first = &reader;
      }
    }
    if (first == nullptr) {
      return merged;
    }
    merged.push_back(first->head());
    first->Pop();
  }
}

namespace {

// Chrome trace "phase" for a record: engine steps have a duration, memory
// samples are counters, everything else is an instant.
bool IsCounter(TraceEventType t) { return t == TraceEventType::kMemSample; }
bool IsSlice(TraceEventType t) { return t == TraceEventType::kEngineStep; }

}  // namespace

std::string TraceToChromeJson(
    const std::vector<TraceRecord>& records,
    const std::vector<std::pair<std::string, std::string>>& meta) {
  Json doc = Json::Object();
  Json events = Json::Array();
  for (const TraceRecord& r : records) {
    TraceEventType type = static_cast<TraceEventType>(r.type);
    Json e = Json::Object();
    e.Set("name", TraceEventTypeName(type));
    e.Set("pid", static_cast<int>(r.region));
    e.Set("tid", static_cast<int>(r.replica));
    if (IsSlice(type)) {
      e.Set("ph", "X");
      // The record is stamped at step completion; the slice starts x us
      // earlier.
      e.Set("ts", static_cast<double>(r.time) - r.x);
      e.Set("dur", r.x);
    } else if (IsCounter(type)) {
      e.Set("ph", "C");
      e.Set("ts", static_cast<double>(r.time));
    } else {
      e.Set("ph", "i");
      e.Set("ts", static_cast<double>(r.time));
      e.Set("s", "t");
    }
    Json args = Json::Object();
    if (r.request >= 0) {
      args.Set("request", r.request);
    }
    if (IsCounter(type)) {
      args.Set("free_blocks", r.a);
      args.Set("running", r.b);
      args.Set("memory_utilization", r.x);
    } else {
      args.Set("a", r.a);
      args.Set("b", r.b);
      args.Set("x", r.x);
    }
    e.Set("args", std::move(args));
    events.Append(std::move(e));
  }
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", "ms");
  Json m = Json::Object();
  m.Set("schema_version", 1);
  m.Set("records", static_cast<int64_t>(records.size()));
  for (const auto& [key, value] : meta) {
    m.Set(key, value);
  }
  doc.Set("skywalker", std::move(m));
  return doc.Dump(false);
}

namespace {

constexpr char kTraceMagic[8] = {'S', 'K', 'T', 'R', 'A', 'C', 'E', '1'};

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xff);
  buf[1] = static_cast<char>((v >> 8) & 0xff);
  buf[2] = static_cast<char>((v >> 16) & 0xff);
  buf[3] = static_cast<char>((v >> 24) & 0xff);
  out->append(buf, 4);
}

uint32_t ReadU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

}  // namespace

std::string TraceToBinary(
    const std::vector<TraceRecord>& records,
    const std::vector<std::pair<std::string, std::string>>& meta) {
  // Metadata rides as a compact JSON object so the format stays
  // self-describing without a second serializer.
  Json m = Json::Object();
  for (const auto& [key, value] : meta) {
    m.Set(key, value);
  }
  std::string meta_blob = m.Dump(false);

  std::string out;
  out.reserve(32 + meta_blob.size() + records.size() * sizeof(TraceRecord));
  out.append(kTraceMagic, sizeof(kTraceMagic));
  AppendU32(&out, 1);  // Format version.
  AppendU32(&out, static_cast<uint32_t>(sizeof(TraceRecord)));
  AppendU32(&out, static_cast<uint32_t>(records.size()));
  AppendU32(&out, static_cast<uint32_t>(meta_blob.size()));
  out.append(meta_blob);
  if (!records.empty()) {
    out.append(reinterpret_cast<const char*>(records.data()),
               records.size() * sizeof(TraceRecord));
  }
  return out;
}

bool ParseTraceBinary(
    const std::string& bytes, std::vector<TraceRecord>* records,
    std::vector<std::pair<std::string, std::string>>* meta) {
  constexpr size_t kHeader = sizeof(kTraceMagic) + 4 * 4;
  if (bytes.size() < kHeader ||
      std::memcmp(bytes.data(), kTraceMagic, sizeof(kTraceMagic)) != 0) {
    return false;
  }
  const char* p = bytes.data() + sizeof(kTraceMagic);
  uint32_t version = ReadU32(p);
  uint32_t record_size = ReadU32(p + 4);
  uint32_t count = ReadU32(p + 8);
  uint32_t meta_len = ReadU32(p + 12);
  if (version != 1 || record_size != sizeof(TraceRecord)) {
    return false;
  }
  size_t need = kHeader + meta_len +
                static_cast<size_t>(count) * sizeof(TraceRecord);
  if (bytes.size() != need) {
    return false;
  }
  if (meta != nullptr) {
    meta->clear();
    auto parsed = Json::Parse(
        std::string_view(bytes.data() + kHeader, meta_len));
    if (!parsed || !parsed->is_object()) {
      return false;
    }
    for (const auto& [key, value] : parsed->items()) {
      meta->emplace_back(key,
                         value.is_string() ? value.AsString() : value.Dump());
    }
  }
  records->resize(count);
  if (count > 0) {
    std::memcpy(records->data(), bytes.data() + kHeader + meta_len,
                static_cast<size_t>(count) * sizeof(TraceRecord));
  }
  return true;
}

namespace {

bool WriteFileBytes(const std::filesystem::path& path,
                    const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out << content;
  return static_cast<bool>(out);
}

}  // namespace

bool WriteTraceArtifacts(
    const Tracer& tracer, const std::string& dir, const std::string& scenario,
    const std::string& cell,
    std::vector<std::pair<std::string, std::string>> meta) {
  std::string label = cell;
  std::replace(label.begin(), label.end(), '/', '_');
  meta.insert(meta.begin(), {{"scenario", scenario}, {"cell", cell}});
  meta.emplace_back("dropped_records", std::to_string(tracer.dropped()));
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // Failure surfaces below.
  const std::filesystem::path path =
      std::filesystem::path(dir) / ("TRACE_" + scenario + "_" + label + ".bin");
  return WriteFileBytes(path, TraceToBinary(tracer.Merged(), meta));
}

}  // namespace skywalker
