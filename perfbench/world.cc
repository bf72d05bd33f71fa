#include "world.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <tuple>
#include <utility>

#include "src/common/histogram.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/harness/scenario.h"

namespace perfbench {

using namespace skywalker;

namespace {

// Conversation-workload replicas of the fleet cells (fig_fleet_scale):
// small batches on a 24k-token coarse KV, so the operating point sits near
// the admission cap.
ReplicaConfig ChatReplica() {
  ReplicaConfig config;
  config.max_running_requests = 8;
  config.kv_capacity_tokens = 24576;
  return config;
}

ClientConfig ChatClient() {
  ClientConfig config;
  config.think_time_mean = Milliseconds(500);
  config.program_gap_mean = Seconds(1);
  return config;
}

// The ROADMAP's full-size fig_fleet_scale cell (spp_r1000) on the sharded
// simulator. Engine steps (~95% of events) and shard windows do the work;
// nothing forwards and KV never runs short, so parallel shards and coalesced
// engine steps must show here.
WorkloadSpec FleetSharded() {
  WorkloadSpec spec;
  spec.name = "fleet_sharded";
  spec.topology = Topology::FourRegions();
  spec.replicas_per_region.assign(4, 250);
  spec.chat_clients_per_region.assign(4, 500);
  spec.conversation = ConversationWorkloadConfig::WildChat();
  spec.client = ChatClient();
  spec.replica = ChatReplica();
  spec.warmup = Seconds(10);
  spec.measure = Seconds(60);
  spec.num_shards = 4;
  // Two workers, not four: at four every barrier waits for the slowest of
  // the host's shared vCPUs, and the same run spread 1.5-4.5 s.
  spec.num_threads = 2;
  spec.worlds = 4;
  return spec;
}

// The paper's premise: one region at its diurnal peak, absorbed by
// cross-region forwarding (a fifth to a third of requests forward), on the
// plain simulator. Forwarding, regional snapshot tries, peer probes and
// balancer queueing do the work; no shard barrier runs.
WorkloadSpec DiurnalSkew() {
  constexpr int kReplicas = 64;
  WorkloadSpec spec;
  spec.name = "diurnal_skew";
  spec.topology = Topology::FourRegions();
  spec.replicas_per_region.assign(4, kReplicas);
  // One client per replica everywhere, plus region 0's peak cohort of 12
  // per replica: 13 closed-loop clients against 8 batch slots there.
  spec.chat_clients_per_region.assign(4, kReplicas);
  spec.chat_clients_per_region[0] += 12 * kReplicas;
  spec.conversation = ConversationWorkloadConfig::WildChat();
  spec.client = ChatClient();
  spec.replica = ChatReplica();
  // Region 0's queue takes tens of seconds to reach its peak regime, and the
  // forwarded share settles differently per seed: a longer warm-up and
  // twelve pooled worlds keep the served metrics' spread across seeds near
  // 5-7%.
  spec.warmup = Seconds(30);
  spec.measure = Seconds(150);
  spec.worlds = 12;
  return spec;
}

// fig07's saturation point scaled up: the KV ledger, prefix-cache eviction,
// swap preemption and SP-P's probe path (each probe counts cache pages) do
// the work, on the plain simulator. Selection, forwarding and shards do
// almost nothing, and the cache churns (hit rate ~0.27) where the chat
// workloads mostly read it.
WorkloadSpec KvWall() {
  WorkloadSpec spec;
  spec.name = "kv_wall";
  spec.topology.AddRegion("local", Milliseconds(1));
  spec.replicas_per_region = {16};
  spec.chat_clients_per_region = {0};
  // fig07's saturation point (sat/spp/b16/swap) at 4x its fleet: a 12k-token
  // paged KV with an under-sized 64-token output reserve, so decode growth
  // resolves through eviction and swap preemption.
  spec.tot_clients = 64;
  spec.tot.depth = 4;
  spec.tot.branching = 2;
  spec.tot.question_len_mean = 800;
  spec.tot.thought_len_mean = 350;
  spec.tot.thought_len_sigma = 1.2;
  spec.client.think_time_mean = Milliseconds(200);
  spec.client.program_gap_mean = Seconds(1);
  spec.replica.max_running_requests = 32;
  spec.replica.output_reserve_tokens = 64;
  spec.replica.kv_capacity_tokens = 12288;
  spec.replica.kv_block_size_tokens = 16;
  spec.replica.kv_preempt_policy = PreemptPolicy::kSwap;
  spec.replica.kv_watermark_blocks = (512 + 64) / 16;
  spec.lb.engine.max_outstanding_per_replica = 24;
  spec.lb.engine.push_slack = 32;
  spec.lb.engine.min_free_block_fraction = 0.01;
  spec.warmup = Seconds(30);
  spec.measure = Seconds(900);
  spec.worlds = 12;
  return spec;
}

double Since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool OutcomeBefore(const RequestOutcome& a, const RequestOutcome& b) {
  return std::tie(a.completion_time, a.submit_time, a.client_region, a.id) <
         std::tie(b.completion_time, b.submit_time, b.client_region, b.id);
}

}  // namespace

int WorkloadSpec::total_replicas() const {
  int total = 0;
  for (int n : replicas_per_region) {
    total += n;
  }
  return total;
}

int WorkloadSpec::max_replicas_per_region() const {
  return *std::max_element(replicas_per_region.begin(),
                           replicas_per_region.end());
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = {FleetSharded(),
                                                      DiurnalSkew(), KvWall()};
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

std::vector<uint64_t> SubSeeds(const WorkloadSpec& spec, uint64_t seed) {
  std::vector<uint64_t> seeds = {seed};
  Rng rng(seed);
  while (static_cast<int>(seeds.size()) < spec.worlds) {
    seeds.push_back(rng.Next());
  }
  return seeds;
}

Counts Counts::Minus(const Counts& earlier) const {
  Counts d;
  d.sent = sent - earlier.sent;
  d.succeeded = succeeded - earlier.succeeded;
  d.failed = failed - earlier.failed;
  d.vanished = vanished - earlier.vanished;
  d.issued = issued < 0 ? -1 : issued - earlier.issued;
  return d;
}

bool Counts::operator==(const Counts& o) const {
  return std::tie(sent, succeeded, failed, vanished, issued) ==
         std::tie(o.sent, o.succeeded, o.failed, o.vanished, o.issued);
}

std::string Served::Canonical() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "ttft_n=%lld ttft_p50=%.17g ttft_p999=%.17g "
                "tpot_n=%lld tpot_p50=%.17g tpot_p999=%.17g tok_s=%.17g "
                "slo=%.17g ok=%.17g",
                static_cast<long long>(ttft_samples), ttft_p50_ms,
                ttft_p999_ms, static_cast<long long>(tpot_samples),
                tpot_p50_ms, tpot_p999_ms, tok_s, slo_frac, ok_frac);
  return buf;
}

World::World(const WorkloadSpec& spec, uint64_t seed, Tracer* tracer,
             Spans* spans, int parent)
    : spec_(spec) {
  const size_t num_regions = spec.topology.num_regions();
  SKYWALKER_CHECK(spec.replicas_per_region.size() == num_regions);
  SKYWALKER_CHECK(spec.chat_clients_per_region.size() == num_regions);

  int span = spans->Begin("build.sim", parent);
  if (spec.num_shards <= 0) {
    plain_ = std::make_unique<Simulator>();
    net_ = std::make_unique<Network>(plain_.get(), spec.topology,
                                     /*jitter_fraction=*/0.0, seed);
    plain_->SetTracer(tracer);
  } else {
    sharded_ = std::make_unique<ShardedSimulator>(
        spec.topology, spec.num_shards, spec.num_threads,
        /*jitter_fraction=*/0.0);
    net_ = std::make_unique<Network>(sharded_.get(), /*jitter_fraction=*/0.0,
                                     seed);
    sharded_->SetTracer(tracer);
  }
  spans->End(span);
  build_times_.sim_s = spans->Seconds(span);

  span = spans->Begin("build.core", parent);
  DeploymentSpec dspec;
  dspec.replicas_per_region = spec.replicas_per_region;
  dspec.replica_config = spec.replica;
  dspec.lb_config = spec.lb;
  deployment_ = Deployment::Build(
      net_->SimForRegion(dspec.controller_config.home_region), net_.get(),
      dspec);
  spans->End(span);
  build_times_.core_s = spans->Seconds(span);

  span = spans->Begin("build.workload", parent);
  for (size_t r = 0; r < num_regions; ++r) {
    auto collector = std::make_unique<MetricsCollector>();
    collector->SetMeasurementWindow(spec.warmup, spec.end());
    collectors_.push_back(std::move(collector));
  }
  // Every client's streams derive from (seed, client index) alone, as in the
  // fleet harness, so results do not depend on shard or thread count.
  uint64_t index = 0;
  const bool any_chat =
      std::any_of(spec.chat_clients_per_region.begin(),
                  spec.chat_clients_per_region.end(), [](int n) { return n > 0; });
  if (any_chat) {
    base_generator_ = std::make_unique<ConversationGenerator>(
        spec.conversation, num_regions, seed);
  }
  for (RegionId region = 0; region < static_cast<RegionId>(num_regions);
       ++region) {
    Simulator* region_sim = net_->SimForRegion(region);
    for (int i = 0; i < spec.chat_clients_per_region[static_cast<size_t>(region)];
         ++i, ++index) {
      generators_.push_back(std::make_unique<ConversationGenerator>(
          *base_generator_, index, MixSeed(seed + 1000, index + 1)));
      ClientConfig client = spec.client;
      client.request_id_base = static_cast<RequestId>((index + 1) << 32);
      chat_clients_.push_back(std::make_unique<ConversationClient>(
          region_sim, net_.get(), deployment_->resolver(),
          generators_.back().get(),
          collectors_[static_cast<size_t>(region)].get(), region, client,
          MixSeed(seed + 2000, index + 1)));
      Rng stagger(MixSeed(seed ^ 0xdead, index + 1));
      chat_staggers_.push_back(
          static_cast<SimDuration>(stagger.Uniform(0, 5e6)));
    }
  }
  if (spec.tot_clients > 0) {
    // One shared generator: ToT token ids come from one counter, so
    // separate generators would share prefixes by accident.
    tot_generator_ =
        std::make_unique<ToTGenerator>(spec.tot, MixSeed(seed + 1000, 0));
    for (int i = 0; i < spec.tot_clients; ++i, ++index) {
      ClientConfig client = spec.client;
      client.request_id_base = static_cast<RequestId>((index + 1) << 32);
      tot_clients_.push_back(std::make_unique<ToTClient>(
          net_->SimForRegion(0), net_.get(), deployment_->resolver(),
          tot_generator_.get(), collectors_[0].get(), 0, client,
          MixSeed(seed + 2000, index + 1)));
    }
  }
  spans->End(span);
  build_times_.workload_s = spans->Seconds(span);
}

World::~World() = default;

void World::Start() {
  deployment_->Start();
  for (size_t i = 0; i < chat_clients_.size(); ++i) {
    chat_clients_[i]->Start(chat_staggers_[i]);
  }
  for (size_t i = 0; i < tot_clients_.size(); ++i) {
    tot_clients_[i]->Start(Milliseconds(50 * static_cast<int64_t>(i)));
  }
}

void World::RunUntil(SimTime deadline) {
  if (sharded_ != nullptr) {
    sharded_->RunUntil(deadline);
  } else {
    plain_->RunUntil(deadline);
  }
}

size_t World::executed_events() const {
  return sharded_ != nullptr ? sharded_->executed_events()
                             : plain_->executed_events();
}

double World::pending_events_per_queue() const {
  if (sharded_ == nullptr) {
    return static_cast<double>(plain_->pending_events());
  }
  double total = 0;
  for (int s = 0; s < sharded_->num_shards(); ++s) {
    total += static_cast<double>(sharded_->shard(s)->pending_events());
  }
  return total / sharded_->num_shards();
}

Counts World::counts() const {
  Counts c;
  for (const auto& lb : deployment_->lbs()) {
    c.sent += lb->stats().received_client;
  }
  int64_t issued = 0;
  for (const auto& client : chat_clients_) {
    c.succeeded += static_cast<int64_t>(client->completed_requests());
    c.failed += static_cast<int64_t>(client->errors());
    issued += static_cast<int64_t>(client->issued_requests());
  }
  for (const auto& client : tot_clients_) {
    c.succeeded += static_cast<int64_t>(client->completed_requests());
  }
  c.issued = tot_clients_.empty() ? issued : -1;
  for (const auto& replica : deployment_->replicas()) {
    c.vanished += replica->stats().dropped_requests;
  }
  return c;
}

Character World::character() const {
  Character c;
  int64_t in_window = 0;
  int64_t forwarded = 0;
  for (const RequestOutcome& o : merged_) {
    if (o.completion_time >= spec_.warmup && o.completion_time < spec_.end()) {
      ++in_window;
      forwarded += o.forwarded ? 1 : 0;
    }
  }
  c.forwarded_frac = in_window == 0 ? 0.0
                                    : static_cast<double>(forwarded) /
                                          static_cast<double>(in_window);
  for (const auto& replica : deployment_->replicas()) {
    c.preemptions += replica->stats().preemptions;
    c.evict_victims += replica->cache().eviction_stats().victims;
  }
  c.hit_rate = deployment_->AggregateCacheHitRate();
  return c;
}

WindowSamples World::Summarize(const Counts& total, int64_t window_failed) {
  merged_.clear();
  for (const auto& collector : collectors_) {
    merged_.insert(merged_.end(), collector->outcomes().begin(),
                   collector->outcomes().end());
  }
  std::sort(merged_.begin(), merged_.end(), OutcomeBefore);

  WindowSamples window;
  window.total = total;
  window.window_failed = window_failed;
  for (const RequestOutcome& o : merged_) {
    if (o.completion_time < spec_.warmup || o.completion_time >= spec_.end()) {
      continue;
    }
    window.tokens += static_cast<double>(o.prompt_tokens + o.output_tokens);
    const double ttft_ms =
        static_cast<double>(o.first_token_time - o.submit_time) / 1e3;
    window.ttft_ms.push_back(ttft_ms);
    bool tpot_ok = true;
    if (o.output_tokens >= 2) {
      const double tpot_ms =
          static_cast<double>(o.completion_time - o.first_token_time) / 1e3 /
          static_cast<double>(o.output_tokens - 1);
      window.tpot_ms.push_back(tpot_ms);
      tpot_ok = tpot_ms <= 100.0;
    }
    if (ttft_ms <= 1000.0 && tpot_ok) {
      ++window.met_slo;
    }
  }
  return window;
}

Served Pool(const std::vector<const WindowSamples*>& windows,
            SimDuration measure) {
  Distribution ttft;
  Distribution tpot;
  double tokens = 0;
  int64_t met_slo = 0;
  int64_t slo_attempts = 0;
  int64_t sent = 0;
  int64_t lost = 0;
  for (const WindowSamples* w : windows) {
    for (double x : w->ttft_ms) {
      ttft.Add(x);
    }
    for (double x : w->tpot_ms) {
      tpot.Add(x);
    }
    tokens += w->tokens;
    met_slo += w->met_slo;
    slo_attempts += static_cast<int64_t>(w->ttft_ms.size()) + w->window_failed;
    sent += w->total.sent;
    lost += w->total.failed + w->total.vanished;
  }
  Served served;
  served.ttft_samples = static_cast<int64_t>(ttft.count());
  served.tpot_samples = static_cast<int64_t>(tpot.count());
  if (!ttft.empty()) {
    served.ttft_p50_ms = ttft.Percentile(50);
    served.ttft_p999_ms = ttft.Percentile(99.9);
  }
  if (!tpot.empty()) {
    served.tpot_p50_ms = tpot.Percentile(50);
    served.tpot_p999_ms = tpot.Percentile(99.9);
  }
  served.tok_s = tokens / (ToSeconds(measure) * static_cast<double>(windows.size()));
  served.slo_frac = slo_attempts == 0 ? 0.0
                                      : static_cast<double>(met_slo) /
                                            static_cast<double>(slo_attempts);
  served.ok_frac = sent == 0 ? 0.0
                             : 1.0 - static_cast<double>(lost) /
                                         static_cast<double>(sent);
  return served;
}

RepResult RunRep(const WorkloadSpec& spec, uint64_t seed, Tracer* tracer,
                 Spans* spans, const std::function<void(const World&)>& inspect) {
  RepResult rep;
  const int root =
      spans->Begin(spec.name + (tracer != nullptr ? ".traced" : ""));
  const auto t0 = std::chrono::steady_clock::now();

  const int setup = spans->Begin("setup", root);
  auto world = std::make_unique<World>(spec, seed, tracer, spans, setup);
  int span = spans->Begin("start", setup);
  world->Start();
  spans->End(span);
  spans->End(setup);
  rep.timing.setup_s = Since(t0);
  rep.timing.build_sim_s = world->build_times().sim_s;
  rep.timing.build_core_s = world->build_times().core_s;
  rep.timing.build_clients_s = world->build_times().workload_s;
  const auto t1 = std::chrono::steady_clock::now();

  span = spans->Begin("loop.warmup", root);
  world->RunUntil(spec.warmup);
  spans->End(span);
  rep.timing.loop_warmup_s = spans->Seconds(span);
  rep.warmup = world->counts();
  rep.backlog = world->pending_events_per_queue();

  span = spans->Begin("loop.window", root);
  world->RunUntil(spec.end());
  spans->End(span);
  rep.timing.loop_window_s = spans->Seconds(span);

  span = spans->Begin("summarize", root);
  rep.total = world->counts();
  rep.window =
      world->Summarize(rep.total, rep.total.Minus(rep.warmup).failed);
  rep.served = Pool({&rep.window}, spec.measure);
  rep.character = world->character();
  rep.events = world->executed_events();
  if (const ShardedSimulator* sharded = world->sharded()) {
    rep.shard_timing = sharded->Timing();
    rep.windows = sharded->windows();
    rep.threads = sharded->num_threads();
  }
  spans->End(span);
  rep.timing.summarize_s = spans->Seconds(span);
  const double before_inspect = Since(t1);

  if (inspect) {
    span = spans->Begin("inspect", root);
    inspect(*world);
    spans->End(span);
  }

  span = spans->Begin("teardown", root);
  world.reset();
  spans->End(span);
  rep.timing.teardown_s = spans->Seconds(span);
  rep.timing.run_s = before_inspect + rep.timing.teardown_s;
  spans->End(root);
  return rep;
}

double SetupOnly(const WorkloadSpec& spec, uint64_t seed, Spans* spans) {
  const int root = spans->Begin(spec.name + ".setup_only");
  const auto t0 = std::chrono::steady_clock::now();
  const int setup = spans->Begin("setup", root);
  auto world = std::make_unique<World>(spec, seed, nullptr, spans, setup);
  const int span = spans->Begin("start", setup);
  world->Start();
  spans->End(span);
  spans->End(setup);
  const double setup_s = Since(t0);
  world.reset();
  spans->End(root);
  return setup_s;
}

}  // namespace perfbench
