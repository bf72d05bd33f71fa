#include "replays.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "report.h"
#include "src/cache/prefix_cache.h"
#include "src/common/rng.h"
#include "src/routing/dispatch_engine.h"

namespace perfbench {

using namespace skywalker;

namespace {

constexpr int kRepeats = 3;

using Clock = std::chrono::steady_clock;

double ElapsedNs(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

struct Op {
  TokenSeq prompt;
  TokenSeq output;
};

// Closed-loop clients sharing one replica: the busiest region's clients per
// replica.
int ClientsPerReplica(const WorkloadSpec& spec) {
  if (spec.tot_clients > 0) {
    return std::max(1, spec.tot_clients / spec.replicas_per_region[0]);
  }
  int most = 1;
  for (size_t r = 0; r < spec.replicas_per_region.size(); ++r) {
    const int replicas = std::max(1, spec.replicas_per_region[r]);
    most = std::max(most, (spec.chat_clients_per_region[r] + replicas - 1) /
                              replicas);
  }
  return most;
}

// The workload's requests as one replica would see them: one stream per
// client sharing it (a user's conversation turns, or a ToT tree's nodes in
// level order), interleaved round-robin, until the prompts total
// `prompt_tokens`.
std::vector<Op> MakeOps(const WorkloadSpec& spec, uint64_t seed,
                        int64_t prompt_tokens) {
  const int streams = ClientsPerReplica(spec);
  std::vector<Op> ops;
  int64_t total = 0;
  if (spec.tot_clients > 0) {
    ToTGenerator generator(spec.tot, seed);
    std::vector<std::vector<Op>> trees(static_cast<size_t>(streams));
    std::vector<size_t> next(static_cast<size_t>(streams), 0);
    while (total < prompt_tokens) {
      for (size_t s = 0; s < trees.size(); ++s) {
        if (next[s] == trees[s].size()) {
          const ToTGenerator::Tree tree = generator.MakeTree();
          trees[s].clear();
          for (const std::vector<int>& level : tree.levels) {
            for (int node : level) {
              const auto& n = tree.nodes[static_cast<size_t>(node)];
              trees[s].push_back(Op{n.prompt, n.output});
            }
          }
          next[s] = 0;
        }
        ops.push_back(trees[s][next[s]++]);
        total += static_cast<int64_t>(ops.back().prompt.size());
      }
    }
    return ops;
  }
  ConversationGenerator generator(spec.conversation,
                                  spec.topology.num_regions(), seed);
  std::vector<ConversationGenerator::UserProfile> users;
  std::vector<ConversationGenerator::Conversation> conversations(
      static_cast<size_t>(streams));
  std::vector<size_t> next(static_cast<size_t>(streams), 0);
  for (int s = 0; s < streams; ++s) {
    users.push_back(generator.MakeUser(0));
  }
  while (total < prompt_tokens) {
    for (size_t s = 0; s < users.size(); ++s) {
      if (next[s] == conversations[s].turns.size()) {
        conversations[s] = generator.MakeConversation(users[s]);
        next[s] = 0;
      }
      const auto& turn = conversations[s].turns[next[s]++];
      ops.push_back(Op{turn.prompt, turn.output});
      total += static_cast<int64_t>(turn.prompt.size());
    }
  }
  return ops;
}

// Keeps the queue at a constant backlog: every executed event schedules one
// successor at a pseudo-random 1-50 ms offset.
struct EventChurn {
  static constexpr size_t kDelays = 4096;
  Simulator sim;
  std::vector<SimDuration> delays;
  size_t next = 0;

  EventChurn() {
    Rng rng(7);
    for (size_t i = 0; i < kDelays; ++i) {
      delays.push_back(static_cast<SimDuration>(rng.Uniform(1e3, 50e3)));
    }
  }
  void Fire() {
    sim.ScheduleAt(sim.now() + delays[next++ % kDelays], [this] { Fire(); });
  }
};

// The engine requires a selector; the replay queries selection directly.
class NoSelector : public ReplicaSelector {
 public:
  ReplicaId SelectReplica(const Queued&, const CandidateView&) override {
    return kInvalidReplica;
  }
};

}  // namespace

double ReplaySimNsPerEvent(double backlog) {
  constexpr int64_t kEvents = 1'000'000;
  const int64_t pending = std::max<int64_t>(1, std::llround(backlog));
  std::vector<double> ns;
  for (int rep = 0; rep < kRepeats; ++rep) {
    EventChurn churn;
    for (int64_t i = 0; i < pending; ++i) {
      churn.Fire();
    }
    const auto t0 = Clock::now();
    for (int64_t i = 0; i < kEvents; ++i) {
      churn.sim.Step();
    }
    ns.push_back(ElapsedNs(t0) / kEvents);
  }
  return Median(ns);
}

double ReplayCacheNsPerToken(const WorkloadSpec& spec, uint64_t seed) {
  const std::vector<Op> ops = MakeOps(spec, seed, 2'000'000);
  std::vector<TokenSeq> full;
  int64_t tokens = 0;
  for (const Op& op : ops) {
    TokenSeq seq = op.prompt;
    seq.insert(seq.end(), op.output.begin(), op.output.end());
    full.push_back(std::move(seq));
    tokens += static_cast<int64_t>(op.prompt.size());
  }
  std::vector<double> ns;
  for (int rep = 0; rep < kRepeats; ++rep) {
    PrefixCache cache(spec.replica.kv_capacity_tokens, nullptr,
                      spec.replica.kv_block_size_tokens,
                      spec.replica.cache_eviction_policy);
    SimTime now = 0;
    const auto t0 = Clock::now();
    for (size_t i = 0; i < ops.size(); ++i) {
      const PrefixCache::MatchRef ref = cache.MatchAndRef(ops[i].prompt, now);
      cache.Insert(full[i], now);
      cache.Unref(ref.pin);
      now += Milliseconds(10);
    }
    ns.push_back(ElapsedNs(t0) / static_cast<double>(tokens));
  }
  return Median(ns);
}

double ReplaySelectNs(const WorkloadSpec& spec) {
  constexpr int64_t kSelections = 200'000;
  const int cap = spec.replica.max_running_requests;
  Simulator sim;
  Topology topology;
  topology.AddRegion("local");
  Network net(&sim, topology);
  DispatchConfig config;
  config.push_mode = PushMode::kSelectiveOutstanding;
  config.max_outstanding_per_replica = cap;
  NoSelector selector;
  DispatchEngine engine(&sim, &net, 0, config, &selector);
  std::vector<std::unique_ptr<Replica>> replicas;
  for (int i = 0; i < spec.max_replicas_per_region(); ++i) {
    replicas.push_back(std::make_unique<Replica>(&sim, i, 0, spec.replica));
    engine.AttachReplica(replicas.back().get());
    // Scattered loads below the cap, so every replica stays available.
    engine.FindReplica(i)->outstanding = (i * 7919) % cap;
  }
  engine.RefreshSelectionIndex();
  std::vector<double> ns;
  int64_t checksum = 0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const auto t0 = Clock::now();
    for (int64_t i = 0; i < kSelections; ++i) {
      const ReplicaId id = engine.LeastLoadedAvailable();
      ReplicaState* state = engine.FindReplica(id);
      state->outstanding = (state->outstanding + 3) % cap;
      engine.NoteReplicaMutated(id);
      checksum += id;
    }
    ns.push_back(ElapsedNs(t0) / kSelections);
  }
  return checksum < 0 ? 0.0 : Median(ns);
}

double ReplayProbeNs(const World& world) {
  constexpr int kReplicas = 16;
  constexpr int kProbes = 200;
  const auto& replicas = world.deployment().replicas();
  const size_t n = std::min<size_t>(kReplicas, replicas.size());
  std::vector<double> ns;
  int64_t checksum = 0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const auto t0 = Clock::now();
    for (size_t r = 0; r < n; ++r) {
      for (int i = 0; i < kProbes; ++i) {
        checksum += replicas[r]->Probe().free_blocks;
      }
    }
    ns.push_back(ElapsedNs(t0) / static_cast<double>(n * kProbes));
  }
  return checksum < 0 ? 0.0 : Median(ns);
}

double ReplayReplicaNsPerStep(const WorkloadSpec& spec, uint64_t seed) {
  const std::vector<Op> ops = MakeOps(spec, seed, 400'000);
  std::vector<double> ns;
  for (int rep = 0; rep < kRepeats; ++rep) {
    Simulator sim;
    Replica replica(&sim, 0, 0, spec.replica);
    size_t next = 0;
    Replica::Handlers handlers;
    std::function<void()> submit = [&] {
      if (next == ops.size()) {
        return;
      }
      Request req;
      req.id = next + 1;
      req.client_region = 0;
      req.prompt = ops[next].prompt;
      req.output = ops[next].output;
      ++next;
      replica.Enqueue(std::move(req), handlers);
    };
    // Closed loop: each completion admits the next request, keeping the
    // batch full.
    handlers.on_complete = [&](const Request&, int64_t) {
      sim.ScheduleAfter(0, [&submit] { submit(); });
    };
    for (int i = 0; i < spec.replica.max_running_requests + 2; ++i) {
      submit();
    }
    const auto t0 = Clock::now();
    sim.Run();
    ns.push_back(ElapsedNs(t0) /
                 static_cast<double>(std::max<int64_t>(
                     1, replica.stats().engine_steps)));
  }
  return Median(ns);
}

}  // namespace perfbench
