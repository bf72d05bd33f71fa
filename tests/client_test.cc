// Unit tests for the closed-loop client actors against a scripted fake
// frontend: turn sequencing, think times, ToT level barriers, error retry,
// and metrics delivery.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/workload/client.h"

namespace skywalker {
namespace {

// Frontend that completes every request after a fixed latency, recording
// arrival order. Lives in region 0.
class ScriptedFrontend : public Frontend {
 public:
  ScriptedFrontend(Simulator* sim, SimDuration latency)
      : sim_(sim), latency_(latency) {}

  RegionId region() const override { return 0; }

  void HandleRequest(Request req, RequestCallbacks callbacks) override {
    arrivals.push_back(req);
    if (fail_next > 0) {
      --fail_next;
      if (callbacks.on_error) {
        callbacks.on_error();
      }
      return;
    }
    RequestOutcome outcome;
    outcome.id = req.id;
    outcome.user_id = req.user_id;
    outcome.client_region = req.client_region;
    outcome.submit_time = req.submit_time;
    outcome.prompt_tokens = req.prompt_tokens();
    outcome.output_tokens = req.output_tokens();
    SimTime first = sim_->now() + latency_ / 2;
    SimTime done = sim_->now() + latency_;
    outcome.first_token_time = first;
    outcome.completion_time = done;
    sim_->ScheduleAt(done, [callbacks, outcome] {
      if (callbacks.on_complete) {
        callbacks.on_complete(outcome);
      }
    });
  }

  std::vector<Request> arrivals;
  int fail_next = 0;

 private:
  Simulator* sim_;
  SimDuration latency_;
};

class CountingSink : public MetricsSink {
 public:
  void RecordOutcome(const RequestOutcome& outcome) override {
    outcomes.push_back(outcome);
  }
  std::vector<RequestOutcome> outcomes;
};

struct ClientBench {
  Simulator sim;
  Topology topology;
  std::unique_ptr<Network> net;
  std::unique_ptr<ScriptedFrontend> frontend;
  std::unique_ptr<SingleFrontendResolver> resolver;
  CountingSink sink;

  explicit ClientBench(SimDuration latency = Milliseconds(500)) {
    topology.AddRegion("local", Milliseconds(1));
    net = std::make_unique<Network>(&sim, topology);
    frontend = std::make_unique<ScriptedFrontend>(&sim, latency);
    resolver = std::make_unique<SingleFrontendResolver>(frontend.get());
  }
};

TEST(ConversationClientTest, IssuesTurnsSequentially) {
  ClientBench bench;
  ConversationGenerator gen(ConversationWorkloadConfig::Arena(), 1, 5);
  ClientConfig config;
  config.think_time_mean = Milliseconds(200);
  config.program_gap_mean = Milliseconds(200);
  ConversationClient client(&bench.sim, bench.net.get(), bench.resolver.get(),
                            &gen, &bench.sink, 0, config, 9);
  client.Start();
  bench.sim.RunUntil(Seconds(30));
  EXPECT_GT(client.completed_requests(), 5u);
  EXPECT_GT(client.completed_conversations(), 0u);
  EXPECT_EQ(bench.sink.outcomes.size(), client.completed_requests());
  // Sequential: at most one request outstanding at any time, so arrivals
  // must be strictly ordered by submit time with no overlap.
  const auto& arrivals = bench.frontend->arrivals;
  for (size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_GT(arrivals[i].submit_time, arrivals[i - 1].submit_time);
  }
}

TEST(ConversationClientTest, TurnPromptsGrowWithinConversation) {
  ClientBench bench;
  ConversationGenerator gen(ConversationWorkloadConfig::Arena(), 1, 6);
  ClientConfig config;
  config.think_time_mean = Milliseconds(100);
  ConversationClient client(&bench.sim, bench.net.get(), bench.resolver.get(),
                            &gen, &bench.sink, 0, config, 10);
  client.Start();
  bench.sim.RunUntil(Seconds(20));
  const auto& arrivals = bench.frontend->arrivals;
  ASSERT_GT(arrivals.size(), 2u);
  for (size_t i = 1; i < arrivals.size(); ++i) {
    if (arrivals[i].session_id == arrivals[i - 1].session_id) {
      EXPECT_GT(arrivals[i].prompt.size(), arrivals[i - 1].prompt.size());
      // Later turn extends the earlier turn's prompt.
      EXPECT_EQ(CommonPrefixLen(arrivals[i - 1].prompt, arrivals[i].prompt),
                arrivals[i - 1].prompt.size());
    }
  }
}

TEST(ConversationClientTest, RetriesAfterError) {
  ClientBench bench;
  ConversationGenerator gen(ConversationWorkloadConfig::Arena(), 1, 7);
  ClientConfig config;
  config.think_time_mean = Milliseconds(100);
  ConversationClient client(&bench.sim, bench.net.get(), bench.resolver.get(),
                            &gen, &bench.sink, 0, config, 11);
  bench.frontend->fail_next = 2;  // First two submissions rejected.
  client.Start();
  bench.sim.RunUntil(Seconds(10));
  EXPECT_EQ(client.errors(), 2u);
  EXPECT_GT(client.completed_requests(), 0u);
  // The retried turn was re-submitted: arrivals > completions.
  EXPECT_GT(bench.frontend->arrivals.size(), client.completed_requests());
}

TEST(ConversationClientTest, StopsIssuingAfterDeadline) {
  ClientBench bench;
  ConversationGenerator gen(ConversationWorkloadConfig::Arena(), 1, 8);
  ClientConfig config;
  config.think_time_mean = Milliseconds(100);
  config.stop_issuing_after = Seconds(5);
  ConversationClient client(&bench.sim, bench.net.get(), bench.resolver.get(),
                            &gen, &bench.sink, 0, config, 12);
  client.Start();
  bench.sim.RunUntil(Seconds(30));
  for (const Request& req : bench.frontend->arrivals) {
    EXPECT_LE(req.submit_time, Seconds(5) + Milliseconds(10));
  }
}

TEST(ToTClientTest, IssuesLevelsAsBarriers) {
  ClientBench bench;
  ToTConfig tot;
  tot.depth = 3;
  tot.branching = 2;  // Levels of 1, 2, 4 -> 7 requests per tree.
  ToTGenerator gen(tot, 13);
  ClientConfig config;
  config.program_gap_mean = Milliseconds(100);
  ToTClient client(&bench.sim, bench.net.get(), bench.resolver.get(), &gen,
                   &bench.sink, 0, config, 14);
  client.Start();
  bench.sim.RunUntil(Seconds(10));
  ASSERT_GE(client.completed_trees(), 1u);
  // First tree: 1 root, then 2, then 4, all sharing a session id.
  const auto& arrivals = bench.frontend->arrivals;
  ASSERT_GE(arrivals.size(), 7u);
  SessionId first_session = arrivals[0].session_id;
  std::vector<size_t> level_sizes;
  SimTime last_time = -1;
  for (size_t i = 0; i < 7; ++i) {
    ASSERT_EQ(arrivals[i].session_id, first_session);
    if (arrivals[i].submit_time != last_time) {
      level_sizes.push_back(1);
      last_time = arrivals[i].submit_time;
    } else {
      ++level_sizes.back();
    }
  }
  EXPECT_EQ(level_sizes, (std::vector<size_t>{1, 2, 4}));
}

TEST(ToTClientTest, CompletesTreesBackToBack) {
  ClientBench bench(Milliseconds(100));
  ToTConfig tot;
  tot.depth = 2;
  tot.branching = 2;  // 3 requests per tree.
  ToTGenerator gen(tot, 15);
  ClientConfig config;
  config.program_gap_mean = Milliseconds(50);
  ToTClient client(&bench.sim, bench.net.get(), bench.resolver.get(), &gen,
                   &bench.sink, 0, config, 16);
  client.Start();
  bench.sim.RunUntil(Seconds(20));
  EXPECT_GT(client.completed_trees(), 10u);
  EXPECT_EQ(client.completed_requests(), client.completed_trees() * 3);
}

TEST(RequestIdTest, MonotonicallyUnique) {
  RequestId a = NextRequestId();
  RequestId b = NextRequestId();
  RequestId c = NextRequestId();
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(SubmitViaNetworkTest, StampsSubmitTimeAndAppliesLatency) {
  Simulator sim;
  Topology topology;
  RegionId a = topology.AddRegion("a");
  RegionId b = topology.AddRegion("b");
  topology.SetLatency(a, b, Milliseconds(70));
  Network net(&sim, topology);

  class CaptureFrontend : public Frontend {
   public:
    RegionId region() const override { return 1; }
    void HandleRequest(Request req, RequestCallbacks /*callbacks*/) override {
      received = req;
      got = true;
    }
    Request received;
    bool got = false;
  };
  CaptureFrontend frontend;

  sim.RunUntil(Milliseconds(5));
  Request req;
  req.id = 1;
  req.client_region = a;
  req.prompt = TokenSeq{1, 2};
  req.output = TokenSeq{3};
  SubmitViaNetwork(&net, a, &frontend, req, {});
  sim.Run();
  ASSERT_TRUE(frontend.got);
  EXPECT_EQ(frontend.received.submit_time, Milliseconds(5));
  EXPECT_EQ(sim.now(), Milliseconds(75));  // 5 + 70 one-way.
}

}  // namespace
}  // namespace skywalker
