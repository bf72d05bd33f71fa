// Closed-loop client actors. Each client runs one program at a time (paper
// §5.1): a multi-turn conversation issued turn-by-turn, or a Tree-of-Thoughts
// tree issued level-by-level with concurrent siblings.
//
// Clients resolve a frontend through a FrontendResolver (the DNS layer) and
// submit over the network model, so TTFT measured at the client includes the
// client↔LB and LB↔replica paths exactly as in the paper's testbed.

#ifndef SKYWALKER_WORKLOAD_CLIENT_H_
#define SKYWALKER_WORKLOAD_CLIENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"
#include "src/workload/conversation.h"
#include "src/workload/request.h"
#include "src/workload/tot.h"

namespace skywalker {

// Destination for completed-request records; implemented by
// analysis::MetricsCollector. Kept abstract here so workload does not depend
// on the analysis library.
class MetricsSink {
 public:
  virtual ~MetricsSink() = default;
  virtual void RecordOutcome(const RequestOutcome& outcome) = 0;
};

// Globally unique request ids (single-threaded simulation).
RequestId NextRequestId();

// Stamps submit_time and delivers the request to the frontend after the
// client→frontend one-way latency.
void SubmitViaNetwork(Network* net, RegionId client_region, Frontend* frontend,
                      Request req, RequestCallbacks callbacks);

struct ClientConfig {
  SimDuration think_time_mean = Seconds(2);        // Between turns.
  SimDuration program_gap_mean = Seconds(3);       // Between programs.
  SimTime stop_issuing_after = kSimTimeMax;        // No new requests after.
  // Nonzero: the client draws ids from its own private range starting here
  // instead of the global atomic counter — required for run-to-run
  // determinism when clients execute on parallel simulator shards. Ranges
  // of distinct clients must not overlap.
  RequestId request_id_base = 0;
};

// Issues conversations sequentially: submit turn, await completion, think,
// next turn; new conversation when the previous ends.
class ConversationClient {
 public:
  ConversationClient(Simulator* sim, Network* net, FrontendResolver* resolver,
                     ConversationGenerator* generator, MetricsSink* metrics,
                     RegionId region, const ClientConfig& config,
                     uint64_t seed);

  // Begins the first conversation after `initial_delay`.
  void Start(SimDuration initial_delay = 0);

  size_t completed_requests() const { return completed_requests_; }
  size_t completed_conversations() const { return completed_conversations_; }
  size_t errors() const { return errors_; }
  // Submissions handed to the network (retries count again). Every issued
  // request eventually completes or errors; after a full drain,
  // issued - completed - errors is the number of requests swallowed by the
  // system — the lost-forever count the resilience scenarios assert on.
  size_t issued_requests() const { return issued_requests_; }

 private:
  void BeginConversation();
  void IssueTurn();
  void OnTurnComplete(const RequestOutcome& outcome);

  Simulator* sim_;
  Network* net_;
  FrontendResolver* resolver_;
  ConversationGenerator* generator_;
  MetricsSink* metrics_;
  RegionId region_;
  ClientConfig config_;
  Rng rng_;

  ConversationGenerator::UserProfile user_;
  ConversationGenerator::Conversation current_;
  RequestId next_request_id_ = 0;  // Private-range mode only.
  size_t next_turn_ = 0;
  size_t issued_requests_ = 0;
  size_t completed_requests_ = 0;
  size_t completed_conversations_ = 0;
  size_t errors_ = 0;
};

// Issues one ToT tree at a time: all nodes of a level concurrently, next
// level once every node of the current level completed.
class ToTClient {
 public:
  ToTClient(Simulator* sim, Network* net, FrontendResolver* resolver,
            ToTGenerator* generator, MetricsSink* metrics, RegionId region,
            const ClientConfig& config, uint64_t seed);

  void Start(SimDuration initial_delay = 0);

  size_t completed_requests() const { return completed_requests_; }
  size_t completed_trees() const { return completed_trees_; }
  size_t issued_requests() const { return issued_requests_; }

 private:
  void BeginTree();
  void IssueLevel();
  void OnNodeComplete(const RequestOutcome& outcome);

  Simulator* sim_;
  Network* net_;
  FrontendResolver* resolver_;
  ToTGenerator* generator_;
  MetricsSink* metrics_;
  RegionId region_;
  ClientConfig config_;
  Rng rng_;

  UserId user_id_;
  std::string routing_key_base_;
  RequestId next_request_id_ = 0;  // Private-range mode only.
  ToTGenerator::Tree current_;
  int current_level_ = 0;
  size_t level_pending_ = 0;
  size_t issued_requests_ = 0;
  size_t completed_requests_ = 0;
  size_t completed_trees_ = 0;
};

}  // namespace skywalker

#endif  // SKYWALKER_WORKLOAD_CLIENT_H_
