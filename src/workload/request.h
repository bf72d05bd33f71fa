// Request vocabulary shared by clients, load balancers and replicas.
//
// A Request carries the full prompt as token ids plus the ground-truth output
// tokens the model "will generate". The output is invisible to the serving
// system until generated (routers cannot see output length in advance —
// the unpredictability that motivates selective pushing, §2.3); carrying it
// in the request lets the replica simulator produce the exact continuation
// that the client then folds into the next conversation turn, which is what
// makes KV prefix reuse across turns exact.
//
// Both are slices of the generator's buffer (SharedTokens, src/cache/
// tokens.h): a generated request's output continues its prompt in that
// buffer, so copying a request, forwarding it and publishing prompt ⊕ output
// at completion copy no tokens.

#ifndef SKYWALKER_WORKLOAD_REQUEST_H_
#define SKYWALKER_WORKLOAD_REQUEST_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/cache/tokens.h"
#include "src/common/sim_time.h"
#include "src/net/topology.h"

namespace skywalker {

using RequestId = uint64_t;
using UserId = int64_t;
using SessionId = int64_t;
using ReplicaId = int32_t;
using LbId = int32_t;

inline constexpr ReplicaId kInvalidReplica = -1;
inline constexpr LbId kInvalidLb = -1;

struct Request {
  RequestId id = 0;
  UserId user_id = 0;
  SessionId session_id = 0;
  RegionId client_region = kInvalidRegion;
  SharedTokens prompt;
  SharedTokens output;      // Ground truth; see file comment.
  std::string routing_key;  // Consistent-hashing key (user or session id).
  SimTime submit_time = 0;  // Stamped when the client sends the request.

  int64_t prompt_tokens() const { return static_cast<int64_t>(prompt.size()); }
  int64_t output_tokens() const { return static_cast<int64_t>(output.size()); }
};

// Everything the experiment harness needs to know about one finished
// request. Timestamps are client-observed (network included).
struct RequestOutcome {
  RequestId id = 0;
  UserId user_id = 0;
  RegionId client_region = kInvalidRegion;
  RegionId served_region = kInvalidRegion;
  ReplicaId replica = kInvalidReplica;
  SimTime submit_time = 0;
  SimTime first_token_time = 0;  // TTFT = first_token_time - submit_time.
  SimTime completion_time = 0;
  int64_t prompt_tokens = 0;
  int64_t cached_prompt_tokens = 0;  // KV prefix-cache hit length.
  int64_t output_tokens = 0;
  int hops = 1;            // LB hops traversed (1 local, 2 forwarded).
  bool forwarded = false;  // Served outside the client's first-contact LB.
};

struct RequestCallbacks {
  // Fires at the client (response-path network latency applied by the
  // serving system) with the outcome, first-token time included.
  std::function<void(const RequestOutcome&)> on_complete;
  // The serving side rejected or dropped the request (e.g. LB failure).
  // Clients re-resolve DNS and retry.
  std::function<void()> on_error;
};

// A network-reachable request entry point (a load balancer). Clients invoke
// HandleRequest *after* modelling client->frontend latency (see
// SubmitViaNetwork in client.h).
class Frontend {
 public:
  virtual ~Frontend() = default;

  // Region where this frontend runs (for latency computation).
  virtual RegionId region() const = 0;

  // Request arrival at the frontend.
  virtual void HandleRequest(Request req, RequestCallbacks callbacks) = 0;

  // True when the frontend can currently accept traffic (health/DNS).
  virtual bool healthy() const { return true; }
};

// Maps a client region to the frontend it should contact (the DNS layer in
// the paper's architecture, Figure 7).
class FrontendResolver {
 public:
  virtual ~FrontendResolver() = default;
  virtual Frontend* Resolve(RegionId client_region) = 0;
};

// Trivial resolver: every client talks to one fixed frontend (the
// centralized-baseline deployment, Figure 1(b)).
class SingleFrontendResolver : public FrontendResolver {
 public:
  explicit SingleFrontendResolver(Frontend* frontend) : frontend_(frontend) {}
  Frontend* Resolve(RegionId /*client_region*/) override {
    return frontend_;
  }

 private:
  Frontend* frontend_;
};

}  // namespace skywalker

#endif  // SKYWALKER_WORKLOAD_REQUEST_H_
