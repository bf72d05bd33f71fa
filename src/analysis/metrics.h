// Experiment metric collection: per-request outcomes with a configurable
// steady-state measurement window, producing the quantities every figure of
// the paper reports — service throughput (token/s), TTFT and end-to-end
// latency distributions, cache hit rates, and forwarding fractions.
//
// Also defines the machine-readable metric layer every skybench scenario
// emits: MetricRow (a labeled bag of named scalar metrics) and the JSON
// writers that turn rows and distributions into BENCH_*.json content.

#ifndef SKYWALKER_ANALYSIS_METRICS_H_
#define SKYWALKER_ANALYSIS_METRICS_H_

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/json.h"
#include "src/common/sim_time.h"
#include "src/memory/kv_controller.h"
#include "src/workload/client.h"
#include "src/workload/request.h"

namespace skywalker {

class MetricsCollector : public MetricsSink {
 public:
  MetricsCollector() = default;

  // Only outcomes completing inside [start, end) count toward summary
  // statistics (warm-up / cool-down exclusion). Default: everything.
  void SetMeasurementWindow(SimTime start, SimTime end);

  void RecordOutcome(const RequestOutcome& outcome) override;

  size_t total_recorded() const { return outcomes_.size(); }
  size_t CountInWindow() const;

  // TTFT in seconds, measured at the client (includes network).
  Distribution TtftSeconds() const;
  // Client-observed end-to-end latency in seconds.
  Distribution E2eSeconds() const;

  // Service throughput over the window: (prompt + output) tokens of
  // completed requests divided by window length.
  double ThroughputTokensPerSec() const;
  double OutputThroughputTokensPerSec() const;

  // Token-weighted prefix-cache hit rate over completed requests.
  double CacheHitRate() const;

  // Fraction of requests served outside their first-contact region's LB.
  double ForwardedFraction() const;

  const std::vector<RequestOutcome>& outcomes() const { return outcomes_; }

 private:
  bool InWindow(const RequestOutcome& o) const;
  double WindowSeconds() const;

  std::vector<RequestOutcome> outcomes_;
  SimTime window_start_ = 0;
  SimTime window_end_ = kSimTimeMax;
};

// One labeled result row of a benchmark scenario — e.g. one (system,
// workload) cell of Fig. 8. `label` uniquely identifies the row within its
// scenario; `dims` optionally names the dimensions the label concatenates
// (so tooling can pivot without parsing labels); `metrics` is insertion-
// ordered so serialization is stable.
struct MetricRow {
  std::string label;
  std::vector<std::pair<std::string, std::string>> dims;
  std::vector<std::pair<std::string, double>> metrics;

  MetricRow& Dim(std::string key, std::string value) {
    dims.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  // Appends or overwrites in place (insertion position preserved).
  MetricRow& Set(std::string key, double value);
  const double* Find(std::string_view key) const;
};

// The standard metric keys shared by every simulation-backed scenario.
// Declared here so scenario definitions and schema tests agree on spelling.
namespace metric_keys {
inline constexpr const char* kThroughputTokS = "throughput_tok_s";
inline constexpr const char* kOutputTokS = "output_throughput_tok_s";
inline constexpr const char* kTtftP50 = "ttft_p50_s";
inline constexpr const char* kTtftP90 = "ttft_p90_s";
inline constexpr const char* kTtftP99 = "ttft_p99_s";
inline constexpr const char* kTtftMean = "ttft_mean_s";
inline constexpr const char* kE2eP50 = "e2e_p50_s";
inline constexpr const char* kE2eP90 = "e2e_p90_s";
inline constexpr const char* kE2eP99 = "e2e_p99_s";
inline constexpr const char* kCacheHitRate = "cache_hit_rate";
inline constexpr const char* kForwardRate = "forward_rate";
inline constexpr const char* kImbalance = "outstanding_imbalance";
inline constexpr const char* kCompleted = "completed";
inline constexpr const char* kCostUsdPerHour = "cost_usd_per_hour";

// Paged-KV memory keys (ISSUE 4). Scenarios that report the memory
// subsystem (fig07_memory_pressure, fig09, micro_memory) carry these;
// SetKvMetrics below fills the full set from summed KvCounters.
inline constexpr const char* kPreemptions = "preemptions";
inline constexpr const char* kSwapOuts = "swap_outs";
inline constexpr const char* kSwapIns = "swap_ins";
inline constexpr const char* kSwapTransferSec = "swap_transfer_s";
inline constexpr const char* kKvFragmentationPct = "kv_fragmentation_pct";
inline constexpr const char* kKvWatermarkRejections =
    "kv_watermark_rejections";

// Exact-occupancy keys (ISSUE 5): end-of-run snapshots of the unified block
// ledger, fleet-summed. `kv_cache_blocks` is the exact number of pages the
// radix caches hold (per-node spans, shared pages once), `kv_evictable_
// blocks` the subset a full eviction would free, and `kv_seq_blocks` the
// pages referenced by live sequence tables.
inline constexpr const char* kKvCacheBlocks = "kv_cache_blocks";
inline constexpr const char* kKvEvictableBlocks = "kv_evictable_blocks";
inline constexpr const char* kKvSeqBlocks = "kv_seq_blocks";

// Resilience keys (ISSUE 7): what the hostile-scenario pack reports per cell.
// Goodput is completed requests per measured second; lost_forever counts
// issued requests that neither completed nor errored after the drain;
// misrouted counts requests sent to a replica that never answered in time
// (request timeouts plus post-timeout stragglers).
inline constexpr const char* kGoodputReqS = "goodput_req_s";
inline constexpr const char* kLostForever = "lost_forever";
inline constexpr const char* kMisrouted = "misrouted";
inline constexpr const char* kEjections = "ejections";
inline constexpr const char* kRecoveries = "recoveries";
inline constexpr const char* kClientErrors = "client_errors";
inline constexpr const char* kConfigSwaps = "config_swaps";
}  // namespace metric_keys

// The standard keys above, in canonical order (schema tests iterate this).
const std::vector<std::string>& StandardExperimentMetricKeys();

// The resilience keys, in canonical order (fig_resilience schema).
const std::vector<std::string>& ResilienceMetricKeys();

// Fills the paged-KV metric keys from fleet-summed counters.
// `capacity_tokens_total` is the fleet KV budget (fragmentation is reported
// as peak percent of it; pass 0 to report 0).
MetricRow& SetKvMetrics(MetricRow& row, const KvCounters& counters,
                        int64_t capacity_tokens_total);

// {"label":..,"dims":{..},"metrics":{..}} — dims omitted when empty.
Json MetricRowJson(const MetricRow& row);

// Element-wise mean of rows that share a label across trials. Rows keep
// first-seen order; metrics keep the first row's key order.
std::vector<MetricRow> MeanRowsByLabel(
    const std::vector<std::vector<MetricRow>>& per_trial_rows);

}  // namespace skywalker

#endif  // SKYWALKER_ANALYSIS_METRICS_H_
