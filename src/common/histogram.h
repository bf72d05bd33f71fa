// Statistics collection: exact-sample distributions with percentile queries,
// plus a light running-moments accumulator. These back every latency /
// throughput number the benchmark harness reports.

#ifndef SKYWALKER_COMMON_HISTOGRAM_H_
#define SKYWALKER_COMMON_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace skywalker {

// Running mean / variance / extrema without storing samples (Welford).
class RunningStat {
 public:
  void Add(double x);
  void Merge(const RunningStat& other);

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  size_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
};

// Stores every sample; supports exact percentiles. LLM-serving experiments in
// this repo collect at most a few million samples per run, so exact storage
// is affordable and avoids sketch error in reported tail latencies.
class Distribution {
 public:
  void Add(double x);
  void Merge(const Distribution& other);
  void Clear();

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double sum() const;
  double min() const;
  double max() const;

  // Exact percentile with linear interpolation; `p` in [0, 100].
  double Percentile(double p) const;

  double Median() const { return Percentile(50); }

  // Read-only access for CDF exports.
  const std::vector<double>& samples() const { return samples_; }

 private:
  void EnsureSorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

// Fixed-bucket histogram with explicit upper bounds (strictly increasing)
// plus an implicit overflow bucket. Unlike Distribution it stores counts,
// not samples, so it is mergeable across shards/replicas at O(buckets) and
// its memory is independent of sample volume — the representation the
// metrics registry (src/obs/registry.h) tags per replica/region/policy.
//
// Quantiles interpolate linearly inside the covering bucket, clamped to the
// exact observed [min, max] so degenerate shapes stay truthful:
//   * empty histogram        -> every quantile is 0;
//   * all samples equal      -> every quantile is that value;
//   * single occupied bucket -> p50/p99 land inside [min, max], never at a
//     bucket bound no sample reached;
//   * overflow bucket        -> quantiles in it return values in
//     [last bound, max], never infinity.
// Merge requires identical bucket bounds, except that a histogram with no
// observations (notably a default-constructed one) merges as a no-op /
// bound-adopting copy — so reducing a vector of per-shard histograms never
// trips on an untouched element. tests/histogram_test.cc pins these edges.
class Histogram {
 public:
  // No bounds: everything lands in the overflow bucket (still mergeable,
  // still exact for count/sum/min/max, quantiles clamp to [min, max]).
  Histogram() = default;
  // `upper_bounds` must be strictly increasing.
  explicit Histogram(std::vector<double> upper_bounds);

  // `count` buckets at first, first*factor, first*factor^2, ... —
  // the usual latency-style geometric grid. Requires first > 0, factor > 1.
  static Histogram Exponential(double first, double factor, int count);

  void Add(double x);
  // Adds `other`'s counts bucket-wise. Either side may be empty (see above);
  // otherwise the bounds must match exactly.
  void Merge(const Histogram& other);
  void Clear();

  uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double sum() const { return sum_; }
  double mean() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  // `q` in [0, 1]. Interpolated within the covering bucket, clamped to the
  // observed [min, max]; 0 when empty.
  double Quantile(double q) const;
  double Percentile(double p) const { return Quantile(p / 100.0); }

  const std::vector<double>& bounds() const { return bounds_; }
  // counts()[i] covers (bounds()[i-1], bounds()[i]]; the final entry is the
  // overflow bucket (counts().size() == bounds().size() + 1).
  const std::vector<uint64_t>& counts() const { return counts_; }

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_ = {0};  // bounds_.size() + 1 entries.
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

// Fixed-width binned counter keyed by integer bucket. Used for time-series
// (e.g. requests per hour-of-day in the diurnal figures).
class BinnedSeries {
 public:
  explicit BinnedSeries(size_t num_bins) : bins_(num_bins, 0.0) {}

  void Add(size_t bin, double value = 1.0);

  size_t num_bins() const { return bins_.size(); }
  double bin(size_t i) const { return bins_.at(i); }
  const std::vector<double>& bins() const { return bins_; }
  double Total() const;
  double MaxBin() const;
  double MinBin() const;
  // max/min over non-zero support; returns 0 if empty.
  double PeakToTroughRatio() const;

 private:
  std::vector<double> bins_;
};

}  // namespace skywalker

#endif  // SKYWALKER_COMMON_HISTOGRAM_H_
