#include "src/common/histogram.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace skywalker {

void RunningStat::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

void Distribution::Add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

double Distribution::mean() const {
  if (samples_.empty()) {
    return 0;
  }
  return sum() / static_cast<double>(samples_.size());
}

double Distribution::sum() const {
  double s = 0;
  for (double x : samples_) {
    s += x;
  }
  return s;
}

double Distribution::min() const {
  if (samples_.empty()) {
    return 0;
  }
  EnsureSorted();
  return samples_.front();
}

double Distribution::max() const {
  if (samples_.empty()) {
    return 0;
  }
  EnsureSorted();
  return samples_.back();
}

double Distribution::Percentile(double p) const {
  if (samples_.empty()) {
    return 0;
  }
  assert(p >= 0 && p <= 100);
  EnsureSorted();
  if (samples_.size() == 1) {
    return samples_[0];
  }
  double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, samples_.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

void Distribution::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      counts_(bounds_.size() + 1, 0) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    assert(bounds_[i] > bounds_[i - 1] && "bounds must strictly increase");
  }
}

Histogram Histogram::Exponential(double first, double factor, int count) {
  assert(first > 0 && factor > 1 && count > 0);
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(count));
  double b = first;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return Histogram(std::move(bounds));
}

void Histogram::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  // First bucket whose upper bound covers x; past-the-end is the overflow.
  size_t i = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), x) - bounds_.begin());
  ++counts_[i];
}

void Histogram::Clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  assert(q >= 0 && q <= 1);
  // Rank of the requested quantile among `count_` ordered samples.
  double rank = q * static_cast<double>(count_);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) {
      continue;
    }
    double lo = i == 0 ? min_ : bounds_[i - 1];
    double hi = i < bounds_.size() ? bounds_[i] : max_;
    if (static_cast<double>(cumulative + counts_[i]) >= rank) {
      // Linear interpolation inside the covering bucket, clamped to the
      // observed range — a single occupied bucket yields values in
      // [min, max], not the bucket's nominal bounds.
      double within =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(counts_[i]);
      double v = lo + (hi - lo) * within;
      return std::min(std::max(v, min_), max_);
    }
    cumulative += counts_[i];
  }
  return max_;
}

void BinnedSeries::Add(size_t bin, double value) {
  assert(bin < bins_.size());
  bins_[bin] += value;
}

double BinnedSeries::Total() const {
  double t = 0;
  for (double b : bins_) {
    t += b;
  }
  return t;
}

double BinnedSeries::MaxBin() const {
  double m = 0;
  for (double b : bins_) {
    m = std::max(m, b);
  }
  return m;
}

double BinnedSeries::MinBin() const {
  if (bins_.empty()) {
    return 0;
  }
  double m = bins_[0];
  for (double b : bins_) {
    m = std::min(m, b);
  }
  return m;
}

double BinnedSeries::PeakToTroughRatio() const {
  double lo = MinBin();
  double hi = MaxBin();
  if (lo <= 0) {
    // Avoid division by zero: treat empty troughs as 1 request.
    lo = 1.0;
  }
  return hi / lo;
}

}  // namespace skywalker
