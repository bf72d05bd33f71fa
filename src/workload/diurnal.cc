#include "src/workload/diurnal.h"

#include <cassert>
#include <cmath>

namespace skywalker {
namespace {

// Circular distance between two hours on a 24h clock.
double WrapDistance(double a, double b) {
  double d = std::fabs(a - b);
  return std::min(d, 24.0 - d);
}

double GaussianBump(double hour, double center, double width) {
  double d = WrapDistance(hour, center);
  return std::exp(-(d * d) / (2.0 * width * width));
}

}  // namespace

DiurnalModel::DiurnalModel(std::vector<DiurnalRegionProfile> profiles)
    : profiles_(std::move(profiles)) {
  assert(!profiles_.empty());
}

double DiurnalModel::RateAt(size_t region, double utc_hour) const {
  const DiurnalRegionProfile& p = profiles_.at(region);
  double local = std::fmod(utc_hour + p.utc_offset_hours + 48.0, 24.0);
  double rate = p.base_rate;
  rate += p.work_peak_weight *
          GaussianBump(local, p.work_peak_local_hour, p.work_peak_width_hours);
  rate += p.evening_peak_weight * GaussianBump(local, p.evening_peak_local_hour,
                                               p.evening_peak_width_hours);
  return rate * p.scale;
}

BinnedSeries DiurnalModel::HourlySeries(size_t region,
                                        double peak_requests) const {
  // Normalize: the peak *within this region* maps to peak_requests.
  double peak = 0;
  for (int h = 0; h < 24; ++h) {
    peak = std::max(peak, RateAt(region, h + 0.5));
  }
  BinnedSeries series(24);
  for (int h = 0; h < 24; ++h) {
    series.Add(static_cast<size_t>(h),
               RateAt(region, h + 0.5) / peak * peak_requests);
  }
  return series;
}

BinnedSeries DiurnalModel::SampleDay(size_t region, double peak_requests,
                                     Rng& rng) const {
  BinnedSeries expected = HourlySeries(region, peak_requests);
  BinnedSeries sampled(24);
  for (size_t h = 0; h < 24; ++h) {
    sampled.Add(h, static_cast<double>(rng.Poisson(expected.bin(h))));
  }
  return sampled;
}

DiurnalModel DiurnalModel::WildChatCountries() {
  std::vector<DiurnalRegionProfile> profiles;
  auto make = [](std::string name, double utc_offset, double scale) {
    DiurnalRegionProfile p;
    p.name = std::move(name);
    p.utc_offset_hours = utc_offset;
    p.scale = scale;
    return p;
  };
  // Scales approximate Fig. 2's relative volumes (US/China ~8000 peak,
  // Russia ~6000, France ~2500, UK ~2000, Germany ~1500).
  profiles.push_back(make("United States", -6, 1.00));
  profiles.push_back(make("Russia", 3, 0.75));
  profiles.push_back(make("China", 8, 1.00));
  profiles.push_back(make("United Kingdom", 0, 0.25));
  profiles.push_back(make("Germany", 1, 0.19));
  profiles.push_back(make("France", 1, 0.31));
  return DiurnalModel(std::move(profiles));
}

DiurnalModel DiurnalModel::FiveCloudRegions() {
  // Cloud regions serve broader (multi-timezone) client populations than a
  // single country, so their profiles are wider and have a higher base load
  // than the Fig. 2 country profiles; the scales approximate Fig. 3a. The
  // five regions aggregate to a much flatter curve (paper: per-region
  // variance 2.88-32.64x collapses to 1.29x after aggregation).
  std::vector<DiurnalRegionProfile> profiles;
  auto make = [](std::string name, double utc_offset, double scale) {
    DiurnalRegionProfile p;
    p.name = std::move(name);
    p.utc_offset_hours = utc_offset;
    p.scale = scale;
    p.base_rate = 0.10;
    p.work_peak_width_hours = 3.0;
    p.evening_peak_width_hours = 2.5;
    p.evening_peak_weight = 0.4;
    return p;
  };
  // Offsets model the *client populations* each region serves (not the data
  // center's own timezone): us-west skews toward late Pacific traffic and
  // us-east-2 absorbs Asia-Pacific overflow in this WildChat subset, which
  // is what pushes the five peaks apart and makes the aggregate flat.
  profiles.push_back(make("us-east-1", -5, 1.00));
  profiles.push_back(make("us-west", -10, 0.55));
  profiles.push_back(make("eu-west", 0, 0.60));
  profiles.push_back(make("eu-central", 3, 0.45));
  profiles.push_back(make("us-east-2", 9, 0.50));
  return DiurnalModel(std::move(profiles));
}

}  // namespace skywalker
