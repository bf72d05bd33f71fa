// Per-region diurnal demand model (paper Fig. 2 / Fig. 3a).
//
// Each region's request rate over the day is a mixture of two wrapped
// Gaussian peaks (working-hours and evening) on top of a base rate, phase
// shifted by the region's timezone. This reproduces the qualitative WildChat
// behaviour the paper relies on: per-region peak-to-trough ratios of several
// x, with peaks offset across timezones so the *aggregate* is much flatter.

#ifndef SKYWALKER_WORKLOAD_DIURNAL_H_
#define SKYWALKER_WORKLOAD_DIURNAL_H_

#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/rng.h"

namespace skywalker {

struct DiurnalRegionProfile {
  std::string name;
  double utc_offset_hours = 0;  // Local peak positions shift by this.
  double base_rate = 0.1;       // Fraction of peak rate at the trough.
  double work_peak_local_hour = 14.0;
  double work_peak_width_hours = 3.5;
  double work_peak_weight = 1.0;
  double evening_peak_local_hour = 20.5;
  double evening_peak_width_hours = 2.0;
  double evening_peak_weight = 0.55;
  double scale = 1.0;  // Relative traffic volume of the region.
};

class DiurnalModel {
 public:
  explicit DiurnalModel(std::vector<DiurnalRegionProfile> profiles);

  // Relative request rate of region `r` at UTC hour `h` (fractional, [0,24)).
  double RateAt(size_t region, double utc_hour) const;

  // Expected requests per hour bucket over one day (24 bins), scaled so the
  // busiest region bucket equals `peak_requests`.
  BinnedSeries HourlySeries(size_t region, double peak_requests) const;

  size_t num_regions() const { return profiles_.size(); }
  const DiurnalRegionProfile& profile(size_t region) const {
    return profiles_.at(region);
  }

  // Draws Poisson request counts per hour for one day.
  BinnedSeries SampleDay(size_t region, double peak_requests, Rng& rng) const;

  // Six-country profile matching Fig. 2 (US, Russia, China, UK, Germany,
  // France with their approximate traffic volumes in WildChat).
  static DiurnalModel WildChatCountries();

  // Five-cloud-region profile matching Fig. 3a.
  static DiurnalModel FiveCloudRegions();

 private:
  std::vector<DiurnalRegionProfile> profiles_;
};

}  // namespace skywalker

#endif  // SKYWALKER_WORKLOAD_DIURNAL_H_
