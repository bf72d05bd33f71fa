// Simulated-time vocabulary. All simulator components express time as
// SimTime (microseconds since simulation start) and intervals as SimDuration.
//
// Integer microseconds keep event ordering exact (no floating-point drift) and
// still provide sub-step resolution: the finest modelled latency is ~10 us.

#ifndef SKYWALKER_COMMON_SIM_TIME_H_
#define SKYWALKER_COMMON_SIM_TIME_H_

#include <cstdint>

namespace skywalker {

// Absolute simulated time in microseconds since simulation start.
using SimTime = int64_t;

// Interval between two SimTime points, in microseconds.
using SimDuration = int64_t;

constexpr SimTime kSimTimeZero = 0;

// A far-future sentinel (~292 thousand years); used for "never" deadlines.
constexpr SimTime kSimTimeMax = INT64_MAX / 2;

constexpr SimDuration Microseconds(int64_t us) { return us; }
constexpr SimDuration Milliseconds(int64_t ms) { return ms * 1000; }
constexpr SimDuration Seconds(int64_t s) { return s * 1000 * 1000; }
constexpr SimDuration Minutes(int64_t m) { return Seconds(m * 60); }
constexpr SimDuration Hours(int64_t h) { return Minutes(h * 60); }

// Fractional-second construction, e.g. SecondsF(0.3) == 300'000 us.
constexpr SimDuration SecondsF(double s) {
  return static_cast<SimDuration>(s * 1e6);
}
constexpr SimDuration MillisecondsF(double ms) {
  return static_cast<SimDuration>(ms * 1e3);
}

constexpr double ToSeconds(SimDuration d) { return static_cast<double>(d) / 1e6; }
constexpr double ToMilliseconds(SimDuration d) {
  return static_cast<double>(d) / 1e3;
}

}  // namespace skywalker

#endif  // SKYWALKER_COMMON_SIM_TIME_H_
