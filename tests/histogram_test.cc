// Bucketed Histogram edge cases: the degenerate quantile shapes the
// registry depends on — single-occupied-bucket tails, overflow-bucket
// clamping. The contract is
// documented on the class (src/common/histogram.h): quantiles interpolate
// inside the covering bucket but always land inside the exact observed
// [min, max], so p99 over one bucket never reports a bound no sample hit.

#include "src/common/histogram.h"

#include <gtest/gtest.h>

#include <vector>

namespace skywalker {
namespace {

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  Histogram h({1.0, 2.0, 4.0});
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.Quantile(0.99), 0.0);
}

TEST(HistogramTest, CountSumMinMaxAreExact) {
  Histogram h({10.0, 100.0, 1000.0});
  for (double x : {3.0, 42.0, 500.0, 7.0, 2000.0}) {
    h.Add(x);
  }
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 2552.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2552.0 / 5.0);
  EXPECT_DOUBLE_EQ(h.min(), 3.0);
  EXPECT_DOUBLE_EQ(h.max(), 2000.0);
  // counts(): (..,10], (10,100], (100,1000], overflow.
  const std::vector<uint64_t> expect = {2, 1, 1, 1};
  EXPECT_EQ(h.counts(), expect);
}

TEST(HistogramTest, SingleBucketQuantilesStayWithinObservedRange) {
  // All mass in one bucket: p50/p99 must interpolate inside [min, max],
  // never report the bucket's lower or upper *bound* (no sample was there).
  Histogram h({1000.0, 2000.0, 4000.0});
  h.Add(1200.0);
  h.Add(1300.0);
  h.Add(1400.0);
  for (double q : {0.01, 0.5, 0.9, 0.99}) {
    const double v = h.Quantile(q);
    EXPECT_GE(v, 1200.0) << "q=" << q;
    EXPECT_LE(v, 1400.0) << "q=" << q;
  }
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.99));
}

TEST(HistogramTest, AllSamplesEqualEveryQuantileIsThatValue) {
  Histogram h({1.0, 10.0, 100.0});
  for (int i = 0; i < 7; ++i) {
    h.Add(42.0);
  }
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Quantile(q), 42.0) << "q=" << q;
  }
}

TEST(HistogramTest, OverflowBucketQuantilesNeverReportInfinity) {
  Histogram h({10.0});
  h.Add(5.0);
  h.Add(10000.0);
  h.Add(20000.0);
  const double p99 = h.Quantile(0.99);
  EXPECT_GE(p99, 10.0);
  EXPECT_LE(p99, 20000.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 20000.0);
}

TEST(HistogramTest, NoBoundsHistogramIsAllOverflow) {
  Histogram h;
  h.Add(3.0);
  h.Add(9.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.counts().size(), 1u);
  EXPECT_GE(h.Quantile(0.5), 3.0);
  EXPECT_LE(h.Quantile(0.5), 9.0);
}

TEST(HistogramTest, ExponentialFactoryBuildsGeometricGrid) {
  Histogram h = Histogram::Exponential(1.0, 2.0, 4);
  const std::vector<double> expect = {1.0, 2.0, 4.0, 8.0};
  EXPECT_EQ(h.bounds(), expect);
  EXPECT_EQ(h.counts().size(), 5u);  // +1 overflow.
}

TEST(HistogramTest, QuantilesAreMonotoneAcrossBuckets) {
  Histogram h = Histogram::Exponential(1.0, 2.0, 12);
  for (int i = 1; i <= 1000; ++i) {
    h.Add(static_cast<double>(i));
  }
  double prev = h.Quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double v = h.Quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  // Interpolation should stay within a bucket of the exact answer: p50 of
  // 1..1000 is ~500, covered by the (256, 512] bucket.
  EXPECT_GE(h.Quantile(0.5), 256.0);
  EXPECT_LE(h.Quantile(0.5), 512.0);
}

TEST(HistogramTest, ClearKeepsBoundsDropsCounts) {
  Histogram h({1.0, 2.0});
  h.Add(1.5);
  h.Clear();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.bounds().size(), 2u);
  EXPECT_EQ(h.Quantile(0.99), 0.0);
  h.Add(0.5);  // Still usable after Clear.
  EXPECT_EQ(h.count(), 1u);
}

}  // namespace
}  // namespace skywalker
