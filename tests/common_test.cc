// Unit tests for src/common: RNG distributions, hashing, statistics
// containers, strings and table rendering.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "src/common/hash.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/strings.h"
#include "src/common/table.h"

namespace skywalker {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformInt(-3, 17);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 17);
  }
}

TEST(RngTest, UniformIntSingletonRange) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.UniformInt(9, 9), 9);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(2.0);  // mean 0.5
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, NormalMomentsApproximatelyCorrect) {
  Rng rng(13);
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) {
    stat.Add(rng.Normal(10.0, 3.0));
  }
  EXPECT_NEAR(stat.mean(), 10.0, 0.1);
  EXPECT_NEAR(stat.stddev(), 3.0, 0.1);
}

TEST(RngTest, LogNormalIsPositiveAndSkewed) {
  Rng rng(17);
  Distribution d;
  for (int i = 0; i < 20000; ++i) {
    d.Add(rng.LogNormal(5.0, 1.0));
  }
  EXPECT_GT(d.min(), 0.0);
  // Heavy right tail: mean greater than median.
  EXPECT_GT(d.mean(), d.Median());
}

TEST(RngTest, PoissonMeanApproximatelyCorrect) {
  Rng rng(19);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.Poisson(4.2));
  }
  EXPECT_NEAR(sum / n, 4.2, 0.1);
}

TEST(RngTest, PoissonLargeMeanUsesNormalApproximation) {
  Rng rng(21);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    int64_t v = rng.Poisson(200.0);
    EXPECT_GE(v, 0);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / n, 200.0, 2.0);
}

TEST(RngTest, GeometricMeanApproximatelyCorrect) {
  Rng rng(23);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    int64_t v = rng.Geometric(0.25);  // mean 4
    EXPECT_GE(v, 1);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(RngTest, ZipfRanksBoundedAndSkewed) {
  Rng rng(29);
  const int64_t n = 100;
  int64_t ones = 0;
  int64_t total = 20000;
  for (int64_t i = 0; i < total; ++i) {
    int64_t v = rng.Zipf(n, 1.2);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, n);
    if (v == 1) {
      ++ones;
    }
  }
  // Rank 1 should dominate under s=1.2 (analytically ~26%).
  EXPECT_GT(static_cast<double>(ones) / static_cast<double>(total), 0.15);
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng parent(37);
  Rng child1 = parent.Fork(1);
  Rng child2 = parent.Fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child1.Next() == child2.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(HashTest, Mix64Avalanche) {
  // Flipping one input bit should flip many output bits.
  uint64_t h1 = Mix64(0x1234);
  uint64_t h2 = Mix64(0x1235);
  int diff = __builtin_popcountll(h1 ^ h2);
  EXPECT_GT(diff, 16);
}

TEST(HashTest, HashStringStable) {
  EXPECT_EQ(HashString("user-42"), HashString("user-42"));
  EXPECT_NE(HashString("user-42"), HashString("user-43"));
  EXPECT_NE(HashString("a", 1), HashString("a", 2));  // Seed matters.
}

TEST(HashTest, HashCombineOrderDependent) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(RunningStatTest, BasicMoments) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(DistributionTest, ExactPercentiles) {
  Distribution d;
  for (int i = 1; i <= 100; ++i) {
    d.Add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(d.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(d.Percentile(100), 100.0);
  EXPECT_NEAR(d.Percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(d.Percentile(90), 90.1, 1e-9);
}

TEST(DistributionTest, EmptyIsZero) {
  Distribution d;
  EXPECT_EQ(d.count(), 0u);
  EXPECT_DOUBLE_EQ(d.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(d.mean(), 0.0);
}

TEST(BinnedSeriesTest, PeakToTroughRatio) {
  BinnedSeries s(4);
  s.Add(0, 10);
  s.Add(1, 40);
  s.Add(2, 20);
  s.Add(3, 10);
  EXPECT_DOUBLE_EQ(s.Total(), 80);
  EXPECT_DOUBLE_EQ(s.MaxBin(), 40);
  EXPECT_DOUBLE_EQ(s.PeakToTroughRatio(), 4.0);
}

TEST(SimTimeTest, ConversionsRoundTrip) {
  EXPECT_EQ(Seconds(2), 2'000'000);
  EXPECT_EQ(Milliseconds(3), 3'000);
  EXPECT_EQ(Hours(1), 3'600'000'000LL);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(5)), 5.0);
  EXPECT_EQ(SecondsF(0.3), 300'000);
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(StringsTest, SplitAndJoin) {
  auto parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(StrJoin({"x", "y"}, "::"), "x::y");
}

TEST(StringsTest, ParseUnsignedTakesWholeDecimalStrings) {
  uint64_t v = 7;
  EXPECT_TRUE(ParseUnsigned("0", UINT64_MAX, &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUnsigned("42", 100, &v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(ParseUnsigned("18446744073709551615", UINT64_MAX, &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_TRUE(ParseUnsigned("100", 100, &v));  // The bound is inclusive.
  EXPECT_EQ(v, 100u);
}

TEST(StringsTest, ParseUnsignedRejectsMalformedValues) {
  const uint64_t untouched = 7;
  for (const char* text :
       {"",                          // Empty.
        "abc", "2x", "2junk", "5x",  // Not a number, trailing characters.
        "-5", "+5", "-0",            // A sign.
        " 5", "5 ", "0x10", "1e3",   // Whitespace, other bases and forms.
        "18446744073709551616",      // One past UINT64_MAX.
        "99999999999999999999999"}) {
    uint64_t v = untouched;
    EXPECT_FALSE(ParseUnsigned(text, UINT64_MAX, &v)) << "'" << text << "'";
    EXPECT_EQ(v, untouched) << "'" << text << "'";
  }
  uint64_t v = untouched;
  EXPECT_FALSE(ParseUnsigned("101", 100, &v));  // Above the bound.
  EXPECT_FALSE(ParseUnsigned("2147483648", INT32_MAX, &v));
  EXPECT_EQ(v, untouched);
}

TEST(StringsTest, ParseCountFlagTakesOneToIntMaxAndNamesTheFlag) {
  int v = 7;
  EXPECT_TRUE(ParseCountFlag("prog", "--n", "1", &v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(ParseCountFlag("prog", "--n", "2147483647", &v));
  EXPECT_EQ(v, INT32_MAX);
  for (const char* text : {"", "0", "2x", "-1", "2147483648"}) {
    int untouched = 7;
    testing::internal::CaptureStderr();
    EXPECT_FALSE(ParseCountFlag("prog", "--n", text, &untouched))
        << "'" << text << "'";
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              std::string("prog: --n must be an integer >= 1, got '") + text +
                  "'\n");
    EXPECT_EQ(untouched, 7) << "'" << text << "'";
  }
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("skywalker", "sky"));
  EXPECT_FALSE(StartsWith("sky", "skywalker"));
}

TEST(TableTest, AsciiRender) {
  Table t({"name", "value"});
  t.AddRow({"tput", Table::Num(12.345, 1)});
  std::string ascii = t.ToAscii();
  EXPECT_NE(ascii.find("tput"), std::string::npos);
  EXPECT_NE(ascii.find("12.3"), std::string::npos);
}

TEST(TableTest, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.AddRow({"only-one"});
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_NE(t.ToAscii().find("only-one"), std::string::npos);
}

}  // namespace
}  // namespace skywalker
