#include "sim/stats.h"

#include <gtest/gtest.h>

namespace vrc::sim {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.population_stddev(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.population_stddev(), 0.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
  EXPECT_EQ(s.sum(), 5.0);
}

TEST(RunningStatsTest, KnownMeanAndVariance) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.population_stddev(), 2.0, 1e-12);  // population variance 4
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(PercentilesTest, EmptyQuantileIsZero) {
  Percentiles p;
  EXPECT_EQ(p.quantile(0.5), 0.0);
}

TEST(PercentilesTest, MedianOfOddCount) {
  Percentiles p;
  for (double v : {5.0, 1.0, 3.0}) p.add(v);
  EXPECT_DOUBLE_EQ(p.quantile(0.5), 3.0);
}

TEST(PercentilesTest, InterpolatesBetweenOrderStatistics) {
  Percentiles p;
  for (double v : {0.0, 10.0}) p.add(v);
  EXPECT_DOUBLE_EQ(p.quantile(0.25), 2.5);
  EXPECT_DOUBLE_EQ(p.quantile(0.5), 5.0);
}

TEST(PercentilesTest, ExtremesAreMinMax) {
  Percentiles p;
  for (double v : {7.0, -2.0, 4.0, 9.0}) p.add(v);
  EXPECT_DOUBLE_EQ(p.quantile(0.0), -2.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 9.0);
  EXPECT_DOUBLE_EQ(p.quantile(-0.5), -2.0);  // clamped
  EXPECT_DOUBLE_EQ(p.quantile(1.5), 9.0);    // clamped
}

TEST(PercentilesTest, AddAfterQuantileStillWorks) {
  Percentiles p;
  p.add(1.0);
  p.add(2.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 2.0);
  p.add(3.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 3.0);
}

}  // namespace
}  // namespace vrc::sim
