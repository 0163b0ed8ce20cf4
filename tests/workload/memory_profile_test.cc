#include "workload/memory_profile.h"

#include <gtest/gtest.h>

#include <limits>

namespace vrc::workload {
namespace {

TEST(MemoryProfileTest, ConstantProfile) {
  auto p = MemoryProfile::constant(megabytes(50));
  EXPECT_EQ(p.demand_at(0.0), megabytes(50));
  EXPECT_EQ(p.demand_at(0.5), megabytes(50));
  EXPECT_EQ(p.demand_at(1.0), megabytes(50));
  EXPECT_EQ(p.peak(), megabytes(50));
}

TEST(MemoryProfileTest, RampReachesPeakAtRampFraction) {
  auto p = MemoryProfile::ramp_to(megabytes(100), 0.1);
  EXPECT_EQ(p.demand_at(0.1), megabytes(100));
  EXPECT_EQ(p.demand_at(0.5), megabytes(100));
  EXPECT_EQ(p.demand_at(1.0), megabytes(100));
  EXPECT_LT(p.demand_at(0.0), megabytes(100));
}

TEST(MemoryProfileTest, RampInterpolatesLinearly) {
  auto p = MemoryProfile::ramp_to(megabytes(100), 0.5);
  const Bytes base = p.demand_at(0.0);
  const Bytes mid = p.demand_at(0.25);
  const Bytes expected = base + (megabytes(100) - base) / 2;
  EXPECT_NEAR(static_cast<double>(mid), static_cast<double>(expected), 1024.0);
}

TEST(MemoryProfileTest, ClampsOutOfRangeProgress) {
  auto p = MemoryProfile::ramp_to(megabytes(80), 0.2);
  EXPECT_EQ(p.demand_at(-1.0), p.demand_at(0.0));
  EXPECT_EQ(p.demand_at(2.0), p.demand_at(1.0));
}

TEST(MemoryProfileTest, PhasedProfileInterpolates) {
  auto p =
      MemoryProfile::phased({{0.0, megabytes(10)}, {0.5, megabytes(30)}, {1.0, megabytes(20)}});
  EXPECT_EQ(p.demand_at(0.0), megabytes(10));
  EXPECT_EQ(p.demand_at(0.25), megabytes(20));
  EXPECT_EQ(p.demand_at(0.5), megabytes(30));
  EXPECT_EQ(p.demand_at(0.75), megabytes(25));
  EXPECT_EQ(p.demand_at(1.0), megabytes(20));
}

TEST(MemoryProfileTest, PeakIsMaxOverPhases) {
  auto p = MemoryProfile::phased({{0.0, megabytes(10)}, {0.4, megabytes(90)}, {1.0, megabytes(5)}});
  EXPECT_EQ(p.peak(), megabytes(90));
}

TEST(MemoryProfileTest, ScaledMultipliesEveryPoint) {
  auto p = MemoryProfile::phased({{0.0, megabytes(10)}, {1.0, megabytes(40)}});
  auto scaled = p.scaled(1.5);
  EXPECT_EQ(scaled.demand_at(0.0), megabytes(15));
  EXPECT_EQ(scaled.demand_at(1.0), megabytes(60));
  EXPECT_EQ(scaled.peak(), megabytes(60));
  // Original untouched.
  EXPECT_EQ(p.peak(), megabytes(40));
}

TEST(MemoryProfileTest, DemandIsMonotoneForMonotoneProfile) {
  auto p =
      MemoryProfile::phased({{0.0, megabytes(4)}, {0.05, megabytes(50)}, {1.0, megabytes(100)}});
  Bytes last = -1;
  for (double progress = 0.0; progress <= 1.0; progress += 0.01) {
    Bytes d = p.demand_at(progress);
    EXPECT_GE(d, last);
    last = d;
  }
}

TEST(MemoryProfileTest, RisingUntilEndsWhereDemandStartsToFall) {
  const double inf = std::numeric_limits<double>::infinity();
  // Never falls: a ramp and its plateau, and a constant profile.
  const auto ramp = MemoryProfile::ramp_to(megabytes(60), 0.5);
  EXPECT_EQ(ramp.rising_until(0.2), inf);
  EXPECT_EQ(ramp.rising_until(0.8), inf);
  EXPECT_EQ(MemoryProfile::constant(megabytes(10)).rising_until(0.3), inf);
  // Level, rising, then falling: the stretch ends at the peak, inclusive.
  const auto peaked = MemoryProfile::phased(
      {{0.0, megabytes(10)}, {0.3, megabytes(10)}, {0.6, megabytes(50)}, {1.0, megabytes(20)}});
  EXPECT_EQ(peaked.rising_until(0.1), 0.6);
  EXPECT_EQ(peaked.rising_until(0.6), 0.6);
  // On the falling segment there is no rising stretch left.
  EXPECT_EQ(peaked.rising_until(0.7), 0.7);
}

TEST(MemoryProfileDeathTest, RejectsEmptyPointList) {
  EXPECT_DEATH(MemoryProfile::phased({}), "at least one point");
}

TEST(MemoryProfileDeathTest, RejectsUnsortedPoints) {
  EXPECT_DEATH(MemoryProfile::phased({{0.5, 10}, {0.2, 20}}), "strictly increasing");
}

TEST(MemoryProfileDeathTest, RejectsNegativeDemand) {
  EXPECT_DEATH(MemoryProfile::phased({{0.0, -5}}), "out of range");
}

}  // namespace
}  // namespace vrc::workload
