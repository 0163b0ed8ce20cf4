#include "metrics/report.h"

#include <gtest/gtest.h>

namespace vrc::metrics {
namespace {

TEST(ReductionTest, ComputesRelativeImprovement) {
  EXPECT_DOUBLE_EQ(reduction(100.0, 70.0), 0.3);
  EXPECT_DOUBLE_EQ(reduction(100.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(reduction(100.0, 120.0), -0.2);
}

TEST(ReductionTest, ZeroBaselineIsZero) { EXPECT_DOUBLE_EQ(reduction(0.0, 5.0), 0.0); }

TEST(CompletedJobTest, SlowdownIsWallOverCpu) {
  cluster::CompletedJob job;
  job.submit_time = 10.0;
  job.completion_time = 40.0;
  job.cpu_seconds = 10.0;
  EXPECT_DOUBLE_EQ(job.wall_clock(), 30.0);
  EXPECT_DOUBLE_EQ(job.slowdown(), 3.0);
}

TEST(CompletedJobTest, ZeroCpuSlowdownIsOne) {
  cluster::CompletedJob job;
  job.submit_time = 0.0;
  job.completion_time = 5.0;
  job.cpu_seconds = 0.0;
  EXPECT_DOUBLE_EQ(job.slowdown(), 1.0);
}

TEST(DescribeTest, MentionsKeyQuantities) {
  RunReport report;
  report.policy = "V-Reconfiguration";
  report.trace = "SPEC-Trace-3";
  report.jobs_submitted = 578;
  report.jobs_completed = 578;
  report.total_execution = 1234.5;
  report.avg_slowdown = 2.5;
  report.policy_stats = {
      {"reservations_started", 7.0}, {"declined_max", 34770.0}, {"blocked_time_saved", 12.3456}};
  const std::string text = describe(report);
  EXPECT_NE(text.find("V-Reconfiguration"), std::string::npos);
  EXPECT_NE(text.find("SPEC-Trace-3"), std::string::npos);
  EXPECT_NE(text.find("578"), std::string::npos);
  EXPECT_NE(text.find("reservations_started=7 "), std::string::npos);
  EXPECT_NE(text.find("declined_max=34770 "), std::string::npos);
  EXPECT_NE(text.find("blocked_time_saved=12.35\n"), std::string::npos);
}

TEST(DescribeTest, OmitsEmptyPolicyStats) {
  RunReport report;
  report.policy = "G-Loadsharing";
  const std::string text = describe(report);
  EXPECT_EQ(text.find("policy:"), std::string::npos);
}

}  // namespace
}  // namespace vrc::metrics
