#include "core/experiment.h"

#include "metrics/fingerprint.h"
#include "workload/arrival_source.h"
#include "workload/trace_generator.h"
#include "workload/trace_spec.h"

#include <gtest/gtest.h>

#include <utility>

namespace vrc::core {
namespace {

workload::TraceParams tiny_params(std::size_t jobs, workload::WorkloadGroup group) {
  workload::TraceParams params;
  params.name = "tiny";
  params.group = group;
  params.num_jobs = jobs;
  params.duration = 600.0;
  params.num_nodes = 4;
  params.seed = 99;
  return params;
}

/// Runs a freshly generated tiny trace under the registry policy `name`.
metrics::RunReport run_tiny(const char* name, std::size_t jobs, workload::WorkloadGroup group,
                            const cluster::ClusterConfig& config,
                            const ExperimentOptions& options = {}) {
  workload::GeneratedStreamSource source(tiny_params(jobs, group));
  std::string error;
  std::optional<metrics::RunReport> report =
      run_policy_on_source(PolicySpec(name), source, config, options, &error);
  EXPECT_TRUE(report.has_value()) << error;
  return report.value_or(metrics::RunReport{});
}

TEST(ExperimentTest, PolicyNamesRoundTrip) {
  // Registry name -> the display name reports carry.
  for (const auto& [name, display] : {std::pair{"g-loadsharing", "G-Loadsharing"},
                                      std::pair{"v-reconf", "V-Reconfiguration"},
                                      std::pair{"local-only", "Local-Only"},
                                      std::pair{"suspension", "Job-Suspension"}}) {
    std::string error;
    auto policy = make_policy(PolicySpec(name), &error);
    ASSERT_NE(policy, nullptr) << error;
    EXPECT_STREQ(policy->name(), display);
  }
}

TEST(ExperimentTest, PaperClusterSelection) {
  const auto c1 = paper_cluster_for(workload::WorkloadGroup::kSpec);
  EXPECT_EQ(c1.num_nodes(), 32u);
  EXPECT_EQ(c1.nodes[0].memory, megabytes(384));
  EXPECT_EQ(c1.reference_mhz, 400.0);
  const auto c2 = paper_cluster_for(workload::WorkloadGroup::kApps, 8);
  EXPECT_EQ(c2.num_nodes(), 8u);
  EXPECT_EQ(c2.nodes[0].memory, megabytes(128));
  EXPECT_EQ(c2.reference_mhz, 233.0);
}

TEST(ExperimentTest, RunCompletesAllJobs) {
  const auto config = paper_cluster_for(workload::WorkloadGroup::kSpec, 4);
  const auto report = run_tiny("g-loadsharing", 20, workload::WorkloadGroup::kSpec, config);
  EXPECT_EQ(report.jobs_submitted, 20u);
  EXPECT_EQ(report.jobs_completed, 20u);
  EXPECT_EQ(report.policy, "G-Loadsharing");
  EXPECT_EQ(report.trace, "tiny");
  EXPECT_GT(report.total_execution, 0.0);
  EXPECT_GT(report.avg_slowdown, 0.99);
  EXPECT_EQ(report.jobs.size(), 20u);
}

TEST(ExperimentTest, ReportBreakdownSumsToExecution) {
  const auto config = paper_cluster_for(workload::WorkloadGroup::kApps, 4);
  const auto report = run_tiny("v-reconf", 25, workload::WorkloadGroup::kApps, config);
  EXPECT_NEAR(report.total_cpu + report.total_page + report.total_queue + report.total_migration,
              report.total_execution, 0.05 * static_cast<double>(report.jobs_completed));
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  const auto config = paper_cluster_for(workload::WorkloadGroup::kSpec, 4);
  const auto a = run_tiny("v-reconf", 15, workload::WorkloadGroup::kSpec, config);
  const auto b = run_tiny("v-reconf", 15, workload::WorkloadGroup::kSpec, config);
  EXPECT_EQ(a.total_execution, b.total_execution);
  EXPECT_EQ(a.avg_slowdown, b.avg_slowdown);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.makespan, b.makespan);
}

TEST(ExperimentTest, MaxSimTimeCapsRun) {
  const auto config = paper_cluster_for(workload::WorkloadGroup::kSpec, 1);
  ExperimentOptions options;
  options.max_sim_time = 5.0;  // far too short
  const auto report =
      run_tiny("local-only", 30, workload::WorkloadGroup::kSpec, config, options);
  EXPECT_LT(report.jobs_completed, report.jobs_submitted);
}

TEST(ExperimentTest, MultipleSamplingIntervalsReported) {
  const auto config = paper_cluster_for(workload::WorkloadGroup::kSpec, 4);
  ExperimentOptions options;
  options.collector.sampling_intervals = {1.0, 10.0, 30.0};
  const auto report =
      run_tiny("g-loadsharing", 20, workload::WorkloadGroup::kSpec, config, options);
  ASSERT_EQ(report.idle_memory_mb.size(), 3u);
  ASSERT_EQ(report.balance_skew.size(), 3u);
  EXPECT_EQ(report.idle_memory_mb[0].interval, 1.0);
  EXPECT_EQ(report.idle_memory_mb[2].interval, 30.0);
  // The paper's insensitivity claim: averages close across intervals.
  EXPECT_NEAR(report.idle_memory_mb[1].average, report.idle_memory_mb[0].average,
              0.15 * report.idle_memory_mb[0].average + 1.0);
}

TEST(ExperimentTest, PolicyStatsLandInReport) {
  const auto config = paper_cluster_for(workload::WorkloadGroup::kSpec, 4);
  const auto report = run_tiny("v-reconf", 20, workload::WorkloadGroup::kSpec, config);
  EXPECT_FALSE(report.policy_stats.empty());
}

// Regression: attach() must reset every statistic, so a policy object
// reused across experiments (as a caller of run_experiment may) reports
// per-run counters instead of carrying totals over.
TEST(ExperimentTest, ReusedPolicyObjectDoesNotCarryStatsOver) {
  const auto params = tiny_params(40, workload::WorkloadGroup::kSpec);
  const auto config = paper_cluster_for(workload::WorkloadGroup::kSpec, 2);
  for (const char* name : {"g-loadsharing", "v-reconf", "suspension"}) {
    std::string error;
    auto policy = make_policy(PolicySpec(name), &error);
    ASSERT_NE(policy, nullptr) << error;
    workload::GeneratedStreamSource first_source(params);
    const auto first = run_experiment(first_source, config, *policy);
    workload::GeneratedStreamSource second_source(params);
    const auto second = run_experiment(second_source, config, *policy);
    ASSERT_EQ(first.policy_stats.size(), second.policy_stats.size());
    for (std::size_t i = 0; i < first.policy_stats.size(); ++i) {
      EXPECT_EQ(first.policy_stats[i].first, second.policy_stats[i].first);
      EXPECT_DOUBLE_EQ(first.policy_stats[i].second, second.policy_stats[i].second)
          << name << " stat " << first.policy_stats[i].first << " accumulated across runs";
    }
    EXPECT_EQ(first.total_execution, second.total_execution) << name;
  }
}

// A huge but finite memory_threshold admits everything, exactly like a
// merely large one; the scaled limit used to overflow its Bytes cast (in
// Release, oracle then completed 0 of 10 jobs at 1e11).
TEST(ExperimentTest, HugeMemoryThresholdMatchesLargeOne) {
  for (const std::string& name : PolicyRegistry::instance().names()) {
    auto run_at = [&name](const char* threshold) {
      cluster::ClusterConfig config = paper_cluster_for(workload::WorkloadGroup::kSpec, 4);
      std::string error;
      EXPECT_TRUE(config.apply_overrides({{"memory_threshold", threshold}}, &error)) << error;
      return run_tiny(name.c_str(), 10, workload::WorkloadGroup::kSpec, config);
    };
    const metrics::RunReport huge = run_at("1e11");
    EXPECT_EQ(huge.jobs_completed, huge.jobs_submitted) << name;
    EXPECT_EQ(metrics::fingerprint(huge), metrics::fingerprint(run_at("1e3"))) << name;
  }
}

// Same for V-Reconfiguration's demand factors, on a run where it reserves:
// 1e300 must act like 1e6 (no job is big enough / no node has the room).
TEST(ExperimentTest, HugeVReconfFactorsMatchLargeOnes) {
  auto run = [](const std::string& policy) {
    const auto trace = workload::TraceSpec::parse("spec:jobs=120,duration=900,seed=7");
    const auto source = trace->make_source(8);
    const cluster::ClusterConfig config = cluster::ClusterConfig::paper_cluster1(8);
    std::string error;
    const auto report = run_policy_on_source(*PolicySpec::parse(policy), *source, config, {}, &error);
    EXPECT_TRUE(report.has_value()) << error;
    return report.value_or(metrics::RunReport{});
  };
  const metrics::RunReport defaults = run("v-reconf");
  double reservations = 0.0;
  for (const auto& [key, value] : defaults.policy_stats) {
    if (key == "reservations_started") reservations = value;
  }
  ASSERT_GT(reservations, 0.0);
  EXPECT_EQ(metrics::fingerprint(run("v-reconf:growth_headroom=1e300")),
            metrics::fingerprint(run("v-reconf:growth_headroom=1e6")));
  EXPECT_EQ(metrics::fingerprint(run("v-reconf:big_job_factor=1e300")),
            metrics::fingerprint(run("v-reconf:big_job_factor=1e6")));
}

}  // namespace
}  // namespace vrc::core
