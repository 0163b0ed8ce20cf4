// Coarse shape checks against the paper's evaluation, scaled down so the
// suite stays fast: V-Reconfiguration must not lose materially anywhere, and
// must win clearly on a memory-blocking-heavy workload. The full-scale
// reproduction (32 nodes, published trace shapes) is bench/*.scn.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "workload/arrival_source.h"
#include "workload/trace_generator.h"

namespace vrc {
namespace {

workload::Trace scaled_trace(workload::WorkloadGroup group, double sigma_mu,
                             std::size_t num_jobs, std::uint64_t seed) {
  workload::TraceParams params;
  params.name = "scaled";
  params.group = group;
  params.sigma = sigma_mu;
  params.mu = sigma_mu;
  params.num_jobs = num_jobs;
  params.duration = 1800.0;
  params.num_nodes = 8;
  params.seed = seed;
  return workload::generate_trace(params);
}

/// Replays `trace` under the registry policy `policy`.
metrics::RunReport run(const char* policy, const workload::Trace& trace,
                       const cluster::ClusterConfig& config) {
  workload::MaterializedTraceSource source(trace);
  return *core::run_policy_on_source(core::PolicySpec(policy), source, config);
}

TEST(PaperShapeTest, VReconNeverLosesBadlyOnModerateLoad) {
  const auto trace = scaled_trace(workload::WorkloadGroup::kSpec, 3.0, 120, 42);
  const auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 8);
  const auto baseline = run("g-loadsharing", trace, config);
  const auto ours = run("v-reconf", trace, config);
  EXPECT_EQ(baseline.jobs_completed, baseline.jobs_submitted);
  EXPECT_EQ(ours.jobs_completed, ours.jobs_submitted);
  EXPECT_GT(metrics::reduction(baseline.total_execution, ours.total_execution), -0.08);
}

TEST(PaperShapeTest, LoadSharingBeatsLocalOnly) {
  // Sanity anchor predating the paper: any load sharing beats none.
  const auto trace = scaled_trace(workload::WorkloadGroup::kSpec, 3.0, 120, 43);
  const auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 8);
  const auto local = run("local-only", trace, config);
  const auto shared = run("g-loadsharing", trace, config);
  EXPECT_GT(metrics::reduction(local.total_execution, shared.total_execution), 0.10);
  EXPECT_GT(metrics::reduction(local.avg_slowdown, shared.avg_slowdown), 0.10);
}

TEST(PaperShapeTest, PagingTimeDropsUnderVRecon) {
  // The §5 model: paging-time reduction is the primary gain source. Average
  // over a few seeds to damp single-realization noise.
  const auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 8);
  double base_page = 0.0, ours_page = 0.0;
  for (std::uint64_t seed : {50u, 51u, 52u}) {
    const auto trace = scaled_trace(workload::WorkloadGroup::kSpec, 2.0, 170, seed);
    base_page += run("g-loadsharing", trace, config).total_page;
    ours_page += run("v-reconf", trace, config).total_page;
  }
  EXPECT_LT(ours_page, base_page);
}

TEST(PaperShapeTest, CpuTimeIdenticalAcrossPolicies) {
  // §5: "The jobs demand identical CPU services on both cluster
  // environment, so that T_cpu = T̂_cpu."
  const auto trace = scaled_trace(workload::WorkloadGroup::kApps, 3.0, 100, 44);
  const auto config = core::paper_cluster_for(workload::WorkloadGroup::kApps, 8);
  const auto baseline = run("g-loadsharing", trace, config);
  const auto ours = run("v-reconf", trace, config);
  EXPECT_NEAR(baseline.total_cpu, ours.total_cpu, 0.01 * baseline.total_cpu + 1.0);
}

TEST(PaperShapeTest, SamplingIntervalInsensitivity) {
  // §4.1/§4.2: idle-memory and skew averages are nearly identical at 1 s,
  // 10 s, 30 s, and 1 min sampling, under both compared policies.
  const auto trace = scaled_trace(workload::WorkloadGroup::kSpec, 3.0, 120, 45);
  const auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 8);
  core::ExperimentOptions options;
  options.collector.sampling_intervals = {1.0, 10.0, 30.0, 60.0};
  for (const char* policy : {"g-loadsharing", "v-reconf"}) {
    workload::MaterializedTraceSource source(trace);
    const auto report =
        *core::run_policy_on_source(core::PolicySpec(policy), source, config, options);
    ASSERT_EQ(report.idle_memory_mb.size(), 4u);
    ASSERT_EQ(report.balance_skew.size(), 4u);
    const double idle = report.idle_memory_mb[0].average;
    const double skew = report.balance_skew[0].average;
    for (std::size_t i = 1; i < 4; ++i) {
      EXPECT_NEAR(report.idle_memory_mb[i].average, idle, 0.10 * idle + 1.0)
          << policy << " interval " << report.idle_memory_mb[i].interval;
      EXPECT_NEAR(report.balance_skew[i].average, skew, 0.10 * skew)
          << policy << " interval " << report.balance_skew[i].interval;
    }
  }
}

TEST(PaperShapeTest, HigherArrivalRateRaisesSlowdown) {
  // Within a policy, the five trace intensities order the slowdowns.
  const auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 8);
  const auto light = scaled_trace(workload::WorkloadGroup::kSpec, 4.0, 60, 46);
  const auto heavy = scaled_trace(workload::WorkloadGroup::kSpec, 1.5, 180, 46);
  workload::MaterializedTraceSource light_source(light);
  const auto light_report =
      *core::run_policy_on_source(core::PolicySpec("g-loadsharing"), light_source, config);
  workload::MaterializedTraceSource heavy_source(heavy);
  const auto heavy_report =
      *core::run_policy_on_source(core::PolicySpec("g-loadsharing"), heavy_source, config);
  EXPECT_GT(heavy_report.avg_slowdown, light_report.avg_slowdown);
}

}  // namespace
}  // namespace vrc
