// Configuration-space property tests: the simulator's invariants must hold
// under heterogeneous hardware, network contention, stochastic faults, and
// different tick sizes — not just the paper's default setup.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "workload/arrival_source.h"
#include "workload/trace_generator.h"

namespace vrc {
namespace {

workload::TraceParams small_trace(std::uint64_t seed, std::size_t jobs = 60) {
  workload::TraceParams params;
  params.name = "cfg";
  params.group = workload::WorkloadGroup::kSpec;
  params.num_jobs = jobs;
  params.duration = 900.0;
  params.num_nodes = 8;
  params.seed = seed;
  return params;
}

/// Generates `trace` afresh and runs it under the registry policy `policy`.
metrics::RunReport run(const char* policy, const workload::TraceParams& trace,
                       const cluster::ClusterConfig& config) {
  workload::GeneratedStreamSource source(trace);
  return *core::run_policy_on_source(core::PolicySpec(policy), source, config);
}

TEST(HeterogeneousClusterTest, SlowNodesStretchWallClock) {
  const auto trace = small_trace(101, 40);
  // Homogeneous reference vs a cluster whose nodes run at half speed.
  auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 8);
  const auto fast = run("g-loadsharing", trace, config);
  for (auto& node : config.nodes) node.cpu_mhz = 200.0;  // half the reference
  const auto slow = run("g-loadsharing", trace, config);
  EXPECT_EQ(slow.jobs_completed, slow.jobs_submitted);
  // Half-speed CPUs at least ~1.5x the makespan and double the CPU wall time.
  EXPECT_GT(slow.makespan, fast.makespan * 1.5);
  EXPECT_NEAR(slow.total_cpu, 2.0 * fast.total_cpu, 0.05 * slow.total_cpu);
}

TEST(HeterogeneousClusterTest, MixedMemoryNodesStillCompleteEverything) {
  cluster::ClusterConfig config;
  config.reference_mhz = 400.0;
  for (int i = 0; i < 4; ++i) {
    config.nodes.push_back({400.0, megabytes(384), megabytes(16)});
  }
  for (int i = 0; i < 4; ++i) {
    config.nodes.push_back({300.0, megabytes(256), megabytes(16)});
  }
  for (const char* policy : {"g-loadsharing", "v-reconf"}) {
    const auto report = run(policy, small_trace(102), config);
    EXPECT_EQ(report.jobs_completed, report.jobs_submitted) << report.policy;
    for (const auto& job : report.jobs) {
      EXPECT_NEAR(job.t_cpu + job.t_page + job.t_queue + job.t_mig, job.wall_clock(), 0.05);
    }
  }
}

TEST(NetworkContentionTest, SerializedTransfersNeverSpeedThingsUp) {
  const auto trace = small_trace(103);
  auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 8);
  const auto free_net = run("v-reconf", trace, config);
  config.network_contention = true;
  const auto contended = run("v-reconf", trace, config);
  EXPECT_EQ(contended.jobs_completed, contended.jobs_submitted);
  // Shared-segment serialization can only add migration latency.
  EXPECT_GE(contended.total_migration, free_net.total_migration - 1.0);
}

TEST(StochasticFaultsTest, PreservesInvariantsAndRoughMagnitude) {
  const auto trace = small_trace(104, 80);
  auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 8);
  const auto deterministic = run("g-loadsharing", trace, config);
  config.stochastic_faults = true;
  config.seed = 2024;
  const auto stochastic = run("g-loadsharing", trace, config);
  EXPECT_EQ(stochastic.jobs_completed, stochastic.jobs_submitted);
  // Poisson sampling perturbs fault counts but not their order of magnitude.
  if (deterministic.total_faults > 1000.0) {
    EXPECT_GT(stochastic.total_faults, 0.2 * deterministic.total_faults);
    EXPECT_LT(stochastic.total_faults, 5.0 * deterministic.total_faults);
  }
}

class TickSizeSweep : public ::testing::TestWithParam<double> {};

TEST_P(TickSizeSweep, ResultsStableAcrossTickGranularity) {
  // The 10 ms default matches the paper's trace records; coarser ticks must
  // not change aggregate results by more than discretization noise.
  const auto trace = small_trace(105);
  auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 8);
  const auto reference = run("g-loadsharing", trace, config);
  config.tick = GetParam();
  config.quantum = GetParam();
  const auto coarse = run("g-loadsharing", trace, config);
  EXPECT_EQ(coarse.jobs_completed, coarse.jobs_submitted);
  EXPECT_NEAR(coarse.total_cpu, reference.total_cpu, 0.02 * reference.total_cpu);
  EXPECT_NEAR(coarse.total_execution, reference.total_execution,
              0.25 * reference.total_execution);
  EXPECT_NEAR(coarse.makespan, reference.makespan, 0.25 * reference.makespan);
}

INSTANTIATE_TEST_SUITE_P(Granularity, TickSizeSweep,
                         ::testing::Values(0.02, 0.05),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "tick_" + std::to_string(static_cast<int>(
                                                info.param * 1000.0)) + "ms";
                         });

TEST(ClusterSizeSweepTest, PoliciesScaleFromFourToSixtyFourNodes) {
  for (const std::size_t nodes : {4u, 16u, 64u}) {
    workload::TraceParams params;
    params.name = "scale";
    params.group = workload::WorkloadGroup::kSpec;
    params.num_jobs = 8 * nodes;
    params.duration = 900.0;
    params.num_nodes = static_cast<std::uint32_t>(nodes);
    params.seed = 200 + nodes;
    const auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, nodes);
    const auto report = run("v-reconf", params, config);
    EXPECT_EQ(report.jobs_completed, report.jobs_submitted) << nodes << " nodes";
  }
}

}  // namespace
}  // namespace vrc
