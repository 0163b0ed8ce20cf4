// Property-style integration tests: for every policy, workload group, and
// several trace seeds, the per-job accounting invariants of the paper's §5
// decomposition must hold exactly.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "workload/arrival_source.h"

namespace vrc {
namespace {

// Registry names of the policies under test, indexed by Params::policy.
constexpr const char* kPolicies[] = {"g-loadsharing", "v-reconf", "local-only", "suspension"};

struct Params {
  // An index rather than a pointer: gtest prints the parameter's bytes into
  // every ctest name, which must not vary from build to build.
  int policy;
  workload::WorkloadGroup group;
  std::uint64_t seed;
};

core::PolicySpec policy_spec(const Params& p) { return core::PolicySpec(kPolicies[p.policy]); }

std::string param_name(const ::testing::TestParamInfo<Params>& info) {
  // Named after the policy's display name: "G-Loadsharing" -> G_Loadsharing.
  std::string name = core::make_policy(policy_spec(info.param), nullptr)->name();
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_" + workload::to_string(info.param.group) + "_s" +
         std::to_string(info.param.seed);
}

class AccountingInvariants : public ::testing::TestWithParam<Params> {
 protected:
  metrics::RunReport run() const {
    const Params& p = GetParam();
    workload::TraceParams params;
    params.name = "prop";
    params.group = p.group;
    params.num_jobs = 60;
    params.duration = 900.0;
    params.num_nodes = 8;
    params.seed = p.seed;
    workload::GeneratedStreamSource source(params);
    const auto config = core::paper_cluster_for(p.group, 8);
    return *core::run_policy_on_source(policy_spec(p), source, config);
  }
};

TEST_P(AccountingInvariants, AllJobsComplete) {
  const auto report = run();
  EXPECT_EQ(report.jobs_completed, report.jobs_submitted);
}

TEST_P(AccountingInvariants, WallClockDecomposesIntoFourBuckets) {
  const auto report = run();
  for (const auto& job : report.jobs) {
    EXPECT_NEAR(job.t_cpu + job.t_page + job.t_queue + job.t_mig, job.wall_clock(), 0.05)
        << "job " << job.id << " (" << job.program << ")";
  }
}

TEST_P(AccountingInvariants, ComponentsAreNonNegative) {
  const auto report = run();
  for (const auto& job : report.jobs) {
    EXPECT_GE(job.t_cpu, 0.0) << job.id;
    EXPECT_GE(job.t_page, 0.0) << job.id;
    EXPECT_GE(job.t_queue, -1e-9) << job.id;
    EXPECT_GE(job.t_mig, 0.0) << job.id;
    EXPECT_GE(job.faults, 0.0) << job.id;
  }
}

TEST_P(AccountingInvariants, CpuTimeMatchesDemand) {
  // On reference-speed homogeneous nodes, t_cpu equals the dedicated CPU
  // demand (give or take one tick).
  const auto report = run();
  for (const auto& job : report.jobs) {
    EXPECT_NEAR(job.t_cpu, job.cpu_seconds, 0.05) << job.id;
  }
}

TEST_P(AccountingInvariants, SlowdownAtLeastOne) {
  const auto report = run();
  for (const auto& job : report.jobs) {
    EXPECT_GE(job.slowdown(), 0.99) << job.id;
  }
  EXPECT_GE(report.avg_slowdown, 0.99);
  EXPECT_GE(report.max_slowdown, report.avg_slowdown);
}

TEST_P(AccountingInvariants, CompletionAfterSubmission) {
  const auto report = run();
  for (const auto& job : report.jobs) {
    EXPECT_GT(job.completion_time, job.submit_time) << job.id;
    EXPECT_LE(job.completion_time, report.makespan) << job.id;
  }
}

TEST_P(AccountingInvariants, TotalsEqualPerJobSums) {
  const auto report = run();
  double cpu = 0.0, page = 0.0, queue = 0.0, mig = 0.0, wall = 0.0;
  for (const auto& job : report.jobs) {
    cpu += job.t_cpu;
    page += job.t_page;
    queue += job.t_queue;
    mig += job.t_mig;
    wall += job.wall_clock();
  }
  EXPECT_NEAR(report.total_cpu, cpu, 1e-6);
  EXPECT_NEAR(report.total_page, page, 1e-6);
  EXPECT_NEAR(report.total_queue, queue, 1e-6);
  EXPECT_NEAR(report.total_migration, mig, 1e-6);
  EXPECT_NEAR(report.total_execution, wall, 1e-6);
}

TEST_P(AccountingInvariants, FaultsOnlyWithPageTime) {
  const auto report = run();
  for (const auto& job : report.jobs) {
    if (job.faults == 0.0) {
      EXPECT_NEAR(job.t_page, 0.0, 1e-9) << job.id;
    } else {
      EXPECT_GT(job.t_page, 0.0) << job.id;
    }
  }
}

constexpr Params kCases[] = {
    {0, workload::WorkloadGroup::kSpec, 1},
    {0, workload::WorkloadGroup::kApps, 2},
    {1, workload::WorkloadGroup::kSpec, 3},
    {1, workload::WorkloadGroup::kApps, 4},
    {1, workload::WorkloadGroup::kSpec, 5},
    {2, workload::WorkloadGroup::kSpec, 6},
    {3, workload::WorkloadGroup::kSpec, 7},
    {3, workload::WorkloadGroup::kApps, 8},
};

INSTANTIATE_TEST_SUITE_P(PoliciesGroupsSeeds, AccountingInvariants,
                         ::testing::ValuesIn(kCases), param_name);

}  // namespace
}  // namespace vrc
