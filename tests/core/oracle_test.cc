#include "core/oracle.h"

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "workload/arrival_source.h"
#include "workload/trace_generator.h"

namespace vrc::core {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using workload::JobId;
using workload::JobSpec;
using workload::MemoryProfile;

JobSpec surprise_spec(JobId id, SimTime submit, double cpu_seconds, Bytes peak,
                      workload::NodeId home = 0, double touch_rate = 0.0) {
  JobSpec spec;
  spec.id = id;
  spec.program = "test";
  spec.submit_time = submit;
  spec.home_node = home;
  spec.cpu_seconds = cpu_seconds;
  spec.touch_rate = touch_rate;
  spec.memory = MemoryProfile::phased({{0.0, megabytes(4)}, {0.1, peak}});
  return spec;
}

TEST(OracleDemandsTest, NeverAdmitsAFutureCollision) {
  // Two jobs that will both grow to 250 MB: the oracle sees the peaks and
  // scatters them even though both look tiny at submission.
  sim::Simulator sim;
  OracleDemands policy;
  Cluster cluster(sim, ClusterConfig::paper_cluster1(4), policy);
  cluster.submit_job(surprise_spec(1, 0.0, 100.0, megabytes(250), 0, 300.0));
  cluster.submit_job(surprise_spec(2, 0.0, 100.0, megabytes(250), 0, 300.0));
  sim.run_until(2000.0);
  ASSERT_TRUE(cluster.finished());
  for (const auto& job : cluster.completed()) {
    EXPECT_EQ(job.faults, 0.0) << "oracle placement must avoid all thrashing";
  }
  EXPECT_EQ(cluster.migrations_started(), 0u);
}

TEST(OracleDemandsTest, BlocksJobThatFitsNowhere) {
  // Unlike the optimistic baseline, the oracle refuses placements that will
  // not fit: a single workstation already holding 250 MB cannot take a job
  // that will grow to 200 MB.
  sim::Simulator sim;
  OracleDemands policy;
  Cluster cluster(sim, ClusterConfig::paper_cluster1(1), policy);
  cluster.submit_job(surprise_spec(1, 0.0, 200.0, megabytes(250), 0, 300.0));
  cluster.submit_job(surprise_spec(2, 1.0, 50.0, megabytes(200), 0, 300.0));
  sim.run_until(50.0);
  EXPECT_EQ(cluster.pending_count(), 1u);
  EXPECT_EQ(cluster.node(0).active_jobs(), 1);
}

TEST(OracleDemandsTest, RemotePlacementTakesLeastFutureCommittedThenLowestId) {
  // Node 1 holds about 5 MB now but will grow to 100 MB; nodes 2 and 3 hold
  // a flat 50 MB. Home node 0 is empty but reserved, so job 4 goes remote:
  // to the smaller future peak rather than the smaller resident demand, and
  // on the tie to the lower id.
  sim::Simulator sim;
  OracleDemands policy;
  Cluster cluster(sim, ClusterConfig::paper_cluster1(4), policy);
  cluster.submit_job(surprise_spec(1, 0.0, 1000.0, megabytes(100), 1));
  for (const JobId id : {2u, 3u}) {
    JobSpec flat = surprise_spec(id, 0.0, 1000.0, megabytes(50), id);
    flat.memory = MemoryProfile::constant(megabytes(50));
    cluster.submit_job(flat);
  }
  cluster.set_reserved(0, true);
  cluster.submit_job(surprise_spec(4, 1.0, 100.0, megabytes(100), 0));
  sim.run_until(2.0);
  EXPECT_EQ(cluster.remote_submits(), 1u);
  ASSERT_NE(cluster.node(2).find_job(4), nullptr);
  EXPECT_EQ(cluster.node(0).active_jobs(), 0);
  EXPECT_EQ(cluster.node(1).active_jobs(), 1);
  EXPECT_EQ(cluster.node(3).active_jobs(), 1);
}

TEST(OracleDemandsTest, AtLeastMatchesBaselinePagingOnRealWorkload) {
  workload::TraceParams params;
  params.name = "oracle";
  params.group = workload::WorkloadGroup::kSpec;
  params.num_jobs = 120;
  params.duration = 1200.0;
  params.num_nodes = 8;
  params.seed = 77;
  const auto trace = workload::generate_trace(params);
  const auto config = paper_cluster_for(workload::WorkloadGroup::kSpec, 8);
  workload::MaterializedTraceSource baseline_source(trace);
  const metrics::RunReport baseline =
      *run_policy_on_source(PolicySpec("g-loadsharing"), baseline_source, config);
  workload::MaterializedTraceSource oracle_source(trace);
  const metrics::RunReport oracle =
      *run_policy_on_source(PolicySpec("oracle"), oracle_source, config);
  EXPECT_EQ(oracle.jobs_completed, oracle.jobs_submitted);
  // Perfect demand knowledge eliminates (almost) all paging.
  EXPECT_LE(oracle.total_page, baseline.total_page);
  EXPECT_LT(oracle.total_page, 0.02 * oracle.total_execution + 1.0);
}

TEST(OracleDemandsTest, RegisteredInPolicyFactory) {
  std::string error;
  auto policy = make_policy(PolicySpec("oracle"), &error);
  ASSERT_NE(policy, nullptr) << error;
  EXPECT_STREQ(policy->name(), "Oracle-Demands");
}

}  // namespace
}  // namespace vrc::core
