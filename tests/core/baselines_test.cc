#include "core/baselines.h"

#include <gtest/gtest.h>

#include "core/v_reconfiguration.h"

namespace vrc::core {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using workload::JobId;
using workload::JobSpec;
using workload::MemoryProfile;

JobSpec make_spec(JobId id, SimTime submit, double cpu_seconds, Bytes demand,
                  workload::NodeId home = 0, double touch_rate = 0.0) {
  JobSpec spec;
  spec.id = id;
  spec.program = "test";
  spec.submit_time = submit;
  spec.home_node = home;
  spec.cpu_seconds = cpu_seconds;
  spec.touch_rate = touch_rate;
  spec.memory = MemoryProfile::constant(demand);
  return spec;
}

// Demand ramps from 4 MB to `peak` over the first 10% of the run, so
// admission (which cannot see future demand) lets collisions form.
JobSpec surprise_spec(JobId id, SimTime submit, double cpu_seconds, Bytes peak,
                      workload::NodeId home = 0, double touch_rate = 0.0) {
  JobSpec spec = make_spec(id, submit, cpu_seconds, peak, home, touch_rate);
  spec.memory = MemoryProfile::phased({{0.0, megabytes(4)}, {0.1, peak}});
  return spec;
}

TEST(LocalOnlyTest, JobsStayOnHomeNodes) {
  sim::Simulator sim;
  LocalOnly policy;
  Cluster cluster(sim, ClusterConfig::paper_cluster1(4), policy);
  for (JobId i = 1; i <= 8; ++i) {
    cluster.submit_job(make_spec(i, 0.0, 5.0, megabytes(10), i % 4));
  }
  sim.run_until(1000.0);
  ASSERT_TRUE(cluster.finished());
  for (const auto& job : cluster.completed()) {
    EXPECT_EQ(job.final_node, job.id % 4);
    EXPECT_EQ(job.remote_submits, 0);
    EXPECT_EQ(job.migrations, 0);
  }
  EXPECT_EQ(cluster.remote_submits(), 0u);
  EXPECT_EQ(cluster.migrations_started(), 0u);
}

TEST(LocalOnlyTest, QueuesBeyondCpuThreshold) {
  sim::Simulator sim;
  ClusterConfig config = ClusterConfig::paper_cluster1(2);
  LocalOnly policy;
  Cluster cluster(sim, config, policy);
  const int extra = 3;
  for (int i = 0; i < config.cpu_threshold + extra; ++i) {
    cluster.submit_job(make_spec(static_cast<JobId>(i + 1), 0.0, 10.0, megabytes(5), 0));
  }
  sim.run_until(1.0);
  EXPECT_EQ(cluster.node(0).active_jobs(), config.cpu_threshold);
  EXPECT_EQ(cluster.pending_count(), static_cast<size_t>(extra));
  EXPECT_EQ(cluster.node(1).active_jobs(), 0);  // never used
  sim.run_until(5000.0);
  EXPECT_TRUE(cluster.finished());
}

TEST(LocalOnlyTest, IgnoresMemoryAndThrashes) {
  sim::Simulator sim;
  LocalOnly policy;
  Cluster cluster(sim, ClusterConfig::paper_cluster1(2), policy);
  // Two 250 MB jobs on one node: LocalOnly admits both (no memory check).
  cluster.submit_job(make_spec(1, 0.0, 50.0, megabytes(250), 0, 200.0));
  cluster.submit_job(make_spec(2, 0.0, 50.0, megabytes(250), 0, 200.0));
  sim.run_until(20.0);
  EXPECT_EQ(cluster.node(0).active_jobs(), 2);
  EXPECT_GT(cluster.node(0).overcommit(), 0.0);
  double faults = 0.0;
  for (const auto& job : cluster.node(0).jobs()) faults += job->faults;
  EXPECT_GT(faults, 0.0);
}

TEST(SuspensionPolicyTest, SuspendsBigJobUnderBlockedPressure) {
  sim::Simulator sim;
  SuspensionPolicy policy;
  // Two nodes, both loaded so no migration target exists.
  Cluster cluster(sim, ClusterConfig::paper_cluster1(2), policy);
  cluster.submit_job(surprise_spec(1, 0.0, 200.0, megabytes(250), 0, 300.0));
  cluster.submit_job(surprise_spec(2, 0.0, 200.0, megabytes(250), 0, 300.0));
  cluster.submit_job(surprise_spec(3, 0.0, 200.0, megabytes(300), 1, 300.0));
  sim.run_until(60.0);
  EXPECT_GE(policy.suspensions(), 1u);
  // The suspension relieved the overcommit on node 0.
  EXPECT_LE(cluster.node(0).resident_demand(), cluster.node(0).user_memory());
}

TEST(SuspensionPolicyTest, ResumesWhenRoomReturns) {
  sim::Simulator sim;
  SuspensionPolicy policy;
  Cluster cluster(sim, ClusterConfig::paper_cluster1(2), policy);
  cluster.submit_job(surprise_spec(1, 0.0, 30.0, megabytes(250), 0, 300.0));
  cluster.submit_job(surprise_spec(2, 0.0, 30.0, megabytes(250), 0, 300.0));
  cluster.submit_job(surprise_spec(3, 0.0, 30.0, megabytes(300), 1, 300.0));
  sim.run_until(30000.0);
  // Every job eventually completes: suspended jobs are resumed.
  EXPECT_TRUE(cluster.finished());
  EXPECT_EQ(cluster.completed().size(), 3u);
  if (policy.suspensions() > 0) {
    EXPECT_GE(policy.resumes(), 1u);
  }
}

TEST(SuspensionPolicyTest, NeverSuspendsLastRunnableJob) {
  sim::Simulator sim;
  SuspensionPolicy policy;
  Cluster cluster(sim, ClusterConfig::paper_cluster1(1), policy);
  // One node, one huge job that grows past user memory: pressured, but it
  // must keep running.
  cluster.submit_job(surprise_spec(1, 0.0, 50.0, megabytes(380), 0, 300.0));
  sim.run_until(10.0);
  EXPECT_EQ(cluster.node(0).active_jobs(), 1);
  EXPECT_EQ(policy.suspensions(), 0u);
}

TEST(SuspensionPolicyTest, SuspensionDelaysTheBigJob) {
  // The paper's fairness concern: suspension starves the large job relative
  // to reconfiguration, which gives it a reserved workstation.
  auto slowdown_of_big = [](cluster::SchedulerPolicy& policy) {
    sim::Simulator sim;
    Cluster cluster(sim, ClusterConfig::paper_cluster1(8), policy);
    cluster.submit_job(surprise_spec(1, 0.0, 300.0, megabytes(250), 0, 1500.0));
    cluster.submit_job(surprise_spec(2, 0.5, 300.0, megabytes(250), 0, 1500.0));
    workload::JobId id = 10;
    for (workload::NodeId node = 1; node < 8; ++node) {
      for (int j = 0; j < 2; ++j) {
        cluster.submit_job(make_spec(id++, 0.0, 60.0, megabytes(110), node));
      }
    }
    // A long, dense stream of normal arrivals refills every hole, so no
    // 250 MB gap ever forms naturally: a suspended big job starves until the
    // flow subsides, while reconfiguration serves it on a reserved
    // workstation.
    for (int k = 0; k < 600; ++k) {
      cluster.submit_job(make_spec(id++, 5.0 + 2.0 * k, 40.0, megabytes(70),
                                   static_cast<workload::NodeId>(k % 8)));
    }
    sim.run_until(50000.0);
    EXPECT_TRUE(cluster.finished());
    double worst_big = 0.0;
    for (const auto& job : cluster.completed()) {
      if (job.id <= 2) worst_big = std::max(worst_big, job.slowdown());
    }
    return worst_big;
  };
  SuspensionPolicy suspension;
  VReconfiguration vrecon;
  EXPECT_GT(slowdown_of_big(suspension), slowdown_of_big(vrecon));
}

}  // namespace
}  // namespace vrc::core
