// End-to-end reproduction of the paper's §1 phenomenon: a small number of
// jobs with unexpectedly large memory demands collide, exhaust memory, and
// block job flow under plain dynamic load sharing — and the adaptive virtual
// reconfiguration resolves it.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "workload/trace_generator.h"

namespace vrc {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using workload::JobId;
using workload::JobSpec;
using workload::MemoryProfile;
using workload::NodeId;

JobSpec growing_job(JobId id, SimTime submit, double cpu_seconds, Bytes start, Bytes peak,
                    NodeId home, double touch_rate) {
  JobSpec spec;
  spec.id = id;
  spec.program = peak > megabytes(150) ? "big" : "normal";
  spec.submit_time = submit;
  spec.home_node = home;
  spec.cpu_seconds = cpu_seconds;
  spec.touch_rate = touch_rate;
  spec.memory = MemoryProfile::phased({{0.0, megabytes(4)}, {0.08, start}, {0.25, peak}});
  return spec;
}

// Eight nodes. Two large jobs whose demands are small at submission collide
// on node 0 (admission cannot foresee the growth); every other node is
// two-thirds full, so neither large job fits anywhere once grown.
void build_collision(Cluster& cluster) {
  cluster.submit_job(growing_job(1, 0.0, 400.0, megabytes(190), megabytes(200), 0, 1500.0));
  cluster.submit_job(growing_job(2, 0.1, 400.0, megabytes(190), megabytes(200), 0, 1500.0));
  JobId id = 10;
  for (NodeId node = 1; node < 8; ++node) {
    cluster.submit_job(growing_job(id++, 0.0, 60.0, megabytes(100), megabytes(110), node, 200.0));
    cluster.submit_job(growing_job(id++, 0.0, 90.0, megabytes(100), megabytes(110), node, 200.0));
  }
  // A steady stream of normal arrivals: under plain load sharing every hole
  // a completing job opens is refilled immediately, so a 200 MB hole never
  // forms. Only a *reservation* can protect a forming hole from the flow —
  // the essence of the virtual reconfiguration.
  for (int k = 0; k < 600; ++k) {
    cluster.submit_job(growing_job(id++, 10.0 + 2.0 * k, 40.0, megabytes(65), megabytes(70),
                                   static_cast<NodeId>(k % 8), 200.0));
  }
}

TEST(BlockingProblemTest, CollisionThrashesUnderGLoadSharing) {
  sim::Simulator sim;
  core::GLoadSharing policy;
  Cluster cluster(sim, ClusterConfig::paper_cluster1(8), policy);
  build_collision(cluster);
  sim.run_until(120.0);
  // Node 0 is overcommitted (two grown large jobs) and its jobs have
  // produced faults.
  EXPECT_GT(cluster.node(0).overcommit(), 0.0);
  double faults = 0.0;
  for (const auto& job : cluster.node(0).jobs()) faults += job->faults;
  EXPECT_GT(faults, 0.0);
  // The baseline found no destination for the large jobs.
  EXPECT_GT(policy.failed_migrations(), 0u);
}

TEST(BlockingProblemTest, BigJobsCrawlWithoutReconfiguration) {
  sim::Simulator sim;
  core::GLoadSharing policy;
  Cluster cluster(sim, ClusterConfig::paper_cluster1(8), policy);
  build_collision(cluster);
  sim.run_until(400.0);
  // After 400 s, the colliding 300 s jobs are still far from done: the node
  // thrashes at a fraction of its speed.
  const cluster::RunningJob* big = cluster.node(0).find_job(1);
  if (big == nullptr) big = cluster.node(0).find_job(2);
  ASSERT_NE(big, nullptr) << "a colliding job should still be running";
  EXPECT_LT(big->progress(), 0.9);
  EXPECT_GT(big->t_page, 30.0);
}

TEST(BlockingProblemTest, VReconfigurationIsolatesACollidingJob) {
  sim::Simulator sim;
  core::VReconfiguration policy;
  Cluster cluster(sim, ClusterConfig::paper_cluster1(8), policy);
  build_collision(cluster);
  sim.run_until(600.0);
  EXPECT_GE(policy.reservations_started(), 1u);
  EXPECT_GE(policy.reserved_migrations(), 1u);
  // The collision node has recovered: at most one large job remains there.
  EXPECT_LE(cluster.node(0).resident_demand(), cluster.node(0).user_memory());
}

TEST(BlockingProblemTest, ReconfigurationBeatsBaselineOnMakespan) {
  auto makespan_with = [](cluster::SchedulerPolicy& policy) {
    sim::Simulator sim;
    Cluster cluster(sim, ClusterConfig::paper_cluster1(8), policy);
    build_collision(cluster);
    sim.run_until(100000.0);
    EXPECT_TRUE(cluster.finished());
    return cluster.finish_time();
  };
  core::GLoadSharing baseline;
  core::VReconfiguration vrecon;
  const double baseline_makespan = makespan_with(baseline);
  const double vrecon_makespan = makespan_with(vrecon);
  EXPECT_LT(vrecon_makespan, baseline_makespan * 0.9);
}

TEST(BlockingProblemTest, ReconfigurationBenefitsNormalJobsToo) {
  auto normal_slowdown_with = [](cluster::SchedulerPolicy& policy) {
    sim::Simulator sim;
    Cluster cluster(sim, ClusterConfig::paper_cluster1(8), policy);
    build_collision(cluster);
    sim.run_until(100000.0);
    EXPECT_TRUE(cluster.finished());
    double sum = 0.0;
    int count = 0;
    for (const auto& job : cluster.completed()) {
      if (job.working_set < megabytes(150)) {
        sum += job.slowdown();
        ++count;
      }
    }
    return sum / std::max(count, 1);
  };
  core::GLoadSharing baseline;
  core::VReconfiguration vrecon;
  EXPECT_LT(normal_slowdown_with(vrecon), normal_slowdown_with(baseline));
}

TEST(BlockingProblemTest, AdaptiveSwitchBackWhenBlockingResolves) {
  // If the colliding jobs are short, the blocking problem dissolves on its
  // own and reservations must be released without serving.
  sim::Simulator sim;
  core::VReconfiguration policy;
  Cluster cluster(sim, ClusterConfig::paper_cluster1(8), policy);
  cluster.submit_job(growing_job(1, 0.0, 25.0, megabytes(190), megabytes(200), 0, 1500.0));
  cluster.submit_job(growing_job(2, 0.1, 25.0, megabytes(190), megabytes(200), 0, 1500.0));
  JobId id = 10;
  for (NodeId node = 1; node < 8; ++node) {
    cluster.submit_job(growing_job(id++, 0.0, 400.0, megabytes(100), megabytes(110), node, 200.0));
    cluster.submit_job(growing_job(id++, 0.0, 400.0, megabytes(100), megabytes(110), node, 200.0));
  }
  sim.run_until(5000.0);
  // Whatever was reserved is released again.
  EXPECT_EQ(policy.active_reservations(), 0);
  for (std::size_t i = 0; i < cluster.num_nodes(); ++i) {
    EXPECT_FALSE(cluster.node(static_cast<NodeId>(i)).reserved());
  }
}

}  // namespace
}  // namespace vrc
