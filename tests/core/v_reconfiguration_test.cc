#include "core/v_reconfiguration.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "core/experiment.h"
#include "workload/trace.h"
#include "workload/trace_spec.h"

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

// Demand is tiny at submission and ramps to `peak` over the first 10% of
// the run: admission cannot foresee it, so collisions can form.
JobSpec surprise_spec(JobId id, SimTime submit, double cpu_seconds, Bytes peak,
                      workload::NodeId home = 0, double touch_rate = 0.0) {
  JobSpec spec = make_spec(id, submit, cpu_seconds, peak, home, touch_rate);
  spec.memory = MemoryProfile::phased({{0.0, megabytes(4)}, {0.1, peak}});
  return spec;
}

int reserved_nodes(Cluster& cluster) {
  int count = 0;
  for (std::size_t i = 0; i < cluster.num_nodes(); ++i) {
    if (cluster.node(static_cast<workload::NodeId>(i)).reserved()) ++count;
  }
  return count;
}

// A scenario that forces the blocking problem on node 0: two large jobs
// collide there while every other node is too full to host either of them,
// yet has jobs that finish soon (accumulated idle memory appears).
void build_blocking_scenario(Cluster& cluster) {
  // Node 0: two jobs growing to 250 MB -> 500 MB on 368 MB of user memory.
  cluster.submit_job(surprise_spec(1, 0.0, 400.0, megabytes(250), 0, 300.0));
  cluster.submit_job(surprise_spec(2, 0.0, 400.0, megabytes(250), 0, 300.0));
  // Nodes 1..3: two mid jobs each (idle < 250 MB, so no migration target),
  // with short lifetimes so reserved drains can complete.
  JobId id = 10;
  for (workload::NodeId node = 1; node <= 3; ++node) {
    cluster.submit_job(make_spec(id++, 0.0, 60.0, megabytes(120), node));
    cluster.submit_job(make_spec(id++, 0.0, 120.0, megabytes(120), node));
  }
}

TEST(VReconfigurationTest, DetectsBlockingAndReserves) {
  sim::Simulator sim;
  VReconfiguration policy;
  Cluster cluster(sim, ClusterConfig::paper_cluster1(4), policy);
  build_blocking_scenario(cluster);
  sim.run_until(400.0);
  EXPECT_GE(policy.reservations_started(), 1u);
  EXPECT_GE(policy.reserved_migrations(), 1u);
}

TEST(VReconfigurationTest, BigJobEndsUpOnReservedNode) {
  sim::Simulator sim;
  VReconfiguration policy;
  Cluster cluster(sim, ClusterConfig::paper_cluster1(4), policy);
  build_blocking_scenario(cluster);
  sim.run_until(700.0);
  // One of the two colliding jobs must have been isolated; node 0 is no
  // longer overcommitted.
  EXPECT_LE(cluster.node(0).resident_demand(), cluster.node(0).user_memory());
}

TEST(VReconfigurationTest, ResolvesBlockingFasterThanBaseline) {
  auto run_with = [](cluster::SchedulerPolicy& policy) {
    sim::Simulator sim;
    Cluster cluster(sim, ClusterConfig::paper_cluster1(4), policy);
    build_blocking_scenario(cluster);
    sim.run_until(20000.0);
    EXPECT_TRUE(cluster.finished());
    return cluster.finish_time();
  };
  GLoadSharing baseline;
  VReconfiguration vrecon;
  const double baseline_time = run_with(baseline);
  const double vrecon_time = run_with(vrecon);
  EXPECT_LT(vrecon_time, baseline_time);
}

TEST(VReconfigurationTest, ReservationReleasedAfterService) {
  sim::Simulator sim;
  VReconfiguration policy;
  Cluster cluster(sim, ClusterConfig::paper_cluster1(4), policy);
  build_blocking_scenario(cluster);
  sim.run_until(20000.0);
  EXPECT_TRUE(cluster.finished());
  EXPECT_EQ(policy.active_reservations(), 0);
  for (std::size_t i = 0; i < cluster.num_nodes(); ++i) {
    EXPECT_FALSE(cluster.node(static_cast<workload::NodeId>(i)).reserved()) << "node " << i;
  }
}

TEST(VReconfigurationTest, NoReconfigurationWithoutOvercommit) {
  sim::Simulator sim;
  VReconfiguration policy;
  Cluster cluster(sim, ClusterConfig::paper_cluster1(4), policy);
  for (JobId i = 1; i <= 8; ++i) {
    cluster.submit_job(make_spec(i, 0.0, 20.0, megabytes(40), i % 4));
  }
  sim.run_until(1000.0);
  EXPECT_TRUE(cluster.finished());
  EXPECT_EQ(policy.reservations_started(), 0u);
  EXPECT_EQ(policy.reserved_migrations(), 0u);
}

TEST(VReconfigurationTest, DeclinesWhenClusterIdleTooSmall) {
  sim::Simulator sim;
  VReconfiguration::Options options;
  // Demand an absurd amount of accumulated idle memory: reconfiguration can
  // never activate (§2.3 condition).
  options.min_cluster_idle_factor = 1000.0;
  VReconfiguration policy(options);
  Cluster cluster(sim, ClusterConfig::paper_cluster1(4), policy);
  build_blocking_scenario(cluster);
  sim.run_until(300.0);
  EXPECT_EQ(policy.reservations_started(), 0u);
}

TEST(VReconfigurationTest, RespectsMaxReservations) {
  sim::Simulator sim;
  VReconfiguration::Options options;
  options.max_reservations = 1;
  VReconfiguration policy(options);
  Cluster cluster(sim, ClusterConfig::paper_cluster1(4), policy);
  build_blocking_scenario(cluster);
  sim.run_until(100.0);
  EXPECT_LE(policy.active_reservations(), 1);
}

TEST(VReconfigurationTest, IgnoresPressureFromNormalSizedJobs) {
  sim::Simulator sim;
  VReconfiguration policy;
  // 2-node cluster; node 0 overcommitted by many *small* jobs — CPU/paging
  // congestion without a large job. Reconfiguration must not trigger.
  ClusterConfig config = ClusterConfig::paper_cluster1(2);
  config.cpu_threshold = 12;
  Cluster cluster(sim, config, policy);
  for (JobId i = 1; i <= 10; ++i) {
    cluster.submit_job(make_spec(i, 0.0, 60.0, megabytes(45), 0, 150.0));
  }
  sim.run_until(60.0);
  EXPECT_EQ(policy.reservations_started(), 0u);
}

TEST(VReconfigurationTest, FullDrainVariantAlsoResolves) {
  sim::Simulator sim;
  VReconfiguration::Options options;
  options.early_release = false;
  options.reserve_timeout = 1000.0;
  VReconfiguration policy(options);
  Cluster cluster(sim, ClusterConfig::paper_cluster1(4), policy);
  build_blocking_scenario(cluster);
  sim.run_until(20000.0);
  EXPECT_TRUE(cluster.finished());
  EXPECT_GE(policy.reserved_migrations(), 1u);
}

TEST(VReconfigurationTest, DrainTimeoutAbandonsStuckReservation) {
  sim::Simulator sim;
  VReconfiguration::Options options;
  options.early_release = false;   // force long drains
  options.reserve_timeout = 30.0;  // give up quickly
  VReconfiguration policy(options);
  Cluster cluster(sim, ClusterConfig::paper_cluster1(4), policy);
  // Same blocking shape but with long-lived fillers: drains cannot finish.
  cluster.submit_job(surprise_spec(1, 0.0, 400.0, megabytes(250), 0, 300.0));
  cluster.submit_job(surprise_spec(2, 0.0, 400.0, megabytes(250), 0, 300.0));
  JobId id = 10;
  for (workload::NodeId node = 1; node <= 3; ++node) {
    cluster.submit_job(make_spec(id++, 0.0, 5000.0, megabytes(120), node));
    cluster.submit_job(make_spec(id++, 0.0, 5000.0, megabytes(120), node));
  }
  sim.run_until(500.0);
  auto stats = policy.stats();
  double timed_out = 0;
  for (const auto& [key, value] : stats) {
    if (key == "drains_timed_out") timed_out = value;
  }
  EXPECT_GE(timed_out, 1.0);
  // Released reservations must leave no node permanently flagged.
  EXPECT_EQ(reserved_nodes(cluster), policy.active_reservations());
}

/// Counts, after every policy pulse, the pulses at which the reserved flags
/// disagree with the live reservations: a reservation that ended without
/// clearing its node's flag keeps that node out of service for good.
class ReservationFlagCheck : public VReconfiguration {
 public:
  using VReconfiguration::VReconfiguration;

  void on_periodic(Cluster& cluster) override {
    VReconfiguration::on_periodic(cluster);
    ++pulses;
    if (reserved_nodes(cluster) != active_reservations() && mismatched_pulses++ == 0) {
      first_mismatch = cluster.simulator().now();
    }
  }

  int pulses = 0;
  int mismatched_pulses = 0;
  SimTime first_mismatch = -1.0;
};

TEST(VReconfigurationTest, EveryEndedReservationClearsItsNode) {
  // The §1 blocking episode on 8 nodes. With a larger growth_headroom the
  // drained workstation is too small for the big job; the reservation must
  // keep draining until a timeout ends it, flag and entry together.
  const workload::Trace trace = workload::Trace::load_from_file(
      std::string(VRC_SCENARIO_DIR) + "/blocking_episode.trace");
  for (const double headroom : {1.4, 2.0, 3.0}) {
    for (const bool early_release : {false, true}) {
      SCOPED_TRACE(testing::Message() << "growth_headroom=" << headroom
                                      << " early_release=" << early_release);
      VReconfiguration::Options options;
      options.growth_headroom = headroom;
      options.early_release = early_release;
      ReservationFlagCheck policy(options);
      sim::Simulator sim;
      Cluster cluster(sim, ClusterConfig::paper_cluster1(8), policy);
      for (const JobSpec& spec : trace.jobs()) cluster.submit_job(spec);
      sim.run();
      ASSERT_TRUE(cluster.finished());
      EXPECT_GT(policy.reservations_started(), 0u);
      EXPECT_GT(policy.pulses, 0);
      EXPECT_EQ(policy.mismatched_pulses, 0) << "first at t=" << policy.first_mismatch;
      EXPECT_EQ(policy.active_reservations(), 0);
      EXPECT_EQ(reserved_nodes(cluster), 0);
    }
  }
}

// Pins every arrival to its home node, so a test lays out exact per-node
// load (the inherited G-Loadsharing placement would spread the jobs).
class HomePinnedVReconfiguration : public VReconfiguration {
 public:
  void on_job_arrival(Cluster& cluster, RunningJob& job) override {
    cluster.place_local(job, job.home_node);
  }
};

double stat(const VReconfiguration& policy, const std::string& key) {
  for (const auto& [name, value] : policy.stats()) {
    if (name == key) return value;
  }
  ADD_FAILURE() << "no stat " << key;
  return -1.0;
}

/// Node 0 collides two 250 MB jobs on 368 MB of user memory and no node has
/// 250 MB idle with a free slot, so the first tick detects blocking. A
/// placement of cpu_threshold slots and 1 MB keeps `incoming_node` out of the
/// migration targets while leaving it 367 MB idle.
void collide_on_node_zero(Cluster& cluster, NodeId failed, NodeId reserved,
                          NodeId incoming_node) {
  cluster.submit_job(make_spec(1, 0.0, 1000.0, megabytes(250), 0));
  cluster.submit_job(make_spec(2, 0.0, 1000.0, megabytes(250), 0));
  cluster.fail_node(failed);
  cluster.set_reserved(reserved, true);
  cluster.node(incoming_node).add_incoming(99, megabytes(1), cluster.config().cpu_threshold);
}

TEST(VReconfigurationTest, ReservesMostIdleThenFewestJobsThenLowestId) {
  // Nodes 1-3 tie at 200 MB idle; node 1 runs two jobs, nodes 2 and 3 one
  // each. Nodes 4 (failed), 5 (already reserved) and 6 (placement in flight)
  // have more idle memory and must be passed over.
  sim::Simulator sim;
  HomePinnedVReconfiguration policy;
  Cluster cluster(sim, ClusterConfig::paper_cluster1(7), policy);
  cluster.submit_job(make_spec(10, 0.0, 1000.0, megabytes(84), 1));
  cluster.submit_job(make_spec(11, 0.0, 1000.0, megabytes(84), 1));
  cluster.submit_job(make_spec(12, 0.0, 1000.0, megabytes(168), 2));
  cluster.submit_job(make_spec(13, 0.0, 1000.0, megabytes(168), 3));
  collide_on_node_zero(cluster, 4, 5, 6);
  sim.run_until(0.05);
  ASSERT_EQ(policy.reservations_started(), 1u);
  EXPECT_TRUE(cluster.node(2).reserved());
  for (const NodeId node : {0u, 1u, 3u, 4u, 6u}) {
    EXPECT_FALSE(cluster.node(node).reserved()) << "node " << node;
  }
}

TEST(VReconfigurationTest, NeverReservesThePressuredNode) {
  // Every other node is failed, reserved or awaiting a placement: the
  // blocked node is the only one left, and it must not reserve itself.
  sim::Simulator sim;
  HomePinnedVReconfiguration policy;
  Cluster cluster(sim, ClusterConfig::paper_cluster1(4), policy);
  collide_on_node_zero(cluster, 1, 2, 3);
  sim.run_until(0.05);
  EXPECT_EQ(policy.reservations_started(), 0u);
  EXPECT_EQ(stat(policy, "declined_candidate"), 1.0);
  EXPECT_FALSE(cluster.node(0).reserved());
}

// Counts the migrations that complete onto a reserved workstation, per host.
class ReservedServiceCounter : public VReconfiguration {
 public:
  void on_migration_complete(Cluster& cluster, RunningJob& job) override {
    if (cluster.node(job.node).reserved()) ++served_by_node[job.node];
    VReconfiguration::on_migration_complete(cluster, job);
  }

  std::map<NodeId, int> served_by_node;
};

TEST(VReconfigurationTest, ReservesLargeMemoryWorkstationsInAHeterogeneousCluster) {
  // §2.3: "a reserved workstation will be the one with relatively large
  // physical memory space". Nodes 0-15 keep paper cluster 1's 400 MHz /
  // 384 MB hardware; nodes 16-31 are older 233 MHz / 192 MB machines.
  ClusterConfig config = ClusterConfig::paper_cluster1(32);
  std::map<std::string, std::string> overrides;
  for (int i = 16; i < 32; ++i) {
    const std::string prefix = "node." + std::to_string(i) + ".";
    overrides[prefix + "cpu_mhz"] = "233";
    overrides[prefix + "memory"] = "192MB";
    overrides[prefix + "kernel_reserved"] = "16MB";
  }
  std::string error;
  ASSERT_TRUE(config.apply_overrides(overrides, &error)) << error;
  const auto trace = workload::TraceSpec::parse("spec:jobs=450,duration=1800,seed=11", &error);
  ASSERT_TRUE(trace.has_value()) << error;

  ReservedServiceCounter policy;
  run_experiment(*trace->make_source(32), config, policy);
  int on_large = 0;
  int on_small = 0;
  for (const auto& [node, count] : policy.served_by_node) {
    (node < 16 ? on_large : on_small) += count;
  }
  EXPECT_GE(on_large, 1);
  EXPECT_EQ(on_small, 0);
}

TEST(VReconfigurationTest, StatsIncludeReconfigurationCounters) {
  VReconfiguration policy;
  auto stats = policy.stats();
  std::set<std::string> keys;
  for (const auto& [key, value] : stats) keys.insert(key);
  EXPECT_TRUE(keys.contains("reservations_started"));
  EXPECT_TRUE(keys.contains("reserved_migrations"));
  EXPECT_TRUE(keys.contains("drains_timed_out"));
}

}  // namespace
}  // namespace vrc::core
