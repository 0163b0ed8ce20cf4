// End-to-end fault injection: FaultInjector driving Cluster::fail_node /
// recover_node through a FaultPlan. Covers the kill/restart lifecycle under
// both restart policies, transfer failures in every direction (remote submit
// to a dead destination, migration source and destination dying mid-flight),
// the incarnation guard on in-flight completions, reservation abandonment in
// V-Reconfiguration, and the determinism contracts (same-seed identity with
// faults; empty plan bit-identical to the fingerprint goldens; the lazy
// injector firing in the order of one that schedules every event up front).
#include "faults/injector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <vector>

#include "../common/fingerprint_goldens.h"
#include "cluster/cluster.h"
#include "core/experiment.h"
#include "core/v_reconfiguration.h"
#include "metrics/collector.h"
#include "metrics/fingerprint.h"
#include "workload/arrival_source.h"

namespace vrc {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::RunningJob;
using faults::FaultEntry;
using faults::FaultInjector;
using faults::FaultPlan;
using metrics::fingerprint;
using testutil::kGLoadSharingGolden;
using workload::JobId;
using workload::JobSpec;
using workload::MemoryProfile;
using workload::NodeId;

JobSpec make_spec(JobId id, SimTime submit, double cpu_seconds, Bytes demand,
                  NodeId home = 0) {
  JobSpec spec;
  spec.id = id;
  spec.program = "test";
  spec.submit_time = submit;
  spec.home_node = home;
  spec.cpu_seconds = cpu_seconds;
  spec.memory = MemoryProfile::constant(demand);
  return spec;
}

/// Home placement with a periodic pending retry — the minimal policy shape
/// the kLose restart path depends on. Optionally routes the *first*
/// placement of each job through place_remote (to exercise transfer faults).
class HomePolicy : public cluster::SchedulerPolicy {
 public:
  const char* name() const override { return "home-test"; }

  void on_job_arrival(Cluster& cluster, RunningJob& job) override {
    ++arrivals;
    if (remote_target >= 0 && job.remote_submits == 0 && arrivals == 1) {
      cluster.place_remote(job, static_cast<NodeId>(remote_target));
      return;
    }
    try_place(cluster, job);
  }
  void on_periodic(Cluster& cluster) override {
    for (RunningJob* job : cluster.pending_jobs()) try_place(cluster, *job);
  }
  void on_node_failed(Cluster&, NodeId node) override { failed_nodes.push_back(node); }
  void on_node_recovered(Cluster&, NodeId node) override { recovered_nodes.push_back(node); }
  void on_transfer_failed(Cluster&, RunningJob& job) override {
    transfer_failed_ids.push_back(job.id());
  }

  int remote_target = -1;
  int arrivals = 0;
  std::vector<NodeId> failed_nodes;
  std::vector<NodeId> recovered_nodes;
  std::vector<JobId> transfer_failed_ids;

 private:
  void try_place(Cluster& cluster, RunningJob& job) {
    if (!cluster.node(job.home_node).failed()) cluster.place_local(job, job.home_node);
  }
};

FaultPlan explicit_plan(const std::vector<FaultEntry>& entries, const ClusterConfig& config) {
  return FaultPlan::materialize(entries, config, /*horizon=*/0.0);
}

TEST(FaultInjectionTest, CrashKillsResidentJobsAndRecoveryRestoresService) {
  sim::Simulator sim;
  HomePolicy policy;
  ClusterConfig config = ClusterConfig::paper_cluster1(2);
  Cluster cluster(sim, config, policy);
  // Node 0 down during [2, 5); the 10 s job placed there at t=0 is killed
  // with ~2 s of work lost and restarts from zero after recovery.
  const FaultPlan plan = explicit_plan({{0, 2.0, 3.0}}, config);
  FaultInjector injector(sim, cluster, plan);
  EXPECT_EQ(injector.windows_scheduled(), 1u);
  cluster.submit_job(make_spec(1, 0.0, 10.0, megabytes(10)));

  sim.run_until(3.0);
  EXPECT_TRUE(cluster.node(0).failed());
  EXPECT_FALSE(cluster.node(0).accepts_new_job());
  EXPECT_EQ(cluster.node(0).active_jobs(), 0);
  EXPECT_EQ(cluster.node_crashes(), 1u);
  EXPECT_EQ(cluster.jobs_killed(), 1u);
  EXPECT_NEAR(cluster.work_lost_cpu_seconds(), 2.0, 0.1);
  EXPECT_NEAR(cluster.downtime_node_seconds(3.0), 1.0, 1e-9);
  EXPECT_EQ(policy.failed_nodes, (std::vector<NodeId>{0}));
  ASSERT_EQ(cluster.pending_count(), 1u);
  RunningJob* job = cluster.pending_jobs()[0];
  EXPECT_EQ(job->restarts, 1);
  EXPECT_EQ(job->incarnation, 1);
  EXPECT_DOUBLE_EQ(job->cpu_done, 0.0);

  sim.run_until(6.0);
  EXPECT_FALSE(cluster.node(0).failed());
  EXPECT_EQ(cluster.node_recoveries(), 1u);
  EXPECT_EQ(policy.recovered_nodes, (std::vector<NodeId>{0}));
  EXPECT_EQ(cluster.node(0).active_jobs(), 1);  // periodic retry re-placed it

  sim.run_until(100.0);
  ASSERT_EQ(cluster.completed().size(), 1u);
  const cluster::CompletedJob& record = cluster.completed()[0];
  EXPECT_EQ(record.restarts, 1);
  // Killed at 2 (2 s of work lost), down until 5, re-placed on the next
  // periodic pulse, then the full 10 s again.
  EXPECT_GT(record.completion_time, 14.5);
  EXPECT_LT(record.completion_time, 16.5);
  EXPECT_NEAR(record.t_queue, 3.2, 0.5);
  EXPECT_NEAR(cluster.downtime_node_seconds(sim.now()), 3.0, 1e-9);
}

TEST(FaultInjectionTest, LoseWaitsForRetryButResubmitReentersArrivalPath) {
  for (const char* restart : {"lose", "resubmit"}) {
    sim::Simulator sim;
    HomePolicy policy;
    ClusterConfig config = ClusterConfig::paper_cluster1(2);
    ASSERT_TRUE(config.apply_overrides({{"fault.restart", restart}}));
    Cluster cluster(sim, config, policy);
    const FaultPlan plan = explicit_plan({{0, 2.0, 3.0}}, config);
    FaultInjector injector(sim, cluster, plan);
    cluster.submit_job(make_spec(1, 0.0, 10.0, megabytes(10)));
    sim.run_until(3.0);
    // Under resubmit the killed job re-enters on_job_arrival immediately
    // (node 0 is still down, so it stays pending either way); under lose the
    // policy only ever sees the original arrival.
    EXPECT_EQ(policy.arrivals, std::string(restart) == "resubmit" ? 2 : 1)
        << restart;
    EXPECT_EQ(cluster.pending_count(), 1u) << restart;
    sim.run_until(100.0);
    ASSERT_EQ(cluster.completed().size(), 1u) << restart;
    EXPECT_EQ(cluster.completed()[0].restarts, 1) << restart;
  }
}

TEST(FaultInjectionTest, RemoteSubmitFailsWhenDestinationDiesInFlight) {
  sim::Simulator sim;
  HomePolicy policy;
  policy.remote_target = 1;
  ClusterConfig config = ClusterConfig::paper_cluster1(2);
  Cluster cluster(sim, config, policy);
  // Node 1 blinks during [0.05, 0.07) — down and back *before* the remote
  // submission lands at t = 0.1. The cleared incoming reservation is the
  // token that tells the completion the destination died while the job was
  // in flight; mere liveness at arrival time is not enough.
  const FaultPlan plan = explicit_plan({{1, 0.05, 0.02}}, config);
  FaultInjector injector(sim, cluster, plan);
  cluster.submit_job(make_spec(1, 0.0, 5.0, megabytes(10), /*home=*/0));

  sim.run_until(0.2);
  EXPECT_FALSE(cluster.node(1).failed());
  EXPECT_EQ(cluster.transfer_failures(), 1u);
  EXPECT_EQ(policy.transfer_failed_ids, (std::vector<JobId>{1}));
  EXPECT_EQ(cluster.node(1).incoming_count(), 0);
  EXPECT_EQ(cluster.node(1).active_jobs(), 0);
  EXPECT_EQ(cluster.jobs_killed(), 0u);  // the job itself was never resident

  sim.run_until(50.0);
  ASSERT_EQ(cluster.completed().size(), 1u);
  const cluster::CompletedJob& record = cluster.completed()[0];
  EXPECT_EQ(record.final_node, 0u);  // retried at home
  EXPECT_EQ(record.remote_submits, 0);
  EXPECT_EQ(record.restarts, 0);
}

TEST(FaultInjectionTest, MigrationDestinationFailureReturnsJobToSource) {
  sim::Simulator sim;
  HomePolicy policy;
  ClusterConfig config = ClusterConfig::paper_cluster1(2);
  Cluster cluster(sim, config, policy);
  // 10 MB image over 10 Mbps: the migration started at t=1 is in flight for
  // ~8.5 s; node 1 fails at t=3 (recovering at 4), so the arrival finds its
  // reservation gone and the job resumes on node 0.
  const FaultPlan plan = explicit_plan({{1, 3.0, 1.0}}, config);
  FaultInjector injector(sim, cluster, plan);
  cluster.submit_job(make_spec(1, 0.0, 30.0, megabytes(10)));
  sim.run_until(1.0);
  ASSERT_TRUE(cluster.start_migration(0, 1, 1));

  sim.run_until(20.0);
  EXPECT_EQ(cluster.transfer_failures(), 1u);
  EXPECT_EQ(policy.transfer_failed_ids, (std::vector<JobId>{1}));
  EXPECT_EQ(cluster.node(0).active_jobs(), 1);  // back to running at the source
  EXPECT_EQ(cluster.node(1).active_jobs(), 0);
  EXPECT_EQ(cluster.node(1).incoming_count(), 0);

  sim.run_until(100.0);
  ASSERT_EQ(cluster.completed().size(), 1u);
  const cluster::CompletedJob& record = cluster.completed()[0];
  EXPECT_EQ(record.final_node, 0u);
  EXPECT_EQ(record.migrations, 0);
  EXPECT_EQ(record.restarts, 0);
  // The failed attempt still cost wall-clock migration time.
  EXPECT_GT(record.t_mig, 5.0);
}

TEST(FaultInjectionTest, MigrationSourceFailureKillsJobAndAbortsCompletion) {
  sim::Simulator sim;
  HomePolicy policy;
  ClusterConfig config = ClusterConfig::paper_cluster1(2);
  Cluster cluster(sim, config, policy);
  // The *source* dies at t=3 while the image is in flight: the job is killed
  // (restart from zero), node 1's incoming reservation is released, and the
  // completion firing at ~9.5 must abort via the incarnation guard — by then
  // the restarted job is running on node 0 again, so only the incarnation
  // mismatch distinguishes it from the migrating original.
  const FaultPlan plan = explicit_plan({{0, 3.0, 1.0}}, config);
  FaultInjector injector(sim, cluster, plan);
  cluster.submit_job(make_spec(1, 0.0, 30.0, megabytes(10)));
  sim.run_until(1.0);
  ASSERT_TRUE(cluster.start_migration(0, 1, 1));

  sim.run_until(3.5);
  EXPECT_EQ(cluster.jobs_killed(), 1u);
  EXPECT_EQ(cluster.node(1).incoming_count(), 0);
  ASSERT_EQ(cluster.pending_count(), 1u);
  EXPECT_EQ(cluster.pending_jobs()[0]->restarts, 1);

  sim.run_until(100.0);
  EXPECT_EQ(cluster.transfer_failures(), 0u);  // aborted, not "failed at arrival"
  ASSERT_EQ(cluster.completed().size(), 1u);
  const cluster::CompletedJob& record = cluster.completed()[0];
  EXPECT_EQ(record.final_node, 0u);
  EXPECT_EQ(record.migrations, 0);
  EXPECT_EQ(record.restarts, 1);
  // Only the in-flight stretch [1, 3] counts as migration time.
  EXPECT_NEAR(record.t_mig, 2.0, 0.3);
}

TEST(FaultInjectionTest, VReconfigurationAbandonsReservationOnFailedNode) {
  sim::Simulator sim;
  core::VReconfiguration policy;
  Cluster cluster(sim, ClusterConfig::paper_cluster1(4), policy);
  // The blocking scenario of tests/core/v_reconfiguration_test.cc: two big
  // jobs collide on node 0 and a reservation forms on some other node.
  auto surprise = [](JobId id, Bytes peak, NodeId home, double touch) {
    JobSpec spec = make_spec(id, 0.0, 400.0, peak, home);
    spec.touch_rate = touch;
    spec.memory = MemoryProfile::phased({{0.0, megabytes(4)}, {0.1, peak}});
    return spec;
  };
  cluster.submit_job(surprise(1, megabytes(250), 0, 300.0));
  cluster.submit_job(surprise(2, megabytes(250), 0, 300.0));
  JobId id = 10;
  for (NodeId node = 1; node <= 3; ++node) {
    cluster.submit_job(make_spec(id++, 0.0, 60.0, megabytes(120), node));
    cluster.submit_job(make_spec(id++, 0.0, 120.0, megabytes(120), node));
  }

  SimTime t = 0.0;
  while (t < 400.0 && policy.active_reservations() == 0) {
    t += 5.0;
    sim.run_until(t);
  }
  ASSERT_GE(policy.active_reservations(), 1);
  NodeId reserved = workload::kInvalidNode;
  for (std::size_t i = 0; i < cluster.num_nodes(); ++i) {
    if (cluster.node(static_cast<NodeId>(i)).reserved()) reserved = static_cast<NodeId>(i);
  }
  ASSERT_NE(reserved, workload::kInvalidNode);

  const auto before = policy.reservations_failed();
  cluster.fail_node(reserved);
  // The reservation is abandoned immediately — no drain can ever finish on a
  // dead node — and the flag is cleared so recovery starts clean.
  EXPECT_EQ(policy.reservations_failed(), before + 1);
  EXPECT_FALSE(cluster.node(reserved).reserved());

  cluster.recover_node(reserved);
  sim.run_until(30000.0);
  EXPECT_TRUE(cluster.finished());
  EXPECT_EQ(policy.active_reservations(), 0);
}

TEST(FaultInjectionTest, SameSeedRunsWithFaultsAreBitIdentical) {
  workload::TraceParams params;
  params.name = "fault-identity";
  params.group = workload::WorkloadGroup::kSpec;
  params.num_jobs = 40;
  params.duration = 300.0;
  params.num_nodes = 4;
  params.seed = 5;
  ClusterConfig config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 4);
  config.fault_mtbf = 400.0;
  config.fault_mttr = 30.0;
  config.fault_seed = 17;
  config.fault_restart = cluster::RestartPolicy::kResubmit;
  core::ExperimentOptions options;
  options.fault_entries = {{1, 50.0, 20.0}};
  options.max_sim_time = 20000.0;

  auto run_once = [&] {
    core::GLoadSharing policy;
    workload::GeneratedStreamSource source(params);
    return core::run_experiment(source, config, policy, options);
  };
  const metrics::RunReport a = run_once();
  const metrics::RunReport b = run_once();
  ASSERT_GT(a.node_crashes, 0u);  // the schedule actually fired
  EXPECT_LT(a.availability, 1.0);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  EXPECT_EQ(a.node_crashes, b.node_crashes);
  EXPECT_EQ(a.jobs_killed, b.jobs_killed);
  EXPECT_EQ(a.job_restarts, b.job_restarts);
  EXPECT_EQ(a.transfer_failures, b.transfer_failures);
  EXPECT_DOUBLE_EQ(a.work_lost_cpu_seconds, b.work_lost_cpu_seconds);
  EXPECT_DOUBLE_EQ(a.availability, b.availability);
}

TEST(FaultInjectionTest, EmptyPlanKeepsFingerprintGoldens) {
  // Fault knobs that do not produce windows (mtbf = 0, no entries) must
  // leave the run bit-identical to the pre-fault-subsystem goldens: no
  // injector is constructed and no event-stream perturbation occurs.
  workload::TraceParams params;
  params.name = "fingerprint-trace";
  params.group = workload::WorkloadGroup::kSpec;
  params.num_jobs = 120;
  params.duration = 900.0;
  params.num_nodes = 8;
  params.seed = 7;
  ClusterConfig config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 8);
  config.fault_mttr = 120.0;  // inert without fault_mtbf
  config.fault_seed = 123;
  config.fault_restart = cluster::RestartPolicy::kResubmit;
  core::GLoadSharing policy;
  workload::GeneratedStreamSource source(params);
  const metrics::RunReport report = core::run_experiment(source, config, policy);
  EXPECT_EQ(report.node_crashes, 0u);
  EXPECT_DOUBLE_EQ(report.availability, 1.0);
  EXPECT_EQ(fingerprint(report), kGLoadSharingGolden)
      << "actual fingerprint: 0x" << std::hex << fingerprint(report);
}

/// The reference for FaultInjector's order: every fail and recover event
/// scheduled at construction, in plan order, each fail before its recover.
class EagerFaultInjector {
 public:
  EagerFaultInjector(sim::Simulator& sim, Cluster& cluster, const FaultPlan& plan) : sim_(sim) {
    for (const FaultEntry& window : plan.windows()) {
      events_.push_back(sim_.schedule_at(
          window.at, [&cluster, node = window.node] { cluster.fail_node(node); }));
      events_.push_back(sim_.schedule_at(window.at + window.duration,
                                         [&cluster, node = window.node] {
                                           cluster.recover_node(node);
                                         }));
    }
  }
  ~EagerFaultInjector() {
    for (const sim::EventId id : events_) sim_.cancel(id);
  }
  EagerFaultInjector(const EagerFaultInjector&) = delete;
  EagerFaultInjector& operator=(const EagerFaultInjector&) = delete;

  std::size_t windows_scheduled() const { return events_.size() / 2; }

 private:
  sim::Simulator& sim_;
  std::vector<sim::EventId> events_;
};

/// One fault transition as the policy saw it, with its place in the run's
/// event order.
struct FaultFiring {
  SimTime at = 0.0;
  NodeId node = 0;
  bool fail = false;
  std::uint64_t executed = 0;  // events fired so far, this one included

  bool operator==(const FaultFiring&) const = default;
};

void PrintTo(const FaultFiring& firing, std::ostream* os) {
  *os << (firing.fail ? "fail" : "recover") << " node " << firing.node << " at t=" << firing.at
      << " as event " << firing.executed;
}

/// V-Reconf recording each fault transition and the simulator's pending
/// event count at it.
class RecordingVReconf : public core::VReconfiguration {
 public:
  explicit RecordingVReconf(const sim::Simulator& sim) : sim_(sim) {}

  void on_node_failed(Cluster& cluster, NodeId node) override {
    record(node, true);
    core::VReconfiguration::on_node_failed(cluster, node);
  }
  void on_node_recovered(Cluster& cluster, NodeId node) override {
    record(node, false);
    core::VReconfiguration::on_node_recovered(cluster, node);
  }

  std::vector<FaultFiring> firings;
  std::vector<std::uint64_t> pending;

 private:
  void record(NodeId node, bool fail) {
    firings.push_back({sim_.now(), node, fail, sim_.executed_events()});
    pending.push_back(sim_.pending_events());
  }

  const sim::Simulator& sim_;
};

struct InjectedRun {
  std::uint64_t fingerprint = 0;
  std::size_t windows = 0;
  std::uint64_t pending_added = 0;  // events the injector's construction queued
  std::vector<FaultFiring> firings;
  std::vector<std::uint64_t> pending;
};

/// run_experiment's steps, with the injector type as the one difference.
template <typename Injector>
InjectedRun run_injected(const workload::TraceParams& params, const ClusterConfig& config,
                         const core::ExperimentOptions& options) {
  sim::Simulator sim;
  RecordingVReconf policy(sim);
  Cluster cluster(sim, config, policy);
  metrics::Collector collector(cluster, options.collector);
  const FaultPlan plan =
      FaultPlan::materialize(options.fault_entries, config, options.max_sim_time);
  const std::uint64_t before = sim.pending_events();
  Injector injector(sim, cluster, plan);
  InjectedRun run;
  run.windows = injector.windows_scheduled();
  run.pending_added = sim.pending_events() - before;
  workload::GeneratedStreamSource source(params);
  cluster.submit_source(source);
  sim.run_until(options.max_sim_time);
  collector.stop();
  metrics::RunReport report = collector.report(source.name(), policy.name());
  run.fingerprint = metrics::full_fingerprint(report);
  run.firings = std::move(policy.firings);
  run.pending = std::move(policy.pending);
  return run;
}

// The injector keeps one fault event queued, yet fires every event at the
// (time, sequence number) key that scheduling all of them at construction
// gives: the same transitions at the same places in the event order, and
// the same report. The explicit windows of fault_matrix.scn start and end
// on whole seconds, where the 1 s exchange and the 0.25 s policy pulse fire
// too. The window on node 6 ends 0.1 s before the crash at t = 400, after
// that pulse and exchange were queued, so the crash is queued after them
// and must still fire first.
TEST(FaultInjectionTest, LazyEventsFireInTheOrderOfEagerScheduling) {
  workload::TraceParams params;
  params.name = "faulty-c1";
  params.group = workload::WorkloadGroup::kSpec;
  params.num_jobs = 120;
  params.duration = 900.0;
  params.num_nodes = 8;
  params.seed = 7;
  ClusterConfig config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 8);
  config.fault_mtbf = 1500.0;
  config.fault_mttr = 120.0;
  config.fault_seed = 11;
  config.fault_restart = cluster::RestartPolicy::kResubmit;
  core::ExperimentOptions options;
  options.fault_entries = {{2, 200.0, 120.0}, {5, 400.0, 90.0}, {6, 300.0, 99.9}};
  options.max_sim_time = 6000.0;

  const InjectedRun lazy = run_injected<FaultInjector>(params, config, options);
  const InjectedRun eager = run_injected<EagerFaultInjector>(params, config, options);
  const std::size_t events = 2 * lazy.windows;
  ASSERT_EQ(lazy.windows, eager.windows);
  ASSERT_GT(lazy.windows, 3u);  // the MTBF generator added windows
  EXPECT_EQ(lazy.pending_added, 1u);
  EXPECT_EQ(eager.pending_added, events);
  EXPECT_EQ(lazy.fingerprint, eager.fingerprint);
  ASSERT_EQ(lazy.firings, eager.firings);
  ASSERT_GT(lazy.firings.size(), 6u);
  bool queued_late = false;
  for (std::size_t m = 0; m < lazy.firings.size(); ++m) {
    // Beyond the rest of the run's events, the reference holds every fault
    // event still to fire and the injector at most the next one.
    const std::size_t ahead = events - m - 1;
    EXPECT_EQ(lazy.pending[m] + ahead, eager.pending[m] + std::min<std::size_t>(ahead, 1))
        << "firing " << m;
    // The crash at t = 400 was queued by the firing before it, after the
    // 0.25 s pulse at t = 400 was queued at t = 399.75.
    const FaultFiring& firing = lazy.firings[m];
    if (m > 0 && firing.at == 400.0 && firing.node == 5 && firing.fail) {
      queued_late = lazy.firings[m - 1].at > 399.75;
    }
  }
  EXPECT_TRUE(queued_late);
  // The production path runs this injector too.
  core::VReconfiguration policy;
  workload::GeneratedStreamSource source(params);
  EXPECT_EQ(metrics::full_fingerprint(core::run_experiment(source, config, policy, options)),
            lazy.fingerprint);
}

}  // namespace
}  // namespace vrc
