#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "metrics/fingerprint.h"
#include "metrics/perf_counters.h"
#include "sim/sampler.h"
#include "workload/arrival_source.h"

namespace vrc::cluster {
namespace {

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

/// Places every arrival on its home node immediately; records callbacks.
class ScriptedPolicy : public SchedulerPolicy {
 public:
  enum class Mode { kPlaceLocal, kLeavePending, kPlaceRemoteOn1 };

  explicit ScriptedPolicy(Mode mode = Mode::kPlaceLocal) : mode_(mode) {}

  const char* name() const override { return "scripted"; }

  void on_job_arrival(Cluster& cluster, RunningJob& job) override {
    ++arrivals;
    switch (mode_) {
      case Mode::kPlaceLocal:
        cluster.place_local(job, job.home_node);
        break;
      case Mode::kLeavePending:
        break;
      case Mode::kPlaceRemoteOn1:
        cluster.place_remote(job, 1);
        break;
    }
  }
  void on_job_completed(Cluster&, const CompletedJob& record) override {
    completed_ids.push_back(record.id);
  }
  void on_node_pressure(Cluster&, Workstation& node) override {
    pressure_events.push_back(node.id());
  }
  void on_periodic(Cluster&) override { ++periodic_calls; }
  void on_migration_complete(Cluster&, RunningJob& job) override {
    migration_completions.push_back(job.id());
  }

  Mode mode_;
  int arrivals = 0;
  int periodic_calls = 0;
  std::vector<JobId> completed_ids;
  std::vector<NodeId> pressure_events;
  std::vector<JobId> migration_completions;
};

ClusterConfig small_config(std::size_t nodes = 4) {
  return ClusterConfig::paper_cluster1(nodes);
}

TEST(ClusterTest, JobArrivesAtSubmitTime) {
  sim::Simulator sim;
  ScriptedPolicy policy;
  Cluster cluster(sim, small_config(), policy);
  cluster.submit_job(make_spec(1, 5.0, 1.0, megabytes(10)));
  sim.run_until(4.9);
  EXPECT_EQ(policy.arrivals, 0);
  sim.run_until(5.0);
  EXPECT_EQ(policy.arrivals, 1);
}

TEST(ClusterTest, LocalJobRunsToCompletion) {
  sim::Simulator sim;
  ScriptedPolicy policy;
  Cluster cluster(sim, small_config(), policy);
  cluster.submit_job(make_spec(1, 0.0, 2.0, megabytes(10)));
  sim.run_until(100.0);
  ASSERT_EQ(cluster.completed().size(), 1u);
  const CompletedJob& job = cluster.completed()[0];
  EXPECT_EQ(job.id, 1u);
  EXPECT_NEAR(job.completion_time, 2.0, 0.05);
  EXPECT_NEAR(job.t_cpu, 2.0, 0.05);
  EXPECT_TRUE(cluster.finished());
  EXPECT_EQ(policy.completed_ids, (std::vector<JobId>{1}));
}

TEST(ClusterTest, SimulatorDrainsAfterFinish) {
  sim::Simulator sim;
  ScriptedPolicy policy;
  Cluster cluster(sim, small_config(), policy);
  cluster.submit_job(make_spec(1, 0.0, 1.0, megabytes(10)));
  sim.run();  // must terminate: periodic tasks stop at finish
  EXPECT_TRUE(cluster.finished());
  EXPECT_NEAR(cluster.finish_time(), 1.0, 0.05);
}

TEST(ClusterTest, TeardownCancelsInFlightCallbacks) {
  // Aborting a run mid-flight must not leave arrival or transfer-completion
  // events aimed at a destroyed cluster (the sanitizer build flags the
  // use-after-free this guards against).
  sim::Simulator sim;
  {
    // Remote submission in flight at destruction (completes at t = 0.1).
    ScriptedPolicy policy(ScriptedPolicy::Mode::kPlaceRemoteOn1);
    Cluster cluster(sim, small_config(), policy);
    cluster.submit_job(make_spec(1, 0.0, 5.0, megabytes(10)));
    sim.run_until(0.05);
  }
  {
    // Migration in flight, plus an arrival that has not fired yet.
    ScriptedPolicy policy;
    Cluster cluster(sim, small_config(), policy);
    cluster.submit_job(make_spec(2, 0.06, 5.0, megabytes(10)));
    cluster.submit_job(make_spec(3, 500.0, 5.0, megabytes(10)));
    sim.run_until(0.2);
    ASSERT_TRUE(cluster.start_migration(0, 2, 1));
    sim.run_until(0.3);
  }
  sim.run();  // every orphaned event was cancelled; nothing fires
}

TEST(ClusterTest, PendingJobAccruesQueueTime) {
  sim::Simulator sim;
  ScriptedPolicy policy(ScriptedPolicy::Mode::kLeavePending);
  Cluster cluster(sim, small_config(), policy);
  cluster.submit_job(make_spec(1, 0.0, 1.0, megabytes(10)));
  sim.run_until(10.0);
  ASSERT_EQ(cluster.pending_count(), 1u);
  RunningJob* job = cluster.pending_jobs()[0];
  // Queue time is attributed at placement.
  cluster.place_local(*job, 0);
  EXPECT_NEAR(job->t_queue, 10.0, 1e-6);
  sim.run_until(100.0);
  ASSERT_EQ(cluster.completed().size(), 1u);
  EXPECT_NEAR(cluster.completed()[0].t_queue, 10.0, 0.05);
}

TEST(ClusterTest, RemoteSubmissionChargesFixedCost) {
  sim::Simulator sim;
  ScriptedPolicy policy(ScriptedPolicy::Mode::kPlaceRemoteOn1);
  Cluster cluster(sim, small_config(), policy);
  cluster.submit_job(make_spec(1, 0.0, 2.0, megabytes(10), /*home=*/0));
  sim.run_until(100.0);
  ASSERT_EQ(cluster.completed().size(), 1u);
  const CompletedJob& job = cluster.completed()[0];
  EXPECT_EQ(job.final_node, 1u);
  EXPECT_EQ(job.remote_submits, 1);
  EXPECT_NEAR(job.t_mig, 0.1, 1e-6);
  EXPECT_NEAR(job.completion_time, 2.1, 0.05);
  EXPECT_EQ(cluster.remote_submits(), 1u);
}

TEST(ClusterTest, MigrationMovesJobAndChargesTransferTime) {
  sim::Simulator sim;
  ScriptedPolicy policy;
  Cluster cluster(sim, small_config(), policy);
  cluster.submit_job(make_spec(1, 0.0, 100.0, megabytes(50), /*home=*/0));
  sim.run_until(10.0);
  ASSERT_TRUE(cluster.start_migration(0, 1, 2));
  EXPECT_EQ(cluster.node(2).incoming_count(), 1);
  // Image ~50 MB at 10 Mbps: ~42 s + 0.1 s.
  sim.run_until(10.0 + 42.0 + 0.2);
  EXPECT_EQ(policy.migration_completions, (std::vector<JobId>{1}));
  EXPECT_EQ(cluster.node(0).find_job(1), nullptr);
  RunningJob* moved = cluster.node(2).find_job(1);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->phase, JobPhase::kRunning);
  EXPECT_EQ(moved->migrations, 1);
  EXPECT_NEAR(moved->t_mig, cluster.network().migration_cost(moved->demand), 0.02);
  EXPECT_EQ(cluster.node(2).incoming_count(), 0);
}

TEST(ClusterTest, MigrationOfMissingJobFails) {
  sim::Simulator sim;
  ScriptedPolicy policy;
  Cluster cluster(sim, small_config(), policy);
  EXPECT_FALSE(cluster.start_migration(0, 99, 1));
}

TEST(ClusterTest, MigrationToSelfFails) {
  sim::Simulator sim;
  ScriptedPolicy policy;
  Cluster cluster(sim, small_config(), policy);
  cluster.submit_job(make_spec(1, 0.0, 10.0, megabytes(10)));
  sim.run_until(1.0);
  EXPECT_FALSE(cluster.start_migration(0, 1, 0));
}

TEST(ClusterTest, DoubleMigrationRejected) {
  sim::Simulator sim;
  ScriptedPolicy policy;
  Cluster cluster(sim, small_config(), policy);
  cluster.submit_job(make_spec(1, 0.0, 100.0, megabytes(50)));
  sim.run_until(1.0);
  ASSERT_TRUE(cluster.start_migration(0, 1, 1));
  EXPECT_FALSE(cluster.start_migration(0, 1, 2));  // already migrating
}

TEST(ClusterTest, SuspendAndResume) {
  sim::Simulator sim;
  ScriptedPolicy policy;
  Cluster cluster(sim, small_config(), policy);
  cluster.submit_job(make_spec(1, 0.0, 2.0, megabytes(100)));
  sim.run_until(1.0);
  ASSERT_TRUE(cluster.suspend_job(0, 1));
  EXPECT_FALSE(cluster.suspend_job(0, 1));  // already suspended
  EXPECT_EQ(cluster.node(0).resident_demand(), 0);
  sim.run_until(5.0);
  RunningJob* job = cluster.node(0).find_job(1);
  ASSERT_NE(job, nullptr);
  EXPECT_LT(job->cpu_done, 1.5);  // made no progress while suspended
  ASSERT_TRUE(cluster.resume_job(0, 1));
  EXPECT_FALSE(cluster.resume_job(0, 1));  // already running
  sim.run_until(100.0);
  ASSERT_EQ(cluster.completed().size(), 1u);
  // ~1 s ran, 4 s suspended (queued), ~1 s ran.
  EXPECT_NEAR(cluster.completed()[0].t_queue, 4.0, 0.1);
}

TEST(ClusterTest, PressureCallbackFiresForOvercommittedNode) {
  sim::Simulator sim;
  ScriptedPolicy policy;
  Cluster cluster(sim, small_config(), policy);
  // Two jobs whose combined demand exceeds 368 MB user memory.
  cluster.submit_job(make_spec(1, 0.0, 50.0, megabytes(250), 0, 100.0));
  cluster.submit_job(make_spec(2, 0.0, 50.0, megabytes(250), 0, 100.0));
  sim.run_until(5.0);
  EXPECT_FALSE(policy.pressure_events.empty());
  for (NodeId node : policy.pressure_events) EXPECT_EQ(node, 0u);
}

TEST(ClusterTest, PressureCallbackIsRateLimited) {
  sim::Simulator sim;
  ClusterConfig config = small_config();
  config.pressure_callback_interval = 1.0;
  ScriptedPolicy policy;
  Cluster cluster(sim, config, policy);
  cluster.submit_job(make_spec(1, 0.0, 50.0, megabytes(250), 0, 100.0));
  cluster.submit_job(make_spec(2, 0.0, 50.0, megabytes(250), 0, 100.0));
  sim.run_until(10.0);
  // At most one event per second (plus the initial one).
  EXPECT_LE(policy.pressure_events.size(), 11u);
}

TEST(ClusterTest, NoPressureCallbackForFailedNode) {
  // Regression: a node whose fault-rate EMA was above threshold when it
  // crashed used to keep triggering on_node_pressure while down — the policy
  // would then try to migrate jobs off a dead workstation.
  sim::Simulator sim;
  ClusterConfig config = small_config();
  config.fault_rate_threshold = 1e-9;  // any faulting at all reads as pressure
  ScriptedPolicy policy;
  Cluster cluster(sim, config, policy);
  cluster.submit_job(make_spec(1, 0.0, 50.0, megabytes(250), 0, 100.0));
  cluster.submit_job(make_spec(2, 0.0, 50.0, megabytes(250), 0, 100.0));
  sim.run_until(5.0);
  ASSERT_FALSE(policy.pressure_events.empty());
  EXPECT_GT(cluster.node(0).fault_rate(), config.fault_rate_threshold);

  cluster.fail_node(0);
  policy.pressure_events.clear();
  sim.run_until(10.0);
  EXPECT_TRUE(policy.pressure_events.empty());

  // Positive control: the EMA decays slowly (tau = 2 s), so once the node is
  // back up it is still past the threshold and the callback — with its
  // timestamp reset across the outage — must fire again promptly.
  cluster.recover_node(0);
  EXPECT_GT(cluster.node(0).fault_rate(), config.fault_rate_threshold);
  sim.run_until(11.0);
  EXPECT_FALSE(policy.pressure_events.empty());
  for (NodeId node : policy.pressure_events) EXPECT_EQ(node, 0u);
}

TEST(ClusterTest, BoardAggregatesMatchLiveSumsDuringFaultWindow) {
  // Regression: with node 1 down mid-run, the board totals right after an
  // exchange must equal the sums over live nodes' snapshots — the crashed
  // node's entry may contribute neither idle memory nor a share of the
  // user-memory average.
  sim::Simulator sim;
  ScriptedPolicy policy;
  Cluster cluster(sim, small_config(), policy);
  cluster.submit_job(make_spec(1, 0.0, 80.0, megabytes(60), 0));
  cluster.submit_job(make_spec(2, 0.0, 80.0, megabytes(40), 2));
  sim.run_until(2.0);
  cluster.fail_node(1);
  // Cross a load-exchange boundary so every live node republishes.
  sim.run_until(2.0 + cluster.config().load_exchange_period + 0.1);

  Bytes idle_sum = 0;
  Bytes user_sum = 0;
  std::size_t live = 0;
  for (const LoadInfo& info : cluster.board().all()) {
    if (info.failed) continue;
    idle_sum += info.idle_memory;
    user_sum += info.user_memory;
    ++live;
  }
  ASSERT_EQ(live, 3u);
  EXPECT_EQ(cluster.board().cluster_idle_memory(), idle_sum);
  EXPECT_EQ(cluster.board().average_user_memory(), user_sum / static_cast<Bytes>(live));

  // The live idle sum drops the failed node immediately as well (it is
  // empty: jobs 1 and 2 run on nodes 0 and 2) and takes it back on recovery.
  const Bytes user = cluster.node(0).user_memory();
  EXPECT_EQ(cluster.live_idle_memory(), 3 * user - megabytes(100));
  cluster.recover_node(1);
  EXPECT_EQ(cluster.live_idle_memory(), 4 * user - megabytes(100));
}

TEST(ClusterTest, LiveIdleMemoryFollowsJobLifecycle) {
  // max(0, user - resident) summed over non-failed nodes, to the byte, through
  // placement, suspension, resumption, completion, failure and recovery.
  sim::Simulator sim;
  ScriptedPolicy policy;
  Cluster cluster(sim, small_config(2), policy);
  const Bytes user = cluster.node(0).user_memory();
  EXPECT_EQ(cluster.live_idle_memory(), 2 * user);
  cluster.submit_job(make_spec(1, 0.0, 30.0, megabytes(50), 0));
  sim.run_until(1.0);
  EXPECT_EQ(cluster.live_idle_memory(), 2 * user - megabytes(50));
  ASSERT_TRUE(cluster.suspend_job(0, 1));  // swapped out: no resident pages
  EXPECT_EQ(cluster.live_idle_memory(), 2 * user);
  ASSERT_TRUE(cluster.resume_job(0, 1));
  EXPECT_EQ(cluster.live_idle_memory(), 2 * user - megabytes(50));
  sim.run_until(100.0);
  ASSERT_EQ(cluster.completed().size(), 1u);
  EXPECT_EQ(cluster.live_idle_memory(), 2 * user);

  cluster.submit_job(make_spec(2, 100.0, 30.0, megabytes(70), 1));
  sim.run_until(101.0);
  EXPECT_EQ(cluster.live_idle_memory(), 2 * user - megabytes(70));
  cluster.fail_node(1);  // the node leaves the sum with its job
  EXPECT_EQ(cluster.live_idle_memory(), user);
  cluster.recover_node(1);  // back empty; the killed job waits in pending
  EXPECT_EQ(cluster.pending_count(), 1u);
  EXPECT_EQ(cluster.live_idle_memory(), 2 * user);
}

TEST(ClusterTest, SubmitTraceSchedulesAllJobs) {
  sim::Simulator sim;
  ScriptedPolicy policy;
  Cluster cluster(sim, small_config(), policy);
  std::vector<JobSpec> specs;
  for (JobId i = 1; i <= 5; ++i) {
    specs.push_back(make_spec(i, static_cast<double>(i), 0.5, megabytes(10), i % 4));
  }
  workload::MaterializedTraceSource source(
      workload::Trace("t", workload::WorkloadGroup::kSpec, 10.0, specs));
  cluster.submit_source(source);
  sim.run_until(1000.0);
  EXPECT_EQ(cluster.submitted_count(), 5u);
  EXPECT_EQ(cluster.completed().size(), 5u);
  EXPECT_TRUE(cluster.finished());
}

// peak_live_specs is the high-water count of jobs submitted and not yet
// completed. Every submit time lies halfway between two 10 ms ticks, so no
// arrival ties a completion (DESIGN.md §14.2) and the peak follows from the
// completed records alone.
TEST(ClusterTest, PeakLiveSpecsCountsJobsBetweenSubmitAndCompletion) {
  sim::Simulator sim;
  ScriptedPolicy policy;
  Cluster cluster(sim, small_config(), policy);
  std::vector<JobSpec> specs;
  for (JobId i = 1; i <= 40; ++i) {
    const double cpu_seconds = 0.5 + static_cast<double>((i * 7) % 11);
    specs.push_back(make_spec(i, 0.005 + 0.75 * i, cpu_seconds, megabytes(10), i % 4));
  }
  workload::MaterializedTraceSource source(
      workload::Trace("t", workload::WorkloadGroup::kSpec, 40.0, specs));
  cluster.submit_source(source);
  sim.run();
  ASSERT_EQ(cluster.completed().size(), specs.size());

  std::vector<std::pair<SimTime, int>> steps;  // +1 at submit, -1 at completion
  for (const CompletedJob& record : cluster.completed()) {
    steps.emplace_back(record.submit_time, +1);
    steps.emplace_back(record.completion_time, -1);
  }
  std::sort(steps.begin(), steps.end());
  std::size_t live = 0;
  std::size_t peak = 0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (i > 0) {
      ASSERT_FALSE(steps[i].first == steps[i - 1].first && steps[i].second != steps[i - 1].second)
          << "a submit time equals a completion time at t=" << steps[i].first;
    }
    live = steps[i].second > 0 ? live + 1 : live - 1;
    peak = std::max(peak, live);
  }
  EXPECT_GT(peak, 4u);  // the jobs overlap
  EXPECT_EQ(cluster.peak_live_specs(), peak);

  // A hand-placed job counts from the submit_job call, not from its arrival:
  // two jobs far apart in time are both live before the run starts.
  sim::Simulator hand_sim;
  ScriptedPolicy hand_policy;
  Cluster hand(hand_sim, small_config(), hand_policy);
  hand.submit_job(make_spec(1, 0.0, 1.0, megabytes(10)));
  hand.submit_job(make_spec(2, 100.0, 1.0, megabytes(10)));
  EXPECT_EQ(hand.peak_live_specs(), 2u);
  hand_sim.run();
  EXPECT_EQ(hand.completed().size(), 2u);
  EXPECT_EQ(hand.peak_live_specs(), 2u);
}

TEST(ClusterTest, FinishCallbackFiresOnce) {
  sim::Simulator sim;
  ScriptedPolicy policy;
  Cluster cluster(sim, small_config(), policy);
  int finishes = 0;
  SimTime finish_time = 0.0;
  cluster.add_finish_callback([&](SimTime t) {
    ++finishes;
    finish_time = t;
  });
  cluster.submit_job(make_spec(1, 0.0, 1.0, megabytes(10)));
  sim.run_until(50.0);
  EXPECT_EQ(finishes, 1);
  EXPECT_NEAR(finish_time, 1.0, 0.05);
}

TEST(ClusterTest, LiveIdleMemoryIgnoresIncomingReservations) {
  sim::Simulator sim;
  ScriptedPolicy policy;
  Cluster cluster(sim, small_config(2), policy);
  const Bytes user = cluster.node(0).user_memory();
  EXPECT_EQ(cluster.live_idle_memory(), 2 * user);
  cluster.node(0).add_incoming(9, megabytes(100));
  // Incoming reservations do not hold physical pages yet.
  EXPECT_EQ(cluster.live_idle_memory(), 2 * user);
}

TEST(ClusterTest, LiveActiveJobsSkipsReservedNodes) {
  sim::Simulator sim;
  ScriptedPolicy policy;
  Cluster cluster(sim, small_config(), policy);
  cluster.submit_job(make_spec(1, 0.0, 50.0, megabytes(10), 0));
  cluster.submit_job(make_spec(2, 0.0, 50.0, megabytes(10), 1));
  sim.run_until(1.0);
  EXPECT_EQ(cluster.live_active_jobs(false).size(), 4u);
  cluster.set_reserved(1, true);
  auto counts = cluster.live_active_jobs(true);
  EXPECT_EQ(counts.size(), 3u);
}

TEST(ClusterTest, AccountingIdentityAcrossMechanisms) {
  // A job that pends, runs, migrates, and completes: its wall clock must
  // decompose exactly into the four §5 buckets.
  sim::Simulator sim;
  ScriptedPolicy policy(ScriptedPolicy::Mode::kLeavePending);
  Cluster cluster(sim, small_config(), policy);
  cluster.submit_job(make_spec(1, 0.0, 20.0, megabytes(40)));
  sim.run_until(3.0);
  cluster.place_local(*cluster.pending_jobs()[0], 0);
  sim.run_until(8.0);
  ASSERT_TRUE(cluster.start_migration(0, 1, 2));
  sim.run_until(500.0);
  ASSERT_EQ(cluster.completed().size(), 1u);
  const CompletedJob& job = cluster.completed()[0];
  EXPECT_NEAR(job.t_cpu + job.t_page + job.t_queue + job.t_mig, job.wall_clock(), 0.05);
  EXPECT_GT(job.t_queue, 2.9);  // the pending phase
  EXPECT_GT(job.t_mig, 30.0);   // ~40 MB over 10 Mbps
}

/// Places arrivals on their home nodes, except job `held`, which waits until
/// the first completion and is then placed on `late_node` from inside that
/// completion's callback, while the tick pass is still visiting nodes.
class LatePlacementPolicy : public SchedulerPolicy {
 public:
  LatePlacementPolicy(JobId held, NodeId late_node) : held_(held), late_node_(late_node) {}

  const char* name() const override { return "late-placement"; }

  void on_job_arrival(Cluster& cluster, RunningJob& job) override {
    if (job.id() != held_) cluster.place_local(job, job.home_node);
  }
  void on_job_completed(Cluster& cluster, const CompletedJob&) override {
    for (RunningJob* job : cluster.pending_jobs()) {
      if (job->id() == held_) cluster.place_local(*job, late_node_);
    }
  }

 private:
  JobId held_;
  NodeId late_node_;
};

/// Four long flat jobs that never page (so their nodes park), a short job on
/// node 4 whose completion places a held job on `late_node`, all under the
/// late-placement policy. Returns the fingerprint of every job record.
std::uint64_t late_placement_fingerprint(NodeId late_node) {
  sim::Simulator sim;
  LatePlacementPolicy policy(6, late_node);
  Cluster cluster(sim, small_config(8), policy);
  const NodeId long_homes[] = {1, 2, 5, 6};
  for (JobId id = 1; id <= 4; ++id) {
    cluster.submit_job(make_spec(id, 0.0, 40.0, megabytes(50), long_homes[id - 1]));
  }
  cluster.submit_job(make_spec(5, 0.0, 3.0, megabytes(50), 4));
  cluster.submit_job(make_spec(6, 0.0, 10.0, megabytes(50), 0));
  sim.run();
  EXPECT_TRUE(cluster.finished());
  EXPECT_EQ(cluster.completed().size(), 6u);
  return metrics::record_fingerprint(cluster.completed());
}

// A completion callback that reaches a node the tick pass has not visited
// yet: the pass ticks that node later, after the held job joined it, so the
// long job's share of this tick is already halved.
TEST(ClusterTest, CompletionPlacesOnNodeAheadOfTheTickPass) {
  const std::uint64_t fingerprint = late_placement_fingerprint(6);
  EXPECT_EQ(fingerprint, 0xf037d0d840c8bca6ull)
      << "actual fingerprint: 0x" << std::hex << fingerprint;
}

// A completion callback that reaches a node the tick pass already visited:
// its interval up to now was integrated before the held job joined it.
TEST(ClusterTest, CompletionPlacesOnNodeBehindTheTickPass) {
  const std::uint64_t fingerprint = late_placement_fingerprint(2);
  EXPECT_EQ(fingerprint, 0xd79ad77afa21426eull)
      << "actual fingerprint: 0x" << std::hex << fingerprint;
}

// --- skipping empty tick rounds (DESIGN.md §12.6) ---

/// What a run of hand-placed jobs leaves behind, with perf capture on.
struct CapturedRun {
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
  metrics::PerfCounters counters;
};

/// Runs `specs` to the end on a 4-node cluster that places each job on its
/// home node, and returns the fingerprint of every job record.
CapturedRun run_captured(const std::vector<JobSpec>& specs) {
  metrics::set_perf_capture_enabled(true);
  (void)metrics::take_perf_aggregate();
  CapturedRun run;
  {
    metrics::ScopedPerfCapture capture;
    sim::Simulator sim;
    ScriptedPolicy policy;
    Cluster cluster(sim, small_config(), policy);
    for (const JobSpec& spec : specs) cluster.submit_job(spec);
    sim.run();
    EXPECT_TRUE(cluster.finished());
    EXPECT_EQ(cluster.completed().size(), specs.size());
    run.fingerprint = metrics::record_fingerprint(cluster.completed());
    run.events = sim.executed_events();
  }
  run.counters = metrics::take_perf_aggregate();
  metrics::set_perf_capture_enabled(false);
  return run;
}

/// The time of tick round `round` of a tick task started at t = 0, by the
/// additions sim::PeriodicTask makes.
SimTime tick_time(std::uint64_t round) {
  const SimTime dt = small_config().tick;
  SimTime when = 0.0;
  for (std::uint64_t i = 0; i < round; ++i) when += dt;
  return when;
}

// Long flat jobs that never page: every busy node parks, so a tick round
// fires only where another event (an arrival, a completion, an exchange or
// a policy pulse) or a node's wake round needs one, and the skipped rounds
// account for every round an unskipped run fires.
TEST(ClusterTest, ParkedClusterFiresAtMostOneTickRoundPerOtherEvent) {
  std::vector<JobSpec> specs;
  const NodeId homes[] = {0, 1, 2, 0, 3};
  for (JobId id = 1; id <= 5; ++id) {
    const double index = static_cast<double>(id);
    specs.push_back(
        make_spec(id, 7.5 * index, 300.0 + 50.0 * index, megabytes(40), homes[id - 1]));
  }
  const CapturedRun run = run_captured(specs);
  EXPECT_EQ(run.fingerprint, 0x9a3442681a75085dull)
      << "actual fingerprint: 0x" << std::hex << run.fingerprint;
  const std::uint64_t rounds = run.counters.tick_rounds;
  EXPECT_LE(rounds, run.events - rounds + 1);
  EXPECT_GT(run.counters.ticks_replayed, 0u);
  // Firing every round, the run fired 85,657 rounds and 89,944 events.
  EXPECT_EQ(rounds + run.counters.tick_rounds_skipped, 85657u);
  EXPECT_EQ(run.events + run.counters.tick_rounds_skipped, 89944u);
}

// A hand-placed job whose arrival lands exactly on a tick round that the
// skip resumes, on the node that is parked. The arrival event exists before
// the resumed round is armed, so it runs first, as it did when every round
// fired: the node is settled through the round before, and the resumed
// round ticks it with the new job on board.
TEST(ClusterTest, HandPlacedJobOnAResumedTickTime) {
  const SimTime arrival = tick_time(12345);
  std::vector<JobSpec> specs = {make_spec(1, 0.0, 600.0, megabytes(40), 0),
                                make_spec(2, arrival, 50.0, megabytes(40), 0)};
  const CapturedRun run = run_captured(specs);
  EXPECT_GT(run.counters.tick_rounds_skipped, 0u);
  EXPECT_EQ(run.fingerprint, 0x5b31ff3a3e7cb753ull)
      << "actual fingerprint: 0x" << std::hex << run.fingerprint;
}

// run_until returns between two events. The rounds skipped by then are ones
// that run_until would have fired, so a parked node read or mutated right
// after it is settled exactly as when every round fired.
TEST(ClusterTest, RunUntilInsideAParkedStretchSettlesAsEveryRoundFired) {
  sim::Simulator sim;
  ScriptedPolicy policy;
  Cluster cluster(sim, small_config(), policy);
  cluster.submit_job(make_spec(1, 0.0, 600.0, megabytes(40), 0));
  const SimTime deadline = 77.777;
  sim.run_until(deadline);
  const RunningJob& job = *cluster.node(0).jobs()[0];
  EXPECT_EQ(std::bit_cast<std::uint64_t>(job.cpu_done), 0x40537147ae147bacull)
      << "actual bits: 0x" << std::hex << std::bit_cast<std::uint64_t>(job.cpu_done);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(job.accounted_until), 0x40537147ae147bacull)
      << "actual bits: 0x" << std::hex << std::bit_cast<std::uint64_t>(job.accounted_until);
  cluster.submit_job(make_spec(2, deadline, 30.0, megabytes(40), 0));
  sim.run();
  ASSERT_EQ(cluster.completed().size(), 2u);
  const std::uint64_t fingerprint = metrics::record_fingerprint(cluster.completed());
  EXPECT_EQ(fingerprint, 0x85059bcaf273358bull)
      << "actual fingerprint: 0x" << std::hex << fingerprint;
}

// --- parking through memory ramps (DESIGN.md §12.6) ---

// Node 0's job grows its demand over its whole run while staying far below
// user memory, so the node parks through the ramp; node 1's job is flat. A
// sampler reads live_idle_memory() and both board rows every 0.7 s, between
// exchanges, while node 0's resident demand moves in ticks it skips. Every
// read must equal what a run that ticks every round sees: the fingerprint
// of the reads was captured before nodes could park on a ramp.
TEST(ClusterTest, ExchangeAndSamplerReadARampParkedNodeAsEveryRoundTicked) {
  metrics::set_perf_capture_enabled(true);
  (void)metrics::take_perf_aggregate();
  metrics::Fnv1a reads;
  {
    metrics::ScopedPerfCapture capture;
    sim::Simulator sim;
    ScriptedPolicy policy;
    Cluster cluster(sim, small_config(), policy);
    JobSpec ramp = make_spec(1, 0.0, 400.0, 0, 0);
    ramp.memory = MemoryProfile::ramp_to(megabytes(150), 1.0);
    cluster.submit_job(ramp);
    cluster.submit_job(make_spec(2, 0.0, 300.0, megabytes(40), 1));
    sim::IntervalSampler sampler(sim, 0.7, 0.7, [&](SimTime) {
      reads.mix_u64(static_cast<std::uint64_t>(cluster.live_idle_memory()));
      for (const NodeId id : {NodeId{0}, NodeId{1}}) {
        reads.mix_u64(static_cast<std::uint64_t>(cluster.board().info(id).idle_memory));
        reads.mix_double(cluster.board().info(id).timestamp);
      }
      return 0.0;
    });
    cluster.add_finish_callback([&](SimTime) { sampler.stop(); });
    sim.run();
    EXPECT_TRUE(cluster.finished());
    EXPECT_EQ(cluster.completed().size(), 2u);
  }
  const metrics::PerfCounters counters = metrics::take_perf_aggregate();
  metrics::set_perf_capture_enabled(false);
  EXPECT_EQ(reads.value(), 0xb8a383070fd47292ull)
      << "actual fingerprint: 0x" << std::hex << reads.value();
  // Every round ticked both busy nodes: 40,000 + 30,000 node-ticks.
  EXPECT_EQ(counters.node_ticks + counters.ticks_replayed, 70000u);
  // Both nodes park, the ramp's included: all but a handful are replayed.
  EXPECT_LT(counters.node_ticks, 100u);
}

}  // namespace
}  // namespace vrc::cluster
