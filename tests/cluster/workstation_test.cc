#include "cluster/workstation.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "sim/rng.h"
#include "workload/job.h"

namespace vrc::cluster {
namespace {

ClusterConfig test_config() {
  ClusterConfig config = ClusterConfig::paper_cluster1(1);
  return config;
}

// A job spec with constant memory demand; each job built from it takes a copy.
workload::JobSpec make_spec(workload::JobId id, double cpu_seconds, Bytes demand,
                            double touch_rate = 0.0) {
  workload::JobSpec spec;
  spec.id = id;
  spec.program = "test";
  spec.cpu_seconds = cpu_seconds;
  spec.touch_rate = touch_rate;
  spec.memory = workload::MemoryProfile::constant(demand);
  return spec;
}

std::unique_ptr<RunningJob> make_job(const workload::JobSpec& spec) {
  auto job = std::make_unique<RunningJob>(spec);
  job->phase = JobPhase::kRunning;
  job->accounted_until = 0.0;
  return job;
}

/// Page faults of the jobs resident on `node`.
double resident_faults(const Workstation& node) {
  double faults = 0.0;
  for (const auto& job : node.jobs()) faults += job->faults;
  return faults;
}

class WorkstationTest : public ::testing::Test {
 protected:
  WorkstationTest() : config_(test_config()), node_(0, config_.nodes[0], config_) {}

  // Runs `seconds` of simulation in config ticks; returns all completions.
  std::vector<std::unique_ptr<RunningJob>> run(double seconds) {
    std::vector<std::unique_ptr<RunningJob>> completed;
    const double dt = config_.tick;
    for (double t = dt; t <= seconds + 1e-9; t += dt) {
      now_ += dt;
      auto outcome = node_.tick(now_, dt, rng_);
      for (auto& job : outcome.completed) completed.push_back(std::move(job));
    }
    return completed;
  }

  ClusterConfig config_;
  Workstation node_;
  sim::Rng rng_{1};
  double now_ = 0.0;
};

TEST_F(WorkstationTest, UserMemoryExcludesKernel) {
  EXPECT_EQ(node_.user_memory(), megabytes(384) - megabytes(16));
}

TEST_F(WorkstationTest, EmptyNodeHasFullIdleMemory) {
  EXPECT_EQ(node_.idle_memory(), node_.user_memory());
  EXPECT_EQ(node_.active_jobs(), 0);
  EXPECT_EQ(node_.overcommit(), 0.0);
  EXPECT_FALSE(node_.memory_pressured());
}

TEST_F(WorkstationTest, SingleJobRunsAtFullSpeed) {
  auto spec = make_spec(1, 10.0, megabytes(50));
  node_.add_job(make_job(spec));
  auto completed = run(10.0);
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_NEAR(completed[0]->t_cpu, 10.0, 0.02);
  EXPECT_NEAR(completed[0]->t_page, 0.0, 1e-9);
  EXPECT_NEAR(completed[0]->t_queue, 0.0, 0.02);
}

TEST_F(WorkstationTest, TwoJobsShareCpuRoundRobin) {
  auto spec_a = make_spec(1, 5.0, megabytes(50));
  auto spec_b = make_spec(2, 5.0, megabytes(50));
  node_.add_job(make_job(spec_a));
  node_.add_job(make_job(spec_b));
  auto completed = run(10.5);
  ASSERT_EQ(completed.size(), 2u);
  // Each needs 5 s CPU at half speed -> ~10 s wall; queue ~ cpu time.
  for (const auto& job : completed) {
    EXPECT_NEAR(job->t_cpu, 5.0, 0.05);
    EXPECT_NEAR(job->t_queue, 5.0, 0.15);  // includes context-switch overhead
  }
}

TEST_F(WorkstationTest, ContextSwitchOverheadSlowsSharedExecution) {
  // With quantum 10 ms and switch 0.1 ms, two jobs of 5 s CPU take slightly
  // more than 10 s in total.
  auto spec_a = make_spec(1, 5.0, megabytes(10));
  auto spec_b = make_spec(2, 5.0, megabytes(10));
  node_.add_job(make_job(spec_a));
  node_.add_job(make_job(spec_b));
  auto first = run(10.0);
  EXPECT_TRUE(first.empty() || first.size() < 2u);  // not both done at exactly 10 s
  run(0.3);
  EXPECT_EQ(node_.active_jobs(), 0);
}

TEST_F(WorkstationTest, NoOvercommitNoFaults) {
  auto spec = make_spec(1, 5.0, megabytes(200), /*touch_rate=*/500.0);
  node_.add_job(make_job(spec));
  auto completed = run(5.5);
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0]->faults, 0.0);
  EXPECT_EQ(completed[0]->t_page, 0.0);
}

TEST_F(WorkstationTest, OvercommitGeneratesFaultsAndPageTime) {
  auto spec_a = make_spec(1, 50.0, megabytes(250), 100.0);
  auto spec_b = make_spec(2, 50.0, megabytes(250), 100.0);
  node_.add_job(make_job(spec_a));
  node_.add_job(make_job(spec_b));
  run(10.0);
  EXPECT_GT(node_.overcommit(), 0.0);
  EXPECT_GT(node_.fault_rate(), 0.0);
  EXPECT_GT(resident_faults(node_), 0.0);
  const RunningJob* job = node_.find_job(1);
  ASSERT_NE(job, nullptr);
  EXPECT_GT(job->t_page, 0.0);
  EXPECT_GT(job->faults, 0.0);
}

TEST_F(WorkstationTest, HigherTouchRateFaultsMore) {
  auto spec_a = make_spec(1, 50.0, megabytes(250), 50.0);
  auto spec_b = make_spec(2, 50.0, megabytes(250), 500.0);
  node_.add_job(make_job(spec_a));
  node_.add_job(make_job(spec_b));
  run(10.0);
  const RunningJob* calm = node_.find_job(1);
  const RunningJob* hot = node_.find_job(2);
  ASSERT_TRUE(calm && hot);
  EXPECT_GT(hot->faults, calm->faults * 2.0);
  // The hot job also makes less progress: its stalls eat its own turn.
  EXPECT_LT(hot->cpu_done, calm->cpu_done);
}

TEST_F(WorkstationTest, OvercommitMatchesDefinition) {
  auto spec_a = make_spec(1, 100.0, megabytes(300));
  auto spec_b = make_spec(2, 100.0, megabytes(200));
  node_.add_job(make_job(spec_a));
  node_.add_job(make_job(spec_b));
  const double resident = 500.0;
  const double user = 368.0;
  EXPECT_NEAR(node_.overcommit(), (resident - user) / resident, 1e-9);
  EXPECT_TRUE(node_.memory_pressured());
}

TEST_F(WorkstationTest, AccountingIdentityHoldsPerJob) {
  auto spec_a = make_spec(1, 7.0, megabytes(250), 200.0);
  auto spec_b = make_spec(2, 9.0, megabytes(250), 200.0);
  node_.add_job(make_job(spec_a));
  node_.add_job(make_job(spec_b));
  auto completed = run(60.0);
  ASSERT_EQ(completed.size(), 2u);
  for (const auto& job : completed) {
    const double wall = job->accounted_until - 0.0;
    EXPECT_NEAR(job->t_cpu + job->t_page + job->t_queue + job->t_mig, wall, 0.02)
        << "job " << job->id();
    EXPECT_NEAR(job->cpu_done, job->spec.cpu_seconds, 1e-6);
  }
}

TEST_F(WorkstationTest, SuspendedJobsAccrueQueueOnly) {
  auto spec = make_spec(1, 5.0, megabytes(100));
  RunningJob& job = node_.add_job(make_job(spec));
  node_.set_job_phase(job, JobPhase::kSuspended);
  run(2.0);
  EXPECT_EQ(job.cpu_done, 0.0);
  EXPECT_NEAR(job.t_queue, 2.0, 1e-6);
  EXPECT_EQ(node_.active_jobs(), 0);  // suspended jobs hold no slot
}

TEST_F(WorkstationTest, SuspendedJobsFreeMemory) {
  auto spec = make_spec(1, 5.0, megabytes(200));
  RunningJob& job = node_.add_job(make_job(spec));
  EXPECT_EQ(node_.resident_demand(), megabytes(200));
  node_.set_job_phase(job, JobPhase::kSuspended);
  EXPECT_EQ(node_.resident_demand(), 0);
}

TEST_F(WorkstationTest, MigratingJobsHoldMemoryButGetNoCpu) {
  auto spec = make_spec(1, 5.0, megabytes(200));
  RunningJob& job = node_.add_job(make_job(spec));
  node_.set_job_phase(job, JobPhase::kMigrating);
  run(2.0);
  EXPECT_EQ(job.cpu_done, 0.0);
  EXPECT_EQ(node_.resident_demand(), megabytes(200));
  EXPECT_EQ(node_.active_jobs(), 1);  // still occupies its slot
}

TEST_F(WorkstationTest, IncomingReservationsCountTowardCommitted) {
  node_.add_incoming(42, megabytes(100));
  EXPECT_EQ(node_.committed_demand(), megabytes(100));
  EXPECT_EQ(node_.incoming_count(), 1);
  EXPECT_EQ(node_.slots_used(), 1);
  EXPECT_EQ(node_.active_jobs(), 0);
  EXPECT_TRUE(node_.remove_incoming(42));
  EXPECT_EQ(node_.committed_demand(), 0);
  EXPECT_EQ(node_.slots_used(), 0);
}

TEST_F(WorkstationTest, RemoveIncomingReportsMissWithoutTouchingState) {
  node_.add_incoming(7, megabytes(40));
  EXPECT_FALSE(node_.remove_incoming(8));  // absent id: reservation stays intact
  EXPECT_EQ(node_.incoming_count(), 1);
  EXPECT_EQ(node_.incoming_bytes(), megabytes(40));
  EXPECT_TRUE(node_.remove_incoming(7));
  EXPECT_FALSE(node_.remove_incoming(7));  // double-release is a miss, not a corruption
  EXPECT_EQ(node_.incoming_count(), 0);
  EXPECT_EQ(node_.incoming_bytes(), 0);
}

// The aggregates (resident demand, active/runnable counts) are maintained
// incrementally; walk a job through every phase transition and removal and
// check each one against the definitions.
TEST_F(WorkstationTest, AggregatesTrackPhaseTransitions) {
  auto spec_a = make_spec(1, 100.0, megabytes(200));
  auto spec_b = make_spec(2, 100.0, megabytes(100));
  RunningJob& a = node_.add_job(make_job(spec_a));
  node_.add_job(make_job(spec_b));
  EXPECT_EQ(node_.resident_demand(), megabytes(300));
  EXPECT_EQ(node_.active_jobs(), 2);
  EXPECT_EQ(node_.runnable_jobs(), 2);
  EXPECT_EQ(node_.migrating_jobs(), 0);

  node_.set_job_phase(a, JobPhase::kSuspended);
  EXPECT_EQ(node_.resident_demand(), megabytes(100));
  EXPECT_EQ(node_.active_jobs(), 1);
  EXPECT_EQ(node_.runnable_jobs(), 1);

  node_.set_job_phase(a, JobPhase::kRunning);
  EXPECT_EQ(node_.resident_demand(), megabytes(300));
  EXPECT_EQ(node_.active_jobs(), 2);
  EXPECT_EQ(node_.runnable_jobs(), 2);

  node_.set_job_phase(a, JobPhase::kMigrating);
  EXPECT_EQ(node_.resident_demand(), megabytes(300));  // image still resident
  EXPECT_EQ(node_.active_jobs(), 2);                   // still holds its slot
  EXPECT_EQ(node_.runnable_jobs(), 1);
  EXPECT_EQ(node_.migrating_jobs(), 1);

  auto removed = node_.remove_job(1);
  ASSERT_NE(removed, nullptr);
  EXPECT_EQ(node_.resident_demand(), megabytes(100));
  EXPECT_EQ(node_.active_jobs(), 1);
  EXPECT_EQ(node_.runnable_jobs(), 1);
  EXPECT_EQ(node_.migrating_jobs(), 0);
}

// Removing a suspended job must not disturb the aggregates it is absent from.
TEST_F(WorkstationTest, RemovingSuspendedJobLeavesAggregatesAlone) {
  auto spec_a = make_spec(1, 100.0, megabytes(200));
  auto spec_b = make_spec(2, 100.0, megabytes(100));
  RunningJob& a = node_.add_job(make_job(spec_a));
  node_.add_job(make_job(spec_b));
  node_.set_job_phase(a, JobPhase::kSuspended);
  auto removed = node_.remove_job(1);
  ASSERT_NE(removed, nullptr);
  EXPECT_EQ(node_.resident_demand(), megabytes(100));
  EXPECT_EQ(node_.active_jobs(), 1);
  EXPECT_EQ(node_.runnable_jobs(), 1);
}

TEST_F(WorkstationTest, AcceptsNewJobHonorsCpuThreshold) {
  std::vector<workload::JobSpec> specs;
  specs.reserve(static_cast<size_t>(config_.cpu_threshold));
  for (int i = 0; i < config_.cpu_threshold; ++i) {
    specs.push_back(make_spec(static_cast<workload::JobId>(i + 1), 100.0, megabytes(1)));
  }
  for (auto& spec : specs) node_.add_job(make_job(spec));
  EXPECT_EQ(node_.free_slots(), 0);
  EXPECT_FALSE(node_.accepts_new_job(0));
}

TEST_F(WorkstationTest, AcceptsNewJobHonorsMemoryThreshold) {
  const Bytes limit = static_cast<Bytes>(config_.memory_threshold *
                                         static_cast<double>(node_.user_memory()));
  auto spec = make_spec(1, 100.0, limit - megabytes(10));
  node_.add_job(make_job(spec));
  EXPECT_FALSE(node_.accepts_new_job(megabytes(20)));
  EXPECT_TRUE(node_.accepts_new_job(megabytes(1)));
}

TEST_F(WorkstationTest, ReservedNodeRefusesJobs) {
  node_.set_reserved(true);
  EXPECT_FALSE(node_.accepts_new_job(0));
  node_.set_reserved(false);
  EXPECT_TRUE(node_.accepts_new_job(0));
}

TEST_F(WorkstationTest, MostMemoryIntensiveJobSelection) {
  auto small = make_spec(1, 10.0, megabytes(50));
  auto big = make_spec(2, 10.0, megabytes(200));
  auto mid = make_spec(3, 10.0, megabytes(100));
  node_.add_job(make_job(small));
  node_.add_job(make_job(big));
  node_.add_job(make_job(mid));
  RunningJob* most = node_.most_memory_intensive_job();
  ASSERT_NE(most, nullptr);
  EXPECT_EQ(most->id(), 2u);
}

TEST_F(WorkstationTest, MostMemoryIntensiveSkipsMigrating) {
  auto big = make_spec(1, 10.0, megabytes(200));
  auto small = make_spec(2, 10.0, megabytes(50));
  RunningJob& big_job = node_.add_job(make_job(big));
  node_.add_job(make_job(small));
  node_.set_job_phase(big_job, JobPhase::kMigrating);
  RunningJob* most = node_.most_memory_intensive_job();
  ASSERT_NE(most, nullptr);
  EXPECT_EQ(most->id(), 2u);
}

TEST_F(WorkstationTest, RemoveJobReturnsOwnership) {
  auto spec = make_spec(1, 10.0, megabytes(50));
  node_.add_job(make_job(spec));
  auto removed = node_.remove_job(1);
  ASSERT_NE(removed, nullptr);
  EXPECT_EQ(removed->id(), 1u);
  EXPECT_EQ(node_.remove_job(1), nullptr);
  EXPECT_EQ(node_.find_job(1), nullptr);
}

TEST_F(WorkstationTest, FaultRateDecaysWhenLoadGone) {
  auto spec_a = make_spec(1, 100.0, megabytes(250), 300.0);
  auto spec_b = make_spec(2, 100.0, megabytes(250), 300.0);
  node_.add_job(make_job(spec_a));
  node_.add_job(make_job(spec_b));
  run(5.0);
  const double pressured_rate = node_.fault_rate();
  EXPECT_GT(pressured_rate, 0.0);
  node_.remove_job(1);
  node_.remove_job(2);
  run(10.0);
  EXPECT_LT(node_.fault_rate(), pressured_rate * 0.05);
}

TEST_F(WorkstationTest, SnapshotReflectsState) {
  auto spec = make_spec(1, 10.0, megabytes(100));
  node_.add_job(make_job(spec));
  node_.add_incoming(2, megabytes(50));
  LoadInfo info = node_.snapshot(12.5);
  EXPECT_EQ(info.node, 0u);
  EXPECT_EQ(info.timestamp, 12.5);
  EXPECT_EQ(info.slots_used, 2);
  EXPECT_EQ(info.idle_memory, node_.user_memory() - megabytes(150));
  EXPECT_FALSE(info.reserved);
  EXPECT_FALSE(info.pressured);
}

TEST_F(WorkstationTest, SlowerNodeTakesProportionallyLonger) {
  ClusterConfig config = test_config();
  config.nodes[0].cpu_mhz = 200.0;  // half the 400 MHz reference
  Workstation slow(0, config.nodes[0], config);
  auto spec = make_spec(1, 4.0, megabytes(50));
  slow.add_job(make_job(spec));
  sim::Rng rng(1);
  double now = 0.0;
  int completed = 0;
  for (int i = 0; i < 900; ++i) {  // 9 s
    now += config.tick;
    completed += static_cast<int>(slow.tick(now, config.tick, rng).completed.size());
  }
  EXPECT_EQ(completed, 1);  // 4 ref-seconds at half speed ~ 8 s wall
  EXPECT_GE(now, 8.0);
}

TEST_F(WorkstationTest, DemandFollowsProfileGrowth) {
  workload::JobSpec spec;
  spec.id = 1;
  spec.cpu_seconds = 10.0;
  spec.memory = workload::MemoryProfile::phased(
      {{0.0, megabytes(10)}, {1.0, megabytes(110)}});
  RunningJob& job = node_.add_job(make_job(spec));
  EXPECT_EQ(job.demand, megabytes(10));
  run(5.0);  // ~50% progress
  EXPECT_GT(job.demand, megabytes(50));
  EXPECT_LT(job.demand, megabytes(70));
}

// --- steady workstations: park horizon and exact replay (DESIGN.md §12.6) ---

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Places a copy of each spec's job on `node` (the first one width-2 when
/// `wide_first`), then runs one normal tick so every job's accounted_until
/// is the tick time, as after any tick that could park the node. Returns the
/// time of that tick.
SimTime seat_jobs(Workstation& node, const std::deque<workload::JobSpec>& specs,
                  const std::vector<double>& done, bool wide_first, SimTime start,
                  SimTime dt, sim::Rng& rng) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    auto job = make_job(specs[i]);
    job->cpu_done = done[i];
    job->accounted_until = start;
    if (wide_first && i == 0) job->width = 2;
    node.add_job(std::move(job));
  }
  const SimTime now = start + dt;
  EXPECT_TRUE(node.tick(now, dt, rng).completed.empty());
  return now;
}

void expect_same_state(const Workstation& ticked, const Workstation& replayed) {
  ASSERT_EQ(ticked.jobs().size(), replayed.jobs().size());
  for (std::size_t i = 0; i < ticked.jobs().size(); ++i) {
    const RunningJob& a = *ticked.jobs()[i];
    const RunningJob& b = *replayed.jobs()[i];
    EXPECT_TRUE(same_bits(a.cpu_done, b.cpu_done)) << "job " << i;
    EXPECT_TRUE(same_bits(a.t_cpu, b.t_cpu)) << "job " << i;
    EXPECT_TRUE(same_bits(a.t_page, b.t_page)) << "job " << i;
    EXPECT_TRUE(same_bits(a.t_queue, b.t_queue)) << "job " << i;
    EXPECT_TRUE(same_bits(a.t_mig, b.t_mig)) << "job " << i;
    EXPECT_TRUE(same_bits(a.faults, b.faults)) << "job " << i;
    EXPECT_TRUE(same_bits(a.width_seconds, b.width_seconds)) << "job " << i;
    EXPECT_TRUE(same_bits(a.accounted_until, b.accounted_until)) << "job " << i;
    EXPECT_EQ(a.demand, b.demand) << "job " << i;
  }
  EXPECT_EQ(ticked.resident_demand(), replayed.resident_demand());
  EXPECT_TRUE(same_bits(ticked.fault_rate(), replayed.fault_rate()));
}

/// The job accumulators a steady tick moves.
std::vector<double> moving_sums(const RunningJob& job) {
  return {job.cpu_done, job.t_cpu, job.t_queue, job.width_seconds};
}

TEST(SteadyReplayTest, ReplayMatchesTicksBitForBit) {
  struct Stretch {
    SimTime start;
    std::uint64_t ticks;
    double cpu_seconds;  // the first job's; each later one is 100 s longer
  };
  // Just below 2048 s, across one binade of T, where the tick walls change
  // value; then 10^6 ticks from 1500 s, across the binades at 2048, 4096 and
  // 8192 s and at least two binades of every accumulator that moves.
  const Stretch stretches[] = {{2047.9, 25000, 900.0}, {1500.0, 1000000, 30000.0}};
  for (const Stretch& stretch : stretches) {
    for (const double mhz : {400.0, 233.0}) {  // the reference speed, then a slower node
      for (std::size_t jobs = 1; jobs <= 5; ++jobs) {
        SCOPED_TRACE(testing::Message() << stretch.ticks << " ticks from " << stretch.start
                                        << " s, " << mhz << " MHz, " << jobs << " jobs");
        ClusterConfig config = test_config();
        config.nodes[0].cpu_mhz = mhz;
        const SimTime dt = config.tick;
        std::deque<workload::JobSpec> specs;
        std::vector<double> done;
        done.reserve(jobs);
        for (std::size_t i = 0; i < jobs; ++i) {
          const double index = static_cast<double>(i);
          specs.push_back(make_spec(static_cast<workload::JobId>(i + 1),
                                    stretch.cpu_seconds + 100.0 * index, megabytes(40)));
          done.push_back(3.0 * index);
        }
        specs[0].malleability.min_width = 1;
        specs[0].malleability.max_width = 2;
        Workstation ticked(0, config.nodes[0], config);
        Workstation replayed(0, config.nodes[0], config);
        sim::Rng rng_a(1);
        sim::Rng rng_b(1);
        SimTime now = seat_jobs(ticked, specs, done, true, stretch.start, dt, rng_a);
        const SimTime parked_at = seat_jobs(replayed, specs, done, true, stretch.start, dt, rng_b);
        ASSERT_GE(replayed.steady_ticks(parked_at, dt), stretch.ticks);
        std::vector<std::vector<double>> before;
        for (const auto& job : replayed.jobs()) before.push_back(moving_sums(*job));
        for (std::uint64_t i = 0; i < stretch.ticks; ++i) {
          now += dt;
          ASSERT_TRUE(ticked.tick(now, dt, rng_a).completed.empty());
        }
        EXPECT_TRUE(same_bits(replayed.replay(parked_at, dt, stretch.ticks), now));
        expect_same_state(ticked, replayed);
        if (stretch.ticks < 1000000) continue;
        EXPECT_GE(std::ilogb(now), std::ilogb(parked_at) + 2);
        for (std::size_t j = 0; j < jobs; ++j) {
          const std::vector<double> after = moving_sums(*replayed.jobs()[j]);
          for (std::size_t k = 0; k < after.size(); ++k) {
            ASSERT_GT(before[j][k], 0.0) << "job " << j << ", sum " << k;
            EXPECT_GE(std::ilogb(after[k]), std::ilogb(before[j][k]) + 2)
                << "job " << j << ", sum " << k;
          }
        }
      }
    }
  }
}

TEST(SteadyReplayTest, HorizonNeverFinishesAJobOrLeavesAFlatStretch) {
  const ClusterConfig config = test_config();
  const SimTime dt = config.tick;
  sim::Rng draw(20240917);
  int parked = 0;
  int tight = 0;
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const std::size_t jobs = 1 + draw.uniform_index(3);
    std::deque<workload::JobSpec> specs;
    std::vector<double> done;
    done.reserve(jobs);
    for (std::size_t i = 0; i < jobs; ++i) {
      workload::JobSpec spec = make_spec(static_cast<workload::JobId>(i + 1),
                                         0.05 + 120.0 * draw.uniform(), 0);
      const Bytes peak = megabytes(20) + megabytes(80) * static_cast<Bytes>(draw.uniform_index(2));
      switch (draw.uniform_index(3)) {
        case 0:
          spec.memory = workload::MemoryProfile::ramp_to(peak, 0.1 + 0.5 * draw.uniform());
          break;
        case 1: {
          // Level, then a slope, then level again.
          const double a = 0.1 + 0.3 * draw.uniform();
          const double b = a + 0.1 + 0.3 * draw.uniform();
          spec.memory = workload::MemoryProfile::phased(
              {{0.0, megabytes(10)}, {a, megabytes(10)}, {b, peak}, {1.0, peak}});
          break;
        }
        default:
          spec.memory = workload::MemoryProfile::constant(peak);
          break;
      }
      if (draw.uniform_index(2) == 0) {
        spec.malleability.min_width = 1;
        spec.malleability.max_width = 2;
      }
      done.push_back((spec.cpu_seconds - 0.05) * draw.uniform());  // more than a tick left
      specs.push_back(std::move(spec));
    }
    Workstation ticked(0, config.nodes[0], config);
    Workstation replayed(0, config.nodes[0], config);
    sim::Rng rng_a(1);
    sim::Rng rng_b(1);
    const bool wide = specs[0].malleability.max_width == 2;
    const SimTime start = 100.0 * draw.uniform();
    SimTime now = seat_jobs(ticked, specs, done, wide, start, dt, rng_a);
    const SimTime parked_at = seat_jobs(replayed, specs, done, wide, start, dt, rng_b);
    bool flat = false;
    const std::uint64_t horizon = replayed.steady_ticks(parked_at, dt, &flat);
    if (horizon == 0) continue;
    ++parked;
    std::vector<Bytes> demand;
    demand.reserve(jobs);
    for (const auto& job : ticked.jobs()) demand.push_back(job->demand);
    for (std::uint64_t i = 0; i < horizon; ++i) {
      now += dt;
      ASSERT_TRUE(ticked.tick(now, dt, rng_a).completed.empty()) << "tick " << i;
      ASSERT_LE(ticked.resident_demand(), ticked.user_memory()) << "tick " << i;
      // A flat park never leaves its flat stretch.
      for (std::size_t j = 0; flat && j < demand.size(); ++j) {
        ASSERT_EQ(ticked.jobs()[j]->demand, demand[j]) << "tick " << i << ", job " << j;
      }
    }
    replayed.replay(parked_at, dt, horizon);
    expect_same_state(ticked, replayed);
    // The bound is close: every profile here is non-decreasing and the
    // demands stay within user memory, so a job finishes within a few more
    // ticks.
    for (int extra = 0; extra < 3; ++extra) {
      now += dt;
      if (!ticked.tick(now, dt, rng_a).completed.empty()) {
        ++tight;
        break;
      }
    }
  }
  EXPECT_GT(parked, 50);  // most draws have more than two ticks of work left
  EXPECT_GT(tight, parked * 9 / 10);
}

/// Raises the fault EMA of `node`, seated with every job of `specs` at tick
/// `now`: a paging job joins it for `ticks` ticks and leaves, and one more
/// tick integrates every job up to the returned time with the EMA decaying.
SimTime charge_fault_ema(Workstation& node, const workload::JobSpec& pager, SimTime now,
                         SimTime dt, int ticks, sim::Rng& rng) {
  auto job = make_job(pager);
  job->accounted_until = now;
  node.add_job(std::move(job));
  for (int i = 0; i < ticks; ++i) {
    now += dt;
    EXPECT_TRUE(node.tick(now, dt, rng).completed.empty());
  }
  node.remove_job(pager.id);
  now += dt;
  EXPECT_TRUE(node.tick(now, dt, rng).completed.empty());
  return now;
}

// Which jobs of a seated node only wait through a parked stretch.
enum class Waiting {
  kNone,  // every job runs
  kOne,   // one more job waits beside the running ones
  kAll,   // every job waits: no runnable slot is left
};

// Ramps and phased profiles park too (DESIGN.md §12.6): the replay sets each
// running job's demand from its final progress and the resident sum from the
// demands, and decays a non-zero fault EMA as tick() does. Jobs that are
// suspended, migrating or resizing park with them: a suspended job queues
// for every replayed tick, and a migrating or resizing one keeps its
// accumulators, its demand and its accounted_until at the transfer start.
// On random draws of 1-5 jobs, with the EMA at 0 or decaying, and with no
// job, one more job or every job waiting, the replay must match tick-by-tick
// integration bit for bit, no horizon may finish a job or push the resident
// demand past user memory, and a park reported flat moves no demand.
TEST(SteadyReplayTest, RampReplayMatchesTicksBitForBit) {
  ClusterConfig config = test_config();
  config.fault_rate_threshold = 1e9;  // a decaying EMA alone never pressures
  const SimTime dt = config.tick;
  const Bytes user = config.nodes[0].memory - config.nodes[0].kernel_reserved;
  workload::JobSpec pager = make_spec(99, 1e6, user, 400.0);
  const JobPhase waits[] = {JobPhase::kSuspended, JobPhase::kMigrating, JobPhase::kResizing};
  sim::Rng draw(20261019);
  int parked = 0;
  int moving = 0;
  int decaying = 0;
  int memory_bound = 0;
  int parked_beside[3] = {0, 0, 0};  // Waiting::kOne parks, by the waiting phase
  int parked_idle = 0;               // Waiting::kAll parks
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const std::size_t jobs = 1 + draw.uniform_index(5);
    std::deque<workload::JobSpec> specs;
    std::vector<double> done;
    done.reserve(jobs);
    for (std::size_t i = 0; i < jobs; ++i) {
      workload::JobSpec spec = make_spec(static_cast<workload::JobId>(i + 1),
                                         0.5 + 40.0 * draw.uniform(), 0);
      const Bytes peak = megabytes(20) + megabytes(10) * static_cast<Bytes>(draw.uniform_index(14));
      const double a = 0.05 + 0.4 * draw.uniform();
      const double b = a + 0.05 + 0.4 * draw.uniform();
      switch (draw.uniform_index(3)) {
        case 0:
          spec.memory = workload::MemoryProfile::ramp_to(peak, a);
          break;
        case 1:
          // The catalog's shape: a fast ramp, then steady growth to the peak.
          spec.memory = workload::MemoryProfile::phased(
              {{0.0, megabytes(4)}, {a, peak / 2}, {1.0, peak}});
          break;
        default:
          // Rises to the peak, then falls back: the stretch ends at b.
          spec.memory = workload::MemoryProfile::phased(
              {{0.0, megabytes(4)}, {b, peak}, {1.0, peak / 3}});
          break;
      }
      if (draw.uniform_index(2) == 0) {
        spec.malleability.min_width = 1;
        spec.malleability.max_width = 2;
      }
      done.push_back((spec.cpu_seconds - 0.05) * draw.uniform());
      specs.push_back(std::move(spec));
    }
    const bool wide = specs[0].malleability.max_width == 2;
    const bool charge = draw.uniform_index(2) == 0;
    const SimTime start = 100.0 * draw.uniform();
    for (const Waiting waiting : {Waiting::kNone, Waiting::kOne, Waiting::kAll}) {
      SCOPED_TRACE(testing::Message() << "waiting " << static_cast<int>(waiting));
      std::deque<workload::JobSpec> seated = specs;
      std::vector<double> seated_done = done;
      if (waiting == Waiting::kOne) {
        // A copy of the first job, on the same ramp: ticked as a running
        // job, its demand would move.
        seated.push_back(specs[0]);
        seated.back().id = 7;
        seated_done.push_back(done[0]);
      }
      Workstation ticked(0, config.nodes[0], config);
      Workstation replayed(0, config.nodes[0], config);
      sim::Rng rng_a(1);
      sim::Rng rng_b(1);
      SimTime now = seat_jobs(ticked, seated, seated_done, wide, start, dt, rng_a);
      SimTime parked_at = seat_jobs(replayed, seated, seated_done, wide, start, dt, rng_b);
      if (charge) {
        now = charge_fault_ema(ticked, pager, now, dt, 3, rng_a);
        parked_at = charge_fault_ema(replayed, pager, parked_at, dt, 3, rng_b);
        ASSERT_GT(replayed.fault_rate(), 0.0);
      }
      // The waiting jobs enter their phases here, and one normal tick
      // follows, as after any phase change.
      const SimTime transfer_start = parked_at;
      const std::size_t first_waiting = waiting == Waiting::kAll ? 0 : seated.size() - 1;
      if (waiting != Waiting::kNone) {
        for (std::size_t j = first_waiting; j < seated.size(); ++j) {
          const JobPhase phase = waits[(static_cast<std::size_t>(trial) + j) % 3];
          ticked.set_job_phase(*ticked.jobs()[j], phase);
          replayed.set_job_phase(*replayed.jobs()[j], phase);
        }
        now += dt;
        parked_at += dt;
        const bool finished = !ticked.tick(now, dt, rng_a).completed.empty();
        if (!replayed.tick(parked_at, dt, rng_b).completed.empty() || finished) continue;
      }
      bool flat = false;
      const std::uint64_t horizon = replayed.steady_ticks(parked_at, dt, &flat);
      if (horizon == 0) continue;
      std::uint64_t ticks = horizon;
      switch (waiting) {
        case Waiting::kNone:
          ++parked;
          moving += flat ? 0 : 1;
          decaying += replayed.fault_rate() != 0.0 ? 1 : 0;
          break;
        case Waiting::kOne:
          ++parked_beside[(static_cast<std::size_t>(trial) + seated.size() - 1) % 3];
          break;
        case Waiting::kAll:
          // Nothing runs, so only the cap on a park's length ends it.
          ++parked_idle;
          EXPECT_EQ(horizon, std::uint64_t{1} << 31);
          EXPECT_EQ(flat, replayed.fault_rate() == 0.0);
          ticks = 3000;
          break;
      }
      EXPECT_TRUE(!flat || replayed.fault_rate() == 0.0);
      std::vector<Bytes> demand;
      for (const auto& job : ticked.jobs()) demand.push_back(job->demand);
      for (std::uint64_t i = 0; i < ticks; ++i) {
        now += dt;
        ASSERT_TRUE(ticked.tick(now, dt, rng_a).completed.empty()) << "tick " << i;
        ASSERT_LE(ticked.resident_demand(), ticked.user_memory()) << "tick " << i;
        for (std::size_t j = 0; flat && j < demand.size(); ++j) {
          ASSERT_EQ(ticked.jobs()[j]->demand, demand[j]) << "tick " << i << ", job " << j;
        }
      }
      EXPECT_TRUE(same_bits(replayed.replay(parked_at, dt, ticks), now));
      expect_same_state(ticked, replayed);
      for (std::size_t j = first_waiting; waiting != Waiting::kNone && j < seated.size(); ++j) {
        const RunningJob& job = *replayed.jobs()[j];
        const bool in_transfer = job.phase != JobPhase::kSuspended;
        EXPECT_TRUE(same_bits(job.accounted_until, in_transfer ? transfer_start : now))
            << "job " << j;
      }
      if (waiting != Waiting::kNone) continue;
      // The horizon stopped short of user memory, not of a finish.
      Workstation::TickOutcome next = ticked.tick(now + dt, dt, rng_a);
      if (next.completed.empty() && ticked.resident_demand() > ticked.user_memory()) {
        ++memory_bound;
      }
    }
  }
  // At this seed, with every job running: 233 parks, 216 moving, 116 with a
  // decaying EMA, 12 ended by user memory. With one job waiting beside them:
  // 73 parks with it suspended, 57 migrating and 87 resizing. With every job
  // waiting: 399.
  EXPECT_GT(parked, 150);
  EXPECT_GT(moving, 150);
  EXPECT_GT(decaying, 75);
  EXPECT_GT(memory_bound, 5);
  for (const int parks : parked_beside) EXPECT_GT(parks, 30);
  EXPECT_GT(parked_idle, 300);
}

// A node that paged keeps a fault EMA that decays toward 0 but stalls short
// of it: with fault_rate_tau 2 s and 10 ms ticks, at 100 units of 2^-1074,
// about 150,000 ticks on, where the update rounds back to the same value.
// The replay stops decaying there; ticking keeps applying the update, and
// both must end on the same bits.
TEST(SteadyReplayTest, ReplayStopsTheEmaAtItsFixedPoint) {
  ClusterConfig config = test_config();
  config.fault_rate_threshold = 1e9;  // a decaying EMA alone never pressures
  const SimTime dt = config.tick;
  const Bytes user = config.nodes[0].memory - config.nodes[0].kernel_reserved;
  const workload::JobSpec pager = make_spec(99, 1e6, user, 400.0);
  const std::deque<workload::JobSpec> specs = {make_spec(1, 10000.0, megabytes(40))};
  Workstation ticked(0, config.nodes[0], config);
  Workstation replayed(0, config.nodes[0], config);
  sim::Rng rng_a(1);
  sim::Rng rng_b(1);
  SimTime now = seat_jobs(ticked, specs, {0.0}, false, 0.0, dt, rng_a);
  SimTime parked_at = seat_jobs(replayed, specs, {0.0}, false, 0.0, dt, rng_b);
  now = charge_fault_ema(ticked, pager, now, dt, 100, rng_a);
  parked_at = charge_fault_ema(replayed, pager, parked_at, dt, 100, rng_b);
  ASSERT_GT(replayed.fault_rate(), 1.0);
  const std::uint64_t ticks = 200000;
  ASSERT_GE(replayed.steady_ticks(parked_at, dt), ticks);
  for (std::uint64_t i = 0; i < ticks; ++i) {
    now += dt;
    ASSERT_TRUE(ticked.tick(now, dt, rng_a).completed.empty());
  }
  EXPECT_TRUE(same_bits(replayed.replay(parked_at, dt, ticks), now));
  expect_same_state(ticked, replayed);
  // The stretch ran past the fixed point: a subnormal EMA that one more
  // tick leaves in place. It is not 0, so the node parks as moving, never
  // flat.
  const double stalled = replayed.fault_rate();
  EXPECT_GT(stalled, 0.0);
  EXPECT_LT(stalled, std::numeric_limits<double>::min());
  bool flat = true;
  EXPECT_GT(replayed.steady_ticks(now, dt, &flat), 0u);
  EXPECT_FALSE(flat);
  ASSERT_TRUE(ticked.tick(now + dt, dt, rng_a).completed.empty());
  EXPECT_TRUE(same_bits(ticked.fault_rate(), stalled));
}

TEST(SteadyReplayTest, HorizonEdgeCases) {
  const ClusterConfig config = test_config();
  const SimTime dt = config.tick;
  const SimTime now = 10.0;
  // One job with `done` reference-CPU seconds behind it, integrated up to now.
  const auto horizon = [&](const workload::JobSpec& spec, double done) {
    Workstation node(0, config.nodes[0], config);
    auto job = make_job(spec);
    job->cpu_done = done;
    job->accounted_until = now;
    node.add_job(std::move(job));
    return node.steady_ticks(now, dt);
  };
  // Exactly on a breakpoint where the profile starts to fall: no room.
  workload::JobSpec rise_then_fall = make_spec(1, 100.0, 0);
  rise_then_fall.memory = workload::MemoryProfile::phased(
      {{0.0, megabytes(10)}, {0.5, megabytes(60)}, {1.0, megabytes(10)}});
  EXPECT_EQ(horizon(rise_then_fall, 50.0), 0u);
  // Just before it, the horizon stops short of the breakpoint.
  EXPECT_EQ(horizon(rise_then_fall, 50.0 - 0.05), 3u);
  // Exactly on a breakpoint where a level stretch starts to rise: the
  // demand only grows from there, so there is room to the finish.
  workload::JobSpec level_then_slope = make_spec(1, 100.0, 0);
  level_then_slope.memory = workload::MemoryProfile::phased(
      {{0.0, megabytes(10)}, {0.5, megabytes(10)}, {1.0, megabytes(60)}});
  EXPECT_EQ(horizon(level_then_slope, 50.0), 4998u);
  // Exactly on the ramp's end, where the plateau begins: room to the finish.
  workload::JobSpec ramp = make_spec(1, 100.0, 0);
  ramp.memory = workload::MemoryProfile::ramp_to(megabytes(60), 0.5);
  EXPECT_EQ(horizon(ramp, 50.0), 4998u);
  // A ramp past user memory (368 MB): the horizon ends before the demand
  // could pass it, 368 / 400 of the way up, at tick 9200.
  workload::JobSpec big_ramp = make_spec(1, 100.0, 0);
  big_ramp.memory = workload::MemoryProfile::phased({{0.0, 0}, {1.0, megabytes(400)}});
  EXPECT_EQ(horizon(big_ramp, 0.0), 9199u);
  // Less than one tick of work left: the next tick finishes the job.
  EXPECT_EQ(horizon(make_spec(1, 10.0, megabytes(10)), 10.0 - 0.005), 0u);
}

TEST(SteadyReplayTest, SteadyCheckRejectsUnsteadyNodes) {
  const ClusterConfig config = test_config();
  const SimTime dt = config.tick;
  sim::Rng rng(1);
  const std::deque<workload::JobSpec> specs = {make_spec(1, 100.0, megabytes(100)),
                                               make_spec(2, 100.0, megabytes(100))};
  const auto seated = [&](Workstation& node) {
    return seat_jobs(node, specs, {0.0, 0.0}, false, 0.0, dt, rng);
  };
  std::uint64_t baseline = 0;
  {
    Workstation node(0, config.nodes[0], config);
    baseline = node.steady_ticks(seated(node), dt);
    EXPECT_GT(baseline, 0u);  // the baseline parks
  }
  // A job that only waits does not keep the node ticking, and with one
  // job fewer sharing the CPU the other runs to its finish sooner.
  for (const JobPhase phase : {JobPhase::kSuspended, JobPhase::kMigrating, JobPhase::kResizing}) {
    Workstation node(0, config.nodes[0], config);
    const SimTime now = seated(node);
    node.set_job_phase(*node.jobs()[1], phase);
    const std::uint64_t horizon = node.steady_ticks(now, dt);
    EXPECT_GT(horizon, 0u) << static_cast<int>(phase);
    EXPECT_LT(horizon, baseline) << static_cast<int>(phase);
  }
  {
    Workstation node(0, config.nodes[0], config);
    const SimTime now = seated(node);
    node.set_failed(true);
    EXPECT_EQ(node.steady_ticks(now, dt), 0u);
  }
  {
    // Overcommitted, even with no page touches (so no fault is counted).
    const std::deque<workload::JobSpec> big = {make_spec(1, 100.0, megabytes(250)),
                                               make_spec(2, 100.0, megabytes(250))};
    Workstation node(0, config.nodes[0], config);
    const SimTime now = seat_jobs(node, big, {0.0, 0.0}, false, 0.0, dt, rng);
    ASSERT_GT(node.overcommit(), 0.0);
    EXPECT_EQ(node.steady_ticks(now, dt), 0u);
  }
  {
    // A fault EMA above the threshold after the overcommit is gone: the EMA
    // alone pressures the node.
    const std::deque<workload::JobSpec> paging = {make_spec(1, 100.0, megabytes(250), 300.0),
                                                  make_spec(2, 100.0, megabytes(250), 300.0)};
    Workstation node(0, config.nodes[0], config);
    SimTime now = seat_jobs(node, paging, {0.0, 0.0}, false, 0.0, dt, rng);
    for (int i = 0; i < 200; ++i) {
      now += dt;
      node.tick(now, dt, rng);
    }
    node.remove_job(2);
    now += dt;
    node.tick(now, dt, rng);
    ASSERT_EQ(node.overcommit(), 0.0);
    ASSERT_GT(node.fault_rate(), config.fault_rate_threshold);
    EXPECT_EQ(node.steady_ticks(now, dt), 0u);
  }
}

}  // namespace
}  // namespace vrc::cluster
