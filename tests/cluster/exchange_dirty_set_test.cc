// Tests for the dirty-set incremental load exchange and active-set tick loop
// (DESIGN.md §12).
//
// The contract under test is *stale-but-identical*: the board is stale by
// design (policies must see exchange-period-old state), but after every
// exchange its content for live nodes must be value-identical to what a full
// rebroadcast of every node would have produced. Failed nodes are the one
// deliberate divergence: they publish exactly one final transition (the
// fail-time immediate broadcast) and stay frozen until the recovery
// broadcast, instead of a fresh snapshot per period while down.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/node_activity.h"
#include "sim/simulator.h"
#include "workload/trace.h"

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

// --- NodeBitset unit coverage ---------------------------------------------

TEST(NodeBitsetTest, InsertEraseCountContains) {
  NodeBitset set(200);
  EXPECT_EQ(set.count(), 0u);
  set.insert(0);
  set.insert(63);
  set.insert(64);
  set.insert(199);
  set.insert(63);  // duplicate insert must not double-count
  EXPECT_EQ(set.count(), 4u);
  EXPECT_TRUE(set.contains(63));
  EXPECT_FALSE(set.contains(1));
  set.erase(63);
  set.erase(63);  // duplicate erase must not underflow
  EXPECT_EQ(set.count(), 3u);
  EXPECT_FALSE(set.contains(63));
  set.set(5, true);
  set.set(5, false);
  EXPECT_FALSE(set.contains(5));
}

TEST(NodeBitsetTest, ForEachVisitsAscendingNodeIdOrder) {
  NodeBitset set(300);
  const std::vector<NodeId> members = {271, 0, 64, 63, 129, 5, 299};
  for (NodeId node : members) set.insert(node);
  std::vector<NodeId> visited;
  set.for_each([&](NodeId node) { visited.push_back(node); });
  EXPECT_EQ(visited, (std::vector<NodeId>{0, 5, 63, 64, 129, 271, 299}));
}

TEST(NodeBitsetTest, EraseAheadOfCursorDuringIterationIsHonored) {
  NodeBitset set(128);
  set.insert(1);
  set.insert(100);
  std::vector<NodeId> visited;
  set.for_each([&](NodeId node) {
    visited.push_back(node);
    if (node == 1) const_cast<NodeBitset&>(set).erase(100);
  });
  // Word 1 (ids 64..127) is read only when the cursor reaches it, so the
  // erase takes effect — exactly like a predicate turning false under the
  // old full scan.
  EXPECT_EQ(visited, (std::vector<NodeId>{1}));
}

TEST(NodeBitsetTest, DrainVisitsAscendingAndEmptiesTheSet) {
  NodeBitset set(130);
  for (NodeId node : {129u, 3u, 64u}) set.insert(node);
  std::vector<NodeId> drained;
  set.drain([&](NodeId node) { drained.push_back(node); });
  EXPECT_EQ(drained, (std::vector<NodeId>{3, 64, 129}));
  EXPECT_EQ(set.count(), 0u);
  EXPECT_FALSE(set.contains(64));
}

// --- randomized property: dirty-set board == full-rebroadcast board -------

/// Places arrivals on pseudo-random nodes (local or remote) and does nothing
/// on any other hook. on_periodic MUST stay a no-op: the policy task fires
/// between the exchange and the checker at shared timestamps, and a mutation
/// there would (correctly) make the board one action staler than the live
/// state the checker compares against.
class RandomPlacementPolicy : public SchedulerPolicy {
 public:
  explicit RandomPlacementPolicy(std::uint32_t seed) : rng_(seed) {}
  const char* name() const override { return "random-placement"; }

  void on_job_arrival(Cluster& cluster, RunningJob& job) override {
    const auto nodes = static_cast<std::uint32_t>(cluster.num_nodes());
    switch (rng_() % 4u) {
      case 0u:
      case 1u: {
        if (!cluster.node(job.home_node).failed()) cluster.place_local(job, job.home_node);
        break;
      }
      case 2u: {
        const NodeId target = static_cast<NodeId>(rng_() % nodes);
        if (!cluster.node(target).failed()) cluster.place_local(job, target);
        break;
      }
      default: {
        const NodeId target = static_cast<NodeId>(rng_() % nodes);
        if (!cluster.node(target).failed()) cluster.place_remote(job, target);
        break;
      }
    }
  }

 private:
  std::mt19937 rng_;
};

/// Fires pseudo-random cluster mutations (fail/recover, reserve toggles,
/// suspend/resume, migrations, and migrations whose source or destination is
/// crashed mid-transfer) at scheduled, deterministic instants.
class RandomDriver {
 public:
  RandomDriver(sim::Simulator& sim, Cluster& cluster, std::uint32_t seed)
      : sim_(sim), cluster_(cluster), rng_(seed ^ 0x9e3779b9u) {}

  void schedule_actions(int count, SimTime horizon) {
    for (int i = 0; i < count; ++i) {
      // Deterministic spread over the horizon, off the exchange grid (the
      // offset only matters for readability: setup-scheduled events fire
      // before any periodic task at a shared timestamp anyway).
      const SimTime at =
          horizon * (static_cast<SimTime>(i) + 0.5) / static_cast<SimTime>(count) + 0.0011;
      sim_.schedule_at(at, [this] { act(); });
    }
  }

 private:
  NodeId pick() { return static_cast<NodeId>(rng_() % cluster_.num_nodes()); }

  void act() {
    switch (rng_() % 8u) {
      case 0u: {  // fail (bounded so the cluster keeps doing useful work)
        const NodeId node = pick();
        if (!cluster_.node(node).failed() && failed_count() < cluster_.num_nodes() / 4) {
          cluster_.fail_node(node);
        }
        break;
      }
      case 1u:
      case 2u: {  // recover the first failed node at/after a random start
        const std::size_t n = cluster_.num_nodes();
        const std::size_t start = rng_() % n;
        for (std::size_t i = 0; i < n; ++i) {
          const NodeId node = static_cast<NodeId>((start + i) % n);
          if (cluster_.node(node).failed()) {
            cluster_.recover_node(node);
            break;
          }
        }
        break;
      }
      case 3u: {  // reservation flag toggle
        const NodeId node = pick();
        if (!cluster_.node(node).failed()) {
          cluster_.set_reserved(node, !cluster_.node(node).reserved());
        }
        break;
      }
      case 4u: {  // suspend or resume the first job somewhere
        const NodeId node = pick();
        const auto& jobs = cluster_.node(node).jobs();
        if (!jobs.empty()) {
          RunningJob& job = *jobs.front();
          if (job.phase == JobPhase::kRunning) {
            cluster_.suspend_job(node, job.id());
          } else if (job.phase == JobPhase::kSuspended) {
            cluster_.resume_job(node, job.id());
          }
        }
        break;
      }
      case 5u:
        start_migration();
        break;
      case 6u: {  // mid-transfer race: crash the destination in flight
        if (auto started = start_migration()) {
          const NodeId dst = started->second;
          sim_.schedule_at(sim_.now() + 0.021, [this, dst] {
            if (!cluster_.node(dst).failed()) cluster_.fail_node(dst);
          });
        }
        break;
      }
      default: {  // mid-transfer race: crash the source in flight
        if (auto started = start_migration()) {
          const NodeId src = started->first;
          sim_.schedule_at(sim_.now() + 0.017, [this, src] {
            if (!cluster_.node(src).failed()) cluster_.fail_node(src);
          });
        }
        break;
      }
    }
  }

  std::optional<std::pair<NodeId, NodeId>> start_migration() {
    const NodeId src = pick();
    const NodeId dst = pick();
    if (src == dst || cluster_.node(src).failed() || cluster_.node(dst).failed()) {
      return std::nullopt;
    }
    for (const auto& job : cluster_.node(src).jobs()) {
      if (job->phase != JobPhase::kRunning) continue;
      if (cluster_.start_migration(src, job->id(), dst)) return std::make_pair(src, dst);
      return std::nullopt;
    }
    return std::nullopt;
  }

  std::size_t failed_count() const {
    std::size_t count = 0;
    for (std::size_t i = 0; i < cluster_.num_nodes(); ++i) {
      if (cluster_.node(static_cast<NodeId>(i)).failed()) ++count;
    }
    return count;
  }

  sim::Simulator& sim_;
  Cluster& cluster_;
  std::mt19937 rng_;
};

/// The shadow-rebroadcast comparison, run right after each exchange: for
/// every live node the board entry must equal a freshly built snapshot in
/// every field except the publication timestamp (clean nodes legitimately
/// keep their old stamp); every failed node's entry must be flagged failed
/// (its other fields are frozen at the fail-time broadcast by design).
class BoardChecker {
 public:
  explicit BoardChecker(Cluster& cluster) : cluster_(cluster) {}

  void check(SimTime now) {
    ++checks_;
    Bytes live_idle = 0;
    std::size_t live = 0;
    for (std::size_t i = 0; i < cluster_.num_nodes(); ++i) {
      const NodeId node = static_cast<NodeId>(i);
      const Workstation& ws = cluster_.node(node);
      const LoadInfo& entry = cluster_.board().info(node);
      ASSERT_EQ(entry.failed, ws.failed()) << "node " << node << " t=" << now;
      if (ws.failed()) continue;
      const LoadInfo fresh = ws.snapshot(now);
      EXPECT_EQ(entry.slots_used, fresh.slots_used) << "node " << node << " t=" << now;
      EXPECT_EQ(entry.user_memory, fresh.user_memory) << "node " << node << " t=" << now;
      EXPECT_EQ(entry.idle_memory, fresh.idle_memory) << "node " << node << " t=" << now;
      EXPECT_EQ(entry.reserved, fresh.reserved) << "node " << node << " t=" << now;
      EXPECT_EQ(entry.pressured, fresh.pressured) << "node " << node << " t=" << now;
      live_idle += entry.idle_memory;
      ++live;
    }
    // Aggregates and index rows must stay consistent with the entries.
    EXPECT_EQ(cluster_.board().cluster_idle_memory(), live_idle) << "t=" << now;
    EXPECT_EQ(cluster_.board().live_count(), live) << "t=" << now;
  }

  int checks() const { return checks_; }

 private:
  Cluster& cluster_;
  int checks_ = 0;
};

void run_dirty_set_property(std::size_t nodes, std::uint32_t seed) {
  SCOPED_TRACE(testing::Message() << "nodes=" << nodes << " seed=" << seed);
  sim::Simulator sim;
  RandomPlacementPolicy policy(seed);
  ClusterConfig config = ClusterConfig::paper_cluster1(nodes);
  config.load_exchange_period = 0.37;  // non-default, off the tick grid
  Cluster cluster(sim, config, policy);

  const SimTime horizon = 18.0;
  std::mt19937 rng(seed * 7919u + 17u);
  // One everlasting job at t=0: arms the periodic tasks at phase 0 (the
  // checker below shares that phase) and keeps them armed for the whole run
  // (maybe_finish would otherwise stop and later re-arm them off-phase).
  cluster.submit_job(make_spec(1, 0.0, 1e9, megabytes(12), 0));
  const int jobs = static_cast<int>(nodes) * 3;
  for (int i = 0; i < jobs; ++i) {
    const SimTime submit = horizon * 0.6 * static_cast<SimTime>(rng() % 1000u) / 1000.0;
    const double cpu = 0.3 + 0.01 * static_cast<double>(rng() % 300u);
    const Bytes demand = megabytes(static_cast<double>(5u + rng() % 80u));
    const double touch = (rng() % 3u == 0u) ? static_cast<double>(rng() % 30u) : 0.0;
    const auto home = static_cast<workload::NodeId>(rng() % nodes);
    cluster.submit_job(
        make_spec(static_cast<JobId>(i + 2), submit, cpu, demand, home, touch));
  }

  RandomDriver driver(sim, cluster, seed);
  driver.schedule_actions(static_cast<int>(nodes), horizon * 0.85);

  BoardChecker checker(cluster);
  std::unique_ptr<sim::PeriodicTask> checker_task;
  // Created inside an event at t=0 scheduled AFTER the first submission, so
  // the cluster's own periodic tasks are armed first: at every shared
  // timestamp the firing order is exchange -> checker (-> policy -> tick),
  // i.e. the checker observes the board immediately after the drain and
  // before any same-instant mutation.
  sim.schedule_at(0.0, [&] {
    checker_task = std::make_unique<sim::PeriodicTask>(
        sim, sim.now() + config.load_exchange_period, config.load_exchange_period,
        [&](SimTime now) { checker.check(now); });
  });

  sim.run_until(horizon);
  EXPECT_GT(checker.checks(), 40);
}

TEST(ExchangeDirtySetTest, BoardMatchesFullRebroadcast32Nodes) {
  run_dirty_set_property(32, 1u);
}

TEST(ExchangeDirtySetTest, BoardMatchesFullRebroadcast128Nodes) {
  run_dirty_set_property(128, 2u);
}

TEST(ExchangeDirtySetTest, BoardMatchesFullRebroadcast512Nodes) {
  run_dirty_set_property(512, 3u);
}

// --- failed-node publication regression tests -----------------------------

/// Home placement only; periodic retries, like the local-only baseline.
class LocalPolicy : public SchedulerPolicy {
 public:
  const char* name() const override { return "local"; }
  void on_job_arrival(Cluster& cluster, RunningJob& job) override {
    if (!cluster.node(job.home_node).failed()) cluster.place_local(job, job.home_node);
  }
  void on_periodic(Cluster& cluster) override {
    for (RunningJob* job : cluster.pending_jobs()) {
      if (!cluster.node(job->home_node).failed()) cluster.place_local(*job, job->home_node);
    }
  }
};

TEST(ExchangeDirtySetTest, FailedNodePublishesExactlyOneTransitionWhileDown) {
  sim::Simulator sim;
  LocalPolicy policy;
  ClusterConfig config = ClusterConfig::paper_cluster1(4);
  config.load_exchange_period = 0.5;
  Cluster cluster(sim, config, policy);
  // Overcommit node 1 so its fault EMA is nonzero when it crashes: the EMA
  // keeps the node ticking while down, and re-marks it dirty as it decays
  // through the pressure threshold, which must NOT translate into board
  // publishes.
  cluster.submit_job(make_spec(1, 0.0, 50.0, megabytes(220), 1, 20.0));
  cluster.submit_job(make_spec(2, 0.0, 50.0, megabytes(220), 1, 20.0));
  cluster.submit_job(make_spec(3, 0.0, 100.0, megabytes(10), 0));  // keeps tasks armed

  sim.schedule_at(2.0, [&] { cluster.fail_node(1); });
  sim.schedule_at(2.1, [&] {
    EXPECT_TRUE(cluster.board().info(1).failed);
    EXPECT_DOUBLE_EQ(cluster.board().info(1).timestamp, 2.0);
    // The EMA survives the crash (it is monitoring state, not job state).
    EXPECT_GT(cluster.node(1).fault_rate(), 0.0);
  });
  sim.schedule_at(4.9, [&] {
    // Five exchange periods later the board row is still the fail-time
    // broadcast: exactly one published transition while down.
    EXPECT_TRUE(cluster.board().info(1).failed);
    EXPECT_DOUBLE_EQ(cluster.board().info(1).timestamp, 2.0);
  });
  sim.schedule_at(5.0, [&] { cluster.recover_node(1); });
  sim.run_until(6.2);
  EXPECT_FALSE(cluster.board().info(1).failed);
  // The recovery broadcast republishes the node.
  EXPECT_GE(cluster.board().info(1).timestamp, 5.0);
}

TEST(ExchangeDirtySetTest, DecayingFaultEmaDoesNotRedirtyTheNode) {
  sim::Simulator sim;
  LocalPolicy policy;
  ClusterConfig config = ClusterConfig::paper_cluster1(4);
  config.load_exchange_period = 0.5;
  // Out of the EMA's reach: once node 1 drains, its decaying EMA never
  // flips memory_pressured(), so it changes no published value.
  config.fault_rate_threshold = 1e9;
  Cluster cluster(sim, config, policy);
  // Two overcommitting jobs page on node 1 and finish; node 0's long job
  // keeps the periodic tasks armed.
  cluster.submit_job(make_spec(1, 0.0, 5.0, megabytes(220), 1, 20.0));
  cluster.submit_job(make_spec(2, 0.0, 5.0, megabytes(220), 1, 20.0));
  cluster.submit_job(make_spec(3, 0.0, 1000.0, megabytes(10), 0));
  sim.run_until(1.0);
  ASSERT_EQ(cluster.node(1).active_jobs(), 2);
  while (cluster.node(1).active_jobs() > 0 && sim.now() < 500.0) {
    sim.run_until(sim.now() + 0.5);
  }
  ASSERT_EQ(cluster.node(1).active_jobs(), 0);
  sim.run_until(sim.now() + 1.0);  // an exchange publishes the drained node

  const double ema = cluster.node(1).fault_rate();
  ASSERT_GT(ema, 0.0);  // still decaying, so the node still ticks
  const SimTime published = cluster.board().info(1).timestamp;
  sim.run_until(sim.now() + 5.0);  // ten exchanges
  EXPECT_LT(cluster.node(1).fault_rate(), ema);
  EXPECT_GT(cluster.node(1).fault_rate(), 0.0);
  EXPECT_FALSE(cluster.board().info(1).pressured);
  EXPECT_DOUBLE_EQ(cluster.board().info(1).timestamp, published);
}

TEST(ExchangeDirtySetTest, ImmediateBroadcastDoesNotDoublePublishAtNextExchange) {
  sim::Simulator sim;
  LocalPolicy policy;
  ClusterConfig config = ClusterConfig::paper_cluster1(4);
  config.load_exchange_period = 0.5;
  Cluster cluster(sim, config, policy);
  cluster.submit_job(make_spec(1, 0.0, 100.0, megabytes(10), 0));  // keeps tasks armed

  // Node 2 never runs a job, so its fault EMA is identically zero: after the
  // out-of-band recovery broadcast it is clean, and the following exchanges
  // must leave its row untouched.
  sim.schedule_at(0.7, [&] { cluster.fail_node(2); });
  sim.schedule_at(1.1, [&] {
    // The exchange at t=1.0 skipped the down node.
    EXPECT_DOUBLE_EQ(cluster.board().info(2).timestamp, 0.7);
  });
  sim.schedule_at(1.2, [&] { cluster.recover_node(2); });
  sim.run_until(3.4);
  EXPECT_FALSE(cluster.board().info(2).failed);
  // Exchanges at t=1.5..3.0 did not republish the clean node: publish_to_board
  // cleared the dirty bit the fail/recover transitions had set.
  EXPECT_DOUBLE_EQ(cluster.board().info(2).timestamp, 1.2);
}

}  // namespace
}  // namespace vrc::cluster
