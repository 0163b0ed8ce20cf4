#include "cluster/load_index.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "sim/rng.h"
#include "util/units.h"

namespace vrc::cluster {
namespace {

LoadInfo info_of(NodeId node, Bytes idle, Bytes user = megabytes(368), int slots = 0) {
  LoadInfo info;
  info.node = node;
  info.idle_memory = idle;
  info.user_memory = user;
  info.slots_used = slots;
  return info;
}

TEST(LoadInfoBoardTest, StartsEmpty) {
  LoadInfoBoard board(4);
  EXPECT_EQ(board.size(), 4u);
  EXPECT_EQ(board.cluster_idle_memory(), 0);
  EXPECT_EQ(board.info(2).timestamp, 0.0);
}

TEST(LoadInfoBoardTest, UpdateStoresByNode) {
  LoadInfoBoard board(4);
  board.update(info_of(2, megabytes(100)));
  EXPECT_EQ(board.info(2).idle_memory, megabytes(100));
  EXPECT_EQ(board.info(1).idle_memory, 0);
}

TEST(LoadInfoBoardTest, ClusterIdleMemorySums) {
  LoadInfoBoard board(3);
  board.update(info_of(0, megabytes(50)));
  board.update(info_of(1, megabytes(70)));
  board.update(info_of(2, megabytes(0)));
  EXPECT_EQ(board.cluster_idle_memory(), megabytes(120));
}

TEST(LoadInfoBoardTest, AverageUserMemory) {
  LoadInfoBoard board(2);
  board.update(info_of(0, 0, megabytes(368)));
  board.update(info_of(1, 0, megabytes(112)));
  EXPECT_EQ(board.average_user_memory(), megabytes(240));
}

TEST(LoadInfoBoardTest, NotePlacementBumpsSlotAndDemand) {
  LoadInfoBoard board(2);
  board.update(info_of(0, megabytes(100), megabytes(368), 2));
  board.note_placement(0, megabytes(60));
  EXPECT_EQ(board.info(0).slots_used, 3);
  EXPECT_EQ(board.info(0).idle_memory, megabytes(40));
}

TEST(LoadInfoBoardTest, NotePlacementFloorsIdleAtZero) {
  LoadInfoBoard board(1);
  board.update(info_of(0, megabytes(30)));
  board.note_placement(0, megabytes(60));
  EXPECT_EQ(board.info(0).idle_memory, 0);
}

TEST(LoadInfoBoardTest, ClusterIdleMemorySkipsFailedNodes) {
  // Regression: a crashed node's stale snapshot used to keep contributing
  // idle memory to the §2.1 reconfiguration trigger.
  LoadInfoBoard board(3);
  board.update(info_of(0, megabytes(50)));
  board.update(info_of(1, megabytes(70)));
  LoadInfo down = info_of(2, megabytes(200));
  down.failed = true;
  board.update(down);
  EXPECT_EQ(board.cluster_idle_memory(), megabytes(120));

  // The node recovering (fresh non-failed snapshot) rejoins the total.
  board.update(info_of(2, megabytes(200)));
  EXPECT_EQ(board.cluster_idle_memory(), megabytes(320));
}

TEST(LoadInfoBoardTest, AverageUserMemoryDividesByLiveCount) {
  // Regression: the average used to divide by all nodes including dead ones,
  // understating per-live-workstation memory during an outage.
  LoadInfoBoard board(3);
  board.update(info_of(0, 0, megabytes(368)));
  board.update(info_of(1, 0, megabytes(112)));
  LoadInfo down = info_of(2, 0, megabytes(368));
  down.failed = true;
  board.update(down);
  EXPECT_EQ(board.average_user_memory(), megabytes(240));
}

TEST(LoadInfoBoardTest, AverageUserMemoryZeroWhenAllFailed) {
  LoadInfoBoard board(2);
  for (NodeId n = 0; n < 2; ++n) {
    LoadInfo down = info_of(n, megabytes(10));
    down.failed = true;
    board.update(down);
  }
  EXPECT_EQ(board.average_user_memory(), 0);
  EXPECT_EQ(board.cluster_idle_memory(), 0);
}

TEST(LoadInfoBoardTest, IndexTracksUpdatesAndPlacements) {
  LoadInfoBoard board(3);
  board.update(info_of(0, megabytes(100), megabytes(368), 1));
  board.update(info_of(1, megabytes(200), megabytes(368), 2));
  board.update(info_of(2, megabytes(150), megabytes(368), 0));
  // Submission heap: fewest slots first (node 2), then idle desc.
  EXPECT_EQ(*board.best_min_slots_max_idle([](NodeId) { return true; }), 2u);
  // Migration heap: largest idle (node 1).
  EXPECT_EQ(*board.best_max_idle([](NodeId) { return true; }), 1u);
  // Sender-side bookkeeping repositions the node in the heaps.
  board.note_placement(2, megabytes(150));
  EXPECT_EQ(board.info(2).slots_used, 1);
  EXPECT_EQ(board.info(2).idle_memory, 0);
  EXPECT_EQ(*board.best_min_slots_max_idle([](NodeId) { return true; }), 0u);
  // Reservation evicts from both heaps immediately.
  board.set_reserved(1, true);
  EXPECT_EQ(*board.best_max_idle([](NodeId) { return true; }), 0u);
}

TEST(LoadInfoBoardTest, ExchangeOverwritesBookkeeping) {
  LoadInfoBoard board(1);
  board.update(info_of(0, megabytes(100)));
  board.note_placement(0, megabytes(60));
  board.update(info_of(0, megabytes(90)));  // fresh snapshot supersedes
  EXPECT_EQ(board.info(0).idle_memory, megabytes(90));
  EXPECT_EQ(board.info(0).slots_used, 0);
}

TEST(LoadInfoBoardTest, TotalsTrackLiveNodesOnly) {
  LoadInfoBoard board(3);
  board.update(info_of(0, megabytes(100)));
  LoadInfo b = info_of(1, megabytes(50));
  board.update(b);
  EXPECT_EQ(board.cluster_idle_memory(), megabytes(150));
  EXPECT_EQ(board.live_count(), 3u);

  b.failed = true;
  board.update(b);
  EXPECT_EQ(board.cluster_idle_memory(), megabytes(100));
  // Live user total 368MB (node 0) over nodes 0 and 2.
  EXPECT_EQ(board.average_user_memory(), megabytes(368) / 2);
  EXPECT_EQ(board.live_count(), 2u);

  b.failed = false;
  board.update(b);
  EXPECT_EQ(board.cluster_idle_memory(), megabytes(150));
  EXPECT_EQ(board.live_count(), 3u);
}

TEST(LoadInfoBoardTest, FailedAndReservedNodesLeaveHeaps) {
  LoadInfoBoard board(2);
  const auto any = [](NodeId) { return true; };
  const auto expect_best = [&](NodeId node) {
    EXPECT_EQ(*board.best_min_slots_max_idle(any), node);
    EXPECT_EQ(*board.best_max_idle(any), node);
  };
  LoadInfo best = info_of(0, megabytes(200), 0);
  board.update(best);
  expect_best(0);

  best.failed = true;
  board.update(best);
  expect_best(1);

  best.failed = false;
  best.reserved = true;
  board.update(best);
  expect_best(1);

  board.set_reserved(0, false);
  expect_best(0);
}

// --- property tests: indexed picks == the old linear-scan picks ---

LoadInfo random_info(sim::Rng& rng, NodeId node) {
  LoadInfo info;
  info.node = node;
  const int running = static_cast<int>(rng.uniform_index(6));
  info.slots_used = running + static_cast<int>(rng.uniform_index(2));  // + in flight
  info.user_memory = megabytes(368);
  info.idle_memory = megabytes(static_cast<double>(rng.uniform_index(300)));
  info.reserved = rng.uniform() < 0.05;
  info.pressured = rng.uniform() < 0.15;
  info.failed = rng.uniform() < 0.10;
  return info;
}

/// The live totals must equal brute-force sums over the rows after every
/// write; a publish that forgets the old row's contribution drifts here.
void expect_totals_match_rows(const LoadInfoBoard& board, const std::string& where) {
  Bytes idle = 0;
  Bytes user = 0;
  std::size_t live = 0;
  for (const LoadInfo& info : board.all()) {
    if (info.failed) continue;
    idle += info.idle_memory;
    user += info.user_memory;
    ++live;
  }
  EXPECT_EQ(board.cluster_idle_memory(), idle) << where;
  EXPECT_EQ(board.average_user_memory(), live == 0 ? 0 : user / static_cast<Bytes>(live))
      << where;
  EXPECT_EQ(board.live_count(), live) << where;
}

/// The pre-index submission-target scan of GLoadSharing, verbatim.
std::optional<NodeId> linear_submission_target(const LoadInfoBoard& board, Bytes demand_hint,
                                               NodeId exclude, int cpu_threshold) {
  std::optional<NodeId> best;
  int best_slots = 0;
  Bytes best_idle = 0;
  for (const LoadInfo& info : board.all()) {
    if (info.node == exclude) continue;
    if (info.reserved || info.pressured || info.failed) continue;
    if (info.slots_used >= cpu_threshold) continue;
    if (info.idle_memory <= demand_hint) continue;
    const bool better = !best || info.slots_used < best_slots ||
                        (info.slots_used == best_slots && info.idle_memory > best_idle);
    if (!better) continue;
    best = info.node;
    best_slots = info.slots_used;
    best_idle = info.idle_memory;
  }
  return best;
}

/// The board-side part of the pre-index migration-target scan.
std::optional<NodeId> linear_migration_target(const LoadInfoBoard& board, Bytes demand,
                                              NodeId exclude, int cpu_threshold) {
  std::optional<NodeId> best;
  Bytes best_idle = 0;
  for (const LoadInfo& info : board.all()) {
    if (info.node == exclude) continue;
    if (info.reserved || info.pressured || info.failed) continue;
    if (info.slots_used >= cpu_threshold) continue;
    if (info.idle_memory < demand) continue;
    if (info.idle_memory <= best_idle) continue;
    best = info.node;
    best_idle = info.idle_memory;
  }
  return best;
}

TEST(LoadInfoBoardPropertyTest, SubmissionPicksMatchLinearScan) {
  sim::Rng rng(7);
  const int cpu_threshold = 5;
  for (std::size_t nodes = 32; nodes <= 512; nodes *= 2) {
    LoadInfoBoard board(nodes);
    for (NodeId n = 0; n < nodes; ++n) board.update(random_info(rng, n));
    expect_totals_match_rows(board, "nodes=" + std::to_string(nodes) + " fill");
    for (int trial = 0; trial < 200; ++trial) {
      const std::string where =
          "nodes=" + std::to_string(nodes) + " trial=" + std::to_string(trial);
      // Mutate a few entries so heaps see churn (exchange + sender-side
      // decrements), not just a fresh build.
      for (int m = 0; m < 3; ++m) {
        const NodeId victim = static_cast<NodeId>(rng.uniform_index(nodes));
        if (rng.uniform() < 0.5) {
          board.update(random_info(rng, victim));
        } else {
          board.note_placement(victim, megabytes(static_cast<double>(rng.uniform_index(80))));
        }
        expect_totals_match_rows(board, where);
      }
      const Bytes hint = megabytes(static_cast<double>(rng.uniform_index(150)));
      const NodeId exclude = static_cast<NodeId>(rng.uniform_index(nodes));
      const auto indexed = board.best_min_slots_max_idle([&](NodeId n) {
        const LoadInfo& info = board.info(n);
        if (n == exclude || info.pressured) return false;
        if (info.slots_used >= cpu_threshold) return false;
        return info.idle_memory > hint;
      });
      EXPECT_EQ(indexed, linear_submission_target(board, hint, exclude, cpu_threshold))
          << where;
    }
  }
}

TEST(LoadInfoBoardPropertyTest, MigrationPicksMatchLinearScan) {
  sim::Rng rng(11);
  const int cpu_threshold = 5;
  for (std::size_t nodes = 32; nodes <= 512; nodes *= 2) {
    LoadInfoBoard board(nodes);
    for (NodeId n = 0; n < nodes; ++n) board.update(random_info(rng, n));
    expect_totals_match_rows(board, "nodes=" + std::to_string(nodes) + " fill");
    for (int trial = 0; trial < 200; ++trial) {
      const std::string where =
          "nodes=" + std::to_string(nodes) + " trial=" + std::to_string(trial);
      board.update(random_info(rng, static_cast<NodeId>(rng.uniform_index(nodes))));
      expect_totals_match_rows(board, where);
      board.set_reserved(static_cast<NodeId>(rng.uniform_index(nodes)), rng.uniform() < 0.5);
      expect_totals_match_rows(board, where);
      const Bytes demand = megabytes(static_cast<double>(rng.uniform_index(250)));
      const NodeId exclude = static_cast<NodeId>(rng.uniform_index(nodes));
      const auto indexed = board.best_max_idle([&](NodeId n) {
        const LoadInfo& info = board.info(n);
        if (n == exclude || info.pressured) return false;
        if (info.slots_used >= cpu_threshold) return false;
        return info.idle_memory > 0 && info.idle_memory >= demand;
      });
      EXPECT_EQ(indexed, linear_migration_target(board, demand, exclude, cpu_threshold))
          << where;
    }
  }
}

}  // namespace
}  // namespace vrc::cluster
