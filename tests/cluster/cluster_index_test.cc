#include "cluster/cluster_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "cluster/load_index.h"
#include "sim/rng.h"
#include "util/units.h"

namespace vrc::cluster {
namespace {

TEST(IndexedHeapTest, UpsertAndBest) {
  IndexedHeap heap(4);
  heap.upsert(0, {5, 0});
  heap.upsert(1, {3, 0});
  heap.upsert(2, {7, 0});
  auto best = heap.best([](NodeId) { return true; });
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 1u);
  EXPECT_EQ(heap.size(), 3u);
  EXPECT_FALSE(heap.contains(3));
}

TEST(IndexedHeapTest, InPlaceKeyUpdateMovesNode) {
  IndexedHeap heap(3);
  heap.upsert(0, {1, 0});
  heap.upsert(1, {2, 0});
  heap.upsert(2, {3, 0});
  heap.upsert(0, {10, 0});  // decrease priority in place
  EXPECT_EQ(*heap.best([](NodeId) { return true; }), 1u);
  heap.upsert(2, {0, 0});  // increase priority in place
  EXPECT_EQ(*heap.best([](NodeId) { return true; }), 2u);
  EXPECT_EQ(heap.size(), 3u);
}

TEST(IndexedHeapTest, EraseRemovesAndReinsertWorks) {
  IndexedHeap heap(3);
  heap.upsert(0, {1, 0});
  heap.upsert(1, {2, 0});
  heap.erase(0);
  EXPECT_FALSE(heap.contains(0));
  EXPECT_EQ(*heap.best([](NodeId) { return true; }), 1u);
  heap.erase(0);  // erasing an absent node is a no-op
  heap.upsert(0, {0, 0});
  EXPECT_EQ(*heap.best([](NodeId) { return true; }), 0u);
}

TEST(IndexedHeapTest, BestRespectsFilterExactly) {
  IndexedHeap heap(5);
  for (NodeId n = 0; n < 5; ++n) heap.upsert(n, {static_cast<std::int64_t>(n), 0});
  auto best = heap.best([](NodeId n) { return n >= 3; });
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 3u);
  EXPECT_FALSE(heap.best([](NodeId) { return false; }).has_value());
}

TEST(IndexedHeapTest, TieBreaksByNodeId) {
  IndexedHeap heap(4);
  for (NodeId n = 0; n < 4; ++n) heap.upsert(n, {7, 7});
  EXPECT_EQ(*heap.best([](NodeId) { return true; }), 0u);
  heap.erase(0);
  EXPECT_EQ(*heap.best([](NodeId) { return true; }), 1u);
}

/// Randomized heap workout: after any sequence of upserts and erases, best()
/// must agree with a brute-force minimum over a mirrored key map.
TEST(IndexedHeapTest, RandomizedOperationsMatchBruteForce) {
  sim::Rng rng(42);
  const std::size_t n = 64;
  IndexedHeap heap(n);
  std::vector<std::optional<IndexedHeap::Key>> mirror(n);
  for (int step = 0; step < 2000; ++step) {
    const NodeId node = static_cast<NodeId>(rng.uniform_index(n));
    if (rng.uniform() < 0.25 && mirror[node].has_value()) {
      heap.erase(node);
      mirror[node].reset();
    } else {
      const IndexedHeap::Key key{static_cast<std::int64_t>(rng.uniform_index(50)) - 25,
                                 static_cast<std::int64_t>(rng.uniform_index(10))};
      heap.upsert(node, key);
      mirror[node] = key;
    }
    // Brute-force best under a parity filter.
    const auto keep = [](NodeId id) { return id % 2 == 0; };
    std::optional<NodeId> expected;
    for (NodeId id = 0; id < n; ++id) {
      if (!mirror[id].has_value() || !keep(id)) continue;
      if (!expected) {
        expected = id;
        continue;
      }
      const auto& a = *mirror[id];
      const auto& b = *mirror[*expected];
      if (a.primary < b.primary ||
          (a.primary == b.primary && (a.secondary < b.secondary ||
                                      (a.secondary == b.secondary && id < *expected)))) {
        expected = id;
      }
    }
    EXPECT_EQ(heap.best(keep), expected) << "step " << step;
  }
}

TEST(ClusterIndexTest, TotalsTrackLiveNodesOnly) {
  ClusterIndex index(3, ClusterIndex::Order::kMinSlotsMaxIdle, ClusterIndex::Order::kMaxIdle);
  ClusterIndex::NodeState a;
  a.idle = megabytes(100);
  a.user = megabytes(368);
  index.publish(0, a);
  ClusterIndex::NodeState b = a;
  b.idle = megabytes(50);
  index.publish(1, b);
  EXPECT_EQ(index.total_idle(), megabytes(150));
  EXPECT_EQ(index.live_count(), 3u);

  b.failed = true;
  index.publish(1, b);
  EXPECT_EQ(index.total_idle(), megabytes(100));
  EXPECT_EQ(index.total_user(), megabytes(368));
  EXPECT_EQ(index.live_count(), 2u);

  b.failed = false;
  index.publish(1, b);
  EXPECT_EQ(index.total_idle(), megabytes(150));
  EXPECT_EQ(index.live_count(), 3u);
}

TEST(ClusterIndexTest, FailedAndReservedNodesLeaveHeaps) {
  ClusterIndex index(2, ClusterIndex::Order::kMinSlotsMaxIdle, ClusterIndex::Order::kMaxIdle);
  const auto any = [](NodeId) { return true; };
  const auto expect_best = [&](NodeId node) {
    EXPECT_EQ(*index.best_first(any), node);
    EXPECT_EQ(*index.best_second(any), node);
  };
  ClusterIndex::NodeState best;
  best.idle = megabytes(200);
  index.publish(0, best);
  expect_best(0);

  best.failed = true;
  index.publish(0, best);
  expect_best(1);

  best.failed = false;
  best.reserved = true;
  index.publish(0, best);
  expect_best(1);

  best.reserved = false;
  index.publish(0, best);
  expect_best(0);
}

// --- property tests: indexed picks == the old linear-scan picks ---

LoadInfo random_info(sim::Rng& rng, NodeId node) {
  LoadInfo info;
  info.node = node;
  info.active_jobs = static_cast<int>(rng.uniform_index(6));
  info.slots_used = info.active_jobs + static_cast<int>(rng.uniform_index(2));
  info.user_memory = megabytes(368);
  info.idle_memory = megabytes(static_cast<double>(rng.uniform_index(300)));
  info.reserved = rng.uniform() < 0.05;
  info.pressured = rng.uniform() < 0.15;
  info.failed = rng.uniform() < 0.10;
  return info;
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

TEST(ClusterIndexPropertyTest, SubmissionPicksMatchLinearScan) {
  sim::Rng rng(7);
  const int cpu_threshold = 5;
  for (std::size_t nodes = 32; nodes <= 512; nodes *= 2) {
    LoadInfoBoard board(nodes);
    for (NodeId n = 0; n < nodes; ++n) board.update(random_info(rng, n));
    for (int trial = 0; trial < 200; ++trial) {
      // Mutate a few entries so heaps see churn (exchange + sender-side
      // decrements), not just a fresh build.
      for (int m = 0; m < 3; ++m) {
        const NodeId victim = static_cast<NodeId>(rng.uniform_index(nodes));
        if (rng.uniform() < 0.5) {
          board.update(random_info(rng, victim));
        } else {
          board.note_placement(victim, megabytes(static_cast<double>(rng.uniform_index(80))));
        }
      }
      const Bytes hint = megabytes(static_cast<double>(rng.uniform_index(150)));
      const NodeId exclude = static_cast<NodeId>(rng.uniform_index(nodes));
      const auto indexed = board.index().best_first([&](NodeId n) {
        if (n == exclude || board.index().pressured(n)) return false;
        if (board.index().slots_used(n) >= cpu_threshold) return false;
        return board.index().idle(n) > hint;
      });
      EXPECT_EQ(indexed, linear_submission_target(board, hint, exclude, cpu_threshold))
          << "nodes=" << nodes << " trial=" << trial;
    }
  }
}

TEST(ClusterIndexPropertyTest, MigrationPicksMatchLinearScan) {
  sim::Rng rng(11);
  const int cpu_threshold = 5;
  for (std::size_t nodes = 32; nodes <= 512; nodes *= 2) {
    LoadInfoBoard board(nodes);
    for (NodeId n = 0; n < nodes; ++n) board.update(random_info(rng, n));
    for (int trial = 0; trial < 200; ++trial) {
      board.update(random_info(rng, static_cast<NodeId>(rng.uniform_index(nodes))));
      board.set_reserved(static_cast<NodeId>(rng.uniform_index(nodes)), rng.uniform() < 0.5);
      const Bytes demand = megabytes(static_cast<double>(rng.uniform_index(250)));
      const NodeId exclude = static_cast<NodeId>(rng.uniform_index(nodes));
      const auto indexed = board.index().best_second([&](NodeId n) {
        if (n == exclude || board.index().pressured(n)) return false;
        if (board.index().slots_used(n) >= cpu_threshold) return false;
        return board.index().idle(n) > 0 && board.index().idle(n) >= demand;
      });
      EXPECT_EQ(indexed, linear_migration_target(board, demand, exclude, cpu_threshold))
          << "nodes=" << nodes << " trial=" << trial;
    }
  }
}

}  // namespace
}  // namespace vrc::cluster
