#include "cluster/indexed_heap.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "sim/rng.h"

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

}  // namespace
}  // namespace vrc::cluster
