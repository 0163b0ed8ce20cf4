// Tests for the zero-overhead-when-off perf counter plumbing (DESIGN.md §12).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "metrics/perf_counters.h"

namespace vrc::metrics {
namespace {

/// Restores the global capture switch and drains any leftover aggregate so
/// tests cannot leak state into each other (or into unrelated tests that run
/// simulations in this binary).
class PerfCountersTest : public testing::Test {
 protected:
  void SetUp() override {
    set_perf_capture_enabled(false);
    (void)take_perf_aggregate();
  }
  void TearDown() override {
    set_perf_capture_enabled(false);
    (void)take_perf_aggregate();
  }
};

TEST_F(PerfCountersTest, DisabledByDefaultAndPerfAddIsSafe) {
  EXPECT_FALSE(perf_capture_enabled());
  EXPECT_FALSE(perf_capture_active());
  // No capture installed: perf_add must be a harmless no-op, not a crash.
  perf_add(&PerfCounters::heap_upserts);
  perf_add(&PerfCounters::node_ticks, 17);
  const PerfCounters aggregate = take_perf_aggregate();
  EXPECT_EQ(aggregate.heap_upserts, 0u);
  EXPECT_EQ(aggregate.node_ticks, 0u);
}

TEST_F(PerfCountersTest, CaptureScopeIsInertWhileDisabled) {
  {
    ScopedPerfCapture capture;
    EXPECT_FALSE(perf_capture_active());
    perf_add(&PerfCounters::exchange_rounds);
  }
  EXPECT_EQ(take_perf_aggregate().exchange_rounds, 0u);
}

TEST_F(PerfCountersTest, MergeSumsEveryField) {
  PerfCounters a;
  PerfCounters b;
  a.heap_upserts = 3;
  a.exchange_wall_ns = 100;
  b.heap_upserts = 4;
  b.exchange_wall_ns = 50;
  b.snapshots_published = 9;
  a.merge(b);
  EXPECT_EQ(a.heap_upserts, 7u);
  EXPECT_EQ(a.exchange_wall_ns, 150u);
  EXPECT_EQ(a.snapshots_published, 9u);
}

TEST_F(PerfCountersTest, MergeKeepsTheHighWaterMarkOfPeakLiveSpecs) {
  PerfCounters a;
  PerfCounters b;
  a.peak_live_specs = 7;
  b.peak_live_specs = 5;
  b.stream_arrivals = 3;
  a.merge(b);
  EXPECT_EQ(a.peak_live_specs, 7u);
  EXPECT_EQ(a.stream_arrivals, 3u);
  b.peak_live_specs = 9;
  a.merge(b);
  EXPECT_EQ(a.peak_live_specs, 9u);
  EXPECT_EQ(a.stream_arrivals, 6u);
}

TEST_F(PerfCountersTest, EntriesCoverEveryCounterField) {
  PerfCounters counters;
  const auto entries = counters.entries();
  // sizeof-based completeness check: every std::uint64_t member must have an
  // (name, value) entry, so adding a field without listing it fails here.
  EXPECT_EQ(entries.size(), sizeof(PerfCounters) / sizeof(std::uint64_t));
}

TEST_F(PerfCountersTest, EnabledCaptureFlowsIntoAggregate) {
  set_perf_capture_enabled(true);
  {
    ScopedPerfCapture capture;
    EXPECT_TRUE(perf_capture_active());
    perf_add(&PerfCounters::heap_upserts);
    perf_add(&PerfCounters::heap_upserts);
    perf_add(&PerfCounters::node_ticks, 5);
    {
      ScopedPerfTimer timer(&PerfCounters::tick_wall_ns);
    }
  }
  EXPECT_FALSE(perf_capture_active());
  const PerfCounters aggregate = take_perf_aggregate();
  EXPECT_EQ(aggregate.heap_upserts, 2u);
  EXPECT_EQ(aggregate.node_ticks, 5u);
  EXPECT_GT(aggregate.tick_wall_ns, 0u);
  // take_perf_aggregate() is read-and-clear.
  EXPECT_EQ(take_perf_aggregate().heap_upserts, 0u);
}

TEST_F(PerfCountersTest, NestedCapturesRestoreTheOuterScopeAndBothFlush) {
  set_perf_capture_enabled(true);
  {
    ScopedPerfCapture outer;
    perf_add(&PerfCounters::exchange_rounds);
    {
      ScopedPerfCapture inner;
      perf_add(&PerfCounters::exchange_rounds, 2);
    }
    // Only the inner scope has flushed so far; the outer one is live again
    // and keeps accumulating.
    EXPECT_TRUE(perf_capture_active());
    EXPECT_EQ(take_perf_aggregate().exchange_rounds, 2u);
    perf_add(&PerfCounters::exchange_rounds, 4);
  }
  // Outer flush: its own adds (1 + 4), independent of the drained inner.
  EXPECT_EQ(take_perf_aggregate().exchange_rounds, 5u);
}

TEST_F(PerfCountersTest, ConcurrentCapturesSumWithoutLoss) {
  set_perf_capture_enabled(true);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kAddsPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      ScopedPerfCapture capture;  // thread-local: no contention on the hot path
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) {
        perf_add(&PerfCounters::heap_best_queries);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(take_perf_aggregate().heap_best_queries, kThreads * kAddsPerThread);
}

TEST_F(PerfCountersTest, TimerOutsideCaptureIsANoOp) {
  set_perf_capture_enabled(true);
  {
    ScopedPerfTimer timer(&PerfCounters::exchange_wall_ns);  // no active capture
  }
  EXPECT_EQ(take_perf_aggregate().exchange_wall_ns, 0u);
}

}  // namespace
}  // namespace vrc::metrics
