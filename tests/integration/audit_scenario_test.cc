// Exercises the VRC_AUDIT shadow-verification surface (DESIGN.md §13.5).
//
// The audit checkers are compiled into every build, so the first half
// unit-tests them directly against hand-built structures regardless of build
// flavour. The second half runs one fault scenario and one SWF replay (whose
// parked workstations replay their skipped ticks) end-to-end: under
// -DVRC_AUDIT=ON the exchange and replay call sites are live and the
// counters must show the audits actually fired (an audit that silently never
// runs looks exactly like one that always passes); in the default build the
// same runs must leave the counters untouched, proving the hooks are fully
// compiled out of the hot path.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "cluster/audit.h"
#include "cluster/load_index.h"
#include "core/experiment.h"
#include "metrics/perf_counters.h"
#include "workload/arrival_source.h"
#include "workload/trace_spec.h"

namespace vrc {
namespace {

using cluster::IndexedHeap;
using cluster::LoadInfo;
using cluster::LoadInfoBoard;
using workload::NodeId;

TEST(AuditSurfaceTest, HeapInvariantsHoldUnderChurn) {
  IndexedHeap heap(8);
  for (NodeId node = 0; node < 8; ++node) {
    heap.upsert(node, {static_cast<std::int64_t>(7 - node), 0});
  }
  heap.upsert(3, {-5, 2});  // decrease
  heap.upsert(0, {9, 9});   // increase
  heap.erase(5);
  std::string why;
  EXPECT_TRUE(heap.audit_invariants(&why)) << why;
  EXPECT_TRUE(heap.audit_key_is(3, {-5, 2}));
  EXPECT_FALSE(heap.audit_key_is(3, {-5, 1}));  // stale-key detector
  EXPECT_FALSE(heap.audit_key_is(5, {2, 0}));   // evicted node
  // The pruned best() and the brute-force argmin must pick the same node.
  EXPECT_EQ(heap.best([](NodeId) { return true; }), heap.audit_linear_min());
  EXPECT_EQ(heap.audit_linear_min(), std::optional<NodeId>(3));
}

TEST(AuditSurfaceTest, BoardVerifiesAfterPublishChurn) {
  LoadInfoBoard board(6);
  for (NodeId node = 0; node < 6; ++node) {
    LoadInfo info;
    info.node = node;
    info.idle_memory = 100 * (node + 1);
    info.user_memory = 10 * (node + 1);
    info.slots_used = static_cast<int>(node % 3);
    board.update(info);
  }
  LoadInfo failed;
  failed.node = 2;
  failed.failed = true;
  board.update(failed);  // eviction path
  LoadInfo reserved;
  reserved.node = 4;
  reserved.idle_memory = 500;
  reserved.reserved = true;
  board.update(reserved);  // reserved eviction, still counted live
  std::string why;
  EXPECT_TRUE(board.audit_verify(&why)) << why;
}

TEST(AuditSurfaceTest, BoardAuditCountsNoHeapQueries) {
  // heap_best_queries counts placement picks only: if audit_verify's best()
  // cross-checks counted too, a VRC_AUDIT build would print other counters
  // than a release build of the same scenario.
  LoadInfoBoard board(4);
  const auto any = [](NodeId) { return true; };
  metrics::set_perf_capture_enabled(true);
  (void)metrics::take_perf_aggregate();
  {
    metrics::ScopedPerfCapture capture;
    EXPECT_TRUE(capture.active());
    std::string why;
    EXPECT_TRUE(board.audit_verify(&why)) << why;
  }
  const std::uint64_t audit_queries = metrics::take_perf_aggregate().heap_best_queries;
  {
    metrics::ScopedPerfCapture capture;
    EXPECT_TRUE(board.best_min_slots_max_idle(any).has_value());
    EXPECT_TRUE(board.best_max_idle(any).has_value());
  }
  const std::uint64_t pick_queries = metrics::take_perf_aggregate().heap_best_queries;
  metrics::set_perf_capture_enabled(false);
  EXPECT_EQ(audit_queries, 0u);
  EXPECT_EQ(pick_queries, 2u);
}

TEST(AuditSurfaceTest, BoardVerifiesAndCheckersCount) {
  LoadInfoBoard board(4);
  for (NodeId node = 0; node < 4; ++node) {
    LoadInfo info;
    info.node = node;
    info.slots_used = static_cast<int>(node) + 1;
    info.user_memory = 1000 * (node + 1);
    info.idle_memory = 200 * (node + 1);
    board.update(info);
  }
  std::string why;
  EXPECT_TRUE(board.audit_verify(&why)) << why;

  cluster::audit::reset_counters();
  cluster::audit::check_board(
      board,
      [&](NodeId node) -> std::optional<LoadInfo> {
        if (node == 1) return std::nullopt;  // frozen row: skipped, not diffed
        return board.info(node);
      },
      "unit test");
  const cluster::audit::Counters& counters = cluster::audit::counters();
  EXPECT_EQ(counters.board_audits, 1u);
  EXPECT_EQ(counters.rows_checked, 3u);  // 4 nodes minus the frozen one
  cluster::audit::reset_counters();
}

TEST(AuditSurfaceTest, SkipCheckRecountsTheParkedSet) {
  cluster::NodeActivity activity(70);
  for (const NodeId node : {3u, 64u, 69u}) activity.ticking.insert(node);
  activity.park(3, 10, 0.1, 50, true);    // wakes at round 61
  activity.park(64, 12, 0.12, 20, true);  // wakes at round 33
  activity.park(69, 12, 0.12, 40, false);
  activity.unpark(69);
  EXPECT_FALSE(activity.moving.contains(69));
  activity.park(69, 12, 0.12, 40, false);  // re-parking counts once
  ASSERT_EQ(activity.parked_count, 3u);
  ASSERT_EQ(activity.moving.count(), 1u);

  cluster::audit::reset_counters();
  cluster::audit::check_skip(activity, 33, 12);
  EXPECT_EQ(cluster::audit::counters().skips_checked, 1u);
  cluster::audit::reset_counters();
  EXPECT_DEATH(cluster::audit::check_skip(activity, 61, 12), "tick skip");  // wrong wake
  EXPECT_DEATH(cluster::audit::check_skip(activity, 33, 33), "tick skip");  // wake not ahead
  activity.parked_count = 2;  // drifted count
  EXPECT_DEATH(cluster::audit::check_skip(activity, 33, 12), "tick skip");
  activity.parked_count = 3;
  activity.moving.insert(5);  // moving but not parked
  EXPECT_DEATH(cluster::audit::check_skip(activity, 33, 12), "moving but not parked");
  activity.moving.erase(5);
  activity.ticking.erase(64);  // parked but not ticking
  EXPECT_DEATH(cluster::audit::check_skip(activity, 33, 12), "not ticking");
}

TEST(AuditScenarioTest, FaultScenarioRunsUnderAudit) {
  cluster::audit::reset_counters();

  workload::TraceParams params;
  params.name = "audit-scenario";
  params.group = workload::WorkloadGroup::kSpec;
  params.num_jobs = 60;
  params.duration = 600.0;
  params.num_nodes = 8;
  params.seed = 11;
  workload::GeneratedStreamSource source(params);
  const auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 8);

  core::ExperimentOptions options;
  // Two explicit outages: one node crashes and recovers mid-run, another
  // fails while exchanges are still frequent — exercising the frozen-row
  // skip, the eviction/rejoin paths, and the immediate broadcasts.
  options.fault_entries = {{2, 60.0, 45.0}, {5, 150.0, 90.0}};
  const auto report =
      *core::run_policy_on_source(core::PolicySpec("v-reconf"), source, config, options);
  EXPECT_EQ(report.jobs_completed, report.jobs_submitted);

  const cluster::audit::Counters& counters = cluster::audit::counters();
#ifdef VRC_AUDIT
  // The shadow check must actually have fired, on every exchange.
  EXPECT_GT(counters.board_audits, 0u);
  EXPECT_GT(counters.rows_checked, 0u);
#else
  // Default build: the call site is compiled out; a nonzero counter here
  // means audit overhead leaked into the production configuration.
  EXPECT_EQ(counters.board_audits, 0u);
  EXPECT_EQ(counters.rows_checked, 0u);
#endif
  cluster::audit::reset_counters();
}

TEST(AuditScenarioTest, SwfReplayChecksEveryReplay) {
  cluster::audit::reset_counters();
  // Hour-long flat SWF jobs: nearly every busy workstation parks, so the
  // run replays skipped ticks and skips empty tick rounds throughout
  // (DESIGN.md §12.6).
  const std::optional<workload::TraceSpec> trace = workload::TraceSpec::parse(
      std::string("swf:file=") + VRC_TEST_DATA_DIR +
      "/swf/NASA-iPSC-1993-3.swf,scale=0.1,min_runtime=1,max_jobs=80");
  ASSERT_TRUE(trace.has_value());
  const std::unique_ptr<workload::ArrivalSource> source = trace->make_source(8);
  const auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 8);
  const auto report =
      *core::run_policy_on_source(core::PolicySpec("v-reconf"), *source, config);
  EXPECT_EQ(report.jobs_completed, report.jobs_submitted);

  const cluster::audit::Counters& counters = cluster::audit::counters();
#ifdef VRC_AUDIT
  // Every replay was re-integrated tick by tick and matched bit for bit, and
  // every skip of empty tick rounds recounted the parked set.
  EXPECT_GT(counters.replays_checked, 0u);
  EXPECT_GT(counters.skips_checked, 0u);
#else
  EXPECT_EQ(counters.replays_checked, 0u);
  EXPECT_EQ(counters.skips_checked, 0u);
#endif
  cluster::audit::reset_counters();
}

}  // namespace
}  // namespace vrc
