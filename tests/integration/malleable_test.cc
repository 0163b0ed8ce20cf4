// Malleable workloads end to end (DESIGN.md §15): determinism of the
// malleable generator and the M-Reconfiguration policy, degeneration to
// G-Loadsharing on rigid workloads, streamed/materialized equivalence with
// the malleability RNG stream live, and the policy's headline effect —
// shrinking running wide jobs cuts queueing on a slot-bound cluster.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/experiment.h"
#include "metrics/fingerprint.h"
#include "workload/arrival_source.h"
#include "workload/trace_spec.h"

namespace vrc {
namespace {

using metrics::fingerprint;

workload::TraceSpec malleable_spec() {
  workload::TraceSpec spec;
  spec.group = workload::WorkloadGroup::kSpec;
  spec.num_jobs = 80;
  spec.duration = 400.0;
  spec.seed = 5;
  spec.malleable_fraction = 1.0;
  return spec;
}

metrics::RunReport run_malleable(const std::string& policy,
                                 const workload::Trace& trace) {
  const auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 4);
  workload::MaterializedTraceSource source(trace);
  std::string error;
  auto report = core::run_policy_on_source(core::PolicySpec(policy), source, config, {}, &error);
  EXPECT_TRUE(report.has_value()) << error;
  return *report;
}

TEST(MalleableTest, SameSeedMalleableRunsAreBitIdentical) {
  const workload::Trace a = malleable_spec().build(4);
  const workload::Trace b = malleable_spec().build(4);
  const auto ra = run_malleable("m-reconfiguration", a);
  const auto rb = run_malleable("m-reconfiguration", b);
  EXPECT_EQ(fingerprint(ra), fingerprint(rb));
  EXPECT_GT(ra.resizes, 0u);
}

TEST(MalleableTest, MReconDegeneratesToGLoadSharingOnRigidWorkload) {
  // With no malleable jobs every lever is a no-op: the policy must be
  // bit-for-bit G-Loadsharing, not merely close.
  workload::TraceSpec rigid = malleable_spec();
  rigid.malleable_fraction = 0.0;
  const workload::Trace trace = rigid.build(4);
  const auto base = run_malleable("g-loadsharing", trace);
  const auto ours = run_malleable("m-reconfiguration", trace);
  EXPECT_EQ(fingerprint(base), fingerprint(ours));
  EXPECT_EQ(ours.resizes, 0u);
  EXPECT_EQ(ours.malleable_jobs, 0u);
}

TEST(MalleableTest, StreamedMalleableMatchesMaterialized) {
  // The malleability RNG fork must replay identically through the pull-based
  // pump, like every other generator stream.
  const workload::TraceSpec spec = malleable_spec();
  const auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 4);
  const auto materialized = run_malleable("m-reconfiguration", spec.build(4));

  workload::GeneratedStreamSource source(spec.to_params(4));
  std::string error;
  auto streamed = core::run_policy_on_source(core::PolicySpec("m-reconfiguration"),
                                             source, config, {}, &error);
  ASSERT_TRUE(streamed.has_value()) << error;
  EXPECT_EQ(fingerprint(materialized), fingerprint(*streamed));
}

TEST(MalleableTest, ShrinkingCutsQueueingOnSlotBoundCluster) {
  // The headline comparison behind examples/scenarios/malleable_blocking.scn:
  // all-wide submissions on 4 nodes block on CPU slots, and shrinking running
  // jobs admits the blocked ones earlier than waiting out completions
  // (G-Loadsharing) or suspending residents outright.
  const workload::Trace trace = malleable_spec().build(4);
  const auto base = run_malleable("g-loadsharing", trace);
  const auto suspend = run_malleable("suspension", trace);
  const auto ours = run_malleable("m-reconfiguration", trace);
  ASSERT_EQ(ours.jobs_completed, ours.jobs_submitted);
  EXPECT_GT(ours.resizes, 0u);
  EXPECT_LT(ours.total_queue, base.total_queue);
  EXPECT_LT(ours.total_queue, suspend.total_queue);
}

TEST(MalleableTest, ReportSurfacesResizeOutcomes) {
  const auto report = run_malleable("m-reconfiguration", malleable_spec().build(4));
  EXPECT_EQ(report.malleable_jobs, report.jobs_completed);
  EXPECT_GT(report.width_time_product, 0.0);
  bool has_shrinks = false;
  bool has_saved = false;
  for (const auto& [key, value] : report.policy_stats) {
    if (key == "shrinks_started") has_shrinks = value > 0.0;
    if (key == "blocked_time_saved") has_saved = value > 0.0;
  }
  EXPECT_TRUE(has_shrinks);
  EXPECT_TRUE(has_saved);
  // The gated describe block only renders on malleable runs.
  EXPECT_NE(metrics::describe(report).find("malleable:"), std::string::npos);
}

double blocked_time_saved(const metrics::RunReport& report) {
  for (const auto& [key, value] : report.policy_stats) {
    if (key == "blocked_time_saved") return value;
  }
  return -1.0;
}

TEST(MalleableTest, BlockedTimeSavedCreditsTheConfiguredResizePause) {
  // The resize.* overrides price every pause the cluster charges, so the
  // policy's blocked_saved estimate must subtract that same pause. A run with
  // the overrides and a run whose job contracts carry the same costs pause
  // identically, and must report the same estimate.
  const workload::Trace trace = malleable_spec().build(4);
  auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 4);
  config.resize_fixed_cost = 3.0;
  config.resize_per_slot_cost = 0.0;
  std::string error;
  workload::MaterializedTraceSource overridden(trace);
  const auto by_config = core::run_policy_on_source(core::PolicySpec("m-reconfiguration"),
                                                    overridden, config, {}, &error);
  ASSERT_TRUE(by_config.has_value()) << error;

  std::vector<workload::JobSpec> jobs = trace.jobs();
  for (workload::JobSpec& job : jobs) {
    job.malleability.resize_fixed_cost = 3.0;
    job.malleability.resize_per_slot_cost = 0.0;
  }
  const workload::Trace priced(trace.name(), trace.group(), trace.duration(), std::move(jobs));
  const auto by_contract = run_malleable("m-reconfiguration", priced);

  EXPECT_GT(by_config->resizes, 0u);
  EXPECT_EQ(fingerprint(*by_config), fingerprint(by_contract));
  EXPECT_GT(blocked_time_saved(*by_config), 0.0);
  EXPECT_EQ(blocked_time_saved(*by_config), blocked_time_saved(by_contract));
}

}  // namespace
}  // namespace vrc
