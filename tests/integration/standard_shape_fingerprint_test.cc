// Malleability-off regression gate: the ten standard trace shapes under
// G-Loadsharing on their paper testbeds, pinned to the FNV-1a fingerprints
// captured at the commit immediately before the malleability axis landed
// (DESIGN.md §15). Width-weighted slot accounting, the resize state machine,
// and the extra generator substream must all be invisible on rigid
// workloads — any drift here means a rigid run changed, which is a bug, not
// a golden refresh. Each shape is pumped straight from
// TraceSpec::standard(g, i).make_source(32), so the goldens also pin the
// generator and the arrival pump, whose live spec storage must stay bounded
// by the jobs in flight.
//
// Parameterized so ctest runs the ten shapes in parallel (~1-3 s each).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "core/experiment.h"
#include "metrics/fingerprint.h"
#include "workload/trace_spec.h"

namespace vrc {
namespace {

struct ShapeGolden {
  workload::WorkloadGroup group;
  int index;
  std::uint64_t fingerprint;
};

// Captured by running G-Loadsharing over the standard (group, index) trace
// on paper_cluster_for(group, 32) at the pre-malleability HEAD.
constexpr ShapeGolden kGoldens[] = {
    {workload::WorkloadGroup::kSpec, 1, 0x316a883cc5e17cdeull},
    {workload::WorkloadGroup::kSpec, 2, 0x37838501ece6c1f9ull},
    {workload::WorkloadGroup::kSpec, 3, 0xb4e6bf8b9d5abc3full},
    {workload::WorkloadGroup::kSpec, 4, 0xad5981ce8d168057ull},
    {workload::WorkloadGroup::kSpec, 5, 0x3f31c27ace12487cull},
    {workload::WorkloadGroup::kApps, 1, 0x840e0118b8be21e1ull},
    {workload::WorkloadGroup::kApps, 2, 0x8b9024a97624183cull},
    {workload::WorkloadGroup::kApps, 3, 0x04e49989367f7beaull},
    {workload::WorkloadGroup::kApps, 4, 0x9dc2e2a741642dc4ull},
    {workload::WorkloadGroup::kApps, 5, 0x73c96d1564ef06acull},
};

class StandardShapeFingerprintTest : public testing::TestWithParam<ShapeGolden> {};

TEST_P(StandardShapeFingerprintTest, RigidShapeIsByteIdenticalToPreMalleabilityBaseline) {
  const ShapeGolden& golden = GetParam();
  const std::unique_ptr<workload::ArrivalSource> source =
      workload::TraceSpec::standard(golden.group, golden.index).make_source(32);
  const std::size_t jobs = *source->total_jobs();
  const auto config = core::paper_cluster_for(golden.group, 32);
  const auto report = *core::run_policy_on_source(core::PolicySpec("g-loadsharing"), *source,
                                                  config);
  EXPECT_EQ(metrics::fingerprint(report), golden.fingerprint);
  EXPECT_TRUE(report.streamed);
  EXPECT_EQ(report.jobs_submitted, jobs);
  // The pump holds only the jobs in flight, never more than the trace.
  EXPECT_GT(report.peak_live_specs, 0u);
  EXPECT_LE(report.peak_live_specs, jobs);
  // And the malleability surface stays dark on rigid workloads.
  EXPECT_EQ(report.malleable_jobs, 0u);
  EXPECT_EQ(report.resizes, 0u);
  EXPECT_EQ(report.width_time_product, 0.0);
}

std::string shape_name(const testing::TestParamInfo<ShapeGolden>& info) {
  return (info.param.group == workload::WorkloadGroup::kSpec ? "Spec" : "Apps") +
         std::to_string(info.param.index);
}

INSTANTIATE_TEST_SUITE_P(AllTenShapes, StandardShapeFingerprintTest,
                         testing::ValuesIn(kGoldens), shape_name);

}  // namespace
}  // namespace vrc
