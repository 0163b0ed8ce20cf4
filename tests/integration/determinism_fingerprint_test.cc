// Bit-exact determinism fingerprints for fig1-style runs.
//
// Compares the shared FNV-1a report fingerprint (metrics::fingerprint,
// src/metrics/fingerprint.h) against goldens captured before the event-core
// rewrite (commit ff28ab2, std::priority_queue + unordered_map simulator and
// scan-based workstation aggregates). Any change to event ordering, tick
// accounting, or policy decisions shifts the fingerprint: engine
// optimizations must keep these runs bit-identical. The scenario-layer
// equivalence tests (tests/runner/scenario_test.cc) hold the declarative
// spec path to the same goldens.
#include <gtest/gtest.h>

#include <cstdint>

#include "../common/fingerprint_goldens.h"
#include "core/experiment.h"
#include "metrics/fingerprint.h"
#include "metrics/report.h"
#include "workload/arrival_source.h"

namespace vrc {
namespace {

using metrics::fingerprint;
using testutil::kGLoadSharingGolden;
using testutil::kVReconfigurationGolden;

metrics::RunReport run_fig1_style(const char* policy, double load_exchange_period = 0.0) {
  workload::TraceParams params;
  params.name = "fingerprint-trace";
  params.group = workload::WorkloadGroup::kSpec;
  params.num_jobs = 120;
  params.duration = 900.0;
  params.num_nodes = 8;
  params.seed = 7;
  workload::GeneratedStreamSource source(params);
  auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 8);
  if (load_exchange_period > 0.0) config.load_exchange_period = load_exchange_period;
  return *core::run_policy_on_source(core::PolicySpec(policy), source, config);
}

// Goldens for the same fig1-style runs with a non-default exchange period
// (2.5s instead of 1.0s), captured on the pre-dirty-set full-rebroadcast
// exchange. A longer period widens the window in which the dirty set
// accumulates and the board goes stale, so this re-checks the
// stale-but-identical contract at a staleness the default-period goldens
// never reach.
constexpr std::uint64_t kGLoadSharingSlowExchangeGolden = 0x5f646c0d05a1b9a9ull;
constexpr std::uint64_t kVReconfigurationSlowExchangeGolden = 0x22426a262c4385fdull;

TEST(DeterminismFingerprintTest, GLoadSharingMatchesPreRewriteEngine) {
  const auto report = run_fig1_style("g-loadsharing");
  EXPECT_EQ(report.jobs_completed, report.jobs_submitted);
  EXPECT_EQ(fingerprint(report), kGLoadSharingGolden)
      << "actual fingerprint: 0x" << std::hex << fingerprint(report);
}

TEST(DeterminismFingerprintTest, VReconfigurationMatchesPreRewriteEngine) {
  const auto report = run_fig1_style("v-reconf");
  EXPECT_EQ(report.jobs_completed, report.jobs_submitted);
  EXPECT_EQ(fingerprint(report), kVReconfigurationGolden)
      << "actual fingerprint: 0x" << std::hex << fingerprint(report);
}

TEST(DeterminismFingerprintTest, GLoadSharingNonDefaultExchangePeriod) {
  const auto report = run_fig1_style("g-loadsharing", 2.5);
  EXPECT_EQ(report.jobs_completed, report.jobs_submitted);
  EXPECT_EQ(fingerprint(report), kGLoadSharingSlowExchangeGolden)
      << "actual fingerprint: 0x" << std::hex << fingerprint(report);
}

TEST(DeterminismFingerprintTest, VReconfigurationNonDefaultExchangePeriod) {
  const auto report = run_fig1_style("v-reconf", 2.5);
  EXPECT_EQ(report.jobs_completed, report.jobs_submitted);
  EXPECT_EQ(fingerprint(report), kVReconfigurationSlowExchangeGolden)
      << "actual fingerprint: 0x" << std::hex << fingerprint(report);
}

// Same-process repeatability: two identical runs must agree bit-for-bit
// (guards against any hidden global state in the engine or policies).
TEST(DeterminismFingerprintTest, RepeatedRunsAreBitIdentical) {
  const auto a = run_fig1_style("v-reconf");
  const auto b = run_fig1_style("v-reconf");
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

}  // namespace
}  // namespace vrc
