// Bit-exact pins for SWF replays, the runs where steady workstations park.
//
// A parked workstation skips its ticks and replays them on demand (DESIGN.md
// §12.6). The replay must reproduce every floating-point operation of the
// ticks it stands in for, so these cells pin every field of every completed
// job (testutil::full_fingerprint) to values captured before parking
// existed. The cells cover both SWF fixtures under every rigid policy, a
// paging (`profile=ramp`) replay with migrations, crash windows plus
// stochastic failures with resubmission, and a heterogeneous cluster with a
// slower exchange and lost restarts.
//
// Parameterized so ctest runs the cells in parallel.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "../common/report_fingerprint.h"
#include "core/experiment.h"
#include "workload/trace_spec.h"

namespace vrc {
namespace {

struct ReplayCell {
  const char* name;
  const char* fixture;   // stem under tests/data/swf/
  const char* profile;   // SWF `profile=` value
  int nodes;
  const char* policy;
  std::map<std::string, std::string> overrides;
  std::vector<faults::FaultEntry> crashes;
  std::uint64_t fingerprint;
};

constexpr const char* kNasa = "NASA-iPSC-1993-3";
constexpr const char* kSdsc = "SDSC-SP2-1998-4";

const std::map<std::string, std::string> kFaulty = {
    {"fault.mtbf", "3000"}, {"fault.mttr", "200"}, {"fault.restart", "resubmit"}};
const std::vector<faults::FaultEntry> kTwoCrashes = {{2, 600.0, 300.0}, {9, 2400.0, 500.0}};
const std::map<std::string, std::string> kHetero = {{"node.0.cpu_mhz", "233"},
                                                    {"node.3.cpu_mhz", "733"},
                                                    {"load_exchange_period", "2.5"},
                                                    {"fault.restart", "lose"}};
const std::vector<faults::FaultEntry> kOneCrash = {{5, 1500.0, 400.0}};

// Captured at the commit before workstations could park. On flat profiles
// nothing pages, so the four memory-aware rigid policies tie exactly.
const ReplayCell kCells[] = {
    {"NasaGLoadSharing", kNasa, "flat", 8, "g-loadsharing", {}, {}, 0x127725437a845c4cull},
    {"NasaVReconf", kNasa, "flat", 8, "v-reconf", {}, {}, 0x127725437a845c4cull},
    {"NasaSuspension", kNasa, "flat", 8, "suspension", {}, {}, 0x127725437a845c4cull},
    {"NasaOracle", kNasa, "flat", 8, "oracle", {}, {}, 0xf3768d7948b70d63ull},
    {"NasaLocalOnly", kNasa, "flat", 8, "local-only", {}, {}, 0xf9010503aae93382ull},
    {"NasaMReconfiguration", kNasa, "flat", 8, "m-reconfiguration", {}, {}, 0x127725437a845c4cull},
    {"SdscGLoadSharing", kSdsc, "flat", 8, "g-loadsharing", {}, {}, 0x156cb745ed059c58ull},
    {"SdscVReconf", kSdsc, "flat", 8, "v-reconf", {}, {}, 0x156cb745ed059c58ull},
    {"SdscSuspension", kSdsc, "flat", 8, "suspension", {}, {}, 0x156cb745ed059c58ull},
    {"SdscOracle", kSdsc, "flat", 8, "oracle", {}, {}, 0x41a033f07a4c2981ull},
    {"SdscLocalOnly", kSdsc, "flat", 8, "local-only", {}, {}, 0x20066b321b55664cull},
    {"SdscMReconfiguration", kSdsc, "flat", 8, "m-reconfiguration", {}, {}, 0x156cb745ed059c58ull},
    {"NasaRampGLoadSharing", kNasa, "ramp", 8, "g-loadsharing", {}, {}, 0xb9ef6f2f816c3369ull},
    {"NasaRampVReconf", kNasa, "ramp", 8, "v-reconf", {}, {}, 0x2a94a4b5a93dc19bull},
    {"NasaFaultsOracle", kNasa, "flat", 16, "oracle", kFaulty, kTwoCrashes, 0xf219c604d810cf4bull},
    {"NasaFaultsVReconf", kNasa, "flat", 16, "v-reconf", kFaulty, kTwoCrashes,
     0xe2085b4fdae07a7cull},
    {"SdscFaultsOracle", kSdsc, "flat", 16, "oracle", kFaulty, kTwoCrashes, 0x2b38a3bab3e7fdb3ull},
    {"SdscFaultsVReconf", kSdsc, "flat", 16, "v-reconf", kFaulty, kTwoCrashes,
     0xb37c7a1a1fc19226ull},
    {"NasaHeteroOracle", kNasa, "flat", 12, "oracle", kHetero, kOneCrash, 0x9eabe28a85d0affaull},
    {"NasaHeteroVReconf", kNasa, "flat", 12, "v-reconf", kHetero, kOneCrash, 0x2458b5b00711942cull},
    {"SdscHeteroOracle", kSdsc, "flat", 12, "oracle", kHetero, kOneCrash, 0xc2150f6648016acfull},
    {"SdscHeteroVReconf", kSdsc, "flat", 12, "v-reconf", kHetero, kOneCrash, 0x5d97ef748bf555a7ull},
};

void PrintTo(const ReplayCell& cell, std::ostream* os) { *os << cell.name; }

class SteadyReplayFingerprintTest : public testing::TestWithParam<ReplayCell> {};

TEST_P(SteadyReplayFingerprintTest, EveryRecordIsBitIdentical) {
  const ReplayCell& cell = GetParam();
  std::string error;
  const std::optional<workload::TraceSpec> trace = workload::TraceSpec::parse(
      std::string("swf:file=") + VRC_TEST_DATA_DIR + "/swf/" + cell.fixture +
          ".swf,scale=0.1,min_runtime=1,profile=" + cell.profile,
      &error);
  ASSERT_TRUE(trace.has_value()) << error;
  const auto nodes = static_cast<std::uint32_t>(cell.nodes);
  const std::unique_ptr<workload::ArrivalSource> source = trace->make_source(nodes);
  auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, nodes);
  ASSERT_TRUE(config.apply_overrides(cell.overrides, &error)) << error;
  core::ExperimentOptions options;
  options.fault_entries = cell.crashes;
  const auto report =
      *core::run_policy_on_source(core::PolicySpec(cell.policy), *source, config, options);
  EXPECT_EQ(report.jobs_completed, report.jobs_submitted);
  EXPECT_EQ(testutil::full_fingerprint(report), cell.fingerprint)
      << "actual fingerprint: 0x" << std::hex << testutil::full_fingerprint(report);
}

std::string cell_name(const testing::TestParamInfo<ReplayCell>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(SwfCells, SteadyReplayFingerprintTest, testing::ValuesIn(kCells),
                         cell_name);

}  // namespace
}  // namespace vrc
