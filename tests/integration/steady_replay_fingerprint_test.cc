// Bit-exact pins for the runs where steady workstations park.
//
// A parked workstation skips its ticks and replays them on demand (DESIGN.md
// §12.6). The replay must reproduce every floating-point operation of the
// ticks it stands in for, so these cells pin every field of every completed
// job (metrics::full_fingerprint) to values captured before parking
// existed. The SWF cells cover both fixtures under every rigid policy, a
// paging (`profile=ramp`) replay with migrations, crash windows plus
// stochastic failures with resubmission, and a heterogeneous cluster with a
// slower exchange and lost restarts. The generated cells run SPEC and APPS
// traces, whose demands grow over each job's whole run, so their nodes park
// through unpressured memory ramps; their values were captured before ramp
// parking existed.
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

#include "core/experiment.h"
#include "metrics/fingerprint.h"
#include "workload/trace_spec.h"

namespace vrc {
namespace {

struct ReplayCell {
  const char* name;
  const char* trace;    // SWF fixture stem under tests/data/swf/, or a generated trace
  const char* profile;  // SWF `profile=` value; null for a generated trace
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
      cell.profile == nullptr ? std::string(cell.trace)
                              : std::string("swf:file=") + VRC_TEST_DATA_DIR + "/swf/" +
                                    cell.trace + ".swf,scale=0.1,min_runtime=1,profile=" +
                                    cell.profile,
      &error);
  ASSERT_TRUE(trace.has_value()) << error;
  const auto nodes = static_cast<std::uint32_t>(cell.nodes);
  const std::unique_ptr<workload::ArrivalSource> source = trace->make_source(nodes);
  auto config = core::paper_cluster_for(trace->group, nodes);
  ASSERT_TRUE(config.apply_overrides(cell.overrides, &error)) << error;
  core::ExperimentOptions options;
  options.fault_entries = cell.crashes;
  const auto report =
      *core::run_policy_on_source(core::PolicySpec(cell.policy), *source, config, options);
  EXPECT_EQ(report.jobs_completed, report.jobs_submitted);
  EXPECT_EQ(metrics::full_fingerprint(report), cell.fingerprint)
      << "actual fingerprint: 0x" << std::hex << metrics::full_fingerprint(report);
}

std::string cell_name(const testing::TestParamInfo<ReplayCell>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(SwfCells, SteadyReplayFingerprintTest, testing::ValuesIn(kCells),
                         cell_name);

constexpr const char* kSpecTrace = "spec:jobs=160,duration=1200,seed=11";
constexpr const char* kAppsTrace = "apps:jobs=100,duration=1200,seed=5";
constexpr const char* kSpecMalleable = "spec:jobs=160,duration=1200,seed=11,malleable=0.5";
constexpr const char* kAppsMalleable = "apps:jobs=100,duration=1200,seed=5,malleable=0.5";

// Captured at the commit before workstations could park through ramps.
const ReplayCell kGeneratedCells[] = {
    {"SpecGLoadSharing", kSpecTrace, nullptr, 6, "g-loadsharing", {}, {}, 0x74e0fba7731910c8ull},
    {"SpecVReconf", kSpecTrace, nullptr, 6, "v-reconf", {}, {}, 0x624204fc6285832dull},
    {"AppsGLoadSharing", kAppsTrace, nullptr, 8, "g-loadsharing", {}, {}, 0x56772c1975396118ull},
    {"AppsVReconf", kAppsTrace, nullptr, 8, "v-reconf", {}, {}, 0x791f24d5a4a2e761ull},
    {"SpecMReconfiguration", kSpecMalleable, nullptr, 6, "m-reconfiguration", {}, {},
     0x6b80adc987549d4cull},
    {"AppsMReconfiguration", kAppsMalleable, nullptr, 8, "m-reconfiguration", {}, {},
     0x50d21fa7bc9a709cull},
};

INSTANTIATE_TEST_SUITE_P(GeneratedCells, SteadyReplayFingerprintTest,
                         testing::ValuesIn(kGeneratedCells), cell_name);

}  // namespace
}  // namespace vrc
