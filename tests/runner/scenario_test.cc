// The declarative scenario layer: spec-file parsing, precise error text, and
// the headline determinism contract — a ScenarioSpec naming today's defaults
// reproduces the FNV-1a goldens that
// tests/integration/determinism_fingerprint_test.cc pins for direct runs.
#include "runner/scenario.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>

#include "../common/fingerprint_goldens.h"
#include "core/baselines.h"
#include "core/experiment.h"
#include "metrics/fingerprint.h"

namespace vrc::runner {
namespace {

using metrics::fingerprint;
using testutil::kGLoadSharingGolden;
using testutil::kVReconfigurationGolden;

TEST(ScenarioSpecTest, ParsesAFullSpecFileBody) {
  const std::string text =
      "# paper cluster 1, heavier memory pressure\n"
      "cluster paper1\n"
      "nodes 8\n"
      "trace spec:trace=2\n"
      "trace spec:jobs=60,duration=600,seed=5   # inline comment\n"
      "policy g-loadsharing\n"
      "policy v-reconf:early_release=0,max_reservations=2\n"
      "set memory_threshold=0.9,cpu_threshold=4\n"
      "set node.3.memory=128MB\n"
      "trials 2\n"
      "base_seed 11\n"
      "sampling_interval 10\n"
      "max_sim_time 200000\n";
  std::string error;
  const auto spec = ScenarioSpec::parse(text, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  ASSERT_EQ(spec->traces.size(), 2u);
  EXPECT_EQ(spec->traces[0].standard_index, 2);
  EXPECT_EQ(spec->traces[1].num_jobs, 60u);
  ASSERT_EQ(spec->policies.size(), 2u);
  EXPECT_EQ(spec->policies[1].print(), "v-reconf:early_release=0,max_reservations=2");
  EXPECT_EQ(spec->cluster, "paper1");
  EXPECT_EQ(spec->nodes, 8u);
  EXPECT_EQ(spec->config_overrides.at("memory_threshold"), "0.9");
  EXPECT_EQ(spec->config_overrides.at("cpu_threshold"), "4");
  EXPECT_EQ(spec->config_overrides.at("node.3.memory"), "128MB");
  EXPECT_EQ(spec->trials, 2);
  EXPECT_EQ(spec->base_seed, 11u);
  EXPECT_DOUBLE_EQ(spec->sampling_interval, 10.0);
  EXPECT_DOUBLE_EQ(spec->max_sim_time, 200000.0);
}

TEST(ScenarioSpecTest, ApplyLineRejectsEachFailureClassPrecisely) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(spec.apply_line("warp_speed 9", &error));
  EXPECT_NE(error.find("unknown scenario directive 'warp_speed'"), std::string::npos) << error;
  EXPECT_NE(error.find("trace, policy, cluster"), std::string::npos) << error;
  // Every cell streams its workload, so there is no `stream` switch.
  EXPECT_FALSE(spec.apply_line("stream on", &error));
  EXPECT_NE(error.find("unknown scenario directive 'stream'"), std::string::npos) << error;

  EXPECT_FALSE(spec.apply_line("policy", &error));
  EXPECT_NE(error.find("needs an argument"), std::string::npos) << error;
  EXPECT_FALSE(spec.apply_line("cluster paper3", &error));
  EXPECT_NE(error.find("expected auto, paper1, or paper2"), std::string::npos) << error;
  EXPECT_FALSE(spec.apply_line("nodes eight", &error));
  EXPECT_NE(error.find("not a positive int"), std::string::npos) << error;
  EXPECT_FALSE(spec.apply_line("trials 0", &error));
  EXPECT_FALSE(spec.apply_line("set memory_threshold", &error));
  EXPECT_NE(error.find("not key=value"), std::string::npos) << error;
  EXPECT_FALSE(spec.apply_line("sampling_interval -3", &error));
  EXPECT_NE(error.find("positive duration"), std::string::npos) << error;
  // Nested parse errors surface verbatim.
  EXPECT_FALSE(spec.apply_line("trace hpc:trace=1", &error));
  EXPECT_NE(error.find("unknown workload group 'hpc'"), std::string::npos) << error;
  EXPECT_FALSE(spec.apply_line("policy v-reconf:=1", &error));
  // Registry validation is deferred to to_grid(): an unknown policy *name*
  // is syntactically fine here (it may be registered later, custom-policy
  // style) and only rejected when the scenario is materialized.
  EXPECT_TRUE(spec.apply_line("policy no-such-policy:x=1", &error)) << error;

  // A failed line leaves the spec unchanged and later lines still apply.
  EXPECT_TRUE(spec.traces.empty());
  EXPECT_TRUE(spec.apply_line("nodes 16", &error)) << error;
  EXPECT_EQ(spec.nodes, 16u);
}

TEST(ScenarioSpecTest, FaultDirectiveParsesIntoEntries) {
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(spec.apply_line("fault crash node=2 at=100 for=60", &error)) << error;
  ASSERT_TRUE(spec.apply_line("fault crash at=5m for=90 node=0", &error)) << error;  // any order
  ASSERT_EQ(spec.faults.size(), 2u);
  EXPECT_EQ(spec.faults[0], (faults::FaultEntry{2, 100.0, 60.0}));
  EXPECT_EQ(spec.faults[1], (faults::FaultEntry{0, 300.0, 90.0}));
}

TEST(ScenarioSpecTest, FaultDirectiveRejectsEachFailureClassPrecisely) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(spec.apply_line("fault freeze node=1 at=0 for=1", &error));
  EXPECT_NE(error.find("fault kind 'freeze' unknown"), std::string::npos) << error;
  EXPECT_FALSE(spec.apply_line("fault crash node2 at=0 for=1", &error));
  EXPECT_NE(error.find("fault field 'node2' is not key=value"), std::string::npos) << error;
  EXPECT_FALSE(spec.apply_line("fault crash node=two at=0 for=1", &error));
  EXPECT_EQ(error,
            "fault field 'node': invalid value 'two' (expected non-negative int, e.g. node=2)");
  EXPECT_FALSE(spec.apply_line("fault crash node=1 at=-5 for=1", &error));
  EXPECT_EQ(error,
            "fault field 'at': invalid value '-5' (expected non-negative duration, e.g. at=100)");
  EXPECT_FALSE(spec.apply_line("fault crash node=1 at=5 for=0", &error));
  EXPECT_EQ(error,
            "fault field 'for': invalid value '0' (expected positive duration, e.g. for=60)");
  EXPECT_FALSE(spec.apply_line("fault crash node=1 at=5 temp=90", &error));
  EXPECT_EQ(error, "unknown fault field 'temp' (known fault fields: node, at, for)");
  EXPECT_FALSE(spec.apply_line("fault crash node=1 at=5", &error));
  EXPECT_NE(error.find("fault crash needs node=, at=, and for="), std::string::npos) << error;
  // None of the rejected lines may leave a partial entry behind.
  EXPECT_TRUE(spec.faults.empty());
}

TEST(ScenarioSpecTest, FaultNodeRejectsValuesBeyondTheNodeIdRange) {
  // node=4294967298 used to wrap to node 2 and crash it.
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(spec.apply_line("fault crash node=4294967298 at=10 for=5", &error));
  EXPECT_NE(error.find("fault field 'node': invalid value '4294967298' (expected non-negative int"),
            std::string::npos)
      << error;
  EXPECT_TRUE(spec.faults.empty());
  EXPECT_TRUE(spec.apply_line("fault crash node=4294967295 at=10 for=5", &error)) << error;
}

TEST(ScenarioSpecTest, MalleableDirectiveDefaultsGeneratedTracesOnly) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(spec.apply_line("malleable maybe", &error));
  EXPECT_NE(error.find("expected on or off"), std::string::npos) << error;
  EXPECT_FALSE(spec.malleable_configured());

  ASSERT_TRUE(spec.apply_line("trace spec:jobs=20,duration=100,seed=3", &error)) << error;
  ASSERT_TRUE(spec.apply_line("trace spec:jobs=20,duration=100,seed=3,malleable=0.25",
                              &error))
      << error;
  ASSERT_TRUE(spec.apply_line("policy g-loadsharing", &error)) << error;
  ASSERT_TRUE(spec.apply_line("malleable on", &error)) << error;
  EXPECT_TRUE(spec.malleable);
  EXPECT_TRUE(spec.malleable_configured());

  const auto grid = to_grid(spec, &error);
  ASSERT_TRUE(grid.has_value()) << error;
  ASSERT_EQ(grid->traces.size(), 2u);
  // The directive defaults only traces WITHOUT their own malleable= fraction:
  // the first trace becomes all-malleable (width [1,2] ⇒ every job submits at
  // width 2), the second keeps its explicit 0.25. Each grid entry is the
  // TraceSpec its cells build their sources from.
  const auto nodes = static_cast<std::uint32_t>(spec.nodes);
  const workload::Trace all_malleable = grid->traces[0].build(nodes);
  std::size_t wide = 0;
  for (const workload::JobSpec& job : all_malleable.jobs()) {
    EXPECT_TRUE(job.malleable());
    wide += job.initial_width() > 1 ? 1u : 0u;
  }
  EXPECT_EQ(wide, all_malleable.size());
  const workload::Trace partly_malleable = grid->traces[1].build(nodes);
  std::size_t fraction_malleable = 0;
  for (const workload::JobSpec& job : partly_malleable.jobs()) {
    fraction_malleable += job.malleable() ? 1u : 0u;
  }
  EXPECT_GT(fraction_malleable, 0u);
  EXPECT_LT(fraction_malleable, partly_malleable.size());

  // An explicit per-trace fraction alone also counts as configured.
  ScenarioSpec per_trace;
  ASSERT_TRUE(per_trace.apply_line("trace spec:jobs=20,duration=100,malleable=0.5", &error))
      << error;
  EXPECT_TRUE(per_trace.malleable_configured());
}

TEST(ScenarioSpecTest, ValidateCatchesFaultRangeAndOverlapAgainstNodeCount) {
  std::string error;
  // Node 9 does not exist in a 4-node cluster; caught at whole-spec
  // validation because the node count can be set after the fault line.
  EXPECT_FALSE(ScenarioSpec::parse("trace spec:trace=1\n"
                                   "policy g-loadsharing\n"
                                   "nodes 4\n"
                                   "fault crash node=9 at=10 for=5\n",
                                   &error)
                   .has_value());
  EXPECT_NE(error.find("node 9 out of range (cluster has 4 nodes)"), std::string::npos)
      << error;
  EXPECT_FALSE(ScenarioSpec::parse("trace spec:trace=1\n"
                                   "policy g-loadsharing\n"
                                   "nodes 4\n"
                                   "fault crash node=2 at=100 for=60\n"
                                   "fault crash node=2 at=120 for=10\n",
                                   &error)
                   .has_value());
  EXPECT_NE(error.find("windows at t=100 and t=120 overlap"), std::string::npos) << error;
}

TEST(ToGridTest, FaultEntriesReachTheExperimentOptions) {
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(spec.apply_line("trace spec:trace=1", &error));
  ASSERT_TRUE(spec.apply_line("policy g-loadsharing", &error));
  ASSERT_TRUE(spec.apply_line("fault crash node=3 at=40 for=20", &error));
  const auto grid = to_grid(spec, &error);
  ASSERT_TRUE(grid.has_value()) << error;
  EXPECT_EQ(grid->experiment.fault_entries, spec.faults);
}

TEST(ScenarioSpecTest, ParseReportsTheOffendingLineNumber) {
  std::string error;
  EXPECT_FALSE(
      ScenarioSpec::parse("trace spec:trace=1\n\npolicy g-loadsharing\nnodes zero\n", &error)
          .has_value());
  EXPECT_NE(error.find("line 4:"), std::string::npos) << error;
}

TEST(ScenarioSpecTest, ParseValidatesTheAssembledSpec) {
  std::string error;
  EXPECT_FALSE(ScenarioSpec::parse("policy g-loadsharing\n", &error).has_value());
  EXPECT_NE(error.find("no traces"), std::string::npos) << error;
  EXPECT_FALSE(ScenarioSpec::parse("trace spec:trace=1\n", &error).has_value());
  EXPECT_NE(error.find("no policies"), std::string::npos) << error;
}

TEST(ScenarioSpecTest, LoadReportsMissingFileWithPath) {
  std::string error;
  EXPECT_FALSE(ScenarioSpec::load("/nonexistent/dir/x.scn", &error).has_value());
  EXPECT_NE(error.find("/nonexistent/dir/x.scn"), std::string::npos) << error;
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(ToGridTest, UnknownPolicyAndBadOverrideFailBeforeTraceBuilding) {
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(spec.apply_line("trace spec:trace=1", &error));
  ASSERT_TRUE(spec.apply_line("policy no-such-policy", &error));
  EXPECT_FALSE(to_grid(spec, &error).has_value());
  EXPECT_NE(error.find("unknown policy 'no-such-policy'"), std::string::npos) << error;

  spec.policies = {core::PolicySpec("g-loadsharing")};
  spec.config_overrides["bogus_knob"] = "1";
  EXPECT_FALSE(to_grid(spec, &error).has_value());
  EXPECT_NE(error.find("unknown config override 'bogus_knob'"), std::string::npos) << error;
}

/// Writes `body` to a fresh file under a per-test directory; returns its path.
std::string write_file(const std::string& name, const std::string& body) {
  const char* test = testing::UnitTest::GetInstance()->current_test_info()->name();
  const std::filesystem::path dir = std::filesystem::path(testing::TempDir()) / test;
  std::filesystem::create_directories(dir);
  const std::filesystem::path path = dir / name;
  std::ofstream(path) << body;
  return path.string();
}

TEST(ToGridTest, MalformedTraceFileFailsWithItsSpecNamed) {
  // Profile points out of order used to abort the process inside
  // MemoryProfile; as scenario input they are one clean to_grid error.
  const std::string body =
      "# vrc-trace v1\nname bad\ngroup spec\nduration 1\njobs 1\n"
      "job 1 0 0 x 10 0 2 0.5 100 0.2 200\n";
  const std::string path = write_file("bad.trace", body);
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(spec.apply_line("trace vrc file=" + path, &error)) << error;
  ASSERT_TRUE(spec.apply_line("policy g-loadsharing", &error)) << error;
  EXPECT_FALSE(to_grid(spec, &error).has_value());
  EXPECT_NE(error.find("trace spec 'vrc:file=" + path + "'"), std::string::npos) << error;
  EXPECT_NE(error.find("not strictly increasing"), std::string::npos) << error;

  spec.traces = {workload::TraceSpec::vrc(path + ".missing")};
  EXPECT_FALSE(to_grid(spec, &error).has_value());
  EXPECT_NE(error.find("trace spec 'vrc:file=" + path + ".missing'"), std::string::npos)
      << error;
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(ToGridTest, TraceNodesBeyondTheClusterAreRejected) {
  // nodes=64 on a 4-node cluster used to run with every home folded modulo 4.
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(spec.apply_line("nodes 4", &error)) << error;
  ASSERT_TRUE(spec.apply_line("trace spec:jobs=40,duration=300,seed=3,nodes=64", &error)) << error;
  ASSERT_TRUE(spec.apply_line("policy g-loadsharing", &error)) << error;
  EXPECT_FALSE(to_grid(spec, &error).has_value());
  EXPECT_EQ(error,
            "trace spec 'spec:jobs=40,duration=300,seed=3,nodes=64': home nodes reach node 63, "
            "but the cluster has 4 nodes");

  spec.traces[0].num_nodes = 4;
  EXPECT_TRUE(to_grid(spec, &error).has_value()) << error;
  // The scenario's nodes set the home range; a `set nodes=` may not shrink
  // the cluster below it.
  spec.traces[0].num_nodes = 0;
  spec.config_overrides["nodes"] = "2";
  EXPECT_FALSE(to_grid(spec, &error).has_value());
  EXPECT_NE(error.find("home nodes reach node 3, but the cluster has 2 nodes"), std::string::npos)
      << error;
}

TEST(ToGridTest, ReplayedHomeNodesBeyondTheClusterAreRejected) {
  // A trace file names its homes; home 4 on a 4-node cluster used to run on
  // node 0.
  const std::string header = "# vrc-trace v1\nname homes\ngroup spec\nduration 1\njobs 2\n";
  const std::string fits = header +
                           "job 1 0 0 small 10 0 2 0 4194304 0.2 8388608\n"
                           "job 2 0 3 small 10 0 2 0 4194304 0.2 8388608\n";
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(spec.apply_line("nodes 4", &error)) << error;
  ASSERT_TRUE(spec.apply_line("trace vrc file=" + write_file("fits.trace", fits), &error))
      << error;
  ASSERT_TRUE(spec.apply_line("policy g-loadsharing", &error)) << error;
  EXPECT_TRUE(to_grid(spec, &error).has_value()) << error;

  const std::string path = write_file("beyond.trace", header +
                                                          "job 1 0 0 small 10 0 2 0 4194304 "
                                                          "0.2 8388608\n"
                                                          "job 2 0 4 small 10 0 2 0 4194304 "
                                                          "0.2 8388608\n");
  spec.traces = {workload::TraceSpec::vrc(path)};
  EXPECT_FALSE(to_grid(spec, &error).has_value());
  EXPECT_EQ(error, "trace spec 'vrc:file=" + path +
                       "': home nodes reach node 4, but the cluster has 4 nodes");
}

TEST(ScenarioRunTest, TraceFileReplaysAsWrittenInEveryTrial) {
  // An apps-group file next to the scenario: the relative path is rebased,
  // `cluster auto` takes paper cluster 2 from the file's group line, and
  // neither `malleable on` nor a trial seed shift touches the replayed jobs.
  std::string error;
  const auto generated = workload::TraceSpec::parse("apps:jobs=30,duration=300,name=few", &error);
  ASSERT_TRUE(generated.has_value()) << error;
  const workload::Trace saved = generated->build(4);
  std::ostringstream body;
  saved.save(body);
  const std::string trace_path = write_file("few.trace", body.str());
  const std::string scenario =
      "trace vrc file=few.trace\nnodes 4\npolicy g-loadsharing\nmalleable on\ntrials 2\n";
  const auto spec = ScenarioSpec::load(write_file("replay.scn", scenario), &error);
  ASSERT_TRUE(spec.has_value()) << error;
  ASSERT_EQ(spec->traces.size(), 1u);
  EXPECT_EQ(spec->traces[0], workload::TraceSpec::vrc(trace_path));

  const auto grid = to_grid(*spec, &error);
  ASSERT_TRUE(grid.has_value()) << error;
  EXPECT_EQ(grid->configs[0].nodes[0].memory,
            cluster::ClusterConfig::paper_cluster2(4).nodes[0].memory);
  ASSERT_EQ(grid->traces.size(), 2u);
  for (const workload::TraceSpec& trace : grid->traces) EXPECT_EQ(trace, spec->traces[0]);

  const auto run = run_scenario(*spec, 1, &error);
  ASSERT_TRUE(run.has_value()) << error;
  workload::MaterializedTraceSource source(saved);
  const auto direct = core::run_policy_on_source(core::PolicySpec("g-loadsharing"), source,
                                                 grid->configs[0], grid->experiment, &error);
  ASSERT_TRUE(direct.has_value()) << error;
  EXPECT_EQ(run->cell(0, 0, 0, 0).report.trace, "few");
  EXPECT_EQ(run->cell(0, 0, 0, 0).report.jobs_completed, 30u);
  EXPECT_EQ(run->cell(0, 0, 0, 0).report.malleable_jobs, 0u);
  EXPECT_EQ(fingerprint(run->cell(0, 0, 0, 0).report), fingerprint(*direct));
  EXPECT_EQ(fingerprint(run->cell(1, 0, 0, 0).report), fingerprint(*direct));
}

TEST(ToGridTest, AutoClusterRejectsMixedWorkloadGroups) {
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(spec.apply_line("trace spec:trace=1", &error));
  ASSERT_TRUE(spec.apply_line("trace apps:trace=1", &error));
  ASSERT_TRUE(spec.apply_line("policy g-loadsharing", &error));
  EXPECT_FALSE(to_grid(spec, &error).has_value());
  EXPECT_NE(error.find("cluster 'auto'"), std::string::npos) << error;
  EXPECT_NE(error.find("cluster paper1"), std::string::npos) << error;

  ASSERT_TRUE(spec.apply_line("cluster paper1", &error));
  EXPECT_TRUE(to_grid(spec, &error).has_value()) << error;
}

// The headline equivalence proof: a scenario naming the fingerprint run
// (same trace params, default-param policies, no overrides) reproduces the
// exact FNV-1a goldens captured on the legacy enum path.
TEST(ScenarioEquivalenceTest, DefaultSpecRunMatchesEnumPathGoldens) {
  const std::string text =
      "cluster paper1\n"
      "nodes 8\n"
      "trace spec:jobs=120,duration=900,seed=7,name=fingerprint-trace\n"
      "policy g-loadsharing\n"
      "policy v-reconf\n";
  std::string error;
  const auto spec = ScenarioSpec::parse(text, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  const auto run = run_scenario(*spec, /*jobs=*/2, &error);
  ASSERT_TRUE(run.has_value()) << error;
  ASSERT_EQ(run->cells.size(), 2u);
  EXPECT_EQ(fingerprint(run->cell(0, 0, 0, 0).report), kGLoadSharingGolden);
  EXPECT_EQ(fingerprint(run->cell(0, 0, 0, 1).report), kVReconfigurationGolden);
}

TEST(ScenarioRunTest, TrialsExpandTheTraceAxisTrialMajor) {
  const std::string base_text =
      "cluster paper1\n"
      "nodes 8\n"
      "trace spec:jobs=30,duration=300,seed=3,name=tr\n"
      "trace spec:jobs=30,duration=300,seed=4,name=tr2\n"
      "policy g-loadsharing\n"
      "policy local-only\n";
  std::string error;
  auto spec = ScenarioSpec::parse(base_text, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  const auto single = run_scenario(*spec, 2, &error);
  ASSERT_TRUE(single.has_value()) << error;

  ASSERT_TRUE(spec->apply_line("trials 3", &error));
  const auto repeated = run_scenario(*spec, 2, &error);
  ASSERT_TRUE(repeated.has_value()) << error;
  ASSERT_EQ(repeated->cells.size(), 3u * 2u * 2u);
  EXPECT_EQ(repeated->num_trials, 3);
  EXPECT_EQ(repeated->num_traces, 2u);
  EXPECT_EQ(repeated->num_policies, 2u);

  // Trial 0 is the scenario exactly as specified.
  for (std::size_t t = 0; t < 2; ++t) {
    for (std::size_t p = 0; p < 2; ++p) {
      EXPECT_EQ(fingerprint(repeated->cell(0, t, 0, p).report),
                fingerprint(single->cell(0, t, 0, p).report))
          << "trace " << t << " policy " << p;
    }
  }
  // Later trials are fresh realizations of the same shape, not copies.
  EXPECT_NE(fingerprint(repeated->cell(1, 0, 0, 0).report),
            fingerprint(repeated->cell(0, 0, 0, 0).report));
  EXPECT_NE(fingerprint(repeated->cell(2, 0, 0, 0).report),
            fingerprint(repeated->cell(1, 0, 0, 0).report));
  // Same trial, same trace, different policies share the trace realization.
  EXPECT_EQ(repeated->cell(1, 0, 0, 0).report.trace, repeated->cell(1, 0, 0, 1).report.trace);
  EXPECT_EQ(repeated->cell(1, 0, 0, 0).report.jobs_submitted,
            repeated->cell(1, 0, 0, 1).report.jobs_submitted);
}

TEST(ScenarioSpecTest, NumericDirectivesRejectNonFiniteValues) {
  // `max_sim_time nan` used to submit no job and exit 0.
  for (const std::string value : {"nan", "inf", "-inf", "1e999"}) {
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(spec.apply_line("sampling_interval " + value, &error)) << value;
    EXPECT_NE(error.find("sampling_interval '" + value + "'"), std::string::npos) << error;
    EXPECT_FALSE(spec.apply_line("max_sim_time " + value, &error)) << value;
    EXPECT_NE(error.find("max_sim_time '" + value + "'"), std::string::npos) << error;
    EXPECT_FALSE(spec.apply_line("fault crash node=1 at=" + value + " for=60", &error)) << value;
    EXPECT_NE(error.find("fault field 'at': invalid value '" + value +
                         "' (expected non-negative duration"),
              std::string::npos)
        << error;
    EXPECT_FALSE(spec.apply_line("fault crash node=1 at=100 for=" + value, &error)) << value;
    EXPECT_NE(error.find("fault field 'for': invalid value '" + value +
                         "' (expected positive duration"),
              std::string::npos)
        << error;
    EXPECT_TRUE(spec.faults.empty());
  }
}

TEST(ToGridTest, MalleableTraceWiderThanCpuThresholdIsRejected) {
  // Jobs submit at their widest width; wider than cpu_threshold, none can
  // start and the run used to end silently at max_sim_time.
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(spec.apply_line("trace spec:jobs=10,duration=10,malleable=1,malleable_max=6",
                              &error))
      << error;
  ASSERT_TRUE(spec.apply_line("policy g-loadsharing", &error)) << error;
  EXPECT_FALSE(to_grid(spec, &error).has_value());
  EXPECT_NE(error.find("trace spec '" + spec.traces[0].print() + "'"), std::string::npos)
      << error;
  EXPECT_NE(error.find("widest width 6, above cpu_threshold 5"), std::string::npos) << error;
  ASSERT_TRUE(spec.apply_line("set cpu_threshold=6", &error)) << error;
  EXPECT_TRUE(to_grid(spec, &error).has_value()) << error;  // width == threshold fits

  // `malleable on` gives generated traces width [1, 2].
  ScenarioSpec directive;
  ASSERT_TRUE(directive.apply_line("trace spec:jobs=10,duration=10", &error)) << error;
  ASSERT_TRUE(directive.apply_line("policy g-loadsharing", &error)) << error;
  ASSERT_TRUE(directive.apply_line("malleable on", &error)) << error;
  ASSERT_TRUE(directive.apply_line("set cpu_threshold=1", &error)) << error;
  EXPECT_FALSE(to_grid(directive, &error).has_value());
  EXPECT_NE(error.find("trace spec '" + directive.traces[0].print() + "'"), std::string::npos)
      << error;
  EXPECT_NE(error.find("widest width 2, above cpu_threshold 1"), std::string::npos) << error;
  ASSERT_TRUE(directive.apply_line("malleable off", &error)) << error;
  EXPECT_TRUE(to_grid(directive, &error).has_value()) << error;  // rigid width 1 fits
}

TEST(ScenarioSpecTest, NodesAndTrialsRejectValuesBeyondTheirTypes) {
  ScenarioSpec spec;
  std::string error;
  // 4294967297 nodes used to wrap the traces' home range to 1 node and then
  // abort on an uncaught std::bad_alloc.
  EXPECT_FALSE(spec.apply_line("nodes 4294967297", &error));
  EXPECT_NE(error.find("nodes '4294967297' exceeds the node id range (at most 4294967295)"),
            std::string::npos)
      << error;
  EXPECT_TRUE(spec.apply_line("nodes 4294967295", &error)) << error;
  // A trial count beyond int used to wrap (4294967298 ran 2 trials).
  for (const char* value : {"4294967298", "2147483648"}) {
    EXPECT_FALSE(spec.apply_line(std::string("trials ") + value, &error)) << value;
    EXPECT_NE(error.find(std::string("trials '") + value + "' is not a positive int"),
              std::string::npos)
        << error;
  }
  EXPECT_EQ(spec.trials, 1);
  EXPECT_TRUE(spec.apply_line("trials 2147483647", &error)) << error;
  EXPECT_EQ(spec.trials, 2147483647);
}

TEST(ScenarioSpecTest, CompareLinesMatchPolicyLinesByCanonicalText) {
  // Line order does not matter, and params match in any order.
  const std::string text =
      "trace spec:jobs=10,duration=10\n"
      "compare g-loadsharing v-reconf:max_reservations=2,early_release=0\n"
      "compare g-loadsharing oracle\n"
      "policy g-loadsharing\n"
      "policy v-reconf:early_release=0,max_reservations=2\n"
      "policy oracle\n";
  std::string error;
  const auto spec = ScenarioSpec::parse(text, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  ASSERT_EQ(spec->compares.size(), 2u);
  EXPECT_EQ(spec->policy_index(spec->compares[0].first), 0u);
  EXPECT_EQ(spec->policy_index(spec->compares[0].second), 1u);
  EXPECT_EQ(spec->policy_index(spec->compares[1].second), 2u);

  EXPECT_FALSE(ScenarioSpec::parse(text + "compare g-loadsharing suspension\n", &error)
                   .has_value());
  EXPECT_NE(error.find("compare names 'suspension', which matches no `policy` line"),
            std::string::npos)
      << error;

  ScenarioSpec partial;
  for (const char* line : {"compare g-loadsharing", "compare a b c"}) {
    EXPECT_FALSE(partial.apply_line(line, &error)) << line;
    EXPECT_NE(error.find("needs two policy specs"), std::string::npos) << error;
  }
  EXPECT_FALSE(partial.apply_line("compare g-loadsharing v-reconf:=1", &error));
  EXPECT_TRUE(partial.compares.empty());
}

TEST(ScenarioSpecTest, SweepDirectiveParsesOneAxis) {
  ScenarioSpec spec;
  std::string error;
  for (const char* line : {"sweep fault.mtbf", "sweep =1|2", "sweep fault.mtbf=", "sweep x=1||2"}) {
    EXPECT_FALSE(spec.apply_line(line, &error)) << line;
    EXPECT_NE(error.find("is not KEY=V1|V2|..."), std::string::npos) << error;
  }
  ASSERT_TRUE(spec.apply_line("sweep fault.mtbf=0|3000| 750", &error)) << error;
  EXPECT_EQ(spec.sweep_key, "fault.mtbf");
  EXPECT_EQ(spec.sweep_values, (std::vector<std::string>{"0", "3000", "750"}));
  EXPECT_FALSE(spec.apply_line("sweep memory_threshold=0.5|0.9", &error));
  EXPECT_NE(error.find("already sweeps 'fault.mtbf'"), std::string::npos) << error;

  // Keys and values are checked like `set` overrides when the grid is built.
  ScenarioSpec unknown;
  ASSERT_TRUE(unknown.apply_line("trace spec:jobs=10,duration=10", &error)) << error;
  ASSERT_TRUE(unknown.apply_line("policy g-loadsharing", &error)) << error;
  ASSERT_TRUE(unknown.apply_line("sweep memory_threshold=0.5|x", &error)) << error;
  EXPECT_FALSE(to_grid(unknown, &error).has_value());
  EXPECT_NE(error.find("'memory_threshold': invalid value 'x'"), std::string::npos) << error;
}

TEST(ScenarioRunTest, SweepValuesRideTheConfigAxis) {
  const std::string base_text =
      "cluster paper1\n"
      "nodes 4\n"
      "base_seed 5\n"
      "trace spec:jobs=30,duration=300,seed=3,name=tr\n"
      "trace spec:jobs=30,duration=300,seed=4,name=tr2\n"
      "policy g-loadsharing\n"
      "policy v-reconf\n";
  std::string error;
  auto swept = ScenarioSpec::parse(base_text + "sweep cpu_threshold=2|4\n", &error);
  ASSERT_TRUE(swept.has_value()) << error;
  const auto run = run_scenario(*swept, 2, &error);
  ASSERT_TRUE(run.has_value()) << error;
  EXPECT_EQ(run->num_configs, 2u);
  ASSERT_EQ(run->cells.size(), 2u * 2u * 2u);

  for (std::size_t c = 0; c < 2; ++c) {
    // Each config is the scenario with `set KEY=value` instead.
    auto single = ScenarioSpec::parse(base_text, &error);
    ASSERT_TRUE(single.has_value()) << error;
    ASSERT_TRUE(single->apply_line("set cpu_threshold=" + swept->sweep_values[c], &error));
    const auto alone = run_scenario(*single, 2, &error);
    ASSERT_TRUE(alone.has_value()) << error;
    for (std::size_t t = 0; t < 2; ++t) {
      for (std::size_t p = 0; p < 2; ++p) {
        EXPECT_EQ(fingerprint(run->cell(0, t, c, p).report),
                  fingerprint(alone->cell(0, t, 0, p).report))
            << "trace " << t << " config " << c << " policy " << p;
        // Seeds key on (trace, config); without a sweep that is the trace.
        EXPECT_EQ(run->cell(0, t, c, p).seed, derive_seed(5, t * 2 + c));
        EXPECT_EQ(alone->cell(0, t, 0, p).seed, derive_seed(5, t));
      }
    }
  }
  EXPECT_NE(fingerprint(run->cell(0, 0, 0, 0).report), fingerprint(run->cell(0, 0, 1, 0).report));
}

TEST(ScenarioRunTest, OneThreadAndManyThreadsProduceIdenticalReports) {
  // Stochastic faults make the runs consume the derived per-cell seeds, so
  // the check also covers seed derivation.
  const std::string text =
      "cluster paper1\n"
      "nodes 8\n"
      "trace spec:jobs=40,duration=600,seed=31\n"
      "trace spec:jobs=40,duration=600,seed=32\n"
      "policy g-loadsharing\n"
      "policy v-reconf\n"
      "set stochastic_faults=1\n"
      "base_seed 99\n";
  std::string error;
  const auto spec = ScenarioSpec::parse(text, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  const auto serial = run_scenario(*spec, /*jobs=*/1, &error);
  ASSERT_TRUE(serial.has_value()) << error;
  const auto parallel = run_scenario(*spec, /*jobs=*/4, &error);
  ASSERT_TRUE(parallel.has_value()) << error;
  ASSERT_EQ(serial->cells.size(), 4u);
  ASSERT_EQ(parallel->cells.size(), serial->cells.size());
  for (std::size_t i = 0; i < serial->cells.size(); ++i) {
    EXPECT_EQ(serial->cells[i].seed, parallel->cells[i].seed) << "cell " << i;
    EXPECT_EQ(fingerprint(serial->cells[i].report), fingerprint(parallel->cells[i].report))
        << "cell " << i;
  }
}

/// Threads of this process right now (one /proc/self/task entry each).
std::size_t process_threads() {
  std::error_code ec;
  std::size_t count = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end; !ec && it != end;
       it.increment(ec)) {
    ++count;
  }
  return count;
}

std::atomic<std::size_t> peak_threads{0};

/// Local-Only, except that every arrival records the process's thread count.
class ThreadCountingPolicy : public core::LocalOnly {
 public:
  void on_job_arrival(cluster::Cluster& cluster, cluster::RunningJob& job) override {
    const std::size_t now = process_threads();
    std::size_t peak = peak_threads.load();
    while (now > peak && !peak_threads.compare_exchange_weak(peak, now)) {
    }
    core::LocalOnly::on_job_arrival(cluster, job);
  }
};

TEST(ScenarioRunTest, StartsNoMoreThreadsThanCells) {
  if (!std::filesystem::exists("/proc/self/task")) GTEST_SKIP() << "needs /proc/self/task";
  core::PolicyRegistry::instance().register_policy(
      "thread-counting", [] { return std::make_unique<ThreadCountingPolicy>(); });
  std::string error;
  const auto spec = ScenarioSpec::parse(
      "nodes 4\n"
      "trace spec:jobs=10,duration=60,seed=3\n"
      "trials 2\n"
      "policy thread-counting\n",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;

  // Two cells at jobs=64: two workers besides the threads already running
  // (this one, plus any a sanitizer runtime keeps), not 64.
  const std::size_t before = process_threads();
  peak_threads = 0;
  const auto run = run_scenario(*spec, /*jobs=*/64, &error);
  ASSERT_TRUE(run.has_value()) << error;
  ASSERT_EQ(run->cells.size(), 2u);
  EXPECT_GT(peak_threads.load(), before);
  EXPECT_LE(peak_threads.load(), before + 2);
}

/// Local-Only, except that the first arrival throws.
class ThrowingPolicy : public core::LocalOnly {
 public:
  void on_job_arrival(cluster::Cluster& /*cluster*/, cluster::RunningJob& /*job*/) override {
    throw std::runtime_error("cell failed");
  }
};

TEST(ScenarioRunTest, CellExceptionReachesTheCaller) {
  // An exception escaping a worker thread used to terminate the process.
  core::PolicyRegistry::instance().register_policy(
      "throwing", [] { return std::make_unique<ThrowingPolicy>(); });
  std::string error;
  const auto spec = ScenarioSpec::parse(
      "nodes 4\n"
      "trace spec:jobs=10,duration=60,seed=3\n"
      "trials 3\n"
      "policy throwing\n",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_THROW(run_scenario(*spec, /*jobs=*/2, &error), std::runtime_error);
}

}  // namespace
}  // namespace vrc::runner
