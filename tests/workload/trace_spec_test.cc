// TraceSpec: the declarative trace axis of a scenario. Covers parse/print
// round-trips, validation errors, and — critically — that a spec naming a
// standard trace builds the byte-identical collect-once trace (published
// shape, standard name, fixed per-(group, index) seed).
#include "workload/trace_spec.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "workload/catalog.h"
#include "workload/trace_generator.h"

namespace vrc::workload {
namespace {

// Full-content trace comparison via the text serialization (covers name,
// group, duration, and every job field).
std::string serialize(const Trace& trace) {
  std::ostringstream out;
  trace.save(out);
  return out.str();
}

// The standard trace's generator parameters, spelled out independently of
// TraceSpec::to_params: the published shape, the "SPEC-Trace-<i>" /
// "App-Trace-<i>" name, and the fixed seed every run of the shape replays.
TraceParams standard_params(WorkloadGroup group, int index, std::uint32_t nodes) {
  const StandardTraceShape shape = standard_trace_shape(index);
  TraceParams params;
  params.name = std::string(group == WorkloadGroup::kSpec ? "SPEC-Trace-" : "App-Trace-") +
                std::to_string(index);
  params.group = group;
  params.sigma = shape.sigma;
  params.mu = shape.mu;
  params.num_jobs = shape.num_jobs;
  params.duration = shape.duration;
  params.num_nodes = nodes;
  params.seed = 0xC0FFEEULL * 31 + (group == WorkloadGroup::kSpec ? 1000u : 2000u) +
                static_cast<std::uint64_t>(index);
  return params;
}

TEST(TraceSpecTest, StandardSpecBuildsByteIdenticalStandardTrace) {
  for (int index = 1; index <= 5; ++index) {
    const Trace from_spec = TraceSpec::standard(WorkloadGroup::kSpec, index).build(8);
    const Trace reference = generate_trace(standard_params(WorkloadGroup::kSpec, index, 8));
    EXPECT_EQ(serialize(from_spec), serialize(reference)) << "trace " << index;
  }
  const Trace apps_spec = TraceSpec::standard(WorkloadGroup::kApps, 2).build(32);
  EXPECT_EQ(serialize(apps_spec),
            serialize(generate_trace(standard_params(WorkloadGroup::kApps, 2, 32))));
}

TEST(TraceSpecTest, PrintParseRoundTrips) {
  for (const char* text : {
           "spec:trace=3",
           "apps:trace=1",
           "spec:jobs=120,duration=900",
           "spec:jobs=120,duration=900,seed=7,name=fp",
           "spec:trace=2,seed=41",
           "spec:trace=2,arrival_scale=1.5,nodes=16",
           // Doubles keep every digit: a six-digit print lost these.
           "spec:jobs=10,duration=10,arrival_scale=1.2345678",
           "spec:jobs=10,duration=1800.1234567",
           "swf:file=x.swf,scale=0.123456789",
           "spec:trace=3,malleable=0.3333333",
       }) {
    std::string error;
    const auto spec = TraceSpec::parse(text, &error);
    ASSERT_TRUE(spec.has_value()) << text << ": " << error;
    const auto reparsed = TraceSpec::parse(spec->print(), &error);
    ASSERT_TRUE(reparsed.has_value()) << spec->print() << ": " << error;
    EXPECT_EQ(*reparsed, *spec) << text << " vs " << spec->print();
  }
}

TEST(TraceSpecTest, TraceFileSpecTakesOnlyAFile) {
  std::string error;
  const auto spec = TraceSpec::parse("vrc:file=episode.trace", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(*spec, TraceSpec::vrc("episode.trace"));
  EXPECT_TRUE(spec->is_replay());
  EXPECT_FALSE(spec->is_swf());
  EXPECT_EQ(spec->print(), "vrc:file=episode.trace");
  EXPECT_TRUE(TraceSpec::swf("log.swf").is_replay());

  EXPECT_FALSE(TraceSpec::parse("vrc:file=episode.trace,scale=2", &error).has_value());
  EXPECT_NE(error.find("unknown key 'scale'"), std::string::npos) << error;
  EXPECT_FALSE(TraceSpec::parse("vrc", &error).has_value());
  EXPECT_NE(error.find("key 'file': invalid value ''"), std::string::npos) << error;
  EXPECT_FALSE(TraceSpec::parse("vrc:file=", &error).has_value());
  EXPECT_NE(error.find("key 'file': invalid value '' (expected non-empty string"),
            std::string::npos)
      << error;

  TraceSpec named = TraceSpec::vrc("episode.trace");
  named.name = "renamed";
  EXPECT_FALSE(named.validate(&error));
  EXPECT_NE(error.find("only file="), std::string::npos) << error;
}

TEST(TraceSpecTest, TraceFileReplaysTheSavedTraceBitForBit) {
  // A generated trace's submit times and profile points need all 17
  // significant digits; the file must carry them.
  const Trace saved = TraceSpec::standard(WorkloadGroup::kApps, 1).build(8);
  const std::string path = testing::TempDir() + "/trace_spec_test_apps1.trace";
  ASSERT_TRUE(saved.save_to_file(path));
  const TraceSpec spec = TraceSpec::vrc(path);
  EXPECT_EQ(serialize(spec.build(32)), serialize(saved));
  std::unique_ptr<ArrivalSource> source = spec.make_source(32);
  EXPECT_EQ(source->name(), "App-Trace-1");
  EXPECT_EQ(source->group(), WorkloadGroup::kApps);
  const Trace replayed = materialize(*source, saved.duration());
  EXPECT_EQ(serialize(replayed), serialize(saved));
  const auto bits = [](double value) { return std::bit_cast<std::uint64_t>(value); };
  for (std::size_t i = 0; i < saved.size(); ++i) {
    const JobSpec& a = replayed.jobs()[i];
    const JobSpec& b = saved.jobs()[i];
    EXPECT_EQ(bits(a.submit_time), bits(b.submit_time)) << "job " << b.id;
    EXPECT_EQ(bits(a.cpu_seconds), bits(b.cpu_seconds)) << "job " << b.id;
    ASSERT_EQ(a.memory.points().size(), b.memory.points().size());
    for (std::size_t k = 0; k < a.memory.points().size(); ++k) {
      EXPECT_EQ(bits(a.memory.points()[k].progress), bits(b.memory.points()[k].progress));
    }
  }
}

TEST(TraceSpecTest, DurationAcceptsUnitSuffixes) {
  const auto spec = TraceSpec::parse("spec:jobs=10,duration=15min");
  ASSERT_TRUE(spec.has_value());
  EXPECT_DOUBLE_EQ(spec->duration, 900.0);
}

TEST(TraceSpecTest, ParseRejectsUnknownGroupKeysAndValues) {
  std::string error;
  EXPECT_FALSE(TraceSpec::parse("hpc:trace=1", &error).has_value());
  EXPECT_NE(error.find("unknown workload group 'hpc'"), std::string::npos) << error;

  EXPECT_FALSE(TraceSpec::parse("spec:trace=1,color=red", &error).has_value());
  EXPECT_NE(error.find("unknown key 'color'"), std::string::npos) << error;
  EXPECT_NE(error.find("known keys:"), std::string::npos) << error;

  EXPECT_FALSE(TraceSpec::parse("spec:trace=first", &error).has_value());
  EXPECT_NE(error.find("invalid value 'first'"), std::string::npos) << error;
  EXPECT_FALSE(TraceSpec::parse("spec:jobs=-4,duration=100", &error).has_value());
  EXPECT_FALSE(TraceSpec::parse("spec:jobs=10,duration=-5", &error).has_value());
  EXPECT_FALSE(TraceSpec::parse("spec:trace=1,arrival_scale=0", &error).has_value());
  EXPECT_FALSE(TraceSpec::parse("spec:trace=1,seed=soon", &error).has_value());
  EXPECT_FALSE(TraceSpec::parse("spec:trace=1,nodes=0", &error).has_value());
  EXPECT_FALSE(TraceSpec::parse("spec:trace=1,name=", &error).has_value());
  EXPECT_FALSE(TraceSpec::parse("spec:trace", &error).has_value());
  EXPECT_NE(error.find("not key=value"), std::string::npos) << error;
  EXPECT_FALSE(TraceSpec::parse("spec:trace=1,trace=2", &error).has_value());
  EXPECT_NE(error.find("duplicate param 'trace'"), std::string::npos) << error;
}

TEST(TraceSpecTest, ValidationEnforcesStandardVsGeneratedExclusivity) {
  std::string error;
  EXPECT_FALSE(TraceSpec::parse("spec:trace=1,jobs=50", &error).has_value());
  EXPECT_NE(error.find("mutually exclusive"), std::string::npos) << error;
  EXPECT_FALSE(TraceSpec::parse("spec", &error).has_value());
  EXPECT_NE(error.find("required"), std::string::npos) << error;
  EXPECT_FALSE(TraceSpec::parse("spec:trace=6", &error).has_value());
  EXPECT_NE(error.find("key 'trace': invalid value '6' (expected int in [1, 5]"),
            std::string::npos)
      << error;
  EXPECT_FALSE(TraceSpec::standard(WorkloadGroup::kSpec, 7).validate(&error));
  EXPECT_NE(error.find("key 'trace': invalid value '7' (expected int in [1, 5]"),
            std::string::npos)
      << error;
}

TEST(TraceSpecTest, SeedOverrideRegeneratesTheShapeAsAFreshRealization) {
  const Trace replayed = TraceSpec::standard(WorkloadGroup::kSpec, 2).build(8);
  auto reseeded_spec = TraceSpec::standard(WorkloadGroup::kSpec, 2);
  reseeded_spec.seed = 12345;
  const Trace reseeded = reseeded_spec.build(8);
  // Same shape (name, job count, duration) but different arrivals.
  EXPECT_EQ(reseeded.name(), replayed.name());
  EXPECT_EQ(reseeded.size(), replayed.size());
  EXPECT_DOUBLE_EQ(reseeded.duration(), replayed.duration());
  EXPECT_NE(serialize(reseeded), serialize(replayed));

  // The standard seed made explicit reproduces the replayed trace exactly.
  auto explicit_seed = TraceSpec::standard(WorkloadGroup::kSpec, 2);
  explicit_seed.seed = standard_params(WorkloadGroup::kSpec, 2, 8).seed;
  EXPECT_EQ(serialize(explicit_seed.build(8)), serialize(replayed));
}

TEST(TraceSpecTest, GeneratedSpecMatchesHandBuiltTraceParams) {
  TraceSpec spec;
  spec.group = WorkloadGroup::kSpec;
  spec.num_jobs = 40;
  spec.duration = 600.0;
  spec.seed = 31;
  spec.name = "sweep-31";
  const Trace from_spec = spec.build(8);

  TraceParams params;
  params.name = "sweep-31";
  params.group = WorkloadGroup::kSpec;
  params.num_jobs = 40;
  params.duration = 600.0;
  params.num_nodes = 8;
  params.seed = 31;
  EXPECT_EQ(serialize(from_spec), serialize(generate_trace(params)));
}

TEST(TraceSpecTest, MalleableParamsParsePrintAndValidate) {
  std::string error;
  const auto spec = TraceSpec::parse(
      "spec:jobs=50,duration=300,malleable=0.5,malleable_min=2,malleable_max=4,"
      "malleable_alpha=0.9",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_DOUBLE_EQ(spec->malleable_fraction, 0.5);
  EXPECT_EQ(spec->malleable_min_width, 2);
  EXPECT_EQ(spec->malleable_max_width, 4);
  EXPECT_DOUBLE_EQ(spec->malleable_speedup_alpha, 0.9);
  const auto reparsed = TraceSpec::parse(spec->print(), &error);
  ASSERT_TRUE(reparsed.has_value()) << spec->print() << ": " << error;
  EXPECT_EQ(*reparsed, *spec);

  EXPECT_FALSE(TraceSpec::parse("spec:trace=1,malleable=1.5", &error).has_value());
  EXPECT_NE(error.find("key 'malleable': invalid value '1.5' (expected double in [0, 1]"),
            std::string::npos)
      << error;
  EXPECT_FALSE(
      TraceSpec::parse("spec:trace=1,malleable=1,malleable_min=3,malleable_max=2", &error)
          .has_value());
  EXPECT_NE(error.find("malleable_min <= malleable_max"), std::string::npos) << error;
  // The swf grammar has no malleable key (replayed widths come from the log)…
  EXPECT_FALSE(TraceSpec::parse("swf:file=x.swf,malleable=0.5", &error).has_value());
  EXPECT_NE(error.find("unknown key 'malleable'"), std::string::npos) << error;
  // …and a programmatically built swf spec with a fraction fails validation.
  TraceSpec swf_malleable = TraceSpec::swf("x.swf");
  swf_malleable.malleable_fraction = 0.5;
  EXPECT_FALSE(swf_malleable.validate(&error));
  EXPECT_NE(error.find("generated traces"), std::string::npos) << error;
}

TEST(TraceSpecTest, MalleableFractionControlsGeneratedContracts) {
  TraceSpec spec;
  spec.group = WorkloadGroup::kSpec;
  spec.num_jobs = 60;
  spec.duration = 400.0;
  spec.seed = 9;
  spec.malleable_fraction = 1.0;
  spec.malleable_min_width = 1;
  spec.malleable_max_width = 3;
  const Trace all = spec.build(8);
  for (const JobSpec& job : all.jobs()) {
    EXPECT_TRUE(job.malleable());
    EXPECT_EQ(job.malleability.min_width, 1);
    EXPECT_EQ(job.malleability.max_width, 3);
    EXPECT_EQ(job.initial_width(), 3);
  }

  // Fraction 0 never draws from the malleability stream: the generated trace
  // is byte-identical to the pre-malleability generator's output.
  spec.malleable_fraction = 0.0;
  TraceSpec plain = spec;
  plain.malleable_min_width = 1;
  plain.malleable_max_width = 2;
  const Trace rigid = spec.build(8);
  EXPECT_EQ(serialize(rigid), serialize(plain.build(8)));
  for (const JobSpec& job : rigid.jobs()) EXPECT_FALSE(job.malleable());
}

TEST(TraceSpecTest, TraceLevelNodesOverrideBeatsDefault) {
  auto spec = TraceSpec::standard(WorkloadGroup::kSpec, 1);
  spec.num_nodes = 4;
  const Trace trace = spec.build(32);
  for (const JobSpec& job : trace.jobs()) EXPECT_LT(job.home_node, 4);
}

TEST(TraceSpecTest, NumericParamsRejectNonFiniteValues) {
  // NaN passes every `x <= 0` range check; a NaN duration or arrival_scale
  // used to abort the generator, a NaN fraction to slip past [0, 1].
  for (const std::string value : {"nan", "inf", "-inf", "1e999"}) {
    for (const std::string key :
         {"duration", "arrival_scale", "malleable", "malleable_alpha"}) {
      std::string error;
      EXPECT_FALSE(TraceSpec::parse("spec:jobs=10," + key + "=" + value, &error)
                       .has_value())
          << key << "=" << value;
      EXPECT_NE(error.find("key '" + key + "': invalid value '" + value + "'"), std::string::npos)
          << error;
    }
    for (const std::string key : {"scale", "min_runtime"}) {
      std::string error;
      EXPECT_FALSE(TraceSpec::parse("swf:file=log.swf," + key + "=" + value, &error).has_value())
          << key << "=" << value;
      EXPECT_NE(error.find("key '" + key + "': invalid value '" + value + "'"), std::string::npos)
          << error;
    }
  }
}

TEST(TraceSpecTest, IntegerParamsRejectValuesBeyondTheirTypes) {
  // Each used to wrap into range: trace=4294967299 ran SPEC-Trace-3,
  // malleable_max=4294967298 parsed as 2, nodes=4294967297 as 1.
  const std::pair<const char*, const char*> cases[] = {
      {"spec:trace=4294967299", "key 'trace': invalid value '4294967299'"},
      {"spec:jobs=10,malleable=1,malleable_max=4294967298",
       "key 'malleable_max': invalid value '4294967298'"},
      {"spec:jobs=10,malleable=1,malleable_min=4294967297",
       "key 'malleable_min': invalid value '4294967297'"},
      {"spec:jobs=10,nodes=4294967297", "key 'nodes': invalid value '4294967297'"},
      {"swf:file=log.swf,nodes=4294967297", "key 'nodes': invalid value '4294967297'"}};
  for (const auto& [text, message] : cases) {
    std::string error;
    EXPECT_FALSE(TraceSpec::parse(text, &error).has_value()) << text;
    EXPECT_NE(error.find(message), std::string::npos) << error;
  }
}

TEST(TraceSpecTest, JobCountsRejectOverflow) {
  // strtol's ERANGE was ignored, so both parsed as 9223372036854775807 (and
  // the generated trace never ended). Parsed only: nothing is generated.
  const std::pair<const char*, const char*> cases[] = {
      {"spec:jobs=99999999999999999999", "jobs"},
      {"swf:file=log.swf,max_jobs=99999999999999999999", "max_jobs"}};
  for (const auto& [text, key] : cases) {
    std::string error;
    EXPECT_FALSE(TraceSpec::parse(text, &error).has_value()) << text;
    EXPECT_NE(error.find(std::string("key '") + key + "': invalid value '99999999999999999999'"),
              std::string::npos)
        << error;
  }
}

TEST(TraceSpecTest, BigShareParsesPrintsAndValidates) {
  std::string error;
  for (const char* text : {"spec:trace=3,seed=4242,big_share=0.03", "apps:jobs=40,big_share=0"}) {
    const auto spec = TraceSpec::parse(text, &error);
    ASSERT_TRUE(spec.has_value()) << text << ": " << error;
    const auto reparsed = TraceSpec::parse(spec->print(), &error);
    ASSERT_TRUE(reparsed.has_value()) << spec->print() << ": " << error;
    EXPECT_EQ(*reparsed, *spec) << text << " vs " << spec->print();
  }
  // big_share=0 is a mix override (no large programs), not the default mix.
  EXPECT_NE(*TraceSpec::parse("spec:trace=3,big_share=0"), *TraceSpec::parse("spec:trace=3"));
  EXPECT_EQ(TraceSpec::parse("spec:trace=3,big_share=0")->print(), "spec:trace=3,big_share=0");

  for (const char* value : {"1.5", "-0.1", "nan", "x"}) {
    EXPECT_FALSE(
        TraceSpec::parse(std::string("spec:trace=3,big_share=") + value, &error).has_value())
        << value;
    EXPECT_NE(error.find(std::string("key 'big_share': invalid value '") + value +
                         "' (expected double in [0, 1]"),
              std::string::npos)
        << error;
  }
  EXPECT_FALSE(TraceSpec::parse("swf:file=x.swf,big_share=0.5", &error).has_value());
  EXPECT_NE(error.find("unknown key 'big_share'"), std::string::npos) << error;
  TraceSpec swf = TraceSpec::swf("x.swf");
  swf.big_share = 0.5;
  EXPECT_FALSE(swf.validate(&error));
  EXPECT_NE(error.find("generated traces"), std::string::npos) << error;
}

TEST(TraceSpecTest, BigShareSplitsTheMixBetweenLargeAndNormalPrograms) {
  EXPECT_TRUE(TraceSpec::standard(WorkloadGroup::kSpec, 3).to_params().program_weights.empty());

  // The big-job ablation's construction, spelled out independently: apsi and
  // mcf split the share, the others keep their relative catalog weights.
  const std::vector<ProgramSpec>& programs = catalog(WorkloadGroup::kSpec);
  for (const double share : {0.0, 0.03, 0.5}) {
    TraceParams reference = standard_params(WorkloadGroup::kSpec, 3, 32);
    reference.seed = 4242;
    double normal_total = 0.0;
    for (const ProgramSpec& p : programs) {
      if (p.working_set < megabytes(150)) normal_total += p.mix_weight;
    }
    for (const ProgramSpec& p : programs) {
      if (p.working_set >= megabytes(150)) {
        reference.program_weights.push_back(share / 2.0);
      } else {
        reference.program_weights.push_back((1.0 - share) * p.mix_weight / normal_total);
      }
    }
    TraceSpec spec = TraceSpec::standard(WorkloadGroup::kSpec, 3);
    spec.seed = 4242;
    spec.big_share = share;
    EXPECT_EQ(spec.to_params(32).program_weights, reference.program_weights) << share;
    EXPECT_EQ(serialize(spec.build(32)), serialize(generate_trace(reference))) << share;
  }

  TraceSpec none = TraceSpec::standard(WorkloadGroup::kSpec, 3);
  none.big_share = 0.0;
  const Trace without_large = none.build(32);
  for (const JobSpec& job : without_large.jobs()) {
    EXPECT_NE(job.program, "apsi");
    EXPECT_NE(job.program, "mcf");
  }

  // In the apps group metis is the only large program and takes the share.
  TraceSpec apps = TraceSpec::standard(WorkloadGroup::kApps, 3);
  apps.big_share = 0.25;
  const TraceParams params = apps.to_params();
  const std::vector<ProgramSpec>& app_programs = catalog(WorkloadGroup::kApps);
  ASSERT_EQ(params.program_weights.size(), app_programs.size());
  double total = 0.0;
  for (std::size_t i = 0; i < app_programs.size(); ++i) {
    if (app_programs[i].name == "metis") {
      EXPECT_DOUBLE_EQ(params.program_weights[i], 0.25);
    }
    total += params.program_weights[i];
  }
  EXPECT_DOUBLE_EQ(total, 1.0);
}

}  // namespace
}  // namespace vrc::workload
