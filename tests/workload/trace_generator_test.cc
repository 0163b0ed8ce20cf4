#include "workload/trace_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "workload/trace_spec.h"

namespace vrc::workload {
namespace {

TEST(StandardTraceShapeTest, MatchesPaperSection332) {
  // The five published (sigma, mu, jobs, duration) tuples.
  const StandardTraceShape t1 = standard_trace_shape(1);
  EXPECT_EQ(t1.sigma, 4.0);
  EXPECT_EQ(t1.mu, 4.0);
  EXPECT_EQ(t1.num_jobs, 359u);
  EXPECT_EQ(t1.duration, 3586.0);

  const StandardTraceShape t3 = standard_trace_shape(3);
  EXPECT_EQ(t3.sigma, 3.0);
  EXPECT_EQ(t3.num_jobs, 578u);
  EXPECT_EQ(t3.duration, 3581.0);

  const StandardTraceShape t5 = standard_trace_shape(5);
  EXPECT_EQ(t5.mu, 1.5);
  EXPECT_EQ(t5.num_jobs, 777u);
  EXPECT_EQ(t5.duration, 3582.0);
}

TEST(StandardTraceShapeTest, JobCountsIncreaseWithIntensity) {
  for (int i = 1; i < 5; ++i) {
    EXPECT_LT(standard_trace_shape(i).num_jobs, standard_trace_shape(i + 1).num_jobs);
  }
}

TEST(TruncatedLognormalTest, StaysInRange) {
  sim::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    SimTime t = sample_truncated_lognormal(rng, 3.0, 3.0, 60.0);
    EXPECT_GT(t, 0.0);
    EXPECT_LE(t, 60.0);
  }
}

TEST(TraceGeneratorTest, ProducesRequestedJobCount) {
  TraceParams params;
  params.name = "test";
  params.num_jobs = 100;
  params.seed = 5;
  Trace trace = generate_trace(params);
  EXPECT_EQ(trace.size(), 100u);
  EXPECT_EQ(trace.name(), "test");
}

TEST(TraceGeneratorTest, ArrivalsSortedAndWithinWindow) {
  TraceParams params;
  params.num_jobs = 300;
  params.duration = 3581.0;
  params.seed = 7;
  Trace trace = generate_trace(params);
  SimTime last = 0.0;
  for (const JobSpec& job : trace.jobs()) {
    EXPECT_GE(job.submit_time, last);
    EXPECT_LE(job.submit_time, params.duration);
    last = job.submit_time;
  }
}

TEST(TraceGeneratorTest, HomeNodesWithinCluster) {
  TraceParams params;
  params.num_jobs = 200;
  params.num_nodes = 16;
  params.seed = 11;
  Trace trace = generate_trace(params);
  for (const JobSpec& job : trace.jobs()) EXPECT_LT(job.home_node, 16u);
}

TEST(TraceGeneratorTest, JobIdsAreUniqueAndDense) {
  TraceParams params;
  params.num_jobs = 50;
  params.seed = 13;
  Trace trace = generate_trace(params);
  std::set<JobId> ids;
  for (const JobSpec& job : trace.jobs()) ids.insert(job.id);
  EXPECT_EQ(ids.size(), 50u);
  EXPECT_EQ(*ids.begin(), 1u);
  EXPECT_EQ(*ids.rbegin(), 50u);
}

TEST(TraceGeneratorTest, DeterministicForSameSeed) {
  TraceParams params;
  params.num_jobs = 80;
  params.seed = 17;
  Trace a = generate_trace(params);
  Trace b = generate_trace(params);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.jobs()[i].submit_time, b.jobs()[i].submit_time);
    EXPECT_EQ(a.jobs()[i].program, b.jobs()[i].program);
    EXPECT_EQ(a.jobs()[i].cpu_seconds, b.jobs()[i].cpu_seconds);
    EXPECT_EQ(a.jobs()[i].home_node, b.jobs()[i].home_node);
  }
}

TEST(TraceGeneratorTest, DifferentSeedsDiffer) {
  TraceParams params;
  params.num_jobs = 80;
  params.seed = 19;
  Trace a = generate_trace(params);
  params.seed = 20;
  Trace b = generate_trace(params);
  int differences = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.jobs()[i].program != b.jobs()[i].program) ++differences;
  }
  EXPECT_GT(differences, 10);
}

TEST(TraceGeneratorTest, JitterBoundsRespected) {
  TraceParams params;
  params.num_jobs = 400;
  params.seed = 23;
  params.lifetime_jitter = 0.10;
  params.working_set_jitter = 0.08;
  Trace trace = generate_trace(params);
  for (const JobSpec& job : trace.jobs()) {
    auto program = find_program(job.program);
    ASSERT_TRUE(program.has_value());
    EXPECT_GE(job.cpu_seconds, program->lifetime * 0.899);
    EXPECT_LE(job.cpu_seconds, program->lifetime * 1.101);
    EXPECT_GE(job.working_set(), static_cast<Bytes>(static_cast<double>(program->working_set) * 0.919));
    EXPECT_LE(job.working_set(), static_cast<Bytes>(static_cast<double>(program->working_set) * 1.081));
  }
}

TEST(TraceGeneratorTest, ZeroJitterReplaysCatalogExactly) {
  TraceParams params;
  params.num_jobs = 50;
  params.seed = 29;
  params.lifetime_jitter = 0.0;
  params.working_set_jitter = 0.0;
  Trace trace = generate_trace(params);
  for (const JobSpec& job : trace.jobs()) {
    auto program = find_program(job.program);
    ASSERT_TRUE(program.has_value());
    EXPECT_DOUBLE_EQ(job.cpu_seconds, program->lifetime);
    EXPECT_EQ(job.working_set(), program->working_set);
  }
}

TEST(TraceGeneratorTest, MixWeightsShapeProgramFrequencies) {
  TraceParams params;
  params.num_jobs = 3000;
  params.seed = 31;
  Trace trace = generate_trace(params);
  std::map<std::string, int> counts;
  for (const JobSpec& job : trace.jobs()) ++counts[job.program];
  // Big jobs (apsi, mcf) must be a small share of the pool.
  const double big_share =
      static_cast<double>(counts["apsi"] + counts["mcf"]) / static_cast<double>(trace.size());
  EXPECT_LT(big_share, 0.12);
  EXPECT_GT(big_share, 0.005);
  // All six programs appear.
  EXPECT_EQ(counts.size(), 6u);
}

TEST(TraceGeneratorTest, ExplicitWeightsOverrideMix) {
  TraceParams params;
  params.num_jobs = 200;
  params.seed = 37;
  params.program_weights = {1.0, 0.0, 0.0, 0.0, 0.0, 0.0};  // apsi only
  Trace trace = generate_trace(params);
  for (const JobSpec& job : trace.jobs()) EXPECT_EQ(job.program, "apsi");
}

TEST(TraceGeneratorTest, HigherIntensityShapesSubmitFasterEarlyOn) {
  // Trace-5 both carries more jobs and front-loads them: within the first
  // ten minutes it must deliver substantially more work than Trace-1.
  Trace light = TraceSpec::standard(WorkloadGroup::kSpec, 1).build();
  Trace heavy = TraceSpec::standard(WorkloadGroup::kSpec, 5).build();
  auto early_count = [](const Trace& t) {
    std::size_t n = 0;
    for (const JobSpec& job : t.jobs()) {
      if (job.submit_time <= 600.0) ++n;
    }
    return n;
  };
  EXPECT_GT(early_count(heavy), early_count(light) + 50);
}

TEST(TraceGeneratorTest, StandardTraceIsReproducible) {
  Trace a = TraceSpec::standard(WorkloadGroup::kApps, 3).build();
  Trace b = TraceSpec::standard(WorkloadGroup::kApps, 3).build();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.name(), "App-Trace-3");
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.jobs()[i].submit_time, b.jobs()[i].submit_time);
  }
}

TEST(TraceGeneratorTest, StandardTraceUsesGroupPrograms) {
  Trace trace = TraceSpec::standard(WorkloadGroup::kApps, 2).build();
  for (const JobSpec& job : trace.jobs()) {
    auto program = find_program(job.program);
    ASSERT_TRUE(program.has_value());
    EXPECT_EQ(program->group, WorkloadGroup::kApps);
  }
}

}  // namespace
}  // namespace vrc::workload
