#include "workload/arrival_source.h"

#include <gtest/gtest.h>

#include "workload/trace_generator.h"
#include "workload/trace_spec.h"

namespace vrc::workload {
namespace {

void expect_job_equal(const JobSpec& a, const JobSpec& b, std::size_t index) {
  EXPECT_EQ(a.id, b.id) << "job " << index;
  EXPECT_EQ(a.program, b.program) << "job " << index;
  EXPECT_DOUBLE_EQ(a.submit_time, b.submit_time) << "job " << index;
  EXPECT_EQ(a.home_node, b.home_node) << "job " << index;
  EXPECT_DOUBLE_EQ(a.cpu_seconds, b.cpu_seconds) << "job " << index;
  EXPECT_DOUBLE_EQ(a.touch_rate, b.touch_rate) << "job " << index;
  ASSERT_EQ(a.memory.points().size(), b.memory.points().size()) << "job " << index;
  for (std::size_t p = 0; p < a.memory.points().size(); ++p) {
    EXPECT_DOUBLE_EQ(a.memory.points()[p].progress, b.memory.points()[p].progress)
        << "job " << index << " point " << p;
    EXPECT_EQ(a.memory.points()[p].demand, b.memory.points()[p].demand)
        << "job " << index << " point " << p;
  }
}

TEST(MaterializedTraceSourceTest, StreamsJobsInOrder) {
  Trace trace = TraceSpec::standard(WorkloadGroup::kSpec, 1).build(8);
  MaterializedTraceSource source(trace);
  ASSERT_TRUE(source.total_jobs().has_value());
  EXPECT_EQ(*source.total_jobs(), trace.size());
  EXPECT_EQ(source.name(), trace.name());
  EXPECT_EQ(source.group(), trace.group());

  for (std::size_t i = 0; i < trace.size(); ++i) {
    std::optional<SimTime> when = source.peek_time();
    ASSERT_TRUE(when.has_value()) << "job " << i;
    EXPECT_DOUBLE_EQ(*when, trace.jobs()[i].submit_time);
    std::optional<JobSpec> job = source.next();
    ASSERT_TRUE(job.has_value()) << "job " << i;
    expect_job_equal(*job, trace.jobs()[i], i);
  }
  EXPECT_FALSE(source.peek_time().has_value());
  EXPECT_FALSE(source.next().has_value());
}

TEST(GeneratedStreamSourceTest, MatchesGenerateTraceJobForJob) {
  // build() drains the same generator make_source() hands out: the two must
  // agree job for job, for every standard shape of both groups.
  for (WorkloadGroup group : {WorkloadGroup::kSpec, WorkloadGroup::kApps}) {
    for (int index = 1; index <= 5; ++index) {
      TraceSpec spec = TraceSpec::standard(group, index);
      Trace trace = spec.build(32);
      std::unique_ptr<ArrivalSource> source = spec.make_source(32);
      ASSERT_EQ(source->name(), trace.name());
      ASSERT_EQ(source->group(), trace.group());
      ASSERT_TRUE(source->total_jobs().has_value());
      ASSERT_EQ(*source->total_jobs(), trace.size());
      for (std::size_t i = 0; i < trace.size(); ++i) {
        std::optional<JobSpec> job = source->next();
        ASSERT_TRUE(job.has_value()) << trace.name() << " job " << i;
        expect_job_equal(*job, trace.jobs()[i], i);
      }
      EXPECT_FALSE(source->next().has_value()) << trace.name();
    }
  }
}

TEST(GeneratedStreamSourceTest, MatchesCustomParams) {
  TraceParams params;
  params.name = "custom";
  params.group = WorkloadGroup::kApps;
  params.num_jobs = 64;
  params.duration = 600.0;
  params.num_nodes = 4;
  params.seed = 1234;
  Trace trace = generate_trace(params);
  GeneratedStreamSource source(params);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    std::optional<JobSpec> job = source.next();
    ASSERT_TRUE(job.has_value()) << "job " << i;
    expect_job_equal(*job, trace.jobs()[i], i);
  }
  EXPECT_FALSE(source.next().has_value());
}

TEST(GeneratedStreamSourceTest, PeekIsStableAndMatchesNext) {
  TraceSpec spec = TraceSpec::standard(WorkloadGroup::kSpec, 2);
  std::unique_ptr<ArrivalSource> source = spec.make_source(8);
  while (std::optional<SimTime> when = source->peek_time()) {
    EXPECT_DOUBLE_EQ(*when, *source->peek_time());  // stable across calls
    std::optional<JobSpec> job = source->next();
    ASSERT_TRUE(job.has_value());
    EXPECT_DOUBLE_EQ(job->submit_time, *when);
  }
  EXPECT_FALSE(source->next().has_value());
}

// The generator's two input checks abort up front, before any job is drawn.
TEST(GeneratedStreamSourceDeathTest, RejectsProgramWeightCountMismatch) {
  TraceParams params;
  params.group = WorkloadGroup::kSpec;
  params.program_weights = {1.0, 2.0};  // the SPEC catalog has six programs
  EXPECT_DEATH(GeneratedStreamSource{params}, "2 weights for 6 programs");
}

TEST(GeneratedStreamSourceDeathTest, RejectsMalleableWidthRangeOutsideOneToMax) {
  TraceParams params;
  params.malleable_fraction = 1.0;
  params.malleable_min_width = 0;
  EXPECT_DEATH(GeneratedStreamSource{params}, "bad malleable width range \\[0, 2\\]");
  params.malleable_min_width = 3;
  params.malleable_max_width = 2;
  EXPECT_DEATH(GeneratedStreamSource{params}, "bad malleable width range \\[3, 2\\]");
}

TEST(MaterializeTest, RoundTripsThroughSource) {
  Trace trace = TraceSpec::standard(WorkloadGroup::kApps, 3).build(16);
  MaterializedTraceSource source(trace);
  Trace copy = materialize(source, trace.duration());
  EXPECT_EQ(copy.name(), trace.name());
  EXPECT_EQ(copy.group(), trace.group());
  EXPECT_DOUBLE_EQ(copy.duration(), trace.duration());
  ASSERT_EQ(copy.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    expect_job_equal(copy.jobs()[i], trace.jobs()[i], i);
  }
}

}  // namespace
}  // namespace vrc::workload
