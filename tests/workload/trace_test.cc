#include "workload/trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace vrc::workload {
namespace {

JobSpec make_job(JobId id, SimTime submit, const char* program, SimTime cpu) {
  JobSpec job;
  job.id = id;
  job.program = program;
  job.submit_time = submit;
  job.home_node = id % 4;
  job.cpu_seconds = cpu;
  job.touch_rate = 100.0;
  job.memory = MemoryProfile::phased({{0.0, megabytes(4)}, {1.0, megabytes(60)}});
  return job;
}

TEST(TraceTest, JobsSortedBySubmitTime) {
  Trace trace("t", WorkloadGroup::kSpec, 100.0,
              {make_job(1, 50.0, "gcc", 10), make_job(2, 10.0, "gzip", 20),
               make_job(3, 30.0, "mcf", 30)});
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.jobs()[0].id, 2u);
  EXPECT_EQ(trace.jobs()[1].id, 3u);
  EXPECT_EQ(trace.jobs()[2].id, 1u);
}

TEST(TraceTest, TotalCpuSecondsSums) {
  Trace trace("t", WorkloadGroup::kSpec, 100.0,
              {make_job(1, 0.0, "gcc", 10), make_job(2, 1.0, "gzip", 20)});
  EXPECT_DOUBLE_EQ(trace.total_cpu_seconds(), 30.0);
}

TEST(TraceTest, SaveLoadRoundTrip) {
  Trace original("My-Trace-1", WorkloadGroup::kApps, 3586.0,
                 {make_job(1, 0.5, "metis", 123.25), make_job(2, 7.125, "bit-r", 45.5)});
  std::stringstream buffer;
  original.save(buffer);
  Trace loaded = Trace::load(buffer);

  EXPECT_EQ(loaded.name(), "My-Trace-1");
  EXPECT_EQ(loaded.group(), WorkloadGroup::kApps);
  EXPECT_DOUBLE_EQ(loaded.duration(), 3586.0);
  ASSERT_EQ(loaded.size(), 2u);
  const JobSpec& job = loaded.jobs()[0];
  EXPECT_EQ(job.id, 1u);
  EXPECT_DOUBLE_EQ(job.submit_time, 0.5);
  EXPECT_EQ(job.program, "metis");
  EXPECT_DOUBLE_EQ(job.cpu_seconds, 123.25);
  EXPECT_DOUBLE_EQ(job.touch_rate, 100.0);
  EXPECT_EQ(job.memory.points().size(), 2u);
  EXPECT_EQ(job.working_set(), megabytes(60));
}

TEST(TraceTest, LoadRejectsMissingHeader) {
  std::stringstream buffer("name foo\n");
  EXPECT_THROW(Trace::load(buffer), std::runtime_error);
}

TEST(TraceTest, LoadRejectsBadGroup) {
  std::stringstream buffer("# vrc-trace v1\ngroup martian\njobs 0\n");
  EXPECT_THROW(Trace::load(buffer), std::runtime_error);
}

TEST(TraceTest, LoadRejectsJobCountMismatch) {
  std::stringstream buffer(
      "# vrc-trace v1\nname t\ngroup spec\nduration 10\njobs 2\n"
      "job 1 0.0 0 gcc 10 100 1 0.0 1000\n");
  EXPECT_THROW(Trace::load(buffer), std::runtime_error);
}

TEST(TraceTest, LoadRejectsMalformedJobLine) {
  std::stringstream buffer(
      "# vrc-trace v1\nname t\ngroup spec\nduration 10\njobs 1\njob 1 oops\n");
  EXPECT_THROW(Trace::load(buffer), std::runtime_error);
}

TEST(TraceTest, LoadRejectsUnknownKey) {
  std::stringstream buffer("# vrc-trace v1\ngroup spec\njobs 0\nbanana 3\n");
  EXPECT_THROW(Trace::load(buffer), std::runtime_error);
}

TEST(TraceTest, LoadRejectsNegativeSubmitTime) {
  std::stringstream buffer(
      "# vrc-trace v1\nname t\ngroup spec\nduration 10\njobs 1\n"
      "job 1 -3.5 0 gcc 10 100 1 0.0 1000\n");
  EXPECT_THROW(Trace::load(buffer), std::runtime_error);
}

TEST(TraceTest, LoadRejectsNegativeJobId) {
  // `>>` into the unsigned JobId would wrap -1 to 2^64-1; load must parse
  // signed and reject instead.
  std::stringstream buffer(
      "# vrc-trace v1\nname t\ngroup spec\nduration 10\njobs 1\n"
      "job -1 0.0 0 gcc 10 100 1 0.0 1000\n");
  EXPECT_THROW(Trace::load(buffer), std::runtime_error);
}

TEST(TraceTest, LoadRejectsNegativeHomeNode) {
  std::stringstream buffer(
      "# vrc-trace v1\nname t\ngroup spec\nduration 10\njobs 1\n"
      "job 1 0.0 -2 gcc 10 100 1 0.0 1000\n");
  EXPECT_THROW(Trace::load(buffer), std::runtime_error);
}

TEST(TraceTest, LoadRejectsNegativeCpuSeconds) {
  std::stringstream buffer(
      "# vrc-trace v1\nname t\ngroup spec\nduration 10\njobs 1\n"
      "job 1 0.0 0 gcc -10 100 1 0.0 1000\n");
  EXPECT_THROW(Trace::load(buffer), std::runtime_error);
}

TEST(TraceTest, LoadRejectsNonFiniteNumerics) {
  std::stringstream nan_submit(
      "# vrc-trace v1\nname t\ngroup spec\nduration 10\njobs 1\n"
      "job 1 nan 0 gcc 10 100 1 0.0 1000\n");
  EXPECT_THROW(Trace::load(nan_submit), std::runtime_error);
  std::stringstream inf_duration("# vrc-trace v1\nname t\ngroup spec\nduration inf\njobs 0\n");
  EXPECT_THROW(Trace::load(inf_duration), std::runtime_error);
}

TEST(TraceTest, LoadRejectsNegativeJobCountHeader) {
  std::stringstream buffer("# vrc-trace v1\nname t\ngroup spec\nduration 10\njobs -2\n");
  EXPECT_THROW(Trace::load(buffer), std::runtime_error);
}

TEST(TraceTest, LoadRejectsNegativeProfileDemand) {
  std::stringstream buffer(
      "# vrc-trace v1\nname t\ngroup spec\nduration 10\njobs 1\n"
      "job 1 0.0 0 gcc 10 100 1 0.0 -1000\n");
  EXPECT_THROW(Trace::load(buffer), std::runtime_error);
}

TEST(TraceTest, LoadRejectsProfileProgressOutOfRange) {
  std::stringstream buffer(
      "# vrc-trace v1\nname t\ngroup spec\nduration 10\njobs 1\n"
      "job 1 0.0 0 gcc 10 100 1 1.5 1000\n");
  EXPECT_THROW(Trace::load(buffer), std::runtime_error);
}

const std::string kOneJobHeader = "# vrc-trace v1\nname t\ngroup spec\nduration 10\njobs 1\n";

TEST(TraceTest, LoadRejectsProfilePointsOutOfOrder) {
  // MemoryProfile aborts the process on these; a trace file must get an
  // error instead.
  for (const char* points : {"2 0.5 100 0.2 200", "2 0.5 100 0.5 200"}) {
    std::stringstream buffer(kOneJobHeader + "job 1 0 0 x 10 0 " + points + "\n");
    EXPECT_THROW(Trace::load(buffer), std::runtime_error) << points;
  }
}

TEST(TraceTest, LoadRejectsIdsAndHomesBeyondTheirTypes) {
  // 2^32 + 1 must not wrap to job 1, nor 2^32 to node 0.
  for (const char* fields : {"4294967297 0 0", "1 0 4294967296", "1.5 0 0", "1 0 x"}) {
    std::stringstream buffer(kOneJobHeader + "job " + fields + " gcc 10 100 1 0.0 1000\n");
    EXPECT_THROW(Trace::load(buffer), std::runtime_error) << fields;
  }
  std::stringstream widest(kOneJobHeader + "job 4294967295 0 4294967295 gcc 10 100 1 0.0 1000\n");
  const Trace trace = Trace::load(widest);
  EXPECT_EQ(trace.jobs()[0].id, 4294967295u);
  EXPECT_EQ(trace.jobs()[0].home_node, 4294967295u);
}

TEST(TraceTest, LoadRejectsTruncatedProfilePoint) {
  std::stringstream buffer(
      "# vrc-trace v1\nname t\ngroup spec\nduration 10\njobs 1\n"
      "job 1 0.0 0 gcc 10 100 2 0.0 1000 0.5\n");
  EXPECT_THROW(Trace::load(buffer), std::runtime_error);
}

TEST(TraceTest, LoadRejectsTrailingGarbageOnJobLine) {
  std::stringstream buffer(
      "# vrc-trace v1\nname t\ngroup spec\nduration 10\njobs 1\n"
      "job 1 0.0 0 gcc 10 100 1 0.0 1000 surprise\n");
  EXPECT_THROW(Trace::load(buffer), std::runtime_error);
}

TEST(TraceTest, LoadSkipsCommentsAndBlankLines) {
  std::stringstream buffer(
      "# vrc-trace v1\n\n# a comment\nname t\ngroup spec\nduration 10\njobs 0\n");
  Trace trace = Trace::load(buffer);
  EXPECT_EQ(trace.size(), 0u);
}

TEST(TraceTest, FileRoundTrip) {
  Trace original("file-trace", WorkloadGroup::kSpec, 50.0, {make_job(9, 1.0, "apsi", 99.0)});
  const std::string path = testing::TempDir() + "/vrc_trace_test.trace";
  ASSERT_TRUE(original.save_to_file(path));
  Trace loaded = Trace::load_from_file(path);
  EXPECT_EQ(loaded.name(), "file-trace");
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.jobs()[0].program, "apsi");
}

TEST(TraceTest, LoadMissingFileThrows) {
  EXPECT_THROW(Trace::load_from_file("/nonexistent/path.trace"), std::runtime_error);
}

}  // namespace
}  // namespace vrc::workload
