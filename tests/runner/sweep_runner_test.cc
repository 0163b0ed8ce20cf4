// Determinism and correctness of the parallel sweep runner: a sweep's
// results must be bit-identical regardless of thread count or completion
// order, because every cell's RNG seed is derived from grid coordinates
// alone and the simulation stack is share-nothing per cell.
#include "runner/sweep_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics/report.h"
#include "runner/thread_pool.h"
#include "workload/trace_generator.h"

namespace vrc::runner {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.jobs(), 4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  pool.parallel_for(hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, HandlesEmptyAndSmallerThanPoolRanges) {
  ThreadPool pool(8);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "body must not run for n=0"; });
  std::atomic<int> count{0};
  pool.parallel_for(3, [&count](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPoolTest, SubmittedTasksAllRunBeforeWaitIdleReturns) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) pool.submit([&done] { ++done; });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 50);
}

TEST(SeedDerivationTest, StableAndCellDependent) {
  // Frozen values: changing derive_seed silently changes every stochastic
  // sweep, so the derivation is pinned here.
  EXPECT_EQ(derive_seed(0, 0), derive_seed(0, 0));
  EXPECT_NE(derive_seed(0, 0), derive_seed(0, 1));
  EXPECT_NE(derive_seed(0, 0), derive_seed(1, 0));
  // Adjacent (base, key) pairs must not alias.
  EXPECT_NE(derive_seed(1, 0), derive_seed(0, 1));
  std::set<std::uint64_t> seen;
  for (std::uint64_t base = 0; base < 8; ++base) {
    for (std::uint64_t key = 0; key < 64; ++key) seen.insert(derive_seed(base, key));
  }
  EXPECT_EQ(seen.size(), 8u * 64u);
}

workload::Trace sweep_trace(std::uint64_t seed) {
  workload::TraceParams params;
  params.name = "sweep-" + std::to_string(seed);
  params.group = workload::WorkloadGroup::kSpec;
  params.num_jobs = 40;
  params.duration = 600.0;
  params.num_nodes = 8;
  params.seed = seed;
  return workload::generate_trace(params);
}

SweepGrid small_grid() {
  SweepGrid grid;
  grid.traces = {sweep_trace(31), sweep_trace(32)};
  grid.configs = {core::paper_cluster_for(workload::WorkloadGroup::kSpec, 8)};
  // Stochastic faults make the runs consume the derived per-cell seeds, so
  // the determinism check also covers seed derivation.
  grid.configs[0].stochastic_faults = true;
  grid.policies = {core::PolicySpec("g-loadsharing"), core::PolicySpec("v-reconf")};
  grid.base_seed = 99;
  return grid;
}

// Serializes everything a report contains so runs can be compared
// byte-for-byte (hexfloat: bit-identical doubles, not just "close").
std::string fingerprint(const metrics::RunReport& report) {
  std::ostringstream out;
  out << std::hexfloat;
  out << report.policy << '|' << report.trace << '|' << report.jobs_submitted << '|'
      << report.jobs_completed << '|' << report.makespan << '|' << report.total_execution
      << '|' << report.total_cpu << '|' << report.total_page << '|' << report.total_queue
      << '|' << report.total_migration << '|' << report.avg_slowdown << '|'
      << report.median_slowdown << '|' << report.p95_slowdown << '|' << report.max_slowdown
      << '|' << report.avg_idle_memory_mb << '|' << report.avg_balance_skew << '|'
      << report.migrations << '|' << report.remote_submits << '|' << report.local_placements
      << '|' << report.total_faults << '\n';
  for (const auto& [key, value] : report.policy_stats) out << key << '=' << value << '\n';
  for (const auto& job : report.jobs) {
    out << job.id << ',' << job.program << ',' << job.submit_time << ','
        << job.completion_time << ',' << job.t_cpu << ',' << job.t_page << ','
        << job.t_queue << ',' << job.t_mig << ',' << job.faults << ',' << job.migrations
        << ',' << job.remote_submits << ',' << job.final_node << ',' << job.working_set
        << '\n';
  }
  return out.str();
}

TEST(SweepRunnerTest, OneThreadAndManyThreadsProduceIdenticalReports) {
  const SweepGrid grid = small_grid();
  SweepRunner serial(1);
  SweepRunner parallel(4);
  const auto a = serial.run(grid);
  const auto b = parallel.run(grid);
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cell_index, i);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(fingerprint(a[i].report), fingerprint(b[i].report)) << "cell " << i;
  }
}

TEST(SweepRunnerTest, CellsMapBackToGridCoordinates) {
  SweepGrid grid = small_grid();
  grid.configs.push_back(grid.configs[0]);  // 2 traces x 2 configs x 2 policies
  SweepRunner runner(2);
  const auto cells = runner.run(grid);
  ASSERT_EQ(cells.size(), 8u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].cell_index, i);
    EXPECT_EQ(cells[i].policy_index, i % 2);
    EXPECT_EQ(cells[i].config_index, (i / 2) % 2);
    EXPECT_EQ(cells[i].trace_index, i / 4);
    EXPECT_EQ(cells[i].report.trace, grid.traces[cells[i].trace_index].name());
    // Policies of the same (trace, config) pair share the derived seed
    // (matched-pairs comparisons); distinct pairs get distinct seeds.
    if (i % 2 == 1) {
      EXPECT_EQ(cells[i].seed, cells[i - 1].seed);
    }
  }
  EXPECT_NE(cells[0].seed, cells[2].seed);
  EXPECT_NE(cells[0].seed, cells[4].seed);
}

TEST(SweepRunnerTest, SummaryMergesAcrossCells) {
  const SweepGrid grid = small_grid();
  SweepRunner runner(2);
  const auto cells = runner.run(grid);
  const SweepSummary summary = SweepRunner::summarize(cells);
  ASSERT_EQ(summary.execution.count(), cells.size());
  sim::RunningStats expected;
  for (const auto& cell : cells) expected.add(cell.report.total_execution);
  EXPECT_DOUBLE_EQ(summary.execution.mean(), expected.mean());
  EXPECT_DOUBLE_EQ(summary.execution.min(), expected.min());
  EXPECT_DOUBLE_EQ(summary.execution.max(), expected.max());

  // Partition-merge matches the flat summary (the parallel-aggregate path).
  SweepSummary left = SweepRunner::summarize({cells.begin(), cells.begin() + 1});
  const SweepSummary right = SweepRunner::summarize({cells.begin() + 1, cells.end()});
  left.merge(right);
  EXPECT_EQ(left.makespan.count(), summary.makespan.count());
  EXPECT_NEAR(left.makespan.mean(), summary.makespan.mean(), 1e-9);
}

TEST(SweepRunnerTest, InvalidPolicySpecThrowsBeforeAnyCellRuns) {
  SweepGrid grid = small_grid();
  grid.policies.push_back(core::PolicySpec("no-such-policy"));
  SweepRunner runner(2);
  try {
    runner.run(grid);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown policy 'no-such-policy'"),
              std::string::npos)
        << e.what();
  }

  grid.policies.back() = core::PolicySpec::parse("v-reconf:max_reservations=many").value();
  EXPECT_THROW(runner.run(grid), std::invalid_argument);
}

TEST(SweepRunnerTest, RunIndexedPreservesIndexOrder) {
  const auto trace = sweep_trace(77);
  const auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 8);
  SweepRunner runner(3);
  const auto reports = runner.run_indexed(3, [&](std::size_t i) {
    core::ExperimentOptions options;
    options.max_sim_time = 100000.0 + 1000.0 * static_cast<double>(i);
    workload::MaterializedTraceSource source(trace);
    return *core::run_policy_on_source(core::PolicySpec("local-only"), source, config, options);
  });
  ASSERT_EQ(reports.size(), 3u);
  for (const auto& report : reports) {
    EXPECT_EQ(report.policy, "Local-Only");
    EXPECT_EQ(report.jobs_submitted, trace.size());
  }
}

}  // namespace
}  // namespace vrc::runner
