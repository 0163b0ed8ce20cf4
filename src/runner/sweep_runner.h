// Parallel multi-trial experiment runner.
//
// A SweepRunner fans a grid of (trace x cluster config x policy) cells out
// across a fixed-size thread pool. Each cell runs a fully isolated
// sim::Simulator / cluster::Cluster / policy instance (the simulation stack
// is share-nothing per run), with its RNG seed derived deterministically
// from the sweep's base seed and the cell's grid coordinates — results are
// bit-identical regardless of thread count or completion order:
//
//   runner::SweepGrid grid;
//   grid.traces = {trace1, trace2};
//   grid.configs = {cluster::ClusterConfig::paper_cluster1()};
//   grid.policies = {core::PolicySpec("g-loadsharing"),
//                    core::PolicySpec::parse("v-reconf:early_release=0").value()};
//   runner::SweepRunner runner(/*jobs=*/0);  // 0: one per hardware thread
//   std::vector<runner::CellResult> cells = runner.run(grid);
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/experiment.h"
#include "metrics/report.h"
#include "runner/thread_pool.h"
#include "sim/stats.h"
#include "workload/trace.h"
#include "workload/trace_spec.h"

namespace vrc::runner {

/// The splitmix64 mixing function (Steele, Lea & Flood) — the same finalizer
/// sim::Rng seeds through. Used to derive independent per-cell seeds.
std::uint64_t splitmix64(std::uint64_t x);

/// Deterministic per-cell seed: depends only on (base_seed, cell_key), never
/// on thread count or completion order.
std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t cell_key);

/// One workload axis entry: a materialized Trace (the implicit constructor
/// keeps `grid.traces = {trace1, trace2}` call sites working) or a
/// TraceSpec recipe. Sources are stateful single-pass iterators, so every
/// cell pumps its own: a MaterializedTraceSource copy of `trace`, or, when
/// `spec` is set, a fresh spec->make_source(default_nodes), which keeps live
/// JobSpec storage O(concurrent jobs) per cell (DESIGN.md §14).
struct SweepTrace {
  workload::Trace trace;                    // used when !spec
  std::optional<workload::TraceSpec> spec;  // recipe for per-cell sources
  std::uint32_t default_nodes = 32;  // node range handed to make_source

  SweepTrace() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): Trace -> SweepTrace compat
  SweepTrace(workload::Trace materialized) : trace(std::move(materialized)) {}

  /// Recipe entry: each cell builds its own source from `spec`.
  static SweepTrace from_spec(workload::TraceSpec spec, std::uint32_t default_nodes);

  /// Workload label for reports (the trace's name on both paths).
  std::string name() const;
};

/// The cross product a sweep evaluates. Cells are enumerated row-major as
/// (trace, config, policy), policy fastest. Policies are registry specs
/// (core::PolicySpec), so any registered policy with any param overrides can
/// ride a sweep.
struct SweepGrid {
  std::vector<SweepTrace> traces;
  std::vector<cluster::ClusterConfig> configs;
  std::vector<core::PolicySpec> policies;
  core::ExperimentOptions experiment;
  /// Folded into every cell's ClusterConfig::seed via derive_seed. The cell
  /// key covers the (trace, config) pair only: all policies of a pair run
  /// under the same stochastic conditions, so policy comparisons stay
  /// matched-pairs (the paper replays one collected trace under every
  /// scheduler).
  std::uint64_t base_seed = 0;
};

/// One completed grid cell.
struct CellResult {
  std::size_t cell_index = 0;  // row-major position in the grid
  std::size_t trace_index = 0;
  std::size_t config_index = 0;
  std::size_t policy_index = 0;
  std::uint64_t seed = 0;  // the derived ClusterConfig::seed the cell ran with
  metrics::RunReport report;
};

/// Headline metrics merged across a set of cells (Chan-style parallel
/// RunningStats::merge), e.g. the spread of a multi-seed sweep.
struct SweepSummary {
  sim::RunningStats execution;       // RunReport::total_execution
  sim::RunningStats queue;           // RunReport::total_queue
  sim::RunningStats slowdown;        // RunReport::avg_slowdown
  sim::RunningStats idle_memory_mb;  // RunReport::avg_idle_memory_mb
  sim::RunningStats balance_skew;    // RunReport::avg_balance_skew
  sim::RunningStats makespan;        // RunReport::makespan

  void absorb(const metrics::RunReport& report);
  void merge(const SweepSummary& other);
};

/// Fans grid cells out across worker threads; results come back in grid
/// order regardless of which worker finished first.
class SweepRunner {
 public:
  /// jobs <= 0 selects one worker per hardware thread.
  explicit SweepRunner(int jobs = 0);

  int jobs() const;

  /// Runs every cell of the grid. The returned vector is ordered by
  /// cell_index (= the row-major grid enumeration). Every policy spec is
  /// validated against the registry before any cell runs; an unknown policy
  /// or bad param throws std::invalid_argument with the registry's message
  /// (scenario drivers validate earlier and report recoverably).
  std::vector<CellResult> run(const SweepGrid& grid);

  /// Escape hatch for sweeps that are not a plain cross product (custom
  /// policy options, per-cell configs): runs `cell(i)` for i in [0, n) in
  /// parallel and returns the reports in index order. `cell` must be
  /// thread-safe in the trivial sense: it may only touch state owned by
  /// index i.
  std::vector<metrics::RunReport> run_indexed(
      std::size_t n, const std::function<metrics::RunReport(std::size_t)>& cell);

  /// Merged headline stats over all cells (or any subset the caller
  /// filters).
  static SweepSummary summarize(const std::vector<CellResult>& cells);

 private:
  ThreadPool pool_;
};

}  // namespace vrc::runner
