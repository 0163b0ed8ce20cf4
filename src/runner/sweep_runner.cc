#include "runner/sweep_runner.h"

#include <stdexcept>

namespace vrc::runner {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t cell_key) {
  // Two rounds so that (base, key) and (base + 1, key - 1)-style collisions
  // cannot alias: the first round decorrelates the key, the second mixes in
  // the base stream.
  return splitmix64(splitmix64(base_seed) ^ splitmix64(cell_key + 0x51ed270b0f4a92c5ULL));
}

SweepTrace SweepTrace::from_spec(workload::TraceSpec spec, std::uint32_t default_nodes) {
  SweepTrace entry;
  entry.spec = std::move(spec);
  entry.default_nodes = default_nodes;
  return entry;
}

std::string SweepTrace::name() const {
  if (!spec) return trace.name();
  if (spec->is_swf()) {
    if (!spec->name.empty()) return spec->name;
    // Mirror SwfTraceSource's file-stem naming without opening the file.
    const std::string& path = spec->swf_file;
    const std::size_t slash = path.find_last_of("/\\");
    std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
    const std::size_t dot = base.rfind('.');
    if (dot != std::string::npos && dot > 0) base.erase(dot);
    return base;
  }
  return spec->to_params(default_nodes).name;
}

void SweepSummary::absorb(const metrics::RunReport& report) {
  execution.add(report.total_execution);
  queue.add(report.total_queue);
  slowdown.add(report.avg_slowdown);
  idle_memory_mb.add(report.avg_idle_memory_mb);
  balance_skew.add(report.avg_balance_skew);
  makespan.add(report.makespan);
}

void SweepSummary::merge(const SweepSummary& other) {
  execution.merge(other.execution);
  queue.merge(other.queue);
  slowdown.merge(other.slowdown);
  idle_memory_mb.merge(other.idle_memory_mb);
  balance_skew.merge(other.balance_skew);
  makespan.merge(other.makespan);
}

SweepRunner::SweepRunner(int jobs) : pool_(jobs) {}

int SweepRunner::jobs() const { return pool_.jobs(); }

std::vector<CellResult> SweepRunner::run(const SweepGrid& grid) {
  // Validate every spec against the registry before dispatching anything:
  // a typo'd policy name must not surface as a half-finished sweep.
  for (const core::PolicySpec& spec : grid.policies) {
    std::string error;
    if (!core::make_policy(spec, &error)) throw std::invalid_argument(error);
  }

  const std::size_t n = grid.traces.size() * grid.configs.size() * grid.policies.size();
  std::vector<CellResult> results(n);
  pool_.parallel_for(n, [&grid, &results](std::size_t index) {
    CellResult& cell = results[index];  // each worker touches only its slot
    cell.cell_index = index;
    cell.policy_index = index % grid.policies.size();
    const std::size_t pair = index / grid.policies.size();
    cell.config_index = pair % grid.configs.size();
    cell.trace_index = pair / grid.configs.size();

    // Per-cell config copy with a deterministically derived seed. The key
    // is the (trace, config) pair so every policy of a pair sees identical
    // stochastic conditions (matched-pairs comparisons).
    cluster::ClusterConfig config = grid.configs[cell.config_index];
    config.seed = derive_seed(grid.base_seed, pair);
    cell.seed = config.seed;

    // Sources are stateful single-pass iterators: build a fresh one for this
    // cell (another worker may be pumping the same entry right now).
    const SweepTrace& entry = grid.traces[cell.trace_index];
    std::unique_ptr<workload::ArrivalSource> source =
        entry.spec ? entry.spec->make_source(entry.default_nodes)
                   : std::make_unique<workload::MaterializedTraceSource>(entry.trace);
    // Specs were validated before dispatch, so creation cannot fail here.
    cell.report = *core::run_policy_on_source(grid.policies[cell.policy_index], *source, config,
                                              grid.experiment);
  });
  return results;
}

std::vector<metrics::RunReport> SweepRunner::run_indexed(
    std::size_t n, const std::function<metrics::RunReport(std::size_t)>& cell) {
  std::vector<metrics::RunReport> reports(n);
  pool_.parallel_for(n, [&cell, &reports](std::size_t index) { reports[index] = cell(index); });
  return reports;
}

SweepSummary SweepRunner::summarize(const std::vector<CellResult>& cells) {
  SweepSummary summary;
  for (const CellResult& cell : cells) summary.absorb(cell.report);
  return summary;
}

}  // namespace vrc::runner
