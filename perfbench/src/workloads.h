// The benchmark's four named workloads. Each turns a seed into a list of
// cells; a cell is one run_experiment call with its own arrival source,
// cluster config, policy and options, built from scratch so every pass pays
// the same set-up.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/config.h"
#include "cluster/policy.h"
#include "core/experiment.h"
#include "workload/arrival_source.h"

namespace perfbench {

/// Seed that reproduces the published shapes: the standard trace seeds, the
/// SWF fixtures as committed, and the scenario files' own seeds. Reference
/// aggregates are recorded at this seed only.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Cell {
  std::string label;  // "<trace>/<policy>", unique within a workload
  std::unique_ptr<vrc::workload::ArrivalSource> source;
  vrc::cluster::ClusterConfig config;
  std::unique_ptr<vrc::cluster::SchedulerPolicy> policy;
  vrc::core::ExperimentOptions options;
  std::size_t expected_jobs = 0;  // jobs the source will deliver
};

/// Cells of one workload plus the host time spent building its inputs
/// (trace generation, SWF read and validation); the rest of set-up is config
/// resolution and policy construction.
struct Setup {
  std::vector<Cell> cells;
  double workload_build_s = 0.0;
};

struct Workload {
  const char* name;
  Setup (*build)(std::uint64_t seed, const std::string& data_dir);
};

/// All workloads, in the order the benchmark reports them. Why each was
/// chosen is in README.md and BENCHMARK.json.
const std::vector<Workload>& workloads();

/// The named workload, or nullptr.
const Workload* find_workload(const std::string& name);

}  // namespace perfbench
