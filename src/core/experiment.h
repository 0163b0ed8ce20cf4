// Experiment runner: one (arrival source, cluster, policy) simulation end to
// end.
//
// This is the public entry point every scenario cell runs through:
//
//   auto source = workload::TraceSpec::standard(WorkloadGroup::kSpec, 3).make_source();
//   auto report = core::run_policy_on_source(core::PolicySpec("v-reconf"), *source,
//                                            ClusterConfig::paper_cluster1());
//
// A materialized Trace runs through the same pump wrapped in a
// workload::MaterializedTraceSource.
#pragma once

#include <memory>

#include "cluster/cluster.h"
#include "cluster/config.h"
#include "core/baselines.h"
#include "faults/fault_plan.h"
#include "core/g_load_sharing.h"
#include "core/oracle.h"
#include "core/policy_registry.h"
#include "core/v_reconfiguration.h"
#include "metrics/collector.h"
#include "workload/trace.h"

namespace vrc::core {

/// Knobs for one experiment run.
struct ExperimentOptions {
  metrics::CollectorOptions collector;
  /// Safety cap on simulated time; a run that has not drained by then is
  /// reported with the jobs completed so far (jobs_completed <
  /// jobs_submitted flags it).
  SimTime max_sim_time = 500000.0;
  /// Explicit failure windows (scenario `fault` directives). Combined with
  /// the stochastic generator (config.fault_mtbf) by FaultPlan::materialize;
  /// when both are empty no fault machinery is instantiated at all, keeping
  /// fault-free runs bit-identical to pre-fault builds.
  std::vector<faults::FaultEntry> fault_entries;
};

/// Runs `source` (consumed) on a cluster built from `config` under
/// `policy`. Cluster::submit_source pumps the arrivals, so live JobSpec
/// storage is O(concurrent jobs) regardless of stream length (DESIGN.md §14);
/// the report's `peak_live_specs` records the pump's high-water mark.
metrics::RunReport run_experiment(workload::ArrivalSource& source,
                                  const cluster::ClusterConfig& config,
                                  cluster::SchedulerPolicy& policy,
                                  const ExperimentOptions& options = {});

/// Constructs the policy from a registry spec and runs `source` (consumed)
/// through it. Returns std::nullopt and fills *error when the spec names an
/// unknown policy or carries bad params.
std::optional<metrics::RunReport> run_policy_on_source(const PolicySpec& spec,
                                                       workload::ArrivalSource& source,
                                                       const cluster::ClusterConfig& config,
                                                       const ExperimentOptions& options = {},
                                                       std::string* error = nullptr);

/// The paper's testbed for a workload group: cluster 1 for the SPEC group,
/// cluster 2 for the application group.
cluster::ClusterConfig paper_cluster_for(workload::WorkloadGroup group, std::size_t nodes = 32);

}  // namespace vrc::core
