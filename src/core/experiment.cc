#include "core/experiment.h"

#include "faults/injector.h"
#include "metrics/perf_counters.h"
#include "metrics/report.h"
#include "util/log.h"

namespace vrc::core {

metrics::RunReport run_experiment(workload::ArrivalSource& source,
                                  const cluster::ClusterConfig& config,
                                  cluster::SchedulerPolicy& policy,
                                  const ExperimentOptions& options) {
  // Per-run perf capture (no-op unless `vrc_run --perf-counters` enabled the
  // global switch): binds thread-local counters for the whole run — including
  // scenario cells on worker threads — and merges them into the process
  // aggregate at scope exit.
  metrics::ScopedPerfCapture perf_capture;
  sim::Simulator sim;
  cluster::Cluster cluster(sim, config, policy);
  metrics::Collector collector(cluster, options.collector);
  // Only instantiate fault machinery when the run actually has faults: an
  // empty plan must leave the event stream bit-identical to a build without
  // the subsystem (the no-faults-equivalence determinism test pins this).
  faults::FaultPlan plan =
      faults::FaultPlan::materialize(options.fault_entries, config, options.max_sim_time);
  std::unique_ptr<faults::FaultInjector> injector;
  if (!plan.empty()) {
    injector = std::make_unique<faults::FaultInjector>(sim, cluster, plan);
  }
  cluster.submit_source(source);
  sim.run_until(options.max_sim_time);
  // Folded after the run so the event loop itself carries no counting cost.
  metrics::perf_add(&metrics::PerfCounters::events_executed, sim.executed_events());
  collector.stop();
  metrics::RunReport report = collector.report(source.name(), policy.name());
  report.streamed = true;
  report.peak_live_specs = cluster.peak_live_specs();
  report.policy_stats = policy.stats();
  // Closes the run's narration (`vrc_run --log`).
  VRC_LOG(kInfo) << metrics::describe(report);
  return report;
}

std::optional<metrics::RunReport> run_policy_on_source(const PolicySpec& spec,
                                                       workload::ArrivalSource& source,
                                                       const cluster::ClusterConfig& config,
                                                       const ExperimentOptions& options,
                                                       std::string* error) {
  std::unique_ptr<cluster::SchedulerPolicy> policy = make_policy(spec, error);
  if (!policy) return std::nullopt;
  return run_experiment(source, config, *policy, options);
}

cluster::ClusterConfig paper_cluster_for(workload::WorkloadGroup group, std::size_t nodes) {
  return group == workload::WorkloadGroup::kSpec
             ? cluster::ClusterConfig::paper_cluster1(nodes)
             : cluster::ClusterConfig::paper_cluster2(nodes);
}

}  // namespace vrc::core
