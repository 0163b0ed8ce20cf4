// Heterogeneous-cluster extension (the paper's §6 notes heterogeneity as an
// implementation issue): a cluster mixing fast/large and slow/small
// workstations. Per §2.3, in a heterogeneous system the reserved
// workstation will naturally be one with relatively large memory — this
// example shows exactly that happening.
//
//   ./heterogeneous_cluster [--jobs N]
#include <cstdio>
#include <map>
#include <string>

#include "core/experiment.h"
#include "util/flags.h"
#include "util/table.h"
#include "workload/trace_spec.h"

using namespace vrc;

int main(int argc, char** argv) {
  int num_jobs = 450;
  util::FlagSet flags;
  flags.add_int("jobs", &num_jobs, "jobs to generate");
  if (!flags.parse(argc, argv)) return 1;

  // 16 "big" workstations (400 MHz / 384 MB, the paper-cluster-1 hardware)
  // and 16 older ones (233 MHz / 192 MB), declared as per-node config
  // overrides — the same `node.<i>.<field>=value` text a scenario file uses.
  cluster::ClusterConfig config = cluster::ClusterConfig::paper_cluster1(32);
  std::map<std::string, std::string> overrides;
  for (int i = 16; i < 32; ++i) {
    const std::string prefix = "node." + std::to_string(i) + ".";
    overrides[prefix + "cpu_mhz"] = "233";
    overrides[prefix + "memory"] = "192MB";
    overrides[prefix + "swap"] = "192MB";
  }
  std::string error;
  if (!config.apply_overrides(overrides, &error)) {
    std::fprintf(stderr, "heterogeneous_cluster: %s\n", error.c_str());
    return 1;
  }

  workload::TraceSpec trace_spec;
  trace_spec.group = workload::WorkloadGroup::kSpec;
  trace_spec.num_jobs = static_cast<std::size_t>(num_jobs);
  trace_spec.duration = 1800.0;
  trace_spec.seed = 11;
  trace_spec.name = "hetero";

  // Track where reserved service happens.
  class InstrumentedVRecon : public core::VReconfiguration {
   public:
    using core::VReconfiguration::VReconfiguration;
    void on_migration_complete(cluster::Cluster& cluster, cluster::RunningJob& job) override {
      if (cluster.node(job.node).reserved()) ++service_by_node[job.node];
      core::VReconfiguration::on_migration_complete(cluster, job);
    }
    std::map<workload::NodeId, int> service_by_node;
  };

  const auto baseline = core::make_policy(core::PolicySpec("g-loadsharing"), &error);
  if (!baseline) {
    std::fprintf(stderr, "heterogeneous_cluster: %s\n", error.c_str());
    return 1;
  }
  InstrumentedVRecon vrecon;
  const auto base = core::run_experiment(*trace_spec.make_source(32), config, *baseline);
  const auto ours = core::run_experiment(*trace_spec.make_source(32), config, vrecon);

  using util::Table;
  Table table({"metric", "G-Loadsharing", "V-Reconfiguration", "reduction"});
  table.add_row({"total execution time (s)", Table::fmt(base.total_execution, 0),
                 Table::fmt(ours.total_execution, 0),
                 Table::pct(metrics::reduction(base.total_execution, ours.total_execution))});
  table.add_row({"average slowdown", Table::fmt(base.avg_slowdown),
                 Table::fmt(ours.avg_slowdown),
                 Table::pct(metrics::reduction(base.avg_slowdown, ours.avg_slowdown))});
  table.add_row({"total paging time (s)", Table::fmt(base.total_page, 0),
                 Table::fmt(ours.total_page, 0),
                 Table::pct(metrics::reduction(base.total_page, ours.total_page))});
  std::printf("Heterogeneous cluster: 16 x (400 MHz, 384 MB) + 16 x (233 MHz, 192 MB)\n");
  std::fputs(table.to_ascii().c_str(), stdout);

  int on_large = 0, on_small = 0;
  for (const auto& [node, count] : vrecon.service_by_node) {
    (node < 16 ? on_large : on_small) += count;
  }
  std::printf("reserved service events: %d on large-memory nodes, %d on small nodes\n",
              on_large, on_small);
  std::printf("(§2.3: \"a reserved workstation will be the one with relatively large "
              "physical memory space\")\n");
  return 0;
}
