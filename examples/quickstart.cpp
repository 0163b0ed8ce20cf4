// Quickstart: simulate one SPEC workload trace on the paper's 32-node
// cluster under the dynamic load sharing baseline (G-Loadsharing) and under
// virtual reconfiguration (V-Reconfiguration), then print the comparison.
//
//   ./quickstart [--trace N] [--nodes N] [--group spec|apps]
#include <cstdio>
#include <string>

#include "core/experiment.h"
#include "util/flags.h"
#include "util/log.h"
#include "util/table.h"
#include "workload/trace_spec.h"

int main(int argc, char** argv) {
  int trace_index = 3;
  int nodes = 32;
  std::string group_name = "spec";
  bool log_info = false;
  vrc::util::FlagSet flags;
  flags.add_int("trace", &trace_index, "standard trace index 1..5");
  flags.add_int("nodes", &nodes, "number of workstations");
  flags.add_string("group", &group_name, "workload group: spec | apps");
  flags.add_bool("log", &log_info, "narrate scheduler decisions (INFO log)");
  if (!flags.parse(argc, argv)) return 1;

  if (log_info) vrc::util::set_log_level(vrc::util::LogLevel::kInfo);

  vrc::workload::WorkloadGroup group;
  if (!vrc::workload::parse_workload_group(group_name, &group)) {
    std::fprintf(stderr, "unknown group '%s'\n", group_name.c_str());
    return 1;
  }

  const vrc::workload::Trace trace = vrc::workload::TraceSpec::standard(group, trace_index)
                                         .build(static_cast<std::uint32_t>(nodes));
  const vrc::cluster::ClusterConfig config =
      vrc::core::paper_cluster_for(group, static_cast<std::size_t>(nodes));

  std::printf("Trace %s: %zu jobs over %.0f s on %d workstations\n", trace.name().c_str(),
              trace.size(), trace.duration(), nodes);

  const vrc::core::Comparison cmp =
      *vrc::core::compare_policies(vrc::core::PolicySpec("g-loadsharing"),
                                   vrc::core::PolicySpec("v-reconf"), trace, config);

  vrc::util::Table table({"metric", "G-Loadsharing", "V-Reconfiguration", "reduction"});
  using vrc::util::Table;
  table.add_row({"total execution time (s)", Table::fmt(cmp.baseline.total_execution, 0),
                 Table::fmt(cmp.ours.total_execution, 0),
                 Table::pct(cmp.execution_reduction())});
  table.add_row({"total queuing time (s)", Table::fmt(cmp.baseline.total_queue, 0),
                 Table::fmt(cmp.ours.total_queue, 0), Table::pct(cmp.queue_reduction())});
  table.add_row({"total paging time (s)", Table::fmt(cmp.baseline.total_page, 0),
                 Table::fmt(cmp.ours.total_page, 0),
                 Table::pct(vrc::metrics::reduction(cmp.baseline.total_page,
                                                    cmp.ours.total_page))});
  table.add_row({"average slowdown", Table::fmt(cmp.baseline.avg_slowdown),
                 Table::fmt(cmp.ours.avg_slowdown), Table::pct(cmp.slowdown_reduction())});
  table.add_row({"avg idle memory (MB)", Table::fmt(cmp.baseline.avg_idle_memory_mb, 0),
                 Table::fmt(cmp.ours.avg_idle_memory_mb, 0),
                 Table::pct(cmp.idle_memory_reduction())});
  table.add_row({"avg job balance skew", Table::fmt(cmp.baseline.avg_balance_skew),
                 Table::fmt(cmp.ours.avg_balance_skew),
                 Table::pct(cmp.balance_skew_reduction())});
  table.add_row({"jobs completed", std::to_string(cmp.baseline.jobs_completed),
                 std::to_string(cmp.ours.jobs_completed), ""});
  table.add_row({"makespan (s)", Table::fmt(cmp.baseline.makespan, 0),
                 Table::fmt(cmp.ours.makespan, 0), ""});
  table.add_row({"migrations", std::to_string(cmp.baseline.migrations),
                 std::to_string(cmp.ours.migrations), ""});
  std::fputs(table.to_ascii().c_str(), stdout);
  std::printf("\n%s\n%s", vrc::metrics::describe(cmp.baseline).c_str(),
              vrc::metrics::describe(cmp.ours).c_str());
  return 0;
}
