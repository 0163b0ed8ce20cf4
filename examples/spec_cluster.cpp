// Full reproduction run of one workload-group-1 experiment: generates (or
// loads) a SPEC trace, runs all four shipped policies on paper cluster 1,
// and prints the §5 execution-time breakdown per policy.
//
//   ./spec_cluster [--trace N] [--nodes N] [--save-trace FILE] [--load-trace FILE]
#include <cstdio>
#include <string>

#include "core/experiment.h"
#include "util/flags.h"
#include "util/table.h"
#include "workload/trace_spec.h"

int main(int argc, char** argv) {
  int trace_index = 3;
  int nodes = 32;
  std::string save_path;
  std::string load_path;
  vrc::util::FlagSet flags;
  flags.add_int("trace", &trace_index, "standard trace index 1..5");
  flags.add_int("nodes", &nodes, "number of workstations");
  flags.add_string("save-trace", &save_path, "write the generated trace to this file");
  flags.add_string("load-trace", &load_path, "replay a trace file instead of generating");
  if (!flags.parse(argc, argv)) return 1;

  vrc::workload::Trace trace =
      load_path.empty()
          ? vrc::workload::TraceSpec::standard(vrc::workload::WorkloadGroup::kSpec, trace_index)
                .build(static_cast<std::uint32_t>(nodes))
          : vrc::workload::Trace::load_from_file(load_path);
  if (!save_path.empty()) {
    if (!trace.save_to_file(save_path)) {
      std::fprintf(stderr, "cannot write %s\n", save_path.c_str());
      return 1;
    }
    std::printf("trace saved to %s\n", save_path.c_str());
  }

  const auto config =
      vrc::core::paper_cluster_for(trace.group(), static_cast<std::size_t>(nodes));
  std::printf("%s: %zu jobs, %.0f s submission window, %.0f CPU-seconds of work\n",
              trace.name().c_str(), trace.size(), trace.duration(),
              trace.total_cpu_seconds());

  using vrc::util::Table;
  Table table({"policy", "T_exe (s)", "T_cpu (s)", "T_page (s)", "T_que (s)", "T_mig (s)",
               "avg slowdown", "makespan (s)"});
  for (const char* policy : {"local-only", "g-loadsharing", "suspension", "v-reconf"}) {
    vrc::workload::MaterializedTraceSource source(trace);
    const auto report =
        *vrc::core::run_policy_on_source(vrc::core::PolicySpec(policy), source, config);
    table.add_row({report.policy, Table::fmt(report.total_execution, 0),
                   Table::fmt(report.total_cpu, 0), Table::fmt(report.total_page, 0),
                   Table::fmt(report.total_queue, 0), Table::fmt(report.total_migration, 0),
                   Table::fmt(report.avg_slowdown), Table::fmt(report.makespan, 0)});
  }
  std::fputs(table.to_ascii().c_str(), stdout);
  return 0;
}
