// §5 analytic model validation: the execution-time decomposition
// T_exe = T_cpu + T_page + T_que + T_mig, the approximation
// T_exe - T̂_exe ≈ (T_page - T̂_page) + (T_que - T̂_que), and the FIFO bound
// on reserved-workstation queuing, all evaluated from simulation output.
#include "bench_common.h"

#include "analysis/model.h"

int main(int argc, char** argv) {
  vrc::bench::SweepOptions options;
  options.trace_from = 3;
  options.trace_to = 5;
  std::string group_name = "spec";
  vrc::util::FlagSet flags;
  flags.add_string("group", &group_name, "workload group: spec | apps");
  if (!vrc::bench::parse_sweep_flags(argc, argv, &options, &flags)) return 1;

  vrc::workload::WorkloadGroup group;
  if (!vrc::workload::parse_workload_group(group_name, &group)) return 1;
  const auto config =
      vrc::core::paper_cluster_for(group, static_cast<std::size_t>(options.nodes));

  using vrc::util::Table;
  Table table({"trace", "gain T_exe-T̂_exe (s)", "ΔT_page (s)", "ΔT_que (s)", "ΔT_cpu (s)",
               "ΔT_mig (s)", "model approx error"});
  for (int index = options.trace_from; index <= options.trace_to; ++index) {
    const auto trace = vrc::workload::TraceSpec::standard(group, index)
                           .build(static_cast<std::uint32_t>(options.nodes));
    const auto c = *vrc::core::compare_policies(vrc::core::PolicySpec("g-loadsharing"),
                                                vrc::core::PolicySpec("v-reconf"), trace, config);
    const auto delta = vrc::analysis::compare_runs(c.baseline, c.ours);
    table.add_row({trace.name(), Table::fmt(delta.gain(), 0), Table::fmt(delta.d_page, 0),
                   Table::fmt(delta.d_queue, 0), Table::fmt(delta.d_cpu, 0),
                   Table::fmt(delta.d_migration, 0), Table::pct(delta.approximation_error())});
  }
  std::printf("Section 5 model validation — %s group, %d workstations\n", group_name.c_str(),
              options.nodes);
  vrc::bench::emit(table, options);
  std::printf("model: ΔT_cpu = 0 (identical CPU demand), ΔT_mig insignificant, so the gain\n"
              "is explained by the paging and queuing deltas (small approx error)\n");

  // FIFO-bound demonstration on a synthetic reserved queue (§5 item 3).
  const std::vector<double> waits{12.0, 3.0, 7.0, 21.0};
  std::printf("\nreserved-queue FIFO bound g(Q_r) for waits {12,3,7,21}: arrival order %.0f s, "
              "ascending order %.0f s (the minimum, per §5)\n",
              vrc::analysis::reserved_queue_fifo_bound(waits),
              vrc::analysis::reserved_queue_min_bound(waits));
  return 0;
}
