// §2.3 limitation study: "The virtual reconfiguration may not work well for
// specific workloads where big jobs are dominant." This bench sweeps the
// fraction of large jobs in the mix (overriding the catalog weights) and
// reports where the benefit of reconfiguration peaks and where it fades.
#include "bench_common.h"

#include "workload/catalog.h"

int main(int argc, char** argv) {
  vrc::bench::SweepOptions options;
  int trace_index = 3;
  vrc::util::FlagSet flags;
  flags.add_int("trace", &trace_index, "standard trace shape 1..5");
  if (!vrc::bench::parse_sweep_flags(argc, argv, &options, &flags)) return 1;

  const auto group = vrc::workload::WorkloadGroup::kSpec;
  const auto config =
      vrc::core::paper_cluster_for(group, static_cast<std::size_t>(options.nodes));
  const auto shape = vrc::workload::standard_trace_shape(trace_index);
  const auto& programs = vrc::workload::catalog(group);

  using vrc::util::Table;
  Table table({"big-job share", "T_exe G-LS (s)", "T_exe V-Recon (s)", "exec reduction",
               "queue reduction", "slowdown reduction"});
  for (double big_share : {0.0, 0.03, 0.08, 0.15, 0.30, 0.50}) {
    // Split the arrival probability between the two large programs (apsi,
    // mcf) and the four normal ones, preserving relative normal weights.
    std::vector<double> weights;
    double normal_total = 0.0;
    for (const auto& p : programs) {
      if (p.working_set < vrc::megabytes(150)) normal_total += p.mix_weight;
    }
    for (const auto& p : programs) {
      if (p.working_set >= vrc::megabytes(150)) {
        weights.push_back(big_share / 2.0);
      } else {
        weights.push_back((1.0 - big_share) * p.mix_weight / normal_total);
      }
    }
    vrc::workload::TraceParams params;
    params.name = "bigshare";
    params.group = group;
    params.sigma = shape.sigma;
    params.mu = shape.mu;
    params.num_jobs = shape.num_jobs;
    params.duration = shape.duration;
    params.num_nodes = static_cast<std::uint32_t>(options.nodes);
    params.seed = 4242;
    params.program_weights = weights;
    const auto trace = vrc::workload::generate_trace(params);

    const auto c = *vrc::core::compare_policies(vrc::core::PolicySpec("g-loadsharing"),
                                                vrc::core::PolicySpec("v-reconf"), trace, config);
    table.add_row({Table::pct(big_share, 0), Table::fmt(c.baseline.total_execution, 0),
                   Table::fmt(c.ours.total_execution, 0), Table::pct(c.execution_reduction()),
                   Table::pct(c.queue_reduction()), Table::pct(c.slowdown_reduction())});
  }
  std::printf("Big-job dominance sweep — SPEC trace shape %d, %d workstations\n", trace_index,
              options.nodes);
  vrc::bench::emit(table, options);
  std::printf("paper §2.2/§2.3: benefits require large jobs to exist but stay a small\n"
              "percentage; with none there is nothing to fix, with dominance the\n"
              "reconfiguration cannot keep up\n");
  return 0;
}
