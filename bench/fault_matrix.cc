// Fault matrix: every shipped policy under an identical failure schedule, at
// a sweep of per-node MTBF values (DESIGN.md §10). The fault schedule runs on
// its own seeded RNG stream, so within one MTBF level all policies face the
// same outages (matched pairs) and the rows isolate the policy's resilience:
// how much completed work a crash destroys, how quickly killed jobs are
// re-placed, and what the availability loss does to slowdown.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/units.h"

int main(int argc, char** argv) {
  vrc::bench::SweepOptions options;
  options.nodes = 8;
  std::string mtbfs_flag = "0;3000;1500;750";
  std::string restart = "resubmit";
  std::string trace = "spec:jobs=120,duration=900,seed=7,name=fault-matrix";
  double mttr = 120.0;
  vrc::util::FlagSet flags;
  flags.add_string("mtbfs", &mtbfs_flag,
                   "';'-separated per-node MTBF values in seconds (0 = faults off)");
  flags.add_string("restart", &restart, "restart policy for killed jobs: lose | resubmit");
  flags.add_string("trace", &trace, "trace spec to run");
  flags.add_double("mttr", &mttr, "per-node mean time to repair in seconds");
  if (!vrc::bench::parse_sweep_flags(argc, argv, &options, &flags)) return 1;

  std::vector<double> mtbfs;
  {
    std::size_t start = 0;
    while (start <= mtbfs_flag.size()) {
      std::size_t end = mtbfs_flag.find(';', start);
      if (end == std::string::npos) end = mtbfs_flag.size();
      const std::string item = mtbfs_flag.substr(start, end - start);
      if (!item.empty()) {
        double mtbf = 0.0;
        if (!vrc::parse_finite_double(item, &mtbf)) {
          std::fprintf(stderr, "invalid value for --mtbfs: '%s'\n", item.c_str());
          return 1;
        }
        mtbfs.push_back(mtbf);
      }
      if (end == mtbfs_flag.size()) break;
      start = end + 1;
    }
  }

  using vrc::util::Table;
  Table table({"mtbf", "policy", "completed", "makespan", "t_exe", "avg_slowdown", "crashes",
               "killed", "restarts", "xfail", "avail"});
  for (const double mtbf : mtbfs) {
    vrc::runner::ScenarioSpec spec;
    std::string error;
    const bool ok =
        spec.apply_line("cluster paper1", &error) &&
        spec.apply_line("nodes " + std::to_string(options.nodes), &error) &&
        spec.apply_line("trace " + trace, &error) &&
        spec.apply_line("policy g-loadsharing", &error) &&
        spec.apply_line("policy local-only", &error) &&
        spec.apply_line("policy oracle", &error) &&
        spec.apply_line("policy suspension", &error) &&
        spec.apply_line("policy v-reconf", &error) &&
        spec.apply_line("sampling_interval 1", &error) &&
        spec.apply_line("max_sim_time 20000", &error) &&
        (mtbf <= 0.0 ||
         spec.apply_line("set fault.mtbf=" + Table::fmt(mtbf, 0) +
                             ",fault.mttr=" + Table::fmt(mttr, 0) +
                             ",fault.seed=11,fault.restart=" + restart,
                         &error));
    if (!ok) {
      std::fprintf(stderr, "fault_matrix: %s\n", error.c_str());
      return 1;
    }
    const auto run = vrc::bench::run_scenario_or_die(spec, options.jobs);
    for (std::size_t p = 0; p < run.num_policies; ++p) {
      const vrc::metrics::RunReport& report = run.cell(0, 0, p).report;
      table.add_row({mtbf > 0.0 ? Table::fmt(mtbf, 0) : "off", spec.policies[p].print(),
                     std::to_string(report.jobs_completed) + "/" +
                         std::to_string(report.jobs_submitted),
                     Table::fmt(report.makespan, 1), Table::fmt(report.total_execution, 1),
                     Table::fmt(report.avg_slowdown, 4), std::to_string(report.node_crashes),
                     std::to_string(report.jobs_killed), std::to_string(report.job_restarts),
                     std::to_string(report.transfer_failures),
                     Table::fmt(report.availability, 4)});
    }
  }
  std::printf("Fault matrix — %d workstations, mttr %.0f s, restart=%s\n", options.nodes, mttr,
              restart.c_str());
  vrc::bench::emit(table, options);
  std::printf("matched pairs: all policies of one mtbf row face the identical outage\n"
              "schedule (fault.seed pinned); completed < submitted marks a run that had\n"
              "not drained by max_sim_time\n");
  return 0;
}
