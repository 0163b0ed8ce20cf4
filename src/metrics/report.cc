#include "metrics/report.h"

#include <cmath>
#include <sstream>

namespace vrc::metrics {

double reduction(double baseline, double ours) {
  if (baseline == 0.0) return 0.0;
  return (baseline - ours) / baseline;
}

std::string describe(const RunReport& report) {
  std::ostringstream os;
  os.precision(4);
  os << report.policy << " on " << report.trace << ": " << report.jobs_completed << '/'
     << report.jobs_submitted << " jobs, makespan " << report.makespan << " s\n";
  os << "  T_exe=" << report.total_execution << " s (cpu=" << report.total_cpu
     << " page=" << report.total_page << " queue=" << report.total_queue
     << " mig=" << report.total_migration << ")\n";
  os << "  slowdown avg=" << report.avg_slowdown << " median=" << report.median_slowdown
     << " p95=" << report.p95_slowdown << " max=" << report.max_slowdown << '\n';
  os << "  idle memory avg=" << report.avg_idle_memory_mb
     << " MB, balance skew avg=" << report.avg_balance_skew << '\n';
  os << "  migrations=" << report.migrations << " remote=" << report.remote_submits
     << " local=" << report.local_placements << " faults=" << report.total_faults << '\n';
  if (report.node_crashes > 0) {
    os << "  crashes=" << report.node_crashes << " recoveries=" << report.node_recoveries
       << " jobs_killed=" << report.jobs_killed << " restarts=" << report.job_restarts
       << " transfer_failures=" << report.transfer_failures << '\n';
    os << "  work lost=" << report.work_lost_cpu_seconds
       << " cpu-s, downtime=" << report.downtime_node_seconds
       << " node-s, availability=" << report.availability << '\n';
  }
  if (report.malleable_jobs > 0) {
    os << "  malleable: jobs=" << report.malleable_jobs << " resizes=" << report.resizes
       << " aborted=" << report.resizes_aborted
       << " width-time=" << report.width_time_product << " slot-s\n";
  }
  if (!report.policy_stats.empty()) {
    os << "  policy:";
    for (const auto& [key, value] : report.policy_stats) {
      // Counts print exactly: four significant digits read 34770 as 3.477e+04.
      os.precision(std::trunc(value) == value ? 17 : 4);
      os << ' ' << key << '=' << value;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace vrc::metrics
