#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {
namespace {

constexpr double kTolerance = 1e-9;

bool close(double a, double b) {
  return std::fabs(a - b) <= kTolerance * std::max(std::fabs(a), std::fabs(b));
}

std::string format_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

class Fnv1a {
 public:
  void mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  void mix(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    mix(bits);
  }
  void mix(int value) { mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(value))); }
  void mix(bool value) { mix(static_cast<std::uint64_t>(value)); }
  void mix(const std::string& text) {
    mix(static_cast<std::uint64_t>(text.size()));
    for (char c : text) mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  void mix(const std::vector<vrc::metrics::SampledSignal>& signals) {
    for (const vrc::metrics::SampledSignal& s : signals) {
      mix(s.interval);
      mix(s.average);
      mix(s.minimum);
      mix(s.maximum);
      mix(static_cast<std::uint64_t>(s.samples));
    }
  }

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

}  // namespace

std::vector<double> reference_aggregates(const vrc::metrics::RunReport& report) {
  return {report.makespan,    report.total_execution, report.total_cpu,   report.total_page,
          report.total_queue, report.total_migration, report.avg_slowdown};
}

Reference load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  Reference reference;
  std::size_t number = 0;
  for (std::string line; std::getline(in, line);) {
    ++number;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    std::string cell;
    std::vector<double> values(kReferenceFieldCount);
    fields >> workload >> cell;
    for (double& value : values) fields >> value;
    if (!fields) {
      throw std::runtime_error(path + ":" + std::to_string(number) + ": malformed reference line");
    }
    reference[workload + " " + cell] = values;
  }
  return reference;
}

std::string reference_line(const std::string& key, const vrc::metrics::RunReport& report) {
  std::string line = key;
  for (double value : reference_aggregates(report)) {
    line += ' ';
    line += format_double(value);
  }
  return line;
}

std::vector<std::string> check_cell(const vrc::metrics::RunReport& report,
                                    std::size_t expected_jobs,
                                    const std::vector<double>* reference) {
  std::vector<std::string> problems;
  if (report.jobs_completed != report.jobs_submitted) {
    problems.push_back("did not drain: " + std::to_string(report.jobs_completed) + " of " +
                       std::to_string(report.jobs_submitted) + " jobs completed");
  }
  if (report.jobs_submitted != expected_jobs || report.jobs.size() != report.jobs_completed) {
    problems.push_back("job conservation: source delivered " + std::to_string(expected_jobs) +
                       ", submitted " + std::to_string(report.jobs_submitted) + ", " +
                       std::to_string(report.jobs.size()) + " records");
  }
  std::vector<vrc::workload::JobId> ids;
  ids.reserve(report.jobs.size());
  std::size_t identity_failures = 0;
  for (const vrc::cluster::CompletedJob& job : report.jobs) {
    ids.push_back(job.id);
    const double parts = job.t_cpu + job.t_page + job.t_queue + job.t_mig;
    if (!close(job.wall_clock(), parts)) ++identity_failures;
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    problems.push_back("job conservation: a job completed twice");
  }
  if (identity_failures > 0) {
    problems.push_back(std::to_string(identity_failures) +
                       " jobs break t_exe = t_cpu + t_page + t_que + t_mig");
  }
  if (reference != nullptr) {
    const std::vector<double> actual = reference_aggregates(report);
    for (std::size_t i = 0; i < kReferenceFieldCount; ++i) {
      if (!close(actual[i], (*reference)[i])) {
        problems.push_back(std::string(kReferenceFields[i]) + " " + format_double(actual[i]) +
                           " differs from reference " + format_double((*reference)[i]));
      }
    }
  }
  return problems;
}

std::uint64_t fingerprint(const vrc::metrics::RunReport& report) {
  Fnv1a h;
  h.mix(report.policy);
  h.mix(report.trace);
  h.mix(static_cast<std::uint64_t>(report.jobs_submitted));
  h.mix(static_cast<std::uint64_t>(report.jobs_completed));
  for (double value : {report.makespan, report.total_execution, report.total_cpu,
                       report.total_page, report.total_queue, report.total_migration,
                       report.avg_slowdown, report.median_slowdown, report.p95_slowdown,
                       report.max_slowdown, report.avg_idle_memory_mb, report.avg_balance_skew,
                       report.total_faults, report.work_lost_cpu_seconds,
                       report.downtime_node_seconds, report.availability,
                       report.width_time_product}) {
    h.mix(value);
  }
  h.mix(report.idle_memory_mb);
  h.mix(report.balance_skew);
  for (std::uint64_t value :
       {report.migrations, report.remote_submits, report.local_placements, report.node_crashes,
        report.node_recoveries, report.jobs_killed, report.job_restarts, report.transfer_failures,
        report.malleable_jobs, report.resizes, report.resizes_aborted, report.peak_live_specs}) {
    h.mix(value);
  }
  h.mix(report.streamed);
  for (const auto& [name, value] : report.policy_stats) {
    h.mix(name);
    h.mix(value);
  }
  for (const vrc::cluster::CompletedJob& job : report.jobs) {
    h.mix(static_cast<std::uint64_t>(job.id));
    h.mix(job.program);
    for (double value : {job.submit_time, job.completion_time, job.cpu_seconds, job.t_cpu,
                         job.t_page, job.t_queue, job.t_mig, job.faults, job.width_seconds}) {
      h.mix(value);
    }
    for (int value : {job.migrations, job.remote_submits, job.restarts, job.resizes}) h.mix(value);
    h.mix(job.malleable);
    h.mix(static_cast<std::uint64_t>(job.final_node));
    h.mix(static_cast<std::uint64_t>(job.working_set));
  }
  return h.value();
}

}  // namespace perfbench
