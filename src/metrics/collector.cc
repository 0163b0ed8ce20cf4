#include "metrics/collector.h"

#include <algorithm>

namespace vrc::metrics {

double balance_skew(cluster::Cluster& cluster) {
  sim::RunningStats stats;
  for (int count : cluster.live_active_jobs(/*skip_reserved=*/true)) {
    stats.add(static_cast<double>(count));
  }
  return stats.population_stddev();
}

Collector::Collector(cluster::Cluster& cluster, CollectorOptions options)
    : cluster_(cluster), options_(std::move(options)) {
  sim::Simulator& sim = cluster.simulator();
  for (SimTime interval : options_.sampling_intervals) {
    idle_samplers_.push_back(std::make_unique<sim::IntervalSampler>(
        sim, sim.now() + interval, interval,
        [this](SimTime) { return to_megabytes(cluster_.live_idle_memory()); }));
    skew_samplers_.push_back(std::make_unique<sim::IntervalSampler>(
        sim, sim.now() + interval, interval, [this](SimTime) { return balance_skew(cluster_); }));
  }
  cluster.add_finish_callback([this](SimTime) { stop(); });
}

void Collector::stop() {
  for (auto& sampler : idle_samplers_) sampler->stop();
  for (auto& sampler : skew_samplers_) sampler->stop();
}

namespace {

SampledSignal summarize(const sim::IntervalSampler& sampler) {
  SampledSignal signal;
  signal.interval = sampler.interval();
  signal.average = sampler.stats().mean();
  signal.minimum = sampler.stats().min();
  signal.maximum = sampler.stats().max();
  signal.samples = sampler.stats().count();
  return signal;
}

}  // namespace

RunReport Collector::report(const std::string& trace_name, const std::string& policy_name) const {
  RunReport report;
  report.policy = policy_name;
  report.trace = trace_name;
  report.jobs_submitted = cluster_.submitted_count();
  report.jobs_completed = cluster_.completed().size();

  sim::Percentiles slowdowns;
  sim::RunningStats slowdown_stats;
  for (const cluster::CompletedJob& job : cluster_.completed()) {
    report.makespan = std::max(report.makespan, job.completion_time);
    report.total_execution += job.wall_clock();
    report.total_cpu += job.t_cpu;
    report.total_page += job.t_page;
    report.total_queue += job.t_queue;
    report.total_migration += job.t_mig;
    report.total_faults += job.faults;
    if (job.malleable) {
      ++report.malleable_jobs;
      report.width_time_product += job.width_seconds;
    }
    report.resizes += static_cast<std::uint64_t>(job.resizes);
    slowdowns.add(job.slowdown());
    slowdown_stats.add(job.slowdown());
  }
  report.avg_slowdown = slowdown_stats.mean();
  report.median_slowdown = slowdowns.quantile(0.5);
  report.p95_slowdown = slowdowns.quantile(0.95);
  report.max_slowdown = slowdown_stats.max();

  for (const auto& sampler : idle_samplers_) {
    report.idle_memory_mb.push_back(summarize(*sampler));
  }
  for (const auto& sampler : skew_samplers_) {
    report.balance_skew.push_back(summarize(*sampler));
  }
  if (!report.idle_memory_mb.empty()) {
    report.avg_idle_memory_mb = report.idle_memory_mb.front().average;
  }
  if (!report.balance_skew.empty()) {
    report.avg_balance_skew = report.balance_skew.front().average;
  }

  report.resizes_aborted = cluster_.resizes_aborted();

  report.migrations = cluster_.migrations_started();
  report.remote_submits = cluster_.remote_submits();
  report.local_placements = cluster_.local_placements();

  report.node_crashes = cluster_.node_crashes();
  report.node_recoveries = cluster_.node_recoveries();
  report.jobs_killed = cluster_.jobs_killed();
  report.transfer_failures = cluster_.transfer_failures();
  for (const cluster::CompletedJob& job : cluster_.completed()) {
    report.job_restarts += static_cast<std::uint64_t>(job.restarts);
  }
  report.work_lost_cpu_seconds = cluster_.work_lost_cpu_seconds();
  const SimTime now = cluster_.simulator().now();
  report.downtime_node_seconds = cluster_.downtime_node_seconds(now);
  const double node_seconds = static_cast<double>(cluster_.num_nodes()) * now;
  report.availability =
      node_seconds > 0.0 ? 1.0 - report.downtime_node_seconds / node_seconds : 1.0;

  report.jobs = cluster_.completed();
  return report;
}

}  // namespace vrc::metrics
