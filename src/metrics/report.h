// Run reports: every quantity the paper's evaluation section reports,
// computed from one simulated (trace, policy) run.
//
//  * total execution time T_exe = sum of per-job wall-clock times and its §5
//    breakdown T_cpu + T_page + T_que + T_mig;
//  * average slowdown (wall-clock / CPU execution time) — Figures 2 & 4;
//  * average idle memory volume, sampled periodically — Figure 2 (right);
//  * average job balance skew: the standard deviation of active-job counts
//    across non-reserved workstations, sampled periodically — Figure 4
//    (right).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "cluster/running_job.h"
#include "sim/stats.h"
#include "util/units.h"

namespace vrc::metrics {

/// Time-sampled cluster signal summarized at one sampling interval.
struct SampledSignal {
  SimTime interval = 1.0;
  double average = 0.0;
  double minimum = 0.0;
  double maximum = 0.0;
  std::size_t samples = 0;
};

/// Aggregate result of one simulation run.
struct RunReport {
  std::string policy;
  std::string trace;
  std::size_t jobs_submitted = 0;
  std::size_t jobs_completed = 0;
  SimTime makespan = 0.0;  // completion time of the last job

  // §5 decomposition (sums over all completed jobs, seconds).
  SimTime total_execution = 0.0;  // T_exe = sum of wall-clock times
  SimTime total_cpu = 0.0;
  SimTime total_page = 0.0;
  SimTime total_queue = 0.0;
  SimTime total_migration = 0.0;

  double avg_slowdown = 0.0;
  double median_slowdown = 0.0;
  double p95_slowdown = 0.0;
  double max_slowdown = 0.0;

  // Figure 2/4 right-hand metrics at the default 1 s interval.
  double avg_idle_memory_mb = 0.0;
  double avg_balance_skew = 0.0;
  // The same signals at every configured sampling interval (the paper's
  // insensitivity check across 1 s / 10 s / 30 s / 1 min).
  std::vector<SampledSignal> idle_memory_mb;
  std::vector<SampledSignal> balance_skew;

  // Mechanism counters.
  std::uint64_t migrations = 0;
  std::uint64_t remote_submits = 0;
  std::uint64_t local_placements = 0;
  double total_faults = 0.0;

  // Fault-injection outcomes (all zero on a fault-free run; DESIGN.md §10).
  std::uint64_t node_crashes = 0;
  std::uint64_t node_recoveries = 0;
  std::uint64_t jobs_killed = 0;
  std::uint64_t job_restarts = 0;  // sum of per-job restart counts
  std::uint64_t transfer_failures = 0;
  /// Reference-CPU seconds of completed work discarded by node failures.
  double work_lost_cpu_seconds = 0.0;
  /// Node-seconds the cluster spent down over the observation window.
  double downtime_node_seconds = 0.0;
  /// Fraction of node-time the cluster was up: 1 - downtime / (N * elapsed).
  double availability = 1.0;

  // Malleable reconfiguration outcomes (DESIGN.md §15). All zero on a rigid
  // workload, so pre-malleability report renderings stay byte-identical.
  /// Completed jobs whose spec carried a resizable malleability contract.
  std::uint64_t malleable_jobs = 0;
  /// Width reconfigurations that ran to completion (sum over completed jobs).
  std::uint64_t resizes = 0;
  /// Resizes cut short by the owning node failing mid-flight.
  std::uint64_t resizes_aborted = 0;
  /// Integral of width over running time, slot-seconds: the slot-time a rigid
  /// run of the same jobs would have pinned is jobs * max_width * runtime;
  /// the gap is capacity malleability handed back to the cluster.
  double width_time_product = 0.0;

  // Arrival-pump statistics (DESIGN.md §14). Every run_experiment report
  // comes through the pump, so `streamed` is true on all of them.
  bool streamed = false;
  /// High-water mark of live JobSpecs — the bounded-memory evidence that a
  /// long stream ran in O(concurrent jobs) spec storage.
  std::uint64_t peak_live_specs = 0;

  // Policy-specific counters (SchedulerPolicy::stats()), filled by the
  // experiment runner.
  std::vector<std::pair<std::string, double>> policy_stats;

  std::vector<cluster::CompletedJob> jobs;  // per-job records (completion order)
};

/// Relative reduction of `ours` versus `baseline` (positive = improvement),
/// e.g. reduction(T_exe(G-LS), T_exe(V-Recon)) ~ 0.3 for the SPEC traces.
double reduction(double baseline, double ours);

/// Renders a one-run summary (human-readable, multi-line).
std::string describe(const RunReport& report);

}  // namespace vrc::metrics
