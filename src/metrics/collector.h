// Metrics collection for a cluster run.
//
// A Collector attaches samplers to a live Cluster (idle memory volume and
// job-balance skew, at one or more sampling intervals) and, when the run
// finishes, folds the per-job records into a RunReport.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "metrics/report.h"
#include "sim/sampler.h"

namespace vrc::metrics {

/// Options controlling what a Collector samples.
struct CollectorOptions {
  /// Sampling intervals for the idle-memory / balance-skew signals. The
  /// first entry is the "primary" interval quoted in RunReport's scalar
  /// fields; the paper uses 1 s and cross-checks 10 s / 30 s / 60 s.
  std::vector<SimTime> sampling_intervals{1.0};
};

/// Attaches to a cluster before the run and produces the RunReport after.
class Collector {
 public:
  Collector(cluster::Cluster& cluster, CollectorOptions options = {});

  /// Stops sampling (also done automatically when the cluster finishes).
  void stop();

  /// Builds the report. Valid any time; normally called once the simulator
  /// drains. `trace_name` labels the report. While a source is being pumped
  /// (Cluster::submit_source) the total job count is open-ended until it
  /// drains: jobs_submitted reflects the arrivals pumped so far, so a
  /// mid-stream report is a consistent progress snapshot rather than a
  /// fraction of a known total.
  RunReport report(const std::string& trace_name, const std::string& policy_name) const;

 private:
  cluster::Cluster& cluster_;
  CollectorOptions options_;
  std::vector<std::unique_ptr<sim::IntervalSampler>> idle_samplers_;
  std::vector<std::unique_ptr<sim::IntervalSampler>> skew_samplers_;
};

/// Population standard deviation of active-job counts over non-reserved
/// workstations — the paper's instantaneous "job balance skew".
double balance_skew(cluster::Cluster& cluster);

}  // namespace vrc::metrics
