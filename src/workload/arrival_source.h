// Pull-based job-arrival streams (DESIGN.md §14).
//
// An ArrivalSource is how every run receives its jobs: the consumer
// (Cluster::submit_source's arrival pump) peeks the next submission time,
// schedules exactly one arrival event for it, and pulls the JobSpec when the
// event fires. Sources own no simulation state, so a drained source is just
// an empty iterator — the pump keeps live JobSpec storage O(concurrent jobs)
// instead of O(total trace length).
//
// Three implementations:
//   MaterializedTraceSource  — adapter over an existing Trace (hand-built,
//                              loaded from a file, or relabelled).
//   GeneratedStreamSource    — the synthetic generator itself: draws each
//                              job on the fly from TraceParams;
//                              generate_trace is a drain of it.
//   SwfTraceSource           — Standard Workload Format replay (swf_source.h).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "workload/job.h"
#include "workload/program.h"
#include "workload/trace.h"
#include "workload/trace_generator.h"

namespace vrc::workload {

/// One-way stream of job arrivals in nondecreasing submit_time order.
class ArrivalSource {
 public:
  virtual ~ArrivalSource() = default;

  /// Submit time of the next job without consuming it; std::nullopt once the
  /// stream has drained. Stable across repeated calls.
  virtual std::optional<SimTime> peek_time() = 0;

  /// Consumes and returns the next job. std::nullopt once drained. The
  /// returned spec's submit_time equals the preceding peek_time().
  virtual std::optional<JobSpec> next() = 0;

  /// Total job count when the source knows it up front; std::nullopt for
  /// open-ended streams (the SWF reader before EOF, a live feed).
  virtual std::optional<std::size_t> total_jobs() const { return std::nullopt; }

  /// Label for reports (a trace name, an SWF file stem).
  virtual const std::string& name() const = 0;

  /// Workload group the jobs belong to (program catalog / paper testbed).
  virtual WorkloadGroup group() const = 0;
};

/// Adapter over a materialized Trace: streams its (already sorted) jobs in
/// order. Holds its own copy, so every run of a shared Trace wraps a fresh
/// source.
class MaterializedTraceSource : public ArrivalSource {
 public:
  explicit MaterializedTraceSource(Trace trace) : trace_(std::move(trace)) {}

  std::optional<SimTime> peek_time() override;
  std::optional<JobSpec> next() override;
  std::optional<std::size_t> total_jobs() const override { return trace_.size(); }
  const std::string& name() const override { return trace_.name(); }
  WorkloadGroup group() const override { return trace_.group(); }

 private:
  Trace trace_;
  std::size_t next_index_ = 0;
};

/// The synthetic workload generator (paper §3.3.2): draws one JobSpec per
/// next() call from forked RNG streams (arrivals, program pick, jitter, home
/// node, malleability). Only the sorted arrival times (plain doubles) are
/// materialized up front — sorting forces that — so live JobSpec storage
/// stays O(1) inside the source regardless of params.num_jobs. Aborts on a
/// program-weight count that does not match the group's catalog, or on a
/// malleable width range outside 1 <= min <= max.
class GeneratedStreamSource : public ArrivalSource {
 public:
  explicit GeneratedStreamSource(TraceParams params);

  std::optional<SimTime> peek_time() override;
  std::optional<JobSpec> next() override;
  std::optional<std::size_t> total_jobs() const override { return params_.num_jobs; }
  const std::string& name() const override { return params_.name; }
  WorkloadGroup group() const override { return params_.group; }

 private:
  TraceParams params_;
  std::vector<SimTime> arrivals_;  // sorted; doubles, not JobSpecs
  sim::Rng pick_rng_;
  sim::Rng jitter_rng_;
  sim::Rng node_rng_;
  sim::Rng malleable_rng_;
  std::vector<double> weights_;
  double total_weight_ = 0.0;
  std::size_t next_index_ = 0;
};

/// Drains `source` into a materialized Trace (name/group/duration taken from
/// the source; duration = last submit time when the source cannot know it).
Trace materialize(ArrivalSource& source, SimTime duration = 0.0);

}  // namespace vrc::workload
