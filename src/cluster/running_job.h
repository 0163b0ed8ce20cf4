// Runtime state of a job inside the cluster.
//
// Accounting follows the paper's §5 decomposition exactly:
//   t_exe(i) = t_cpu(i) + t_page(i) + t_que(i) + t_mig(i)
// Every simulated wall-clock second a job is alive lands in exactly one of
// the four buckets (an invariant the test suite checks).
#pragma once

#include <utility>

#include "util/units.h"
#include "workload/job.h"

namespace vrc::cluster {

using workload::JobId;
using workload::NodeId;

/// Where a job currently is in its lifecycle.
enum class JobPhase {
  kPending,    // arrived, no qualified workstation yet (blocked submission)
  kRunning,    // active on a workstation
  kMigrating,  // memory image in flight between workstations
  kSuspended,  // swapped out by the suspension baseline policy
  kResizing,   // width change in flight on its workstation (DESIGN.md §15)
};

/// Mutable per-job simulation state. Owned by the Cluster (pending) or a
/// Workstation (running).
struct RunningJob {
  /// Builds the job around its spec, at its start (reset_to_start()):
  /// pending, on no node.
  explicit RunningJob(workload::JobSpec job_spec) : spec(std::move(job_spec)) {
    reset_to_start();
  }

  /// The job's own spec, moved in at arrival and freed with the job.
  workload::JobSpec spec;
  JobPhase phase = JobPhase::kPending;
  NodeId node = workload::kInvalidNode;  // current / destination workstation
  /// Home workstation, wrapped into this cluster's node range (a trace may
  /// have been generated for a different cluster size).
  NodeId home_node = 0;

  SimTime cpu_done = 0.0;  // reference-CPU seconds of completed work
  Bytes demand = 0;        // current memory demand (cached each tick)

  // §5 breakdown accumulators (wall-clock seconds).
  SimTime t_cpu = 0.0;
  SimTime t_page = 0.0;
  SimTime t_queue = 0.0;
  SimTime t_mig = 0.0;

  double faults = 0.0;   // total page faults generated
  int migrations = 0;    // completed preemptive migrations
  int remote_submits = 0;
  int restarts = 0;      // times killed by a node failure and restarted
  int resizes = 0;       // completed width changes (DESIGN.md §15)

  /// Current width in CPU slots on the owning workstation. 1 for every rigid
  /// job; malleable jobs start at spec.initial_width(). While a resize is in
  /// flight (phase == kResizing) the job holds max(old, new) slots — the
  /// grown allocation is reserved up front, the shrunk one released only when
  /// the reconfiguration completes — and `width` reflects that held maximum.
  int width = 1;
  /// Width the in-flight resize lands on; meaningful only while kResizing.
  int resize_target = 1;
  /// Integral of width over wall time spent running (slot-seconds): the
  /// width_time_product report column sums this across jobs.
  double width_seconds = 0.0;

  /// Bumped every time the job is killed and re-enqueued. In-flight transfer
  /// completions capture the value at transfer start; a mismatch at
  /// completion means the job was killed (and possibly re-placed — even back
  /// onto the same node) while the image was in flight, so the transfer must
  /// abort instead of touching the restarted incarnation.
  int incarnation = 0;

  /// Destination of the in-flight migration while phase == kMigrating, so a
  /// source-node failure can release the destination's incoming reservation.
  NodeId migration_dst = workload::kInvalidNode;

  /// Simulation time up to which this job's wall clock has been attributed
  /// to the four buckets.
  SimTime accounted_until = 0.0;

  /// Charges the wall time since accounted_until to one §5 bucket (say
  /// &RunningJob::t_queue) and closes the gap. Every gap outside a tick goes
  /// through here; a tick splits its interval across the buckets itself.
  void charge(SimTime RunningJob::*bucket, SimTime now) {
    this->*bucket += now - accounted_until;
    accounted_until = now;
  }

  /// Puts the job at its start: no work done, demand at progress 0, its
  /// submit width and resize target, no migration destination. A new job
  /// starts here, and a job killed by a node failure restarts here.
  void reset_to_start() {
    cpu_done = 0.0;
    demand = spec.memory.demand_at(0.0);
    width = spec.initial_width();  // malleable jobs submit at max width
    resize_target = width;
    migration_dst = workload::kInvalidNode;
  }

  double progress() const { return spec.cpu_seconds > 0.0 ? cpu_done / spec.cpu_seconds : 1.0; }

  Bytes demand_now() const { return spec.memory.demand_at(progress()); }

  bool finished() const { return cpu_done + 1e-9 >= spec.cpu_seconds; }

  SimTime remaining_cpu() const { return spec.cpu_seconds - cpu_done; }

  JobId id() const { return spec.id; }
};

/// Immutable record of a finished job, kept for metrics.
struct CompletedJob {
  JobId id = 0;
  std::string program;
  SimTime submit_time = 0.0;
  SimTime completion_time = 0.0;
  SimTime cpu_seconds = 0.0;  // dedicated lifetime (slowdown denominator)
  SimTime t_cpu = 0.0;
  SimTime t_page = 0.0;
  SimTime t_queue = 0.0;
  SimTime t_mig = 0.0;
  double faults = 0.0;
  int migrations = 0;
  int remote_submits = 0;
  int restarts = 0;
  int resizes = 0;              // completed width changes
  bool malleable = false;       // spec carried a non-trivial width contract
  double width_seconds = 0.0;   // integral of width over running wall time
  NodeId final_node = 0;
  Bytes working_set = 0;

  SimTime wall_clock() const { return completion_time - submit_time; }

  /// The paper's headline metric: wall-clock execution time over CPU
  /// execution time.
  double slowdown() const { return cpu_seconds > 0.0 ? wall_clock() / cpu_seconds : 1.0; }
};

}  // namespace vrc::cluster
