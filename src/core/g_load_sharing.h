// G-Loadsharing: the dynamic load sharing baseline.
//
// Reconstruction of Chen, Xiao, Zhang, "Dynamic load sharing with unknown
// memory demands in clusters" (ICDCS 2001) — reference [3] of the paper and
// the scheme every figure compares against:
//
//  * A submission is accepted locally when the workstation has idle memory
//    and fewer running jobs than the CPU threshold.
//  * Otherwise the job is remotely submitted to the most lightly loaded
//    qualified workstation known to the (periodically refreshed, hence
//    stale) load-index board; candidates are verified against live state at
//    commit time, modelling the accept handshake.
//  * When nothing qualifies, the submission blocks (stays pending) — the
//    seed of the job blocking problem.
//  * A workstation whose page-fault rate crosses the threshold preemptively
//    migrates its most memory-intensive job to a workstation with enough
//    idle memory, if one exists.
#pragma once

#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/policy.h"

namespace vrc::core {

using cluster::Cluster;
using cluster::RunningJob;
using cluster::Workstation;
using workload::JobId;
using workload::NodeId;

/// Dynamic load sharing with unknown memory demands ([3]).
class GLoadSharing : public cluster::SchedulerPolicy {
 public:
  struct Options {
    /// Disable preemptive migration entirely (ablation: remote submission
    /// only).
    bool enable_migration = true;
  };

  GLoadSharing() = default;
  explicit GLoadSharing(Options options) : options_(options) {}

  const char* name() const override { return "G-Loadsharing"; }

  void attach(Cluster& cluster) override;
  void on_job_arrival(Cluster& cluster, RunningJob& job) override;
  void on_node_pressure(Cluster& cluster, Workstation& node) override;
  void on_periodic(Cluster& cluster) override;

  // --- policy statistics ---
  std::uint64_t blocked_submissions() const { return blocked_submissions_; }
  std::uint64_t failed_migrations() const { return failed_migrations_; }
  std::vector<std::pair<std::string, double>> stats() const override;

 protected:
  /// Attempts local, then remote placement. Returns true if placed.
  virtual bool try_place(Cluster& cluster, RunningJob& job);

  /// Retries the blocked submissions through try_place in arrival order,
  /// stopping at the first job that cannot be placed (FIFO fairness among
  /// the blocked).
  void retry_pending(Cluster& cluster);

  /// Most lightly loaded workstation (fewest used slots, ties broken by the
  /// largest idle memory) that passes both the board snapshot and the live
  /// accepts_new_job() check. `exclude` is skipped; `width` is the slot count
  /// the job needs (1 for every rigid job).
  std::optional<NodeId> find_submission_target(Cluster& cluster, Bytes demand_hint,
                                               NodeId exclude, int width = 1) const;

  /// Destination able to hold `job` without overcommitting: live idle memory
  /// >= job.demand, a free slot, not pressured, not reserved. Picks the
  /// largest idle memory.
  std::optional<NodeId> find_migration_target(Cluster& cluster, const RunningJob& job,
                                              NodeId exclude) const;

  /// Preemptive migration attempt for a pressured node. Returns true if a
  /// migration was started.
  bool try_migrate_from(Cluster& cluster, Workstation& node);

  Options options_;
  std::vector<SimTime> last_migration_;  // per-node cooldown stamp
  std::uint64_t blocked_submissions_ = 0;
  std::uint64_t failed_migrations_ = 0;
};

}  // namespace vrc::core
