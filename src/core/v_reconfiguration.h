// V-Reconfiguration: adaptive and virtual cluster reconfiguration (the
// paper's contribution, §2).
//
// Extends G-Loadsharing. When a workstation is pressured but no qualified
// migration destination exists (the job blocking problem) and the cluster's
// accumulated idle memory still exceeds an average workstation's user
// memory, the policy:
//
//   1. reuses an existing reserved workstation if it has enough available
//      resources for the blocked big job, else
//   2. reserves the most lightly loaded workstation with the largest idle
//      memory: blocks submissions/migrations to it and waits out the
//      reserving period (all its running jobs complete, or — in the
//      early-release variant — until its idle memory fits the big job);
//   3. if the blocking problem disappears during the reserving period, the
//      reservation is cancelled and the system adaptively returns to normal
//      load sharing;
//   4. otherwise the most memory-intensive job suffering page faults is
//      migrated to the reserved workstation.
//
// The reservation flag clears when the reserved workstation completes its
// migrated jobs, which resumes normal submissions to it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/g_load_sharing.h"

namespace vrc::core {

/// Dynamic load sharing supported by adaptive and virtual reconfiguration.
class VReconfiguration : public GLoadSharing {
 public:
  struct Options {
    GLoadSharing::Options base;
    /// End the reserving period as soon as the reserved workstation's idle
    /// memory fits the blocked job (the §2.1 "alternative"), instead of
    /// waiting for all running jobs to complete. On: the reserving period is
    /// short enough that reservations almost always end in a successful
    /// isolation; off (the paper's primary variant) wastes long drains when
    /// jobs are long — the ablation bench quantifies the difference.
    bool early_release = true;
    /// Maximum simultaneously reserved workstations ("a small set").
    int max_reservations = 4;
    /// Reconfigure only while accumulated idle memory > factor * average
    /// user memory (§2.1 activation condition; §2.3 limitation).
    double min_cluster_idle_factor = 1.0;
    /// A job counts as "demanding large memory" (eligible for reserved
    /// service) when its observed demand exceeds this multiple of the
    /// admission demand estimate. Pressure without such a job is ordinary
    /// CPU congestion, which reconfiguration cannot help.
    double big_job_factor = 1.5;
    /// Headroom required on a reserved workstation before it accepts a big
    /// job: idle memory must exceed headroom * current demand, because the
    /// job's demand keeps growing after the move (working sets in Tables 1/2
    /// are maxima). Without it the reserved workstation itself thrashes.
    double growth_headroom = 1.4;
    /// Only isolate a big job when its node's overcommit is at least this —
    /// migrating a 100+ MB image over 10 Mbps freezes the job for minutes,
    /// which mild paging does not justify.
    double min_overcommit = 0.03;
    /// The blocking problem is considered resolved when no pressure event
    /// has been seen for this long; a draining reservation is then cancelled
    /// (the adaptive switch-back).
    SimTime blocking_resolve_timeout = 10.0;
    /// §2.3: "If a workstation can not be reserved within a pre-determined
    /// time interval, it implies that the cluster is truly heavily loaded."
    /// A reserving period still running after this long is abandoned.
    SimTime reserve_timeout = 120.0;
    /// After an abandoned reserving period, wait this long before starting
    /// another ("truly heavily loaded" clusters should not churn
    /// reservations).
    SimTime timeout_backoff = 120.0;
  };

  VReconfiguration() : VReconfiguration(Options{}) {}
  explicit VReconfiguration(Options options);

  const char* name() const override { return "V-Reconfiguration"; }

  void attach(Cluster& cluster) override;
  void on_node_pressure(Cluster& cluster, Workstation& node) override;
  void on_periodic(Cluster& cluster) override;
  void on_job_completed(Cluster& cluster, const cluster::CompletedJob& record) override;
  /// A reserved workstation can fail mid-drain or mid-service; the
  /// reservation is abandoned immediately (a later blocking event re-reserves
  /// on a live node) instead of waiting for a drain that can never finish.
  void on_node_failed(Cluster& cluster, NodeId node) override;

  // --- reconfiguration statistics ---
  std::uint64_t reservations_started() const { return reservations_started_; }
  std::uint64_t reservations_cancelled() const { return reservations_cancelled_; }
  std::uint64_t reservations_failed() const { return reservations_failed_; }
  std::uint64_t reserved_migrations() const { return reserved_migrations_; }
  int active_reservations() const { return static_cast<int>(reservations_.size()); }
  std::vector<std::pair<std::string, double>> stats() const override;

 private:
  enum class ReservationState {
    kDraining,  // reserving period: waiting for running jobs to complete
    kServing,   // hosting migrated big jobs
  };

  struct Reservation {
    NodeId node;
    ReservationState state;
    SimTime started = 0.0;
  };

  /// What one maintenance step decides for a reservation: it goes on, or
  /// why it ends.
  enum class End {
    kKeep,
    kNodeFailed,  // the reserved workstation died
    kResolved,    // the blocking problem went away while draining
    kTimedOut,    // §2.3: the drain outlasted reserve_timeout
    kServed,      // every migrated big job has left the workstation
  };

  /// Handles a detected blocking event for the pressured node. Returns true
  /// if it could act (reuse or start a reservation).
  bool handle_blocking(Cluster& cluster, Workstation& node);

  /// reserve_a_workstation(): most lightly loaded non-reserved node with the
  /// largest idle memory; never the pressured node itself.
  std::optional<NodeId> pick_reservation_candidate(Cluster& cluster, NodeId pressured) const;

  /// The most memory-intensive running job on any currently pressured node
  /// (the job the drained reservation should serve), or nullptr.
  RunningJob* find_cluster_big_job(Cluster& cluster, NodeId* src) const;

  /// Demand past which a job counts as "demanding large memory".
  Bytes big_job_threshold(const Cluster& cluster) const;
  /// Idle memory a reserved workstation needs to take a big job of `demand`.
  Bytes headroom_for(Bytes demand) const;

  /// One maintenance step: timeouts, adaptive cancellation, the end of the
  /// reserving period (migrating the cluster's big job onto the drained
  /// workstation once it fits) and the end of service.
  End step(Cluster& cluster, Reservation& reservation, SimTime now);

  /// Steps every reservation and ends those whose step says so, through one
  /// exit. Runs on the periodic pulse and after every completion (the
  /// latter so the final reservation of a run is released even though the
  /// periodic task stops when the workload finishes).
  void maintain_reservations(Cluster& cluster);

  bool has_draining_reservation() const;
  Reservation* find_usable_reservation(Cluster& cluster, Bytes demand, int width = 1);

  Options options_;
  std::vector<Reservation> reservations_;
  SimTime last_blocking_seen_ = -1e18;
  SimTime last_drain_timeout_ = -1e18;

  std::uint64_t reservations_started_ = 0;
  std::uint64_t reservations_cancelled_ = 0;
  std::uint64_t reserved_migrations_ = 0;
  std::uint64_t declined_max_reservations_ = 0;
  std::uint64_t declined_low_idle_ = 0;
  std::uint64_t declined_no_candidate_ = 0;
  std::uint64_t drains_timed_out_ = 0;
  std::uint64_t reservations_failed_ = 0;  // abandoned because the node died
};

}  // namespace vrc::core
