// Workstation model: a multiprogrammed node with round-robin CPU sharing,
// a paged memory system, and page-fault monitoring.
//
// Execution advances in fixed ticks (config.tick, 10 ms like the paper's
// trace records). Per tick, runnable jobs share the CPU round-robin with
// context-switch efficiency q/(q+c); when the node's resident demand exceeds
// user memory, jobs incur page faults at touch_rate * overcommit per
// CPU-second, each costing page_fault_service (DESIGN.md §5 substitution 2).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "cluster/config.h"
#include "cluster/load_index.h"
#include "cluster/node_activity.h"
#include "cluster/running_job.h"
#include "sim/rng.h"

namespace vrc::cluster {

/// One simulated workstation.
class Workstation {
 public:
  Workstation(NodeId id, const NodeConfig& hardware, const ClusterConfig& config);

  NodeId id() const { return id_; }

  /// Memory available to user jobs (RAM minus kernel reservation).
  Bytes user_memory() const { return hardware_.memory - hardware_.kernel_reserved; }

  /// Execution speed relative to the workload's reference CPU.
  double speed_factor() const { return speed_factor_; }

  // --- memory state (O(1): maintained incrementally, see set_job_phase) ---
  /// Demand of resident jobs (running + migrating-out images; suspended jobs
  /// are swapped out and do not count).
  Bytes resident_demand() const { return resident_bytes_; }
  /// Resident demand plus reservations for in-flight placements.
  Bytes committed_demand() const { return resident_bytes_ + incoming_bytes_; }
  Bytes idle_memory() const;
  /// Overcommit fraction O = max(0, (resident - user) / resident).
  double overcommit() const;

  /// Committed demand with perfect knowledge: in-flight reservations plus
  /// the *peak* working set of every resident job. The oracle admits against
  /// this so no placement can grow into a collision; maintained incrementally
  /// so oracle admission is O(1) instead of a rescan of the job list.
  Bytes future_committed() const { return incoming_bytes_ + peak_bytes_; }

  // --- occupancy (O(1) aggregates) ---
  /// Jobs holding CPU slots (running + migrating + resizing; suspended jobs
  /// are out).
  int active_jobs() const { return active_count_; }
  /// Jobs competing for the CPU right now (phase kRunning).
  int runnable_jobs() const { return runnable_count_; }
  /// Jobs holding slots without being runnable: images in flight off this
  /// node plus width changes in progress (both are paused in place).
  int migrating_jobs() const { return active_count_ - runnable_count_; }
  /// CPU slots held: width-weighted active jobs plus in-flight placements.
  /// Equal to active_jobs() + incoming_count() when every width is 1, which
  /// keeps all pre-malleability behavior bit-identical (DESIGN.md §15).
  int slots_used() const { return active_slots_ + incoming_slots_; }
  /// Slots left under the CPU threshold: the one reading of slot room.
  int free_slots() const { return config_->cpu_threshold - slots_used(); }

  // --- pressure monitoring ---
  /// Page-fault rate (faults/s), exponential moving average.
  double fault_rate() const { return fault_rate_; }
  /// True when demand exceeds user memory or the fault rate crosses the
  /// configured threshold — the condition that blocks submissions in [3].
  bool memory_pressured() const;
  /// Admission predicate of the dynamic load sharing scheme: `width` free
  /// CPU slots, committed demand plus `demand_hint` below memory_limit(), no
  /// pressure, not reserved. Width defaults to 1 (every rigid job).
  bool accepts_new_job(Bytes demand_hint = 0, int width = 1) const;
  /// The memory threshold of [3]: the share of user memory admission may
  /// commit, leaving headroom for running jobs' demand growth.
  Bytes memory_limit() const;
  /// Room for a job of `width` slots and `demand` bytes right now: that many
  /// free slots and at least that much idle memory.
  bool fits(int width, Bytes demand) const {
    return free_slots() >= width && idle_memory() >= demand;
  }

  // --- reservation flag (virtual reconfiguration) ---
  bool reserved() const { return reserved_; }
  void set_reserved(bool reserved) {
    reserved_ = reserved;
    publish_index();
  }

  // --- failure flag (fault injection; transitions driven by Cluster) ---
  bool failed() const { return failed_; }
  void set_failed(bool failed) {
    failed_ = failed;
    publish_index();
  }

  /// Removes and returns every resident job (fail transition: the node's
  /// memory image is gone). Aggregates reset to empty.
  std::vector<std::unique_ptr<RunningJob>> take_all_jobs();

  /// Drops every in-flight placement reservation. After this, a transfer
  /// completing toward this node sees remove_incoming() fail — the token that
  /// tells the initiator the destination died while the image was in flight.
  void clear_incoming();

  // --- job management ---
  RunningJob& add_job(std::unique_ptr<RunningJob> job);
  std::unique_ptr<RunningJob> remove_job(JobId id);
  RunningJob* find_job(JobId id);
  const RunningJob* find_job(JobId id) const;
  /// The one phase lookup: the resident job `id` if it is in `phase`,
  /// nullptr otherwise.
  RunningJob* find_job(JobId id, JobPhase phase);
  const std::vector<std::unique_ptr<RunningJob>>& jobs() const { return jobs_; }

  /// Transitions a resident job to `phase`, keeping the node's incremental
  /// aggregates (resident demand, active/runnable counts and slots) in sync.
  /// All phase changes of jobs owned by a workstation MUST go through this;
  /// writing job.phase directly desynchronizes the aggregates.
  void set_job_phase(RunningJob& job, JobPhase phase);

  /// Changes a resident job's slot width, keeping the width-weighted slot
  /// aggregates in sync. All width changes of jobs owned by a workstation
  /// MUST go through this; writing job.width directly desynchronizes
  /// slots_used() and the published board row.
  void set_job_width(RunningJob& job, int width);

  /// The running job with the largest current memory demand
  /// (find_most_memory_intensive_job() of the paper's framework), or nullptr.
  RunningJob* most_memory_intensive_job();

  // --- in-flight placement reservations ---
  /// `width` reserves that many CPU slots (1 for every rigid job).
  void add_incoming(JobId id, Bytes demand, int width = 1);
  /// Releases the reservation for `id`. Returns false (and logs at debug
  /// level) when no such reservation exists — a policy-layer bookkeeping bug.
  bool remove_incoming(JobId id);
  int incoming_count() const { return incoming_count_; }
  Bytes incoming_bytes() const { return incoming_bytes_; }

  // --- simulation ---
  struct TickOutcome {
    std::vector<std::unique_ptr<RunningJob>> completed;
    /// steady_ticks() after a tick that completed nothing and flipped
    /// neither pressure nor the EMA's zero test; 0 otherwise.
    std::uint64_t steady_ticks = 0;
    /// With steady_ticks > 0: no tick of the stretch can move a published
    /// value (every demand stays put and the fault EMA is 0).
    bool flat = false;
  };
  /// Advances the interval [now - dt, now]. Returns completed jobs.
  TickOutcome tick(SimTime now, SimTime dt, sim::Rng& rng);

  /// How many of the ticks after the one at `now` replay() may stand in for
  /// (DESIGN.md §12.6). 0 unless the node is steady: up, not pressured and
  /// every resident job running, with every job's memory profile
  /// non-decreasing from its progress on, so a tick draws no random number
  /// and counts no fault. Otherwise a bound, with margin for rounding, under
  /// which no job can finish or leave its non-decreasing stretch and the
  /// resident demand stays within user memory. `flat`, when given, is set
  /// to whether the stretch is flat (TickOutcome::flat).
  std::uint64_t steady_ticks(SimTime now, SimTime dt, bool* flat = nullptr) const;

  /// Re-integrates the `ticks` ticks that follow the one at `last_tick`, at
  /// T <- T + dt as sim::PeriodicTask arms them, in closed form: O(jobs ×
  /// binades crossed), plus the fault EMA's decay while it still moves.
  /// Leaves every job and node accumulator, every demand, the resident sum
  /// and the fault EMA bit-identical to that many tick() calls. Where one of
  /// those ticks would have republished, marks the node dirty without
  /// unparking it. Valid only within a steady_ticks() bound taken at
  /// `last_tick`. Returns the time of the last replayed tick.
  SimTime replay(SimTime last_tick, SimTime dt, std::uint64_t ticks);

  /// True when tick() could have any observable effect: resident jobs to
  /// advance, or a fault-rate EMA still decaying toward zero. An idle
  /// workstation is provably a no-op (no job accounting, no RNG draws, zero
  /// fault contribution), so Cluster::handle_tick skips it — the per-tick
  /// cost scales with *busy* nodes, not cluster size.
  bool needs_tick() const { return !jobs_.empty() || fault_rate_ != 0.0; }

  /// Binds the cluster's NodeActivity; from then on every state mutation
  /// (job lifecycle, phase changes, incoming reservations, failure and
  /// reservation flips, ticks — the publish_index() sites) marks this node
  /// dirty for the next incremental exchange and refreshes its active-set
  /// (needs_tick) membership.
  void bind_activity(NodeActivity* activity);

  /// Publishes the node's load snapshot.
  LoadInfo snapshot(SimTime now) const;

 private:
  /// Shared lookup for the const and non-const find_job overloads.
  template <typename Self>
  static RunningJob* find_job_impl(Self& self, JobId id) {
    for (const auto& job : self.jobs_) {
      if (job->id() == id) return job.get();
    }
    return nullptr;
  }

  /// The one update of the incremental aggregates: adds (`sign` = +1) or
  /// removes (-1) `job`'s share by its phase and width, then republishes.
  /// A job enters with +1 and leaves with -1; a phase or width change is a
  /// removal and a re-entry around the change.
  void tally(const RunningJob& job, int sign);  // vrc:publish-fn

  /// Recomputes the incremental aggregates by scanning; used only by debug
  /// assertions to catch drift.
  bool aggregates_consistent() const;

  // sharing(), step() and accumulate() are defined inline in
  // workstation.cc, the only file that calls them, so the per-job loops of
  // tick() and replay() inline them.

  /// Sharing state at the start of a tick interval, from the O(1)
  /// aggregates; constant while the node is steady.
  struct Sharing {
    double efficiency = 1.0;  // round-robin efficiency (1 with one runnable job)
    int slots = 0;            // runnable slots the CPU is shared among
    double exposure = 0.0;    // share of page touches that fault
  };
  inline Sharing sharing() const;

  /// One running job's share of a tick interval of `wall` seconds.
  struct JobStep {
    double progress = 0.0;  // reference-CPU seconds of work done
    SimTime cpu_wall = 0.0;
    SimTime page_wall = 0.0;
    SimTime queue_wall = 0.0;
    double faults = 0.0;      // expected page faults
    double width_wall = 0.0;  // slot-seconds: wall * width
  };
  /// The per-job integrand of tick() and replay().
  inline JobStep step(const RunningJob& job, SimTime wall, const Sharing& share) const;
  /// The fault EMA's per-tick decay exp(-dt / fault_rate_tau), computed once
  /// per tick length and shared by tick() and replay().
  double fault_decay(SimTime dt);
  /// Adds one tick's step to a job's accumulators.
  static inline void accumulate(RunningJob& job, const JobStep& step);
  /// Adds `n` ticks of one step to a job's accumulators in closed form, bit
  /// for bit as `n` calls of the overload above (util::add_repeated).
  static inline void accumulate(RunningJob& job, const JobStep& step, std::uint64_t n);

  /// Shadow check of one replay (called under VRC_AUDIT): re-integrates the
  /// stretch tick by tick from `before` and `fault_rate` through step(),
  /// plain adds, the demand refresh and the EMA update, and aborts on the
  /// first bit difference, on a republish decision that differs from
  /// `published`, or if inside the stretch a job finished, a demand fell or
  /// the resident demand passed user memory.
  void audit_replay(const std::vector<RunningJob>& before, double fault_rate, SimTime last_tick,
                    SimTime dt, std::uint64_t ticks, bool published) const;

  /// Marks this node in the bound NodeActivity (no-op when unbound).
  void publish_index();  // vrc:publish-fn
  /// What a replayed tick that moved a published value does: marks this
  /// node dirty for the next exchange and leaves it parked.
  void publish_replayed();  // vrc:publish-fn

  NodeId id_;
  NodeConfig hardware_;
  const ClusterConfig* config_;
  double speed_factor_ = 1.0;
  double inverse_speed_ = 1.0;  // 1 / speed_factor_
  double rr_efficiency_ = 1.0;  // q / (q + c)

  std::vector<std::unique_ptr<RunningJob>> jobs_;  // vrc:board-visible
  // Incrementally maintained aggregates over jobs_ (updated through tally()
  // and the per-tick demand refresh), so the admission/snapshot hot path
  // never rescans the job list. Every field the board snapshot derives
  // from is tagged vrc:board-visible: the publish-audit lint (DESIGN.md
  // §13.3) checks that member functions writing them republish via
  // publish_index() on every path out.
  Bytes resident_bytes_ = 0;  // vrc:board-visible demand over non-suspended jobs
  Bytes peak_bytes_ = 0;      // vrc:board-visible spec working sets, non-suspended
  int active_count_ = 0;      // vrc:board-visible non-suspended jobs
  int runnable_count_ = 0;    // vrc:board-visible jobs in phase kRunning
  // Width-weighted slot sums (DESIGN.md §15). Equal to the job counts above
  // whenever every resident width is 1, so all pre-malleability load signals
  // are bit-identical.
  int active_slots_ = 0;      // vrc:board-visible Σ width over non-suspended jobs
  int runnable_slots_ = 0;    // vrc:board-visible Σ width over kRunning jobs
  int incoming_count_ = 0;    // vrc:board-visible
  Bytes incoming_bytes_ = 0;  // vrc:board-visible
  int incoming_slots_ = 0;    // vrc:board-visible Σ width over reservations
  struct IncomingReservation {
    JobId id = 0;
    Bytes demand = 0;
    int width = 1;
  };
  std::vector<IncomingReservation> incoming_;  // vrc:board-visible
  bool reserved_ = false;  // vrc:board-visible
  bool failed_ = false;    // vrc:board-visible

  double fault_rate_ = 0.0;  // vrc:board-visible
  // fault_decay()'s memo: the tick length it was last computed for.
  SimTime decay_dt_ = std::numeric_limits<double>::quiet_NaN();
  double decay_ = 1.0;

  // Scratch reused across calls: per job, the progress bound per tick and
  // the end of the rising stretch that steady_ticks() bounds the resident
  // demand with.
  struct ParkBound {
    double per_tick = 0.0;
    double rising_until = 0.0;
  };
  mutable std::vector<ParkBound> park_bounds_;

  /// Cluster-owned active/dirty sets; null in isolation unit tests.
  NodeActivity* activity_ = nullptr;
};

}  // namespace vrc::cluster
