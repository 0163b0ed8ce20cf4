// Cluster orchestrator: owns the workstations, the network, the load-index
// board, and all job lifecycle bookkeeping; raises events to the bound
// SchedulerPolicy and records per-job accounting for the metrics layer.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/config.h"
#include "cluster/load_index.h"
#include "cluster/network.h"
#include "cluster/node_activity.h"
#include "cluster/policy.h"
#include "cluster/running_job.h"
#include "cluster/workstation.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "workload/arrival_source.h"

namespace vrc::cluster {

/// A simulated cluster bound to a simulator and a scheduling policy.
///
/// Typical use (the experiment runner in src/core wraps this):
///   sim::Simulator sim;
///   GLoadSharing policy;
///   Cluster cluster(sim, ClusterConfig::paper_cluster1(), policy);
///   workload::MaterializedTraceSource source(trace);
///   cluster.submit_source(source);
///   sim.run();
///   ... read cluster.completed() ...
class Cluster {
 public:
  Cluster(sim::Simulator& sim, ClusterConfig config, SchedulerPolicy& policy);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- workload submission ---
  /// Attaches a pull-based arrival stream, the way every run receives its
  /// jobs: exactly one pending arrival event is scheduled at a time (the
  /// source's peek_time), and each fired arrival pulls one spec and
  /// schedules the next. Each pulled spec moves into the job it creates and
  /// is freed with it, so live JobSpec storage is O(concurrent jobs), not
  /// O(total stream length) — see DESIGN.md §14. The source must outlive the
  /// run. The run finishes only after the source drains. One source at a
  /// time.
  void submit_source(workload::ArrivalSource& source);
  /// Schedules a single hand-placed job for arrival at spec.submit_time (its
  /// arrival event owns a copy of the spec, and the job counts as submitted
  /// from this call). The event is scheduled now, so it wins a
  /// same-timestamp tie against any event scheduled later (DESIGN.md §14.2).
  void submit_job(const workload::JobSpec& spec);

  // --- operations for policies ---
  /// Places a pending job on `node` with no transfer cost (local submission
  /// at its home workstation). The job starts competing at the next tick.
  void place_local(RunningJob& job, NodeId node);
  /// Remote submission: charges the fixed cost r, then the job starts on
  /// `node`. A slot and its current footprint are reserved immediately.
  void place_remote(RunningJob& job, NodeId node);
  /// Starts a preemptive migration of `job_id` from `src` to `dst` at cost
  /// r + image/B. Returns false if the job is missing or already migrating.
  bool start_migration(NodeId src, JobId job_id, NodeId dst);
  /// Swaps a running job out entirely (suspension baseline): frees its
  /// memory and CPU slot; the job makes no progress until resumed.
  bool suspend_job(NodeId node, JobId job_id);
  bool resume_job(NodeId node, JobId job_id);
  /// Starts an M-Reconfiguration of a running malleable job to `new_width`
  /// slots on its current node (DESIGN.md §15). The job pauses for
  /// resize_pause() (charged to t_mig like a migration pause) and holds
  /// max(old, new) slots while in flight: growth reserves up front, a shrink
  /// releases only at completion. Returns false when the job is missing, not
  /// running, not resizable, `new_width` is outside [min_width, max_width] or
  /// unchanged, or growth would overflow the node's slot threshold.
  bool resize_job(NodeId node, JobId job_id, int new_width);
  /// The pause a resize from `from` to `to` slots costs: the
  /// resize.fixed_cost and resize.per_slot_cost overrides where set, the
  /// job's `contract` otherwise.
  SimTime resize_pause(const workload::Malleability& contract, int from, int to) const;
  /// Sets the virtual-reconfiguration reservation flag on a node.
  void set_reserved(NodeId node, bool reserved);

  // --- fault injection (driven by faults::FaultInjector) ---
  /// Takes `node` down: every resident job is killed (its work restarts from
  /// zero) and re-enqueued per config.fault_restart, in-flight reservations
  /// toward the node are dropped so their completions abort, and the board is
  /// updated immediately. No-op when the node is already down.
  void fail_node(NodeId node);  // vrc:must-publish
  /// Brings a failed node back up (empty, accepting jobs again). No-op when
  /// the node is up.
  void recover_node(NodeId node);  // vrc:must-publish

  // --- accessors ---
  sim::Simulator& simulator() { return sim_; }
  const ClusterConfig& config() const { return config_; }
  Network& network() { return network_; }
  const LoadInfoBoard& board() const { return board_; }
  /// The workstation, settled through the last fired tick: a parked node's
  /// skipped ticks are replayed first (DESIGN.md §12.6). Inside the tick
  /// pass, a node the pass has not reached yet is settled through the
  /// previous tick, since the pass still ticks it. A reference or job
  /// pointer kept across events may miss later replays; call node() again.
  Workstation& node(NodeId id) { return settled(id, Read::kAll); }
  std::size_t num_nodes() const { return nodes_.size(); }

  /// Jobs awaiting placement (blocked submissions), oldest first.
  std::vector<RunningJob*> pending_jobs();
  std::size_t pending_count() const { return pending_.size(); }

  /// Completed-job records, in completion order.
  const std::vector<CompletedJob>& completed() const { return completed_; }
  /// Jobs submitted so far. With an attached ArrivalSource this grows as the
  /// stream is pumped and is only final once the source has drained.
  std::size_t submitted_count() const { return expected_jobs_; }
  bool finished() const { return finished_; }
  SimTime finish_time() const { return finish_time_; }

  // --- arrival statistics ---
  /// High-water count of jobs submitted (or pumped) and not yet completed:
  /// the bounded-memory evidence for long streams (O(concurrent), not
  /// O(total)), since each such job holds its spec.
  std::size_t peak_live_specs() const { return peak_live_specs_; }

  /// Live (not board-snapshot) cluster-wide idle memory: the sum over
  /// non-failed nodes of max(0, user memory - resident demand), in-flight
  /// reservations excluded. O(n); used by metric samplers and the
  /// reconfiguration trigger's fresh-view check. Settles the nodes parked on
  /// a ramp, whose resident demand moves in the ticks they skip.
  Bytes live_idle_memory();
  /// Live active-job counts, optionally skipping reserved nodes (the paper's
  /// job-balance skew is over non-reserved workstations).
  std::vector<int> live_active_jobs(bool skip_reserved);

  /// Registers a callback invoked once when the last job completes.
  void add_finish_callback(std::function<void(SimTime)> callback);

  // --- cluster-level statistics ---
  std::uint64_t migrations_started() const { return migrations_started_; }
  std::uint64_t remote_submits() const { return remote_submits_; }
  std::uint64_t local_placements() const { return local_placements_; }
  std::uint64_t resizes_started() const { return resizes_started_; }
  std::uint64_t resizes_completed() const { return resizes_completed_; }
  /// Resizes cut short by their node failing while the width change was in
  /// flight (the job is killed and re-enqueued like any resident job).
  std::uint64_t resizes_aborted() const { return resizes_aborted_; }

  // --- fault statistics ---
  std::uint64_t node_crashes() const { return node_crashes_; }
  std::uint64_t node_recoveries() const { return node_recoveries_; }
  /// Jobs killed by a node failure (each restarts from zero work).
  std::uint64_t jobs_killed() const { return jobs_killed_; }
  /// Transfers (remote submissions or migrations) aborted by a failure.
  std::uint64_t transfer_failures() const { return transfer_failures_; }
  /// Reference-CPU seconds of completed work discarded by failures.
  SimTime work_lost_cpu_seconds() const { return work_lost_cpu_; }
  /// Node-seconds of downtime up to `now` (open failure intervals included).
  SimTime downtime_node_seconds(SimTime now) const;

 private:
  /// Counts a job as submitted and raises the peak of jobs submitted and not
  /// yet completed.
  void count_submission();
  /// Shared arrival tail: builds the RunningJob around its spec, queues it
  /// and raises on_job_arrival.
  void arrive(workload::JobSpec&& spec);
  /// The one way into pending_: the job waits there in phase pending, on no
  /// node. Returns the queued job.
  RunningJob& enqueue_pending(std::unique_ptr<RunningJob> job);
  /// The placement prologue of place_local and place_remote: takes `job`
  /// from pending_, charges its wait to t_que and notes the placement on
  /// `node`'s board row.
  std::unique_ptr<RunningJob> take_for_placement(RunningJob& job, NodeId node);
  /// The delivery check of a transfer toward `dst` on completion: the
  /// transfer leaves the in-flight count, and it is delivered only when
  /// `dst` is up and still holds the job's reservation, which it releases.
  /// Returns the destination, or nullptr for a failed transfer.
  Workstation* deliver(NodeId dst, JobId job_id);
  /// Schedules the single pending pump arrival at source_->peek_time(), or
  /// detaches a drained source.
  void schedule_next_arrival();
  void pump_arrival();
  void ensure_tasks_running();
  void handle_tick(SimTime now);  // vrc:settles
  /// What a reader of a workstation needs settled.
  enum class Read {
    kAll,        // jobs and accumulators: every parked node is settled
    kPublished,  // published values: a node parked on a flat stretch is not
  };
  /// The one way to a workstation outside the tick pass (the vrc_lint
  /// settle-audit rule, DESIGN.md §13.3): a parked node is settled first,
  /// per `read`.
  Workstation& settled(NodeId id, Read read) {  // vrc:settles
    if (activity_.is_parked(id) && (read == Read::kAll || activity_.moving.contains(id))) {
      settle(id);
    }
    return *nodes_[id];
  }
  /// Replays a parked node's skipped ticks through the last tick the tick
  /// pass has integrated for it: inside the pass, the current round for a
  /// node the pass already visited and the previous one for a node it has
  /// not reached yet; outside it, the last round fired or skipped.
  void settle(NodeId id);  // vrc:settles
  /// Called at the end of a round in which every ticking node is parked:
  /// moves the tick task's next firing past the rounds that would change
  /// nothing, and counts them as fired.
  void skip_parked_rounds();
  void handle_exchange(SimTime now);
  /// The one board-publish funnel: writes `node`'s snapshot to the board and
  /// clears its dirty bit, so an immediate (out-of-band) broadcast cannot
  /// double-publish at the next exchange.
  void publish_to_board(Workstation& node, SimTime now);  // vrc:publish-fn
  void complete_job(std::unique_ptr<RunningJob> job, SimTime now);
  void maybe_finish(SimTime now);

  sim::Simulator& sim_;
  ClusterConfig config_;
  SchedulerPolicy& policy_;
  Network network_;
  LoadInfoBoard board_;
  /// Active (needs_tick) and dirty (unpublished-mutation) node sets, fed by
  /// every workstation's publish_index() hook. handle_tick and
  /// handle_exchange iterate these instead of all n nodes, making both loops
  /// O(active)/O(changed) rather than O(cluster size) — see DESIGN.md §12.
  NodeActivity activity_;
  sim::Rng rng_;

  std::vector<std::unique_ptr<Workstation>> nodes_;  // vrc:settle-before-read
  workload::ArrivalSource* source_ = nullptr;  // non-null while pumping
  sim::EventId arrival_event_ = sim::kInvalidEventId;  // the one outstanding pump arrival
  std::size_t peak_live_specs_ = 0;
  std::vector<std::unique_ptr<RunningJob>> pending_;
  std::vector<CompletedJob> completed_;
  std::vector<SimTime> last_pressure_callback_;
  /// Every event this cluster scheduled (arrivals, transfer completions);
  /// cancelled wholesale at destruction so no callback outlives the cluster.
  /// Cancelling an already-fired id is a no-op.
  std::vector<sim::EventId> owned_events_;
  std::vector<SimTime> failed_since_;  // per node; < 0 while the node is up
  /// Per-node stamp of the last resize start, enforcing
  /// config.resize_min_interval.
  std::vector<SimTime> last_resize_start_;

  /// Tick rounds fired or skipped so far; the round a parked node is settled
  /// through.
  std::uint64_t tick_round_ = 0;
  /// The node the tick pass is visiting; past every id outside that pass.
  NodeId tick_cursor_ = ~NodeId{0};

  std::unique_ptr<sim::PeriodicTask> tick_task_;
  std::unique_ptr<sim::PeriodicTask> exchange_task_;
  std::unique_ptr<sim::PeriodicTask> policy_task_;

  std::size_t expected_jobs_ = 0;
  std::size_t inflight_ = 0;  // remote submissions + migrations in transit
  bool finished_ = false;
  SimTime finish_time_ = 0.0;
  std::vector<std::function<void(SimTime)>> finish_callbacks_;

  std::uint64_t migrations_started_ = 0;
  std::uint64_t remote_submits_ = 0;
  std::uint64_t local_placements_ = 0;
  std::uint64_t resizes_started_ = 0;
  std::uint64_t resizes_completed_ = 0;
  std::uint64_t resizes_aborted_ = 0;

  std::uint64_t node_crashes_ = 0;
  std::uint64_t node_recoveries_ = 0;
  std::uint64_t jobs_killed_ = 0;
  std::uint64_t transfer_failures_ = 0;
  SimTime work_lost_cpu_ = 0.0;
  SimTime downtime_accum_ = 0.0;  // closed failure intervals only
};

}  // namespace vrc::cluster
