#include "cluster/cluster.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "metrics/perf_counters.h"
#include "util/log.h"

#ifdef VRC_AUDIT
#include "cluster/audit.h"
#endif

namespace vrc::cluster {

Cluster::Cluster(sim::Simulator& sim, ClusterConfig config, SchedulerPolicy& policy)
    : sim_(sim),
      config_(std::move(config)),
      policy_(policy),
      network_(sim, config_),
      board_(config_.num_nodes()),
      activity_(config_.num_nodes()),
      rng_(config_.seed),
      last_pressure_callback_(config_.num_nodes(), -1e18),
      failed_since_(config_.num_nodes(), -1.0),
      last_resize_start_(config_.num_nodes(), -1e18) {
  nodes_.reserve(config_.num_nodes());
  for (std::size_t i = 0; i < config_.num_nodes(); ++i) {
    nodes_.push_back(
        std::make_unique<Workstation>(static_cast<NodeId>(i), config_.nodes[i], config_));
    // bind_activity's publish marks every node dirty, so the constructor's
    // exchange below performs the one full-board publish.
    nodes_.back()->bind_activity(&activity_);
  }
  handle_exchange(sim_.now());  // policies see a fresh board before any event
  policy_.attach(*this);
}

Cluster::~Cluster() {
  // A cluster can be destroyed mid-run (an aborted sweep cell) while the
  // simulator lives on. Cancel everything this cluster scheduled so no
  // arrival or transfer completion fires into the destroyed object; cancel
  // also frees unfired move-only payloads (in-flight jobs), and cancelling
  // an already-fired id is a no-op.
  for (const sim::EventId id : owned_events_) sim_.cancel(id);
  if (arrival_event_ != sim::kInvalidEventId) sim_.cancel(arrival_event_);
}

void Cluster::submit_job(const workload::JobSpec& spec) {
  count_submission();
  owned_events_.push_back(sim_.schedule_at(
      spec.submit_time, [this, copy = spec]() mutable { arrive(std::move(copy)); }));
}

void Cluster::count_submission() {
  ++expected_jobs_;
  finished_ = false;  // a job submitted after the last completion reopens the run
  peak_live_specs_ = std::max(peak_live_specs_, expected_jobs_ - completed_.size());
  metrics::perf_max(&metrics::PerfCounters::peak_live_specs, peak_live_specs_);
}

void Cluster::arrive(workload::JobSpec&& spec) {
  ensure_tasks_running();
  auto job = std::make_unique<RunningJob>(std::move(spec));
  job->home_node = static_cast<NodeId>(job->spec.home_node % nodes_.size());
  job->accounted_until = sim_.now();
  policy_.on_job_arrival(*this, enqueue_pending(std::move(job)));
}

RunningJob& Cluster::enqueue_pending(std::unique_ptr<RunningJob> job) {
  job->phase = JobPhase::kPending;
  job->node = workload::kInvalidNode;
  return *pending_.emplace_back(std::move(job));
}

void Cluster::submit_source(workload::ArrivalSource& source) {
  assert(source_ == nullptr && "submit_source: a source is already attached");
  source_ = &source;
  schedule_next_arrival();
}

void Cluster::schedule_next_arrival() {
  const std::optional<SimTime> when = source_->peek_time();
  if (!when) {
    // Drained: detach so maybe_finish can close the run once the last
    // jobs complete (expected_jobs_ is final from here on).
    source_ = nullptr;
    arrival_event_ = sim::kInvalidEventId;
    return;
  }
  // Exactly one outstanding arrival event per attached source: the previous
  // one has fired (or none exists), so overwriting the slot is safe and the
  // event heap never holds more than one pending arrival for the stream.
  arrival_event_ = sim_.schedule_at(*when, [this] { pump_arrival(); });
}

void Cluster::pump_arrival() {
  std::optional<workload::JobSpec> spec = source_->next();
  assert(spec && "pump_arrival: peek_time promised a job");
  count_submission();
  metrics::perf_add(&metrics::PerfCounters::stream_arrivals);
  // Schedule the successor before raising the arrival so the pump keeps
  // running even if the policy callback throws the run into a terminal state.
  schedule_next_arrival();
  arrive(std::move(*spec));
}

void Cluster::ensure_tasks_running() {
  if (tick_task_ && tick_task_->running()) return;
  // Either first activation or a restart after finish; stopped tasks are
  // replaced (PeriodicTask cannot be re-armed).
  tick_task_.reset();
  exchange_task_.reset();
  policy_task_.reset();
  const SimTime dt = config_.tick;
  tick_task_ = std::make_unique<sim::PeriodicTask>(
      sim_, sim_.now() + dt, dt, [this](SimTime now) { handle_tick(now); });
  exchange_task_ = std::make_unique<sim::PeriodicTask>(
      sim_, sim_.now() + config_.load_exchange_period, config_.load_exchange_period,
      [this](SimTime now) { handle_exchange(now); });
  policy_task_ = std::make_unique<sim::PeriodicTask>(
      sim_, sim_.now() + config_.policy_period, config_.policy_period,
      [this](SimTime) { policy_.on_periodic(*this); });
}

std::unique_ptr<RunningJob> Cluster::take_for_placement(RunningJob& job, NodeId node_id) {
  assert(job.phase == JobPhase::kPending);
  const auto it = std::find_if(pending_.begin(), pending_.end(),
                               [&](const auto& queued) { return queued.get() == &job; });
  assert(it != pending_.end() && "placement: job not in pending queue");
  std::unique_ptr<RunningJob> owned = std::move(*it);
  pending_.erase(it);
  owned->charge(&RunningJob::t_queue, sim_.now());
  board_.note_placement(node_id, std::max(owned->demand, config_.admission_demand_estimate),
                        owned->width);
  return owned;
}

Workstation* Cluster::deliver(NodeId dst, JobId job_id) {
  Workstation& target = node(dst);
  // A failed destination dropped its reservations; a dead reservation (even
  // after the node recovered) means the transfer is lost.
  const bool delivered = !target.failed() && target.remove_incoming(job_id);
  --inflight_;
  if (!delivered) ++transfer_failures_;
  return delivered ? &target : nullptr;
}

void Cluster::place_local(RunningJob& job, NodeId node_id) {
  std::unique_ptr<RunningJob> owned = take_for_placement(job, node_id);
  owned->phase = JobPhase::kRunning;
  ++local_placements_;
  node(node_id).add_job(std::move(owned));
}

void Cluster::place_remote(RunningJob& job, NodeId node_id) {
  std::unique_ptr<RunningJob> owned = take_for_placement(job, node_id);
  node(node_id).add_incoming(owned->id(), owned->demand, owned->width);
  ++inflight_;
  ++remote_submits_;

  // The callback owns the in-flight job: if the run is cut off before the
  // submit completes, cancelling the event at teardown frees the job instead
  // of leaking it (caught by the asan-ubsan CI job's LeakSanitizer pass).
  owned_events_.push_back(
      network_.start_remote_submit([this, owned = std::move(owned), node_id]() mutable {
        std::unique_ptr<RunningJob> arrived = std::move(owned);
        const SimTime done = sim_.now();
        arrived->charge(&RunningJob::t_mig, done);
        Workstation* target = deliver(node_id, arrived->id());
        if (target == nullptr) {
          RunningJob& ref = enqueue_pending(std::move(arrived));
          VRC_LOG(kInfo) << "t=" << done << " remote submit of job " << ref.id() << " to node "
                         << node_id << " failed (node down)";
          policy_.on_transfer_failed(*this, ref);
          return;
        }
        arrived->phase = JobPhase::kRunning;
        ++arrived->remote_submits;
        target->add_job(std::move(arrived));
      }));
}

bool Cluster::start_migration(NodeId src, JobId job_id, NodeId dst_id) {
  Workstation& source = node(src);
  RunningJob* job = source.find_job(job_id, JobPhase::kRunning);
  if (job == nullptr || src == dst_id) return false;

  const SimTime now = sim_.now();
  job->charge(&RunningJob::t_queue, now);
  source.set_job_phase(*job, JobPhase::kMigrating);
  job->migration_dst = dst_id;
  const int incarnation = job->incarnation;

  const Bytes image = job->demand;
  Workstation& dst = node(dst_id);
  dst.add_incoming(job_id, image, job->width);  // migration preserves width
  board_.note_placement(dst_id, image, job->width);  // migrated demand is known
  ++inflight_;
  ++migrations_started_;
  VRC_LOG(kInfo) << "t=" << now << " migrate job " << job_id << " (" << to_megabytes(image)
                 << " MB) node " << src << " -> " << dst_id;

  owned_events_.push_back(network_.start_transfer(image, [this, src, job_id, dst_id,
                                                          incarnation] {
    Workstation& source_node = node(src);
    RunningJob* live = source_node.find_job(job_id, JobPhase::kMigrating);
    if (live == nullptr || live->incarnation != incarnation) {
      // The source died mid-transfer: fail_node killed the job (a restarted
      // incarnation may even be back on the same node) and released the
      // destination's reservation. Nothing to deliver.
      --inflight_;
      return;
    }
    const SimTime done = sim_.now();
    live->charge(&RunningJob::t_mig, done);
    live->migration_dst = workload::kInvalidNode;
    Workstation* target = deliver(dst_id, job_id);
    if (target == nullptr) {
      // Destination died while the image was in flight; the source copy is
      // still intact, so the job resumes where it was.
      source_node.set_job_phase(*live, JobPhase::kRunning);
      VRC_LOG(kInfo) << "t=" << done << " migration of job " << job_id << " to node " << dst_id
                     << " failed (node down); resuming on node " << src;
      policy_.on_transfer_failed(*this, *live);
      return;
    }
    std::unique_ptr<RunningJob> moved = source_node.remove_job(job_id);
    moved->phase = JobPhase::kRunning;
    ++moved->migrations;
    RunningJob& ref = target->add_job(std::move(moved));
    policy_.on_migration_complete(*this, ref);
  }));
  return true;
}

bool Cluster::suspend_job(NodeId node_id, JobId job_id) {
  Workstation& host = node(node_id);
  RunningJob* job = host.find_job(job_id, JobPhase::kRunning);
  if (job == nullptr) return false;
  job->charge(&RunningJob::t_queue, sim_.now());
  host.set_job_phase(*job, JobPhase::kSuspended);
  return true;
}

bool Cluster::resume_job(NodeId node_id, JobId job_id) {
  Workstation& host = node(node_id);
  RunningJob* job = host.find_job(job_id, JobPhase::kSuspended);
  if (job == nullptr) return false;
  job->charge(&RunningJob::t_queue, sim_.now());
  host.set_job_phase(*job, JobPhase::kRunning);
  return true;
}

bool Cluster::resize_job(NodeId node_id, JobId job_id, int new_width) {
  Workstation& host = node(node_id);
  RunningJob* job = host.find_job(job_id, JobPhase::kRunning);
  if (job == nullptr) return false;
  const workload::Malleability& contract = job->spec.malleability;
  if (!contract.resizable()) return false;
  if (new_width < contract.min_width || new_width > contract.max_width) return false;
  if (new_width == job->width) return false;
  if (new_width > job->width && host.free_slots() < new_width - job->width) {
    return false;  // growth must fit under the node's slot threshold
  }

  const SimTime now = sim_.now();
  if (config_.resize_min_interval > 0.0 &&
      now - last_resize_start_[node_id] < config_.resize_min_interval) {
    return false;  // node-level resize pacing
  }
  last_resize_start_[node_id] = now;
  // Close the accounting gap at the old width; the pause itself lands in
  // t_mig when the reconfiguration completes (§5: a reconfiguration pause is
  // transfer-class time, not queueing).
  job->charge(&RunningJob::t_queue, now);
  const int old_width = job->width;
  job->resize_target = new_width;
  host.set_job_width(*job, std::max(old_width, new_width));
  host.set_job_phase(*job, JobPhase::kResizing);
  const int incarnation = job->incarnation;
  ++resizes_started_;
  metrics::perf_add(&metrics::PerfCounters::resizes_started);
  VRC_LOG(kInfo) << "t=" << now << " resize job " << job_id << " on node " << node_id << ": "
                 << old_width << " -> " << new_width << " slots";

  const SimTime cost = resize_pause(contract, old_width, new_width);
  owned_events_.push_back(sim_.schedule_at(now + cost, [this, node_id, job_id, incarnation] {
    Workstation& owner = node(node_id);
    RunningJob* live = owner.find_job(job_id, JobPhase::kResizing);
    if (live == nullptr || live->incarnation != incarnation) {
      // The node died mid-resize: fail_node killed the job (counting the
      // abort) and a restarted incarnation may even be resident again.
      // Nothing to deliver.
      return;
    }
    const SimTime done = sim_.now();
    live->charge(&RunningJob::t_mig, done);
    owner.set_job_width(*live, live->resize_target);
    owner.set_job_phase(*live, JobPhase::kRunning);
    ++live->resizes;
    ++resizes_completed_;
    metrics::perf_add(&metrics::PerfCounters::resize_completions);
    policy_.on_resize_complete(*this, *live);
  }));
  return true;
}

SimTime Cluster::resize_pause(const workload::Malleability& contract, int from, int to) const {
  const SimTime fixed =
      config_.resize_fixed_cost >= 0.0 ? config_.resize_fixed_cost : contract.resize_fixed_cost;
  const SimTime per_slot = config_.resize_per_slot_cost >= 0.0 ? config_.resize_per_slot_cost
                                                               : contract.resize_per_slot_cost;
  return fixed + per_slot * std::abs(to - from);
}

void Cluster::set_reserved(NodeId node_id, bool reserved) {
  node(node_id).set_reserved(reserved);
  board_.set_reserved(node_id, reserved);
}

void Cluster::fail_node(NodeId node_id) {
  Workstation& target = node(node_id);
  if (target.failed()) return;
  const SimTime now = sim_.now();
  target.set_failed(true);
  failed_since_[node_id] = now;
  // Pressure-callback state is meaningless across an outage: clear it so a
  // stale "recently fired" stamp can neither suppress a legitimate callback
  // after recovery nor date from a previous incarnation of the node.
  last_pressure_callback_[node_id] = -1e18;
  ++node_crashes_;
  VRC_LOG(kInfo) << "t=" << now << " node " << node_id << " failed ("
                 << target.active_jobs() << " jobs killed)";

  // In-flight transfers toward this node lose their reservations; when their
  // completions fire, the failed remove_incoming() tells the initiator the
  // destination died (even if the node has recovered by then).
  target.clear_incoming();

  // Kill resident jobs: the node's memory is gone, so completed work is lost
  // and each job restarts from zero.
  std::vector<std::unique_ptr<RunningJob>> killed = target.take_all_jobs();
  std::vector<RunningJob*> refs;
  refs.reserve(killed.size());
  for (auto& job : killed) {
    // Close the accounting gap since the last tick: wall time on a node that
    // then crashed is wait time (transfer time for a migrating job).
    SimTime RunningJob::*bucket = &RunningJob::t_queue;
    if (job->phase == JobPhase::kMigrating) {
      bucket = &RunningJob::t_mig;
      // Release the destination's reservation; the in-flight completion
      // aborts via its incarnation check.
      if (job->migration_dst != workload::kInvalidNode) {
        node(job->migration_dst).remove_incoming(job->id());
      }
    } else if (job->phase == JobPhase::kResizing) {
      // Killed mid-resize: the paused interval is transfer-class time, and
      // the scheduled completion aborts via its incarnation check.
      bucket = &RunningJob::t_mig;
      ++resizes_aborted_;
    }
    job->charge(bucket, now);
    work_lost_cpu_ += job->cpu_done;
    // A restarted incarnation resubmits like a fresh arrival, at the spec
    // width; the old incarnation's width history is already in
    // width_seconds.
    job->reset_to_start();
    ++job->restarts;
    ++job->incarnation;
    ++jobs_killed_;
    refs.push_back(&enqueue_pending(std::move(job)));
  }

  publish_to_board(target, now);  // immediate broadcast, not next exchange
  metrics::perf_add(&metrics::PerfCounters::immediate_publishes);
  policy_.on_node_failed(*this, node_id);
  if (config_.fault_restart == RestartPolicy::kResubmit) {
    // Re-enter the arrival path right away; under kLose the jobs wait for
    // the policy's periodic pending retry instead.
    for (RunningJob* job : refs) {
      if (job->phase == JobPhase::kPending) policy_.on_job_arrival(*this, *job);
    }
  }
}

void Cluster::recover_node(NodeId node_id) {
  Workstation& target = node(node_id);
  if (!target.failed()) return;
  const SimTime now = sim_.now();
  target.set_failed(false);
  downtime_accum_ += now - failed_since_[node_id];
  failed_since_[node_id] = -1.0;
  last_pressure_callback_[node_id] = -1e18;
  ++node_recoveries_;
  VRC_LOG(kInfo) << "t=" << now << " node " << node_id << " recovered";
  publish_to_board(target, now);  // immediate broadcast, not next exchange
  metrics::perf_add(&metrics::PerfCounters::immediate_publishes);
  policy_.on_node_recovered(*this, node_id);
}

SimTime Cluster::downtime_node_seconds(SimTime now) const {
  SimTime total = downtime_accum_;
  for (const SimTime since : failed_since_) {
    if (since >= 0.0) total += now - since;
  }
  return total;
}

std::vector<RunningJob*> Cluster::pending_jobs() {
  std::vector<RunningJob*> jobs;
  jobs.reserve(pending_.size());
  for (auto& job : pending_) jobs.push_back(job.get());
  return jobs;
}

Bytes Cluster::live_idle_memory() {
  Bytes total = 0;
  for (NodeId id = 0; id < num_nodes(); ++id) {
    const Workstation& target = settled(id, Read::kPublished);
    if (target.failed()) continue;
    total += std::max<Bytes>(0, target.user_memory() - target.resident_demand());
  }
  return total;
}

std::vector<int> Cluster::live_active_jobs(bool skip_reserved) {
  std::vector<int> counts;
  counts.reserve(num_nodes());
  for (NodeId id = 0; id < num_nodes(); ++id) {
    const Workstation& target = settled(id, Read::kPublished);
    if (target.failed()) continue;
    if (skip_reserved && target.reserved()) continue;
    counts.push_back(target.active_jobs());
  }
  return counts;
}

void Cluster::add_finish_callback(std::function<void(SimTime)> callback) {
  finish_callbacks_.push_back(std::move(callback));
}

void Cluster::handle_tick(SimTime now) {
  metrics::ScopedPerfTimer wall(&metrics::PerfCounters::tick_wall_ns);
  metrics::perf_add(&metrics::PerfCounters::tick_rounds);
  ++tick_round_;
  // Only nodes with needs_tick() are visited — idle workstations (no jobs,
  // settled fault EMA) are provably no-op ticks, and the active set keeps
  // them out of the loop entirely, so a tick costs O(active), not O(n).
  // Membership is exact at loop entry (publish_index refreshes it on every
  // mutation); a node *activated mid-loop* by a completion callback is the
  // one divergence from the old predicate-guarded full scan, and its tick
  // would be a provable no-op (the new job's accounted_until == now, so
  // wall == 0: no progress, no RNG draw, no EMA change) — skipping it is
  // bit-identical. The needs_tick() re-check per visit covers nodes drained
  // by an earlier visit's completion cascade.
  //
  // A parked node is skipped until its wake round; its ticks are replayed
  // when something reaches it through settled() (DESIGN.md §12.6). At the
  // wake round it is settled through the previous tick and ticked normally.
  std::uint64_t ticked = 0;
  activity_.ticking.for_each([&](NodeId id) {
    tick_cursor_ = id;
    if (activity_.is_parked(id)) {
      if (activity_.parked[id].wake > tick_round_) return;
      settle(id);
      activity_.unpark(id);
    }
    Workstation& target = *nodes_[id];
    if (!target.needs_tick()) return;
    ++ticked;
    Workstation::TickOutcome outcome = target.tick(now, config_.tick, rng_);
    if (outcome.steady_ticks > 0) {
      activity_.park(id, tick_round_, now, outcome.steady_ticks, outcome.flat);
    }
    for (auto& done : outcome.completed) complete_job(std::move(done), now);
  });
  tick_cursor_ = ~NodeId{0};
  metrics::perf_add(&metrics::PerfCounters::node_ticks, ticked);
  activity_.ticking.for_each([&](NodeId id) {
    // A parked node is steady, so never pressured.
    if (activity_.is_parked(id)) return;
    Workstation& target = *nodes_[id];
    // needs_tick() false implies zero resident demand and zero fault rate —
    // the node cannot be pressured (so restricting this loop to the active
    // set drops no candidate). A *failed* node can still report pressure
    // transiently (its fault EMA survives the crash), but it must never
    // reach the policy: migrating off a dead node is nonsense.
    if (!target.needs_tick() || target.failed()) return;
    if (!target.memory_pressured()) return;
    SimTime& last = last_pressure_callback_[id];
    if (now - last < config_.pressure_callback_interval) return;
    last = now;
    metrics::perf_add(&metrics::PerfCounters::pressure_callbacks);
    policy_.on_node_pressure(*this, target);
  });
  maybe_finish(now);
  if (!finished_ && activity_.parked_count == activity_.ticking.count()) skip_parked_rounds();
}

void Cluster::skip_parked_rounds() {
  // The rounds before the earliest wake and before the next other event
  // would only pass over parked nodes: they tick nothing, raise no hook, and
  // maybe_finish re-reads state no event changed (DESIGN.md §12.6). With no
  // node ticking, only that event bounds them.
  constexpr std::uint64_t kNoWake = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t wake = kNoWake;
  activity_.ticking.for_each([&](NodeId id) { wake = std::min(wake, activity_.parked[id].wake); });
#ifdef VRC_AUDIT
  audit::check_skip(activity_, wake, tick_round_);
#endif
  const std::uint64_t skipped =
      tick_task_->skip(wake == kNoWake ? kNoWake : wake - tick_round_ - 1);
  tick_round_ += skipped;
  metrics::perf_add(&metrics::PerfCounters::tick_rounds_skipped, skipped);
}

void Cluster::settle(NodeId id) {
  const std::uint64_t round = id < tick_cursor_ ? tick_round_ : tick_round_ - 1;
  ParkedNode& park = activity_.parked[id];
  if (round <= park.through) return;
  const std::uint64_t ticks = round - park.through;
  park.through_time = nodes_[id]->replay(park.through_time, config_.tick, ticks);
  park.through = round;
  metrics::perf_add(&metrics::PerfCounters::ticks_replayed, ticks);
}

void Cluster::handle_exchange(SimTime now) {
  metrics::ScopedPerfTimer wall(&metrics::PerfCounters::exchange_wall_ns);
  metrics::perf_add(&metrics::PerfCounters::exchange_rounds);
  // Incremental exchange: republish only nodes that mutated since the last
  // drain. A clean node's snapshot is value-identical to its existing board
  // entry (every snapshot field derives from state whose mutations mark the
  // node dirty; the fault EMA reaches the board only through `pressured`,
  // and a tick whose EMA flips it marks the node dirty), so skipping it
  // leaves the board bit-identical to a full rebroadcast. This is the
  // stale-but-identical contract of DESIGN.md §12, enforced by
  // tests/cluster/exchange_dirty_set_test.cc. A node parked on a ramp may
  // have republished in ticks it skipped, so each is settled first and its
  // replay marks it where one of those ticks would have (DESIGN.md §12.6).
  activity_.moving.for_each([&](NodeId id) { settle(id); });
  activity_.dirty.drain([&](NodeId id) {
    metrics::perf_add(&metrics::PerfCounters::exchange_dirty_visited);
    Workstation& target = settled(id, Read::kPublished);
    if (target.failed()) {
      // The fail-time immediate broadcast is the node's one published
      // transition while down: the board froze there (heaps already evicted
      // it, aggregates exclude it), and recover_node re-syncs with another
      // immediate broadcast — so no snapshot is built for a down node.
      metrics::perf_add(&metrics::PerfCounters::exchange_failed_skips);
      return;
    }
    publish_to_board(target, now);
  });
#ifdef VRC_AUDIT
  // Immediately after the dirty drain, every live node's fresh snapshot must
  // match its board row except `timestamp` — the dirty-set soundness claim of
  // DESIGN.md §12, checked here against a full rebroadcast's worth of fresh
  // snapshots. Failed nodes keep deliberately frozen rows and are skipped.
  audit::check_board(
      board_,
      [&](NodeId id) -> std::optional<LoadInfo> {
        const Workstation& target = settled(id, Read::kPublished);
        if (target.failed()) return std::nullopt;
        return target.snapshot(now);
      },
      "board after exchange");
#endif
}

void Cluster::publish_to_board(Workstation& target, SimTime now) {
  board_.update(target.snapshot(now));
  activity_.dirty.erase(target.id());
  metrics::perf_add(&metrics::PerfCounters::snapshots_published);
}

void Cluster::complete_job(std::unique_ptr<RunningJob> job, SimTime now) {
  workload::JobSpec& spec = job->spec;
  CompletedJob record;
  record.id = spec.id;
  record.program = std::move(spec.program);  // the job dies with this call
  record.submit_time = spec.submit_time;
  record.completion_time = now;
  record.cpu_seconds = spec.cpu_seconds;
  record.t_cpu = job->t_cpu;
  record.t_page = job->t_page;
  record.t_queue = job->t_queue;
  record.t_mig = job->t_mig;
  record.faults = job->faults;
  record.migrations = job->migrations;
  record.remote_submits = job->remote_submits;
  record.restarts = job->restarts;
  record.resizes = job->resizes;
  record.malleable = spec.malleable();
  record.width_seconds = job->width_seconds;
  record.final_node = job->node;
  record.working_set = spec.working_set();
  completed_.push_back(std::move(record));
  policy_.on_job_completed(*this, completed_.back());
}

void Cluster::maybe_finish(SimTime now) {
  if (finished_) return;
  // An attached source still has arrivals to pump: the expected-job count is
  // open-ended until it drains, so the run cannot be over yet.
  if (source_ != nullptr) return;
  if (completed_.size() < expected_jobs_) return;
  if (!pending_.empty() || inflight_ != 0) return;
  finished_ = true;
  finish_time_ = now;
  // stop(), not reset(): this runs inside the tick task's own callback, so
  // the task object must outlive the call.
  tick_task_->stop();
  exchange_task_->stop();
  policy_task_->stop();
  for (auto& callback : finish_callbacks_) callback(now);
}

}  // namespace vrc::cluster
