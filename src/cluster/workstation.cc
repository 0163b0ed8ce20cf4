#include "cluster/workstation.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/log.h"

namespace vrc::cluster {

Workstation::Workstation(NodeId id, const NodeConfig& hardware, const ClusterConfig& config)
    : id_(id), hardware_(hardware), config_(&config) {
  speed_factor_ = hardware_.cpu_mhz / config.reference_mhz;
  rr_efficiency_ = config.quantum / (config.quantum + config.context_switch);
}

Bytes Workstation::idle_memory() const {
  return std::max<Bytes>(0, user_memory() - committed_demand());
}

double Workstation::overcommit() const {
  const Bytes resident = resident_demand();
  if (resident <= user_memory() || resident == 0) return 0.0;
  return static_cast<double>(resident - user_memory()) / static_cast<double>(resident);
}

bool Workstation::memory_pressured() const {
  return resident_demand() > user_memory() || fault_rate_ > config_->fault_rate_threshold;
}

bool Workstation::accepts_new_job(Bytes demand_hint, int width) const {
  if (failed_) return false;
  if (reserved_) return false;
  if (slots_used() + width > config_->cpu_threshold) return false;
  if (memory_pressured()) return false;
  // The memory threshold of [3]: keep headroom below user memory so running
  // jobs' demand growth does not immediately overcommit the node.
  const Bytes limit =
      static_cast<Bytes>(config_->memory_threshold * static_cast<double>(user_memory()));
  return committed_demand() + demand_hint < limit;
}

RunningJob& Workstation::add_job(std::unique_ptr<RunningJob> job) {
  job->node = id_;
  job->demand = job->demand_now();
  if (job->phase != JobPhase::kSuspended) {
    resident_bytes_ += job->demand;
    peak_bytes_ += job->spec->working_set();
    ++active_count_;
    active_slots_ += job->width;
  }
  if (job->phase == JobPhase::kRunning) {
    ++runnable_count_;
    runnable_slots_ += job->width;
  }
  jobs_.push_back(std::move(job));
  publish_index();
  return *jobs_.back();
}

std::unique_ptr<RunningJob> Workstation::remove_job(JobId id) {
  for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
    if ((*it)->id() == id) {
      std::unique_ptr<RunningJob> job = std::move(*it);
      jobs_.erase(it);
      if (job->phase != JobPhase::kSuspended) {
        resident_bytes_ -= job->demand;
        peak_bytes_ -= job->spec->working_set();
        --active_count_;
        active_slots_ -= job->width;
      }
      if (job->phase == JobPhase::kRunning) {
        --runnable_count_;
        runnable_slots_ -= job->width;
      }
      publish_index();
      return job;
    }
  }
  return nullptr;
}

RunningJob* Workstation::find_job(JobId id) { return find_job_impl(*this, id); }

const RunningJob* Workstation::find_job(JobId id) const { return find_job_impl(*this, id); }

void Workstation::set_job_phase(RunningJob& job, JobPhase phase) {
  if (job.phase == phase) return;
  if (job.phase != JobPhase::kSuspended) {
    resident_bytes_ -= job.demand;
    peak_bytes_ -= job.spec->working_set();
    --active_count_;
    active_slots_ -= job.width;
  }
  if (job.phase == JobPhase::kRunning) {
    --runnable_count_;
    runnable_slots_ -= job.width;
  }
  job.phase = phase;
  if (phase != JobPhase::kSuspended) {
    resident_bytes_ += job.demand;
    peak_bytes_ += job.spec->working_set();
    ++active_count_;
    active_slots_ += job.width;
  }
  if (phase == JobPhase::kRunning) {
    ++runnable_count_;
    runnable_slots_ += job.width;
  }
  publish_index();
}

void Workstation::set_job_width(RunningJob& job, int width) {
  if (job.width == width) return;
  if (job.phase != JobPhase::kSuspended) active_slots_ += width - job.width;
  if (job.phase == JobPhase::kRunning) runnable_slots_ += width - job.width;
  job.width = width;
  publish_index();
}

RunningJob* Workstation::most_memory_intensive_job() {
  RunningJob* best = nullptr;
  for (auto& job : jobs_) {
    if (job->phase != JobPhase::kRunning) continue;
    if (!best || job->demand > best->demand) best = job.get();
  }
  return best;
}

std::vector<std::unique_ptr<RunningJob>> Workstation::take_all_jobs() {
  std::vector<std::unique_ptr<RunningJob>> taken = std::move(jobs_);
  jobs_.clear();
  resident_bytes_ = 0;
  peak_bytes_ = 0;
  active_count_ = 0;
  runnable_count_ = 0;
  active_slots_ = 0;
  runnable_slots_ = 0;
  publish_index();
  return taken;
}

void Workstation::clear_incoming() {
  incoming_.clear();
  incoming_count_ = 0;
  incoming_bytes_ = 0;
  incoming_slots_ = 0;
  publish_index();
}

void Workstation::add_incoming(JobId id, Bytes demand, int width) {
  incoming_.push_back({id, demand, width});
  ++incoming_count_;
  incoming_bytes_ += demand;
  incoming_slots_ += width;
  publish_index();
}

bool Workstation::remove_incoming(JobId id) {
  for (auto it = incoming_.begin(); it != incoming_.end(); ++it) {
    if (it->id == id) {
      --incoming_count_;
      incoming_bytes_ -= it->demand;
      incoming_slots_ -= it->width;
      incoming_.erase(it);
      publish_index();
      return true;
    }
  }
  VRC_LOG(kDebug) << "node " << id_ << ": remove_incoming(" << id
                  << ") found no reservation";
  return false;
}

Workstation::TickOutcome Workstation::tick(SimTime now, SimTime dt, sim::Rng& rng) {
  TickOutcome outcome;

  // Sharing state at the start of the interval, from the O(1) aggregates.
  // Round-robin shares are width-weighted: a width-w job holds w of the
  // runnable_slots shares. With every width at 1 the slot sum equals the job
  // count, so the division below is bit-identical to the pre-malleability
  // model. Context-switch overhead still keys off the *job* count — one wide
  // job alone does not context-switch against itself.
  const int runnable = runnable_count_;
  const int runnable_slots = runnable_slots_;
  const double overcommit_now = overcommit();
  const double efficiency = runnable > 1 ? rr_efficiency_ : 1.0;
  const SimTime interval_start = now - dt;

  double tick_faults = 0.0;
  double busy_wall = 0.0;      // wall time actually spent computing or paging
  Bytes resident_delta = 0;    // demand growth/shrink of running jobs this tick
  for (std::size_t i = 0; i < jobs_.size();) {
    RunningJob& job = *jobs_[i];
    const SimTime from = std::max(job.accounted_until, interval_start);
    const SimTime wall = now - from;
    if (wall <= 0.0) {
      ++i;
      continue;
    }

    if (job.phase == JobPhase::kSuspended) {
      job.t_queue += wall;
      job.accounted_until = now;
      ++i;
      continue;
    }
    if (job.phase == JobPhase::kMigrating || job.phase == JobPhase::kResizing) {
      // Attributed to t_mig when the transfer / reconfiguration completes.
      ++i;
      continue;
    }

    // Round-robin share for this job's portion of the interval: width slots
    // out of runnable_slots, scaled by the sub-linear parallel speedup for
    // wide jobs (speedup(1) == 1, so the branch keeps width-1 arithmetic
    // untouched — DESIGN.md §15).
    double usable = efficiency * wall / static_cast<double>(runnable_slots);
    if (job.width > 1) usable *= job.spec->malleability.speedup(job.width);
    // Wall seconds per reference-CPU second: compute time at this node's
    // speed plus page-fault stalls charged against the job's own turn.
    // Fault exposure has a knee (config.fault_exposure_knee): cyclic working
    // sets mean that once demand exceeds user memory, LRU evicts pages just
    // before their reuse ([6]), so even a small relative deficit exposes a
    // large share of page touches — a big-job collision collapses the node,
    // which is the paper's blocking episode.
    const double exposure =
        overcommit_now <= 0.0
            ? 0.0
            : overcommit_now / (overcommit_now + config_->fault_exposure_knee);
    const double fault_rate_per_ref_sec = job.spec->touch_rate * exposure;
    const double stall_per_ref_sec = fault_rate_per_ref_sec * config_->page_fault_service;
    const double wall_per_ref_sec = 1.0 / speed_factor_ + stall_per_ref_sec;
    double progress = usable / wall_per_ref_sec;
    progress = std::min(progress, job.remaining_cpu());

    const double cpu_wall = progress / speed_factor_;
    const double page_wall = progress * stall_per_ref_sec;
    const double queue_wall = std::max(0.0, wall - cpu_wall - page_wall);

    double faults = fault_rate_per_ref_sec * progress;
    if (config_->stochastic_faults && faults > 0.0) {
      faults = static_cast<double>(rng.poisson(faults));
    }

    job.cpu_done += progress;
    busy_wall += cpu_wall + page_wall;
    job.t_cpu += cpu_wall;
    job.t_page += page_wall;
    job.t_queue += queue_wall;
    job.faults += faults;
    job.width_seconds += wall * static_cast<double>(job.width);
    job.accounted_until = now;
    const Bytes new_demand = job.demand_now();
    resident_delta += new_demand - job.demand;
    job.demand = new_demand;
    tick_faults += faults;

    if (job.finished()) {
      std::unique_ptr<RunningJob> done = std::move(jobs_[i]);
      jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(i));
      resident_delta -= done->demand;
      peak_bytes_ -= done->spec->working_set();
      --active_count_;
      --runnable_count_;
      active_slots_ -= done->width;
      runnable_slots_ -= done->width;
      outcome.completed.push_back(std::move(done));
      ++jobs_completed_;
      continue;  // do not advance i; element replaced by the next one
    }
    ++i;
  }
  // Fold the per-job demand refresh into the aggregate once, outside the
  // loop: a member read-modify-write per job would chain the iterations.
  resident_bytes_ += resident_delta;
  assert(aggregates_consistent());

  // CPU busy time prorated by the wall time jobs actually progressed: when
  // the only runnable job finishes mid-tick the CPU goes idle for the rest
  // of the interval, so charging the full dt would overstate utilization.
  // Dividing by the round-robin efficiency folds the context-switch overhead
  // (also busy time) back in; a fully-utilized tick charges exactly dt.
  if (runnable > 0) cpu_busy_ += std::min<SimTime>(dt, busy_wall / efficiency);

  total_faults_ += tick_faults;
  outcome.faults = tick_faults;

  // EMA of the fault rate with time constant fault_rate_tau.
  const double fault_rate_before = fault_rate_;
  const double decay = std::exp(-dt / config_->fault_rate_tau);
  fault_rate_ = fault_rate_ * decay + (1.0 - decay) * (tick_faults / dt);
  // An exponential decay never reaches zero in floating point, which would
  // keep an otherwise-idle node ticking forever just to shave the EMA. Snap
  // once the node is empty and the rate is far below any consumer's
  // resolution (the only reader is the memory_pressured threshold compare),
  // so needs_tick() can turn the node off.
  if (jobs_.empty() && fault_rate_ < 1e-12) fault_rate_ = 0.0;

  // Republish only when a published value could differ. Every field the
  // board snapshot carries derives from resident_bytes_, the job/incoming
  // counts and aggregates, the flags, and fault_rate_; within a tick the
  // first three only move on a completion or a demand delta, so a tick that
  // completed nothing, shifted no memory, and left the EMA bit-identical
  // (exactly 0 stays exactly 0 without faults) would only re-mark the node
  // dirty for an exchange that republishes the values already on the board.
  // Value-unchanged also means needs_tick() cannot have flipped, so the
  // active-set membership refresh is equally unnecessary.
  if (!outcome.completed.empty() || resident_delta != 0 ||
      fault_rate_ != fault_rate_before) {
    publish_index();
  }
  return outcome;
}

bool Workstation::aggregates_consistent() const {
  Bytes resident = 0;
  Bytes peak = 0;
  int active = 0;
  int runnable = 0;
  int active_slots = 0;
  int runnable_slots = 0;
  for (const auto& job : jobs_) {
    if (job->phase != JobPhase::kSuspended) {
      resident += job->demand;
      peak += job->spec->working_set();
      ++active;
      active_slots += job->width;
    }
    if (job->phase == JobPhase::kRunning) {
      ++runnable;
      runnable_slots += job->width;
    }
  }
  int incoming_slots = 0;
  for (const auto& res : incoming_) incoming_slots += res.width;
  return resident == resident_bytes_ && peak == peak_bytes_ && active == active_count_ &&
         runnable == runnable_count_ && active_slots == active_slots_ &&
         runnable_slots == runnable_slots_ && incoming_slots == incoming_slots_;
}

void Workstation::bind_activity(NodeActivity* activity) {
  activity_ = activity;
  publish_index();
}

void Workstation::publish_index() {
  if (activity_ != nullptr) activity_->note_mutation(id_, needs_tick());
}

LoadInfo Workstation::snapshot(SimTime now) const {
  LoadInfo info;
  info.node = id_;
  info.timestamp = now;
  info.active_jobs = active_jobs();
  info.slots_used = slots_used();
  info.user_memory = user_memory();
  info.total_demand = committed_demand();
  info.idle_memory = idle_memory();
  info.fault_rate = fault_rate_;
  info.reserved = reserved_;
  info.pressured = memory_pressured();
  info.failed = failed_;
  return info;
}

}  // namespace vrc::cluster
