#include "cluster/workstation.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdlib>

#include "cluster/audit.h"
#include "util/log.h"
#include "util/repeated_add.h"

namespace vrc::cluster {

Workstation::Workstation(NodeId id, const NodeConfig& hardware, const ClusterConfig& config)
    : id_(id), hardware_(hardware), config_(&config) {
  speed_factor_ = hardware_.cpu_mhz / config.reference_mhz;
  inverse_speed_ = 1.0 / speed_factor_;
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
  if (free_slots() < width) return false;
  if (memory_pressured()) return false;
  return committed_demand() + demand_hint < memory_limit();
}

Bytes Workstation::memory_limit() const {
  return saturating_bytes(config_->memory_threshold * static_cast<double>(user_memory()));
}

RunningJob& Workstation::add_job(std::unique_ptr<RunningJob> job) {
  job->node = id_;
  job->demand = job->demand_now();
  RunningJob& added = *jobs_.emplace_back(std::move(job));
  tally(added, +1);
  return added;
}

std::unique_ptr<RunningJob> Workstation::remove_job(JobId id) {
  for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
    if ((*it)->id() == id) {
      std::unique_ptr<RunningJob> job = std::move(*it);
      jobs_.erase(it);
      tally(*job, -1);
      return job;
    }
  }
  return nullptr;
}

RunningJob* Workstation::find_job(JobId id) { return find_job_impl(*this, id); }

const RunningJob* Workstation::find_job(JobId id) const { return find_job_impl(*this, id); }

RunningJob* Workstation::find_job(JobId id, JobPhase phase) {
  RunningJob* job = find_job(id);
  return job != nullptr && job->phase == phase ? job : nullptr;
}

void Workstation::set_job_phase(RunningJob& job, JobPhase phase) {
  if (job.phase == phase) return;
  tally(job, -1);
  job.phase = phase;
  tally(job, +1);
}

void Workstation::set_job_width(RunningJob& job, int width) {
  if (job.width == width) return;
  tally(job, -1);
  job.width = width;
  tally(job, +1);
}

void Workstation::tally(const RunningJob& job, int sign) {
  if (job.phase != JobPhase::kSuspended) {
    resident_bytes_ += sign * job.demand;
    peak_bytes_ += sign * job.spec.working_set();
    active_count_ += sign;
    active_slots_ += sign * job.width;
  }
  if (job.phase == JobPhase::kRunning) {
    runnable_count_ += sign;
    runnable_slots_ += sign * job.width;
  }
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

inline Workstation::Sharing Workstation::sharing() const {
  // Round-robin shares are width-weighted: a width-w job holds w of the
  // runnable slots. With every width at 1 the slot sum equals the job count,
  // so the division in step() is bit-identical to the pre-malleability
  // model. Context-switch overhead still keys off the *job* count — one wide
  // job alone does not context-switch against itself.
  Sharing share;
  share.efficiency = runnable_count_ > 1 ? rr_efficiency_ : 1.0;
  share.slots = runnable_slots_;
  // Fault exposure has a knee (config.fault_exposure_knee): cyclic working
  // sets mean that once demand exceeds user memory, LRU evicts pages just
  // before their reuse ([6]), so even a small relative deficit exposes a
  // large share of page touches — a big-job collision collapses the node,
  // which is the paper's blocking episode.
  const double overcommit_now = overcommit();
  share.exposure = overcommit_now <= 0.0
                       ? 0.0
                       : overcommit_now / (overcommit_now + config_->fault_exposure_knee);
  return share;
}

inline Workstation::JobStep Workstation::step(const RunningJob& job, SimTime wall,
                                              const Sharing& share) const {
  // Round-robin share for this job's portion of the interval: width slots
  // out of the runnable slots, scaled by the sub-linear parallel speedup for
  // wide jobs (speedup(1) == 1, so the branch keeps width-1 arithmetic
  // untouched — DESIGN.md §15).
  double usable = share.efficiency * wall / static_cast<double>(share.slots);
  if (job.width > 1) usable *= job.spec.malleability.speedup(job.width);
  // Wall seconds per reference-CPU second: compute time at this node's
  // speed plus page-fault stalls charged against the job's own turn.
  const double fault_rate_per_ref_sec = job.spec.touch_rate * share.exposure;
  const double stall_per_ref_sec = fault_rate_per_ref_sec * config_->page_fault_service;
  const double wall_per_ref_sec = inverse_speed_ + stall_per_ref_sec;
  JobStep out;
  out.progress = std::min(usable / wall_per_ref_sec, job.remaining_cpu());
  out.cpu_wall = out.progress / speed_factor_;
  out.page_wall = out.progress * stall_per_ref_sec;
  out.queue_wall = std::max(0.0, wall - out.cpu_wall - out.page_wall);
  out.faults = fault_rate_per_ref_sec * out.progress;
  out.width_wall = wall * static_cast<double>(job.width);
  return out;
}

inline void Workstation::accumulate(RunningJob& job, const JobStep& step) {
  job.cpu_done += step.progress;
  job.t_cpu += step.cpu_wall;
  job.t_page += step.page_wall;
  job.t_queue += step.queue_wall;
  job.faults += step.faults;
  job.width_seconds += step.width_wall;
}

inline void Workstation::accumulate(RunningJob& job, const JobStep& step, std::uint64_t n) {
  job.cpu_done = util::add_repeated(job.cpu_done, step.progress, n);
  job.t_cpu = util::add_repeated(job.t_cpu, step.cpu_wall, n);
  job.t_page = util::add_repeated(job.t_page, step.page_wall, n);
  job.t_queue = util::add_repeated(job.t_queue, step.queue_wall, n);
  job.faults = util::add_repeated(job.faults, step.faults, n);
  job.width_seconds = util::add_repeated(job.width_seconds, step.width_wall, n);
}

Workstation::TickOutcome Workstation::tick(SimTime now, SimTime dt, sim::Rng& rng) {
  TickOutcome outcome;

  // Sharing state at the start of the interval, from the O(1) aggregates.
  const Sharing share = sharing();
  const SimTime interval_start = now - dt;

  double tick_faults = 0.0;
  Bytes resident_delta = 0;  // demand growth/shrink of running jobs this tick
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

    JobStep job_step = step(job, wall, share);
    if (config_->stochastic_faults && job_step.faults > 0.0) {
      job_step.faults = static_cast<double>(rng.poisson(job_step.faults));
    }
    accumulate(job, job_step);
    job.accounted_until = now;
    // A single-point profile's demand never moves off the value add_job
    // cached.
    if (!job.spec.memory.is_constant()) {
      const Bytes new_demand = job.demand_now();
      resident_delta += new_demand - job.demand;
      job.demand = new_demand;
    }
    tick_faults += job_step.faults;

    if (job.finished()) {
      std::unique_ptr<RunningJob> done = std::move(jobs_[i]);
      jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(i));
      tally(*done, -1);
      outcome.completed.push_back(std::move(done));
      continue;  // do not advance i; element replaced by the next one
    }
    ++i;
  }
  // Fold the per-job demand refresh into the aggregate once, outside the
  // loop: a member read-modify-write per job would chain the iterations.
  resident_bytes_ += resident_delta;
  assert(aggregates_consistent());

  // EMA of the fault rate with time constant fault_rate_tau. An EMA at
  // exactly 0 with no fault this tick stays exactly 0 (0 * decay +
  // (1 - decay) * 0), so the exp is skipped on the common fault-free tick.
  const double fault_rate_before = fault_rate_;
  const bool pressured_before = memory_pressured();
  if (fault_rate_ != 0.0 || tick_faults != 0.0) {
    const double decay = fault_decay(dt);
    fault_rate_ = fault_rate_ * decay + (1.0 - decay) * (tick_faults / dt);
  }
  // An exponential decay never reaches zero in floating point, which would
  // keep an otherwise-idle node ticking forever just to shave the EMA. Snap
  // once the node is empty and the rate is far below any consumer's
  // resolution (the only reader is the memory_pressured threshold compare),
  // so needs_tick() can turn the node off.
  if (jobs_.empty() && fault_rate_ < 1e-12) fault_rate_ = 0.0;

  // Republish only when a published value or needs_tick() could differ.
  // Every field the board snapshot carries derives from resident_bytes_, the
  // job/incoming counts and aggregates, the flags, and memory_pressured();
  // within a tick the first three only move on a completion or a demand
  // delta, and with resident demand fixed the pressure predicate only flips
  // when the EMA crosses fault_rate_threshold. needs_tick() flips only on a
  // completion or on the EMA reaching or leaving exactly 0. Any other tick,
  // a decaying EMA included, would only re-mark the node dirty for an
  // exchange that republishes the values already on the board. replay()
  // applies the same rule to the ticks it stands in for.
  const bool other_change = !outcome.completed.empty() ||
                            memory_pressured() != pressured_before ||
                            (fault_rate_ == 0.0) != (fault_rate_before == 0.0);
  if (other_change || resident_delta != 0) publish_index();
  // A tick whose only published change is the resident sum may leave the
  // node steady (DESIGN.md §12.6): a node on a memory ramp moves it nearly
  // every tick. After a completion or a pressure or EMA flip the node ticks
  // once more first.
  if (!other_change) outcome.steady_ticks = steady_ticks(now, dt, &outcome.flat);
  return outcome;
}

double Workstation::fault_decay(SimTime dt) {
  if (dt != decay_dt_) {
    decay_dt_ = dt;
    decay_ = std::exp(-dt / config_->fault_rate_tau);
  }
  return decay_;
}

std::uint64_t Workstation::steady_ticks(SimTime now, SimTime dt, bool* flat) const {
  if (failed_ || memory_pressured() || jobs_.empty()) return 0;
  // While T < dt * 2^33, ulp(T) < dt * 2^-19, so a replayed tick's wall
  // (T - max(T_prev, T - dt)) never exceeds wall_bound below. The start
  // and length caps keep every replayed T under that.
  constexpr std::uint64_t kMaxTicks = std::uint64_t{1} << 31;
  if (!(now < dt * 0x1p32)) return 0;
  const SimTime wall_bound = dt * (1.0 + 0x1p-16);

  // Not pressured, so resident demand is within user memory: exposure is 0
  // and step() does not read demand. Only running jobs progress; a job that
  // is suspended, migrating or resizing only waits.
  const Sharing share = sharing();
  std::uint64_t horizon = kMaxTicks;
  park_bounds_.resize(jobs_.size());
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const RunningJob& job = *jobs_[j];
    if (job.phase != JobPhase::kRunning) continue;
    const double cpu = job.spec.cpu_seconds;
    ParkBound& bound = park_bounds_[j];
    bound.rising_until = job.spec.memory.rising_until(job.progress());
    // The stretch ends at the finish test (cpu_done + 1e-9 >= cpu_seconds)
    // or where the profile starts to fall, whichever comes first. 2^-40 of
    // the job's size covers the rounding of the sums and the progress
    // quotient on the way there.
    const double limit = std::min(cpu - 1e-9, bound.rising_until * cpu) - cpu * 0x1p-40;
    // step() is monotone in the wall, so this bounds every replayed tick's
    // progress; the second term bounds the rounding error of one add.
    bound.per_tick = step(job, wall_bound, share).progress + cpu * 0x1p-50;
    const double room = (limit - job.cpu_done) / bound.per_tick;
    if (!(room >= 2.0)) return 0;
    if (room < static_cast<double>(horizon) + 1.0) {
      horizon = static_cast<std::uint64_t>(room) - 1;
    }
  }

  // The resident demand after `ticks` more ticks, bounded above: each
  // running job's demand is non-decreasing over its stretch, so demand_at()
  // of a bound on its progress then (clamped into the stretch) bounds the
  // demand at the end of every tick up to there. A migrating or resizing
  // job holds its demand; a suspended one is not resident. The bound grows
  // with `ticks`.
  const auto resident_bound = [&](std::uint64_t ticks) {
    Bytes total = 0;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      const RunningJob& job = *jobs_[j];
      if (job.phase == JobPhase::kSuspended) continue;
      if (job.phase != JobPhase::kRunning || job.spec.memory.is_constant()) {
        total += job.demand;
        continue;
      }
      const double cpu = job.spec.cpu_seconds;
      const ParkBound& bound = park_bounds_[j];
      const double done =
          job.cpu_done + static_cast<double>(ticks) * bound.per_tick + cpu * 0x1p-40;
      total += job.spec.memory.demand_at(std::min(done / cpu, bound.rising_until));
    }
    return total;
  };
  // The horizon ends before the resident demand could pass user memory: the
  // largest tick count whose bound still fits.
  const Bytes user = user_memory();
  Bytes peak = resident_bound(horizon);
  if (peak > user) {
    std::uint64_t fits = 0;  // resident_bound(fits) == peak <= user
    std::uint64_t overflows = horizon;
    peak = resident_bound(0);
    if (peak > user) return 0;
    while (overflows - fits > 1) {
      const std::uint64_t mid = fits + (overflows - fits) / 2;
      const Bytes mid_peak = resident_bound(mid);
      if (mid_peak > user) {
        overflows = mid;
      } else {
        fits = mid;
        peak = mid_peak;
      }
    }
    if (fits == 0) return 0;
    horizon = fits;
  }
  // Every demand is at least where it is now, so a bound equal to the
  // resident sum means no demand moves.
  if (flat != nullptr) *flat = fault_rate_ == 0.0 && peak == resident_bytes_;
  return horizon;
}

SimTime Workstation::replay(SimTime last_tick, SimTime dt, std::uint64_t ticks) {
#ifdef VRC_AUDIT
  std::vector<RunningJob> before;
  before.reserve(jobs_.size());
  for (const auto& job : jobs_) before.push_back(*job);
  const double audit_fault_rate = fault_rate_;
#endif
  // Constant while parked: every phase change goes through tally(), which
  // unparks the node.
  const Sharing share = sharing();
  // T <- T + dt advances in runs whose additions each add the same whole
  // number of ulps of T, and every tick of a run integrates the same wall,
  // the first tick's (DESIGN.md §12.6). The horizon keeps step()'s clamp to
  // the remaining work from binding, so each running job's step() is taken
  // once per run, and each accumulator takes the run's equal additions in
  // closed form. A tick that starts no run (a binade edge, a tie onto an
  // odd last unit) is a run of one. Per phase, as tick(): a suspended job
  // queues for the whole wall, and a migrating or resizing job is left
  // alone until its transfer completes.
  SimTime t = last_tick;
  for (std::uint64_t left = ticks; left > 0;) {
    const util::AddRun run = util::uniform_add_run(t, dt, left);
    const std::uint64_t n = std::max<std::uint64_t>(run.steps, 1);
    const SimTime next = t + dt;  // as sim::PeriodicTask::arm
    const SimTime wall = next - std::max(t, next - dt);
    for (const auto& job : jobs_) {
      if (job->phase == JobPhase::kRunning) {
        accumulate(*job, step(*job, wall, share), n);
      } else if (job->phase == JobPhase::kSuspended) {
        job->t_queue = util::add_repeated(job->t_queue, wall, n);
      }
    }
    t = run.steps > 0 ? util::advance(t, run) : next;
    left -= n;
  }
  // Demand is a function of progress alone, and with exposure 0 no step()
  // above read it, so each running job's demand and the resident sum can be
  // set from the final progress at once, as the last tick would leave them.
  const Bytes resident_before = resident_bytes_;
  Bytes resident = 0;
  for (const auto& job : jobs_) {
    if (job->phase == JobPhase::kMigrating || job->phase == JobPhase::kResizing) {
      resident += job->demand;
      continue;
    }
    job->accounted_until = t;
    if (job->phase == JobPhase::kSuspended) continue;
    if (!job->spec.memory.is_constant()) job->demand = job->demand_now();
    resident += job->demand;
  }
  resident_bytes_ = resident;
  // No tick of the stretch counts a fault, so each decays the EMA by the
  // update tick() makes with tick_faults = 0; once at 0 it stays there.
  const double fault_rate_before = fault_rate_;
  if (fault_rate_ != 0.0) {
    const double decay = fault_decay(dt);
    const double inflow = (1.0 - decay) * (0.0 / dt);
    for (std::uint64_t i = 0; i < ticks && fault_rate_ != 0.0; ++i) {
      const double decayed = fault_rate_ * decay + inflow;
      // An update that leaves the EMA in place leaves it there for good: a
      // subnormal EMA stalls short of 0 once the decay rounds away.
      if (decayed == fault_rate_) break;
      fault_rate_ = decayed;
    }
  }
  // tick()'s republish rule over the stretch. Demand never falls inside it,
  // so a tick that moved one moved the resident sum for good, and the EMA
  // only falls, so it can only reach 0. Pressure cannot flip and no job
  // completes.
  const bool published = resident_bytes_ != resident_before ||
                         (fault_rate_ == 0.0) != (fault_rate_before == 0.0);
  if (published) publish_replayed();
#ifdef VRC_AUDIT
  audit_replay(before, audit_fault_rate, last_tick, dt, ticks, published);
#endif
  return t;
}

void Workstation::audit_replay(const std::vector<RunningJob>& before, double fault_rate,
                               SimTime last_tick, SimTime dt, std::uint64_t ticks,
                               bool published) const {
  const auto fail = [&](const char* what, JobId job) {
    VRC_LOG(kError) << "VRC_AUDIT failed (replay): node " << id_ << ", job " << job << ", "
                    << ticks << " ticks after t=" << last_tick << ": " << what;
    std::abort();
  };
  const Sharing share = sharing();
  const double decay = std::exp(-dt / config_->fault_rate_tau);
  std::vector<RunningJob> shadow = before;
  double shadow_rate = fault_rate;
  bool shadow_published = false;
  SimTime t = last_tick;
  for (std::uint64_t tick = 0; tick < ticks; ++tick) {
    t += dt;
    Bytes resident_delta = 0;
    Bytes resident = 0;
    for (RunningJob& job : shadow) {
      // tick()'s per-phase rules: a migrating or resizing job stays resident
      // and untouched, a suspended one queues and is not resident.
      if (job.phase == JobPhase::kMigrating || job.phase == JobPhase::kResizing) {
        resident += job.demand;
        continue;
      }
      const SimTime wall = t - std::max(job.accounted_until, t - dt);
      if (wall <= 0.0) fail("a tick with no wall time to integrate", job.id());
      if (job.phase == JobPhase::kSuspended) {
        job.t_queue += wall;
        job.accounted_until = t;
        continue;
      }
      accumulate(job, step(job, wall, share));
      job.accounted_until = t;
      if (job.finished()) fail("a job finished inside the stretch", job.id());
      const Bytes demand = job.demand_now();
      if (demand < job.demand) fail("a job's demand fell inside the stretch", job.id());
      resident_delta += demand - job.demand;
      job.demand = demand;
      resident += demand;
    }
    if (resident > user_memory()) fail("the resident demand passed user memory", 0);
    const double rate_before = shadow_rate;
    if (shadow_rate != 0.0) shadow_rate = shadow_rate * decay + (1.0 - decay) * (0.0 / dt);
    shadow_published = shadow_published || resident_delta != 0 ||
                       (shadow_rate == 0.0) != (rate_before == 0.0);
  }
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  Bytes resident = 0;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const RunningJob& got = *jobs_[j];
    const RunningJob& want = shadow[j];
    if (got.phase != want.phase || !same(got.cpu_done, want.cpu_done) ||
        !same(got.t_cpu, want.t_cpu) || !same(got.t_page, want.t_page) ||
        !same(got.t_queue, want.t_queue) || !same(got.t_mig, want.t_mig) ||
        !same(got.faults, want.faults) || !same(got.width_seconds, want.width_seconds) ||
        !same(got.accounted_until, want.accounted_until) || got.demand != want.demand) {
      fail("the replay diverged from tick-by-tick integration", got.id());
    }
    if (want.phase != JobPhase::kSuspended) resident += want.demand;
  }
  if (resident != resident_bytes_ || !same(shadow_rate, fault_rate_)) {
    fail("the resident demand or the fault EMA diverged from tick-by-tick integration", 0);
  }
  if (shadow_published != published) fail("the replay's republish decision diverged", 0);
  ++audit::counters().replays_checked;
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
      peak += job->spec.working_set();
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

void Workstation::publish_replayed() {
  // The `ticking` bit cannot change: a parked node keeps its jobs.
  if (activity_ != nullptr) activity_->dirty.insert(id_);
}

LoadInfo Workstation::snapshot(SimTime now) const {
  LoadInfo info;
  info.node = id_;
  info.timestamp = now;
  info.slots_used = slots_used();
  info.user_memory = user_memory();
  info.idle_memory = idle_memory();
  info.reserved = reserved_;
  info.pressured = memory_pressured();
  info.failed = failed_;
  return info;
}

}  // namespace vrc::cluster
