#include "core/g_load_sharing.h"

#include <algorithm>
#include <vector>

#include "metrics/perf_counters.h"
#include "util/log.h"

namespace vrc::core {

void GLoadSharing::attach(Cluster& cluster) {
  last_migration_.assign(cluster.num_nodes(), -1e18);
  // A policy object may be reused across experiments (run_scenario
  // constructs one per cell, but callers of run_experiment can reuse one);
  // every run must start with clean statistics.
  blocked_submissions_ = 0;
  failed_migrations_ = 0;
}

void GLoadSharing::on_job_arrival(Cluster& cluster, RunningJob& job) {
  if (!try_place(cluster, job)) {
    ++blocked_submissions_;
    VRC_LOG(kDebug) << "t=" << cluster.simulator().now() << " job " << job.id()
                    << " blocked at submission";
  }
}

bool GLoadSharing::try_place(Cluster& cluster, RunningJob& job) {
  // Memory demands are unknown at submission time ([3]): admission assumes a
  // typical working set (or the job's observed footprint, if larger).
  const Bytes hint = std::max(job.demand, cluster.config().admission_demand_estimate);
  Workstation& home = cluster.node(job.home_node);
  if (home.accepts_new_job(hint, job.width)) {
    cluster.place_local(job, home.id());
    return true;
  }
  if (auto target = find_submission_target(cluster, hint, home.id(), job.width)) {
    cluster.place_remote(job, *target);
    return true;
  }
  return false;
}

std::optional<NodeId> GLoadSharing::find_submission_target(Cluster& cluster, Bytes demand_hint,
                                                           NodeId exclude, int width) const {
  // Selection trusts the periodically-exchanged board: between exchanges
  // every home scheduler sees the same "lightly loaded" candidates, so
  // bursts of submissions herd onto them — the "unsuitable job submissions"
  // with unknown demands that seed the blocking problem. The board's
  // (slots asc, idle desc) heap returns exactly the node the old linear scan
  // picked; failed and reserved entries are not in the heap at all.
  metrics::perf_add(&metrics::PerfCounters::submission_scans);
  const cluster::LoadInfoBoard& board = cluster.board();
  const int cpu_threshold = cluster.config().cpu_threshold;
  return board.best_min_slots_max_idle([&](NodeId n) {
    const cluster::LoadInfo& info = board.info(n);
    if (n == exclude || info.pressured) return false;
    if (info.slots_used + width > cpu_threshold) return false;
    return info.idle_memory > demand_hint;
  });
}

std::optional<NodeId> GLoadSharing::find_migration_target(Cluster& cluster,
                                                          const RunningJob& job,
                                                          NodeId exclude) const {
  // Board-ranked (idle desc) with a live double-check: the destination must
  // still qualify at migration time, not just at the last exchange.
  metrics::perf_add(&metrics::PerfCounters::migration_scans);
  const cluster::LoadInfoBoard& board = cluster.board();
  const int cpu_threshold = cluster.config().cpu_threshold;
  // Migration preserves the job's width, so the destination needs that many
  // free slots (width 1 reduces to the old free-slot predicate).
  return board.best_max_idle([&](NodeId n) {
    const cluster::LoadInfo& info = board.info(n);
    if (n == exclude || info.pressured) return false;
    if (info.slots_used + job.width > cpu_threshold) return false;
    if (info.idle_memory <= 0 || info.idle_memory < job.demand) return false;
    const Workstation& live = cluster.node(n);
    return !live.failed() && !live.reserved() && !live.memory_pressured() &&
           live.fits(job.width, job.demand);
  });
}

bool GLoadSharing::try_migrate_from(Cluster& cluster, Workstation& node) {
  if (!options_.enable_migration) return false;
  const SimTime now = cluster.simulator().now();
  if (now - last_migration_[node.id()] < cluster.config().migration_cooldown) return false;

  // The victim is the most memory-intensive job — the paper's framework
  // calls find_most_memory_intensive_job() and migrates exactly that job.
  // When no workstation can hold it (the big-job case), the migration fails
  // and the node stays blocked: this is precisely the gap the virtual
  // reconfiguration exists to fill.
  if (node.migrating_jobs() > 0) return false;  // transfer already in flight
  RunningJob* victim = node.most_memory_intensive_job();
  if (victim == nullptr) return false;
  auto target = find_migration_target(cluster, *victim, node.id());
  if (!target) return false;
  if (!cluster.start_migration(node.id(), victim->id(), *target)) return false;
  last_migration_[node.id()] = now;
  return true;
}

void GLoadSharing::on_node_pressure(Cluster& cluster, Workstation& node) {
  if (!try_migrate_from(cluster, node)) ++failed_migrations_;
}

std::vector<std::pair<std::string, double>> GLoadSharing::stats() const {
  return {{"blocked_submissions", static_cast<double>(blocked_submissions_)},
          {"failed_migrations", static_cast<double>(failed_migrations_)}};
}

void GLoadSharing::on_periodic(Cluster& cluster) { retry_pending(cluster); }

void GLoadSharing::retry_pending(Cluster& cluster) {
  for (RunningJob* job : cluster.pending_jobs()) {
    if (!try_place(cluster, *job)) break;
  }
}

}  // namespace vrc::core
