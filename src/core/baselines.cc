#include "core/baselines.h"

namespace vrc::core {

bool LocalOnly::try_place(Cluster& cluster, RunningJob& job) {
  Workstation& home = cluster.node(job.home_node);
  // A failed home node accepts nothing; the job waits out the outage in the
  // pending queue (there is no remote path in this baseline).
  if (home.failed()) return false;
  // Conventional multiprogramming: only the CPU threshold gates admission;
  // memory oversubscription simply thrashes. Wide (malleable) jobs need
  // their full width in slots — width 1 reduces to the old predicate.
  if (home.free_slots() >= job.width) {
    cluster.place_local(job, home.id());
    return true;
  }
  return false;
}

void LocalOnly::on_job_arrival(Cluster& cluster, RunningJob& job) { try_place(cluster, job); }

void LocalOnly::on_periodic(Cluster& cluster) {
  for (RunningJob* job : cluster.pending_jobs()) {
    try_place(cluster, *job);  // each home queue drains independently
  }
}

void SuspensionPolicy::attach(Cluster& cluster) {
  GLoadSharing::attach(cluster);
  // The suspended list references jobs of the previous run's cluster; a
  // reused policy must not try to resume them (nor report stale counters).
  suspended_.clear();
  suspensions_ = 0;
  resumes_ = 0;
}

void SuspensionPolicy::on_node_pressure(Cluster& cluster, Workstation& node) {
  if (try_migrate_from(cluster, node)) return;
  ++failed_migrations_;
  if (node.active_jobs() <= options_.min_runnable) return;
  RunningJob* victim = node.most_memory_intensive_job();
  if (victim == nullptr) return;
  if (cluster.suspend_job(node.id(), victim->id())) {
    suspended_.push_back({node.id(), victim->id()});
    ++suspensions_;
  }
}

std::vector<std::pair<std::string, double>> SuspensionPolicy::stats() const {
  auto stats = GLoadSharing::stats();
  stats.emplace_back("suspensions", static_cast<double>(suspensions_));
  stats.emplace_back("resumes", static_cast<double>(resumes_));
  return stats;
}

void SuspensionPolicy::on_periodic(Cluster& cluster) {
  GLoadSharing::on_periodic(cluster);
  // Resume suspended jobs (oldest first) once their node has room again.
  for (std::size_t i = 0; i < suspended_.size();) {
    const Suspended entry = suspended_[i];
    Workstation& node = cluster.node(entry.node);
    RunningJob* job = node.find_job(entry.job, cluster::JobPhase::kSuspended);
    if (job == nullptr) {
      suspended_.erase(suspended_.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    // A suspended job resumes at the width it held.
    const bool room = node.fits(job->width, job->demand) && !node.memory_pressured();
    if (room && cluster.resume_job(entry.node, entry.job)) {
      ++resumes_;
      suspended_.erase(suspended_.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    ++i;
  }
}

}  // namespace vrc::core
