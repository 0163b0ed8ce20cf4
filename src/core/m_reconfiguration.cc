#include "core/m_reconfiguration.h"

#include <algorithm>
#include <limits>

#include "util/log.h"

namespace vrc::core {

namespace {

/// Slots a node could free by shrinking its running malleable jobs to their
/// minimum widths.
int shrinkable_slack(const Workstation& node) {
  int slack = 0;
  for (const auto& resident : node.jobs()) {
    if (resident->phase != cluster::JobPhase::kRunning) continue;
    const workload::Malleability& contract = resident->spec.malleability;
    if (!contract.resizable()) continue;
    slack += resident->width - contract.min_width;
  }
  return slack;
}

}  // namespace

void MReconfiguration::attach(Cluster& cluster) {
  GLoadSharing::attach(cluster);
  last_resize_.assign(cluster.num_nodes(), -1e18);
  shrunk_.clear();
  shrinks_started_ = 0;
  grows_started_ = 0;
  blocked_time_saved_ = 0.0;
}

bool MReconfiguration::cooled_down(Cluster& cluster, NodeId node) const {
  return cluster.simulator().now() - last_resize_[node] >= options_.resize_cooldown;
}

bool MReconfiguration::shrink_to_admit(Cluster& cluster, RunningJob& job) {
  const Bytes hint = std::max(job.demand, cluster.config().admission_demand_estimate);

  // Candidate nodes: slot-bound (the memory half of admission passes, only
  // slots are missing) with enough shrinkable width to cover the deficit.
  // Shrinking frees CPU shares, never memory, so a memory-bound block cannot
  // be cured here — that stays the virtual reconfiguration's territory.
  NodeId best_node = workload::kInvalidNode;
  int best_slack = 0;
  for (std::size_t i = 0; i < cluster.num_nodes(); ++i) {
    const NodeId candidate = static_cast<NodeId>(i);
    const Workstation& node = cluster.node(candidate);
    if (node.failed() || node.reserved() || node.memory_pressured()) continue;
    if (!cooled_down(cluster, candidate)) continue;
    if (node.committed_demand() + hint >= node.memory_limit()) continue;
    const int missing = job.width - node.free_slots();
    if (missing <= 0) continue;  // not slot-bound: admission failed on memory
    const int slack = shrinkable_slack(node);
    if (slack < missing) continue;
    if (slack > best_slack) {
      best_slack = slack;
      best_node = candidate;
    }
  }
  if (best_node == workload::kInvalidNode) return false;

  Workstation& node = cluster.node(best_node);
  int missing = job.width - node.free_slots();

  // Without shrinking, the blocked job's next chance at this node is the
  // earliest completion among its running jobs; credit that avoided wait
  // (minus the reconfiguration pause) to blocked_time_saved.
  SimTime min_remaining = std::numeric_limits<SimTime>::max();
  for (const auto& resident : node.jobs()) {
    if (resident->phase != cluster::JobPhase::kRunning) continue;
    min_remaining =
        std::min(min_remaining, resident->remaining_cpu() / node.speed_factor());
  }

  bool any = false;
  SimTime first_pause = 0.0;
  // Shrink widest-first: the widest job frees the most slots per pause.
  while (missing > 0) {
    RunningJob* victim = nullptr;
    for (const auto& resident : node.jobs()) {
      if (resident->phase != cluster::JobPhase::kRunning) continue;
      const workload::Malleability& contract = resident->spec.malleability;
      if (!contract.resizable() || resident->width <= contract.min_width) continue;
      if (victim == nullptr || resident->width > victim->width) victim = resident.get();
    }
    if (victim == nullptr) break;
    const workload::Malleability& contract = victim->spec.malleability;
    const int old_width = victim->width;
    const int target = std::max(contract.min_width, old_width - missing);
    if (!cluster.resize_job(best_node, victim->id(), target)) break;
    missing -= old_width - target;
    ++shrinks_started_;
    shrunk_.push_back({best_node, victim->id()});
    if (!any) first_pause = cluster.resize_pause(contract, old_width, target);
    any = true;
  }
  if (any) {
    last_resize_[best_node] = cluster.simulator().now();
    if (min_remaining < std::numeric_limits<SimTime>::max()) {
      blocked_time_saved_ += std::max(0.0, min_remaining - first_pause);
    }
    VRC_LOG(kInfo) << "t=" << cluster.simulator().now() << " shrink wave on node "
                   << best_node << " to admit blocked job " << job.id();
  }
  return any;
}

void MReconfiguration::maybe_regrow(Cluster& cluster) {
  if (cluster.pending_count() != 0) return;  // admissions outrank growth
  const SimTime now = cluster.simulator().now();
  for (std::size_t i = 0; i < shrunk_.size();) {
    const Shrunk entry = shrunk_[i];
    Workstation& node = cluster.node(entry.node);
    RunningJob* job = node.find_job(entry.job);
    if (job == nullptr) {
      // Completed, killed, or moved without notice: nothing left to grow.
      shrunk_.erase(shrunk_.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    const workload::Malleability& contract = job->spec.malleability;
    if (job->width >= contract.max_width) {
      shrunk_.erase(shrunk_.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    if (job->phase != cluster::JobPhase::kRunning || !cooled_down(cluster, entry.node)) {
      ++i;
      continue;
    }
    const int headroom = node.free_slots() - options_.regrow_free_slots;
    if (headroom <= 0) {
      ++i;
      continue;
    }
    const int target = std::min(contract.max_width, job->width + headroom);
    if (cluster.resize_job(entry.node, entry.job, target)) {
      ++grows_started_;
      last_resize_[entry.node] = now;
      if (target == contract.max_width) {
        shrunk_.erase(shrunk_.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
    }
    ++i;
  }
}

void MReconfiguration::on_periodic(Cluster& cluster) {
  GLoadSharing::on_periodic(cluster);  // FIFO retry of blocked submissions
  const SimTime now = cluster.simulator().now();
  for (RunningJob* job : cluster.pending_jobs()) {
    // pending_jobs() is oldest-first; younger jobs cannot have aged past the
    // threshold once one is below it.
    if (now - job->accounted_until < options_.shrink_threshold) break;
    if (shrink_to_admit(cluster, *job)) break;  // one shrink wave per pulse
  }
  maybe_regrow(cluster);
}

void MReconfiguration::on_resize_complete(Cluster& cluster, RunningJob& job) {
  (void)job;
  // The slots a shrink released became usable this instant; re-offer the
  // blocked queue in FIFO order.
  retry_pending(cluster);
}

void MReconfiguration::on_migration_complete(Cluster& cluster, RunningJob& job) {
  GLoadSharing::on_migration_complete(cluster, job);
  // A shrunk job that migrated owes its re-grow on the new node.
  for (Shrunk& entry : shrunk_) {
    if (entry.job == job.id()) {
      entry.node = job.node;
      break;
    }
  }
}

std::vector<std::pair<std::string, double>> MReconfiguration::stats() const {
  auto stats = GLoadSharing::stats();
  stats.emplace_back("shrinks_started", static_cast<double>(shrinks_started_));
  stats.emplace_back("grows_started", static_cast<double>(grows_started_));
  stats.emplace_back("blocked_time_saved", blocked_time_saved_);
  return stats;
}

}  // namespace vrc::core
