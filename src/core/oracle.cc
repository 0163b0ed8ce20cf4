#include "core/oracle.h"

namespace vrc::core {

Bytes OracleDemands::future_committed(const Workstation& node) const {
  // The workstation maintains this sum incrementally (reservations plus the
  // peak working set of every resident job), so oracle admission is O(1).
  return node.future_committed();
}

bool OracleDemands::oracle_accepts(const Cluster& cluster, const Workstation& node, Bytes peak,
                                   int width) const {
  if (node.failed() || node.reserved() || node.free_slots() < width ||
      node.memory_pressured()) {
    return false;
  }
  const Bytes limit = saturating_bytes(cluster.config().memory_threshold *
                                       static_cast<double>(node.user_memory()));
  return future_committed(node) + peak < limit;
}

bool OracleDemands::try_place_oracle(Cluster& cluster, RunningJob& job) {
  // Perfect knowledge: admission is against the sum of everyone's *peak*
  // working sets, so no placement can ever grow into a collision.
  const Bytes peak = job.spec->working_set();
  Workstation& home = cluster.node(job.home_node);
  if (oracle_accepts(cluster, home, peak, job.width)) {
    cluster.place_local(job, home.id());
    return true;
  }
  // Least future-committed workstation that can take the full peak, lowest
  // id on a tie.
  const Workstation* best = nullptr;
  for (std::size_t i = 0; i < cluster.num_nodes(); ++i) {
    const Workstation& node = cluster.node(static_cast<NodeId>(i));
    if (node.id() == home.id() || !oracle_accepts(cluster, node, peak, job.width)) continue;
    if (best == nullptr || future_committed(node) < future_committed(*best)) best = &node;
  }
  if (best == nullptr) return false;
  cluster.place_remote(job, best->id());
  return true;
}

void OracleDemands::on_job_arrival(Cluster& cluster, RunningJob& job) {
  if (!try_place_oracle(cluster, job)) ++blocked_submissions_;
}

void OracleDemands::on_periodic(Cluster& cluster) {
  for (RunningJob* job : cluster.pending_jobs()) {
    if (!try_place_oracle(cluster, *job)) break;
  }
}

}  // namespace vrc::core
