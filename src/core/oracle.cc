#include "core/oracle.h"

namespace vrc::core {
namespace {

/// Admission against Workstation::future_committed(), the sum of the *peak*
/// working sets of everything on (or headed to) the node.
bool oracle_accepts(const Workstation& node, Bytes peak, int width) {
  if (node.failed() || node.reserved() || node.free_slots() < width ||
      node.memory_pressured()) {
    return false;
  }
  // The workstation maintains the future-committed sum incrementally, so
  // oracle admission is O(1).
  return node.future_committed() + peak < node.memory_limit();
}

}  // namespace

bool OracleDemands::try_place(Cluster& cluster, RunningJob& job) {
  // Perfect knowledge: admission is against the sum of everyone's *peak*
  // working sets, so no placement can ever grow into a collision.
  const Bytes peak = job.spec.working_set();
  Workstation& home = cluster.node(job.home_node);
  if (oracle_accepts(home, peak, job.width)) {
    cluster.place_local(job, home.id());
    return true;
  }
  // Least future-committed workstation that can take the full peak, lowest
  // id on a tie.
  const Workstation* best = nullptr;
  for (std::size_t i = 0; i < cluster.num_nodes(); ++i) {
    const Workstation& node = cluster.node(static_cast<NodeId>(i));
    if (node.id() == home.id() || !oracle_accepts(node, peak, job.width)) continue;
    if (best == nullptr || node.future_committed() < best->future_committed()) best = &node;
  }
  if (best == nullptr) return false;
  cluster.place_remote(job, best->id());
  return true;
}

}  // namespace vrc::core
