// Fault injector: drives a Cluster through a FaultPlan.
//
// Pure event plumbing — the state transitions (killing jobs, dropping
// reservations, board updates) live in Cluster::fail_node / recover_node.
// Construct one next to the Cluster before running the simulator; runs
// without faults simply never construct an injector, which keeps the
// no-faults event stream bit-identical to builds predating this subsystem.
#pragma once

#include <cstdint>
#include <vector>

#include "faults/fault_plan.h"
#include "sim/simulator.h"

namespace vrc::cluster {
class Cluster;
}

namespace vrc::faults {

/// Fires one fail event at each window start and one recover event at its
/// end. A plan may hold hundreds of windows out to the run's horizon, so
/// only the earliest unfired event sits in the simulator's queue
/// (DESIGN.md §10.1). Every event keeps the (time, sequence number) key it
/// would have had if all were scheduled at construction: the numbers are
/// reserved then, in plan order with each fail before its recover, so
/// equal-time ties with other events fire in the same order. Cancels its
/// pending event on destruction, so tearing down an injector mid-run never
/// leaves a callback aimed at a dead cluster.
class FaultInjector {
 public:
  FaultInjector(sim::Simulator& sim, cluster::Cluster& cluster, const FaultPlan& plan);
  ~FaultInjector();
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  std::size_t windows_scheduled() const { return events_.size() / 2; }

 private:
  /// One transition, with the sequence number reserved for it.
  struct Event {
    SimTime at = 0.0;
    std::uint64_t seq = 0;
    NodeId node = 0;
    bool fail = false;
  };

  /// Schedules events_[next_], if any, under its reserved number.
  void schedule_next();

  sim::Simulator& sim_;
  cluster::Cluster& cluster_;
  std::vector<Event> events_;  // by (at, seq): the order they fire in
  std::size_t next_ = 0;       // the first event not yet scheduled
  sim::EventId pending_ = sim::kInvalidEventId;
};

}  // namespace vrc::faults
