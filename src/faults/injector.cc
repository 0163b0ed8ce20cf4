#include "faults/injector.h"

#include <algorithm>

#include "cluster/cluster.h"

namespace vrc::faults {

FaultInjector::FaultInjector(sim::Simulator& sim, cluster::Cluster& cluster,
                             const FaultPlan& plan)
    : sim_(sim), cluster_(cluster) {
  const std::vector<FaultEntry>& windows = plan.windows();
  std::uint64_t seq = sim_.reserve_sequence(2 * windows.size());
  // A time already past fires now, as Simulator::schedule_at clamps it.
  const auto clamped = [now = sim_.now()](SimTime at) { return at <= now ? now : at; };
  events_.reserve(2 * windows.size());
  for (const FaultEntry& window : windows) {
    events_.push_back({clamped(window.at), seq++, window.node, true});
    events_.push_back({clamped(window.at + window.duration), seq++, window.node, false});
  }
  std::sort(events_.begin(), events_.end(), [](const Event& a, const Event& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  });
  schedule_next();
}

FaultInjector::~FaultInjector() { sim_.cancel(pending_); }

void FaultInjector::schedule_next() {
  if (next_ == events_.size()) {
    pending_ = sim::kInvalidEventId;
    return;
  }
  const Event& event = events_[next_++];
  pending_ = sim_.schedule_reserved(event.at, event.seq, [this, &event] {
    // The next event goes in first, so while this one's transition runs the
    // queue holds the earliest fault still to come, as it would if every
    // event had been scheduled up front.
    schedule_next();
    if (event.fail) {
      cluster_.fail_node(event.node);
    } else {
      cluster_.recover_node(event.node);
    }
  });
}

}  // namespace vrc::faults
