#include "cluster/load_index.h"

#include <algorithm>
#include <sstream>

namespace vrc::cluster {

LoadInfoBoard::LoadInfoBoard(std::size_t num_nodes)
    : infos_(num_nodes),
      index_(num_nodes, ClusterIndex::Order::kMinSlotsMaxIdle, ClusterIndex::Order::kMaxIdle) {
  for (NodeId node = 0; node < num_nodes; ++node) infos_[node].node = node;
}

void LoadInfoBoard::update(const LoadInfo& info) {
  infos_[info.node] = info;
  publish(info.node);
}

void LoadInfoBoard::note_placement(NodeId node, Bytes estimated_demand, int width) {
  LoadInfo& info = infos_[node];
  info.slots_used += width;
  info.total_demand += estimated_demand;
  info.idle_memory = std::max<Bytes>(0, info.idle_memory - estimated_demand);
  publish(node);
}

void LoadInfoBoard::set_reserved(NodeId node, bool reserved) {
  infos_[node].reserved = reserved;
  publish(node);
}

Bytes LoadInfoBoard::average_user_memory() const {
  if (index_.live_count() == 0) return 0;
  return index_.total_user() / static_cast<Bytes>(index_.live_count());
}

ClusterIndex::NodeState LoadInfoBoard::state_from(const LoadInfo& info) {
  ClusterIndex::NodeState state;
  state.idle = info.idle_memory;
  state.user = info.user_memory;
  state.slots_used = info.slots_used;
  state.failed = info.failed;
  state.reserved = info.reserved;
  state.pressured = info.pressured;
  return state;
}

void LoadInfoBoard::publish(NodeId node) {
  index_.publish(node, state_from(infos_[node]));
}

bool LoadInfoBoard::audit_verify(std::string* why) const {
  const auto fail = [why](const std::string& message) {
    if (why != nullptr) *why = message;
    return false;
  };
  for (const LoadInfo& info : infos_) {
    const ClusterIndex::NodeState want = state_from(info);
    const NodeId node = info.node;
    if (index_.idle(node) != want.idle || index_.user(node) != want.user ||
        index_.slots_used(node) != want.slots_used ||
        index_.failed(node) != want.failed ||
        index_.reserved(node) != want.reserved ||
        index_.pressured(node) != want.pressured) {
      std::ostringstream out;
      out << "index row for node " << node
          << " does not match its LoadInfo snapshot (a writer skipped "
          << "publish(): idle " << index_.idle(node) << " vs " << want.idle
          << ", slots " << index_.slots_used(node) << " vs "
          << want.slots_used << ")";
      return fail(out.str());
    }
  }
  std::string index_why;
  if (!index_.audit_verify(&index_why)) {
    return fail("board index: " + index_why);
  }
  return true;
}

}  // namespace vrc::cluster
