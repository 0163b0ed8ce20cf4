// Seeded fixture bodies: each SEED line reads a parked node's state without
// going through the settled accessor.
#include "cluster.h"

namespace fixture {

void Cluster::settle(int id) { ticks_ += nodes_[id]->load; }

void Cluster::tick() {
  for (auto& node : nodes_) node->load += 1;
}

int Cluster::total_load() const {
  int total = 0;
  for (const auto& node : nodes_) total += node->load;  // SEED: settle-before-read
  return total;
}

int Cluster::last_load() const {
  const Node& last = *nodes_.back();  // SEED: settle-before-read
  // NOLINT-settle-audit()  SEED: empty-nolint
  return last.load;
}

}  // namespace fixture
