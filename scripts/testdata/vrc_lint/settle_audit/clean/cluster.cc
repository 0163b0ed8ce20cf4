// Clean fixture bodies: the constructor builds the nodes, the settling
// functions read them, and everything else goes through settled().
#include "cluster.h"

namespace fixture {

Cluster::Cluster(int count) {
  for (int i = 0; i < count; ++i) nodes_.push_back(std::make_unique<Node>());
}

void Cluster::settle(int id) { ticks_ += nodes_[id]->load; }

void Cluster::tick() {
  for (auto& node : nodes_) node->load += 1;
}

int Cluster::total_load() {
  int total = 0;
  for (int id = 0; id < static_cast<int>(nodes_.size()); ++id) total += settled(id).load;
  return total;
}

}  // namespace fixture
