// Clean fixture for the settle-audit analyzer: every read of the parked
// state goes through a vrc:settles function, and counting the nodes is not
// a read of their state.
#pragma once

#include <memory>
#include <vector>

namespace fixture {

struct Node {
  int load = 0;
};

class Cluster {
 public:
  explicit Cluster(int count);
  Node& node(int id) { return settled(id); }
  std::size_t size() const { return nodes_.size(); }
  int total_load();
  void tick();  // vrc:settles

 private:
  Node& settled(int id) {  // vrc:settles
    settle(id);
    return *nodes_[id];
  }
  void settle(int id);  // vrc:settles

  std::vector<std::unique_ptr<Node>> nodes_;  // vrc:settle-before-read
  int ticks_ = 0;
};

}  // namespace fixture
