// Seeded fixture for the settle-audit analyzer: a miniature cluster whose
// nodes may be parked, read through every shape the analyzer must catch.
#pragma once

#include <memory>
#include <vector>

namespace fixture {

struct Node {
  int load = 0;
};

class Cluster {
 public:
  Node& node(int id) { return settled(id); }
  std::size_t size() const { return nodes_.size(); }
  // Inline read that skips the accessor.
  int first_load() const { return nodes_[0]->load; }  // SEED: settle-before-read

  int total_load() const;
  int last_load() const;
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
