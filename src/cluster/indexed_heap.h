// Indexed heap for O(log n) placement decisions.
//
// The distributed schedulers' placement decisions are "best workstation under
// a filter" queries over the load-information board: least-loaded submission
// target and largest-idle migration destination. The original implementation
// answered each with an O(nodes) linear walk, which was fine for the paper's
// 32 workstations and is not for the 10k-node clusters the roadmap targets.
//
// LoadInfoBoard keeps one IndexedHeap per key schema the policies rank by.
// Heaps support in-place key decrease/increase through a node -> slot
// position map, so every re-key is O(log n) and every query is exact:
// `best(filter)` returns precisely the node the old linear scan would have
// picked, because each key schema is a *total* order (ties broken by
// ascending node id, which is the tie-break a first-match linear walk over
// node order implements). See DESIGN.md §11.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "workload/job.h"

namespace vrc::cluster {

using workload::NodeId;

/// Binary min-heap over per-node keys with a position map for in-place
/// updates. "Smaller key" means "better candidate"; descending components are
/// encoded by negating them. The final tie-break is the ascending node id
/// stored in the entry, making the order total.
class IndexedHeap {
 public:
  struct Key {
    std::int64_t primary = 0;
    std::int64_t secondary = 0;
  };

  explicit IndexedHeap(std::size_t num_nodes) : pos_(num_nodes, kAbsent) {}

  bool contains(NodeId node) const { return pos_[node] != kAbsent; }
  std::size_t size() const { return heap_.size(); }

  /// Inserts `node` or moves it to its new key in place (sifting whichever
  /// direction the key changed toward).
  void upsert(NodeId node, Key key);

  /// Removes `node`; no-op when absent (e.g. failing an already-evicted
  /// reserved node).
  void erase(NodeId node);

  /// The best (minimum-key) node satisfying `keep`, or nullopt. Exact: a
  /// pruned depth-first walk of the heap array that descends only through
  /// entries still able to beat the current best, so the returned node is the
  /// true optimum over the filtered set — not an approximation. Typical cost
  /// is O(log n) plus one probe per better-keyed node the filter rejects;
  /// the worst case (filter rejects everything) degrades to the old linear
  /// scan, never below it.
  template <typename Filter>
  std::optional<NodeId> best(Filter&& keep) const {
    scratch_.clear();
    if (!heap_.empty()) scratch_.push_back(0);
    std::size_t best_slot = 0;
    bool found = false;
    while (!scratch_.empty()) {
      const std::size_t slot = scratch_.back();
      scratch_.pop_back();
      if (found && !precedes(heap_[slot], heap_[best_slot])) continue;
      if (keep(heap_[slot].node)) {
        // Heap property: every descendant key is >= this one, so nothing
        // below can improve on a qualifying entry.
        best_slot = slot;
        found = true;
        continue;
      }
      const std::size_t left = 2 * slot + 1;
      if (left < heap_.size()) scratch_.push_back(left);
      if (left + 1 < heap_.size()) scratch_.push_back(left + 1);
    }
    if (!found) return std::nullopt;
    return heap_[best_slot].node;
  }

  // --- shadow-audit surface (DESIGN.md §13.5) ---
  // Compiled in every build so the default build can unit-test it; the
  // simulation only calls it from the #ifdef VRC_AUDIT sites in Cluster.

  /// Structural sweep: heap property at every slot, and the position map is
  /// an exact bijection with the heap array. Returns false and describes the
  /// first violation in `why` (when non-null).
  bool audit_invariants(std::string* why) const;

  /// True when `node` is resident with exactly this key — catches an upsert
  /// that repositioned a node without rewriting its stored key (or vice
  /// versa).
  bool audit_key_is(NodeId node, Key key) const;

  /// Brute-force linear argmin over all entries (no heap pruning); the
  /// cross-check reference for best().
  std::optional<NodeId> audit_linear_min() const;

 private:
  struct Entry {
    Key key;
    NodeId node = 0;
  };

  static constexpr std::int32_t kAbsent = -1;

  static bool precedes(const Entry& a, const Entry& b) {
    if (a.key.primary != b.key.primary) return a.key.primary < b.key.primary;
    if (a.key.secondary != b.key.secondary) return a.key.secondary < b.key.secondary;
    return a.node < b.node;
  }

  void sift_up(std::size_t slot);
  void sift_down(std::size_t slot);
  void place(std::size_t slot, Entry entry) {
    heap_[slot] = entry;
    pos_[entry.node] = static_cast<std::int32_t>(slot);
  }

  std::vector<Entry> heap_;
  std::vector<std::int32_t> pos_;  // node -> heap slot, kAbsent when evicted
  /// Reused DFS stack for best(); mutable so const queries stay
  /// allocation-free after warm-up (single-threaded by design, like the rest
  /// of the simulation).
  mutable std::vector<std::size_t> scratch_;
};

}  // namespace vrc::cluster
