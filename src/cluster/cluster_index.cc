#include "cluster/cluster_index.h"

#include <sstream>

namespace vrc::cluster {

void IndexedHeap::upsert(NodeId node, Key key) {
  metrics::perf_add(&metrics::PerfCounters::heap_upserts);
  const std::int32_t slot = pos_[node];
  if (slot == kAbsent) {
    heap_.push_back(Entry{key, node});
    pos_[node] = static_cast<std::int32_t>(heap_.size() - 1);
    sift_up(heap_.size() - 1);
    return;
  }
  const std::size_t at = static_cast<std::size_t>(slot);
  heap_[at].key = key;
  sift_up(at);
  sift_down(static_cast<std::size_t>(pos_[node]));
}

void IndexedHeap::erase(NodeId node) {
  const std::int32_t slot = pos_[node];
  if (slot == kAbsent) return;
  metrics::perf_add(&metrics::PerfCounters::heap_erases);
  const std::size_t at = static_cast<std::size_t>(slot);
  const std::size_t last = heap_.size() - 1;
  pos_[node] = kAbsent;
  if (at != last) {
    const NodeId moved = heap_[last].node;
    place(at, heap_[last]);
    heap_.pop_back();
    sift_up(at);
    sift_down(static_cast<std::size_t>(pos_[moved]));
  } else {
    heap_.pop_back();
  }
}

void IndexedHeap::sift_up(std::size_t slot) {
  Entry entry = heap_[slot];
  while (slot > 0) {
    const std::size_t parent = (slot - 1) / 2;
    if (!precedes(entry, heap_[parent])) break;
    place(slot, heap_[parent]);
    slot = parent;
  }
  place(slot, entry);
}

void IndexedHeap::sift_down(std::size_t slot) {
  Entry entry = heap_[slot];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * slot + 1;
    if (child >= n) break;
    if (child + 1 < n && precedes(heap_[child + 1], heap_[child])) ++child;
    if (!precedes(heap_[child], entry)) break;
    place(slot, heap_[child]);
    slot = child;
  }
  place(slot, entry);
}

bool IndexedHeap::audit_invariants(std::string* why) const {
  const auto fail = [why](const std::string& message) {
    if (why != nullptr) *why = message;
    return false;
  };
  for (std::size_t slot = 1; slot < heap_.size(); ++slot) {
    const std::size_t parent = (slot - 1) / 2;
    if (precedes(heap_[slot], heap_[parent])) {
      std::ostringstream out;
      out << "heap property violated: slot " << slot << " (node "
          << heap_[slot].node << ") precedes its parent slot " << parent
          << " (node " << heap_[parent].node << ")";
      return fail(out.str());
    }
  }
  for (std::size_t slot = 0; slot < heap_.size(); ++slot) {
    const NodeId node = heap_[slot].node;
    if (static_cast<std::size_t>(node) >= pos_.size() ||
        pos_[node] != static_cast<std::int32_t>(slot)) {
      std::ostringstream out;
      out << "position map broken: heap slot " << slot << " holds node "
          << node << " but pos_[" << node << "] is "
          << (static_cast<std::size_t>(node) < pos_.size() ? pos_[node]
                                                           : kAbsent);
      return fail(out.str());
    }
  }
  std::size_t resident = 0;
  for (const std::int32_t slot : pos_) {
    if (slot != kAbsent) ++resident;
  }
  if (resident != heap_.size()) {
    std::ostringstream out;
    out << "position map counts " << resident << " resident nodes but the "
        << "heap holds " << heap_.size();
    return fail(out.str());
  }
  return true;
}

bool IndexedHeap::audit_key_is(NodeId node, Key key) const {
  const std::int32_t slot = pos_[node];
  if (slot == kAbsent) return false;
  const Key& stored = heap_[static_cast<std::size_t>(slot)].key;
  return stored.primary == key.primary && stored.secondary == key.secondary;
}

std::optional<NodeId> IndexedHeap::audit_linear_min() const {
  if (heap_.empty()) return std::nullopt;
  std::size_t best = 0;
  for (std::size_t slot = 1; slot < heap_.size(); ++slot) {
    if (precedes(heap_[slot], heap_[best])) best = slot;
  }
  return heap_[best].node;
}

ClusterIndex::ClusterIndex(std::size_t num_nodes, Order first, Order second)
    : first_order_(first),
      second_order_(second),
      idle_(num_nodes, 0),
      user_(num_nodes, 0),
      slots_(num_nodes, 0),
      flags_(num_nodes, 0),
      live_count_(num_nodes),
      first_(num_nodes),
      second_(num_nodes) {
  // All nodes start live with zeroed load, mirroring a fresh board/cluster.
  for (NodeId node = 0; node < num_nodes; ++node) {
    first_.upsert(node, key_for(first_order_, NodeState{}));
    second_.upsert(node, key_for(second_order_, NodeState{}));
  }
}

IndexedHeap::Key ClusterIndex::key_for(Order order, const NodeState& state) {
  // Min-heap keys: descending components negated, ascending kept as-is.
  switch (order) {
    case Order::kMinSlotsMaxIdle:
      return {state.slots_used, -state.idle};
    case Order::kMaxIdle:
      return {-state.idle, 0};
  }
  return {};
}

void ClusterIndex::publish(NodeId node, const NodeState& state) {
  const bool was_failed = failed(node);
  if (!was_failed) {
    total_idle_ -= idle_[node];
    total_user_ -= user_[node];
    --live_count_;
  }
  idle_[node] = state.idle;
  user_[node] = state.user;
  slots_[node] = state.slots_used;
  flags_[node] = static_cast<std::uint8_t>((state.failed ? kFailedFlag : 0) |
                                           (state.reserved ? kReservedFlag : 0) |
                                           (state.pressured ? kPressuredFlag : 0));
  if (!state.failed) {
    total_idle_ += state.idle;
    total_user_ += state.user;
    ++live_count_;
  }
  // Failed and reserved nodes leave the heaps entirely — every placement scan
  // skips both, so paying per-query filter probes for them would be waste.
  if (state.failed || state.reserved) {
    first_.erase(node);
    second_.erase(node);
  } else {
    first_.upsert(node, key_for(first_order_, state));
    second_.upsert(node, key_for(second_order_, state));
  }
}

bool ClusterIndex::audit_verify(std::string* why) const {
  const auto fail = [why](const std::string& message) {
    if (why != nullptr) *why = message;
    return false;
  };
  const std::size_t n = size();

  // O(1) totals vs brute-force sums over non-failed rows.
  Bytes idle_sum = 0;
  Bytes user_sum = 0;
  std::size_t live = 0;
  for (std::size_t node = 0; node < n; ++node) {
    const NodeId id = static_cast<NodeId>(node);
    if (failed(id)) continue;
    idle_sum += idle_[node];
    user_sum += user_[node];
    ++live;
  }
  if (idle_sum != total_idle_ || user_sum != total_user_ || live != live_count_) {
    std::ostringstream out;
    out << "aggregate drift: totals are (idle " << total_idle_ << ", user "
        << total_user_ << ", live " << live_count_
        << ") but brute-force sums are (idle " << idle_sum << ", user "
        << user_sum << ", live " << live << ")";
    return fail(out.str());
  }

  // Heap membership must be exactly the live non-reserved set, and every
  // stored key must be key_for() of the node's current SoA row.
  const auto row_state = [this](NodeId node) {
    NodeState state;
    state.idle = idle_[node];
    state.user = user_[node];
    state.slots_used = slots_[node];
    state.failed = failed(node);
    state.reserved = reserved(node);
    state.pressured = pressured(node);
    return state;
  };
  const struct {
    const IndexedHeap& heap;
    Order order;
    const char* which;
  } heaps[] = {{first_, first_order_, "first"},
               {second_, second_order_, "second"}};
  for (const auto& entry : heaps) {
    for (std::size_t node = 0; node < n; ++node) {
      const NodeId id = static_cast<NodeId>(node);
      const bool eligible = !failed(id) && !reserved(id);
      if (entry.heap.contains(id) != eligible) {
        std::ostringstream out;
        out << entry.which << " heap membership wrong for node " << id
            << ": contains=" << entry.heap.contains(id) << " but eligible="
            << eligible << " (failed=" << failed(id) << ", reserved="
            << reserved(id) << ")";
        return fail(out.str());
      }
      if (eligible && !entry.heap.audit_key_is(id, key_for(entry.order,
                                                           row_state(id)))) {
        std::ostringstream out;
        out << entry.which << " heap holds a stale key for node " << id
            << " (stored key != key_for of the current row)";
        return fail(out.str());
      }
    }
    std::string heap_why;
    if (!entry.heap.audit_invariants(&heap_why)) {
      std::ostringstream out;
      out << entry.which << " heap: " << heap_why;
      return fail(out.str());
    }
    // The pruned best() must agree with a linear argmin; both are total
    // orders, so equality is exact, not approximate.
    const std::optional<NodeId> pruned =
        entry.heap.best([](NodeId) { return true; });
    const std::optional<NodeId> brute = entry.heap.audit_linear_min();
    if (pruned != brute) {
      std::ostringstream out;
      out << entry.which << " heap minimum disagrees: pruned best() says "
          << (pruned ? static_cast<std::int64_t>(*pruned) : -1)
          << " but the linear argmin is "
          << (brute ? static_cast<std::int64_t>(*brute) : -1);
      return fail(out.str());
    }
  }
  return true;
}

}  // namespace vrc::cluster
