#include "cluster/load_index.h"

#include <algorithm>
#include <sstream>

namespace vrc::cluster {

LoadInfoBoard::LoadInfoBoard(std::size_t num_nodes)
    : infos_(num_nodes),
      min_slots_max_idle_(num_nodes),
      max_idle_(num_nodes),
      live_count_(num_nodes) {
  // All nodes start live at the zero row, so both heaps hold every node.
  for (NodeId node = 0; node < num_nodes; ++node) {
    infos_[node].node = node;
    min_slots_max_idle_.upsert(node, key_for(Order::kMinSlotsMaxIdle, infos_[node]));
    max_idle_.upsert(node, key_for(Order::kMaxIdle, infos_[node]));
  }
}

IndexedHeap::Key LoadInfoBoard::key_for(Order order, const LoadInfo& info) {
  // Min-heap keys: descending components negated, ascending kept as-is.
  switch (order) {
    case Order::kMinSlotsMaxIdle:
      return {info.slots_used, -info.idle_memory};
    case Order::kMaxIdle:
      return {-info.idle_memory, 0};
  }
  return {};
}

void LoadInfoBoard::update(const LoadInfo& info) { publish(info); }

void LoadInfoBoard::note_placement(NodeId node, Bytes estimated_demand, int width) {
  LoadInfo next = infos_[node];
  next.slots_used += width;
  next.idle_memory = std::max<Bytes>(0, next.idle_memory - estimated_demand);
  publish(next);
}

void LoadInfoBoard::set_reserved(NodeId node, bool reserved) {
  LoadInfo next = infos_[node];
  next.reserved = reserved;
  publish(next);
}

Bytes LoadInfoBoard::average_user_memory() const {
  if (live_count_ == 0) return 0;
  return total_user_ / static_cast<Bytes>(live_count_);
}

void LoadInfoBoard::publish(const LoadInfo& next) {
  LoadInfo& row = infos_[next.node];
  if (!row.failed) {
    total_idle_ -= row.idle_memory;
    total_user_ -= row.user_memory;
    --live_count_;
  }
  row = next;
  if (!row.failed) {
    total_idle_ += row.idle_memory;
    total_user_ += row.user_memory;
    ++live_count_;
  }
  // Failed and reserved nodes leave the heaps entirely — every placement scan
  // skips both, so paying per-query filter probes for them would be waste.
  if (row.failed || row.reserved) {
    min_slots_max_idle_.erase(row.node);
    max_idle_.erase(row.node);
  } else {
    min_slots_max_idle_.upsert(row.node, key_for(Order::kMinSlotsMaxIdle, row));
    max_idle_.upsert(row.node, key_for(Order::kMaxIdle, row));
  }
}

bool LoadInfoBoard::audit_verify(std::string* why) const {
  const auto fail = [why](const std::string& message) {
    if (why != nullptr) *why = message;
    return false;
  };

  // O(1) totals vs brute-force sums over non-failed rows.
  Bytes idle_sum = 0;
  Bytes user_sum = 0;
  std::size_t live = 0;
  for (const LoadInfo& info : infos_) {
    if (info.failed) continue;
    idle_sum += info.idle_memory;
    user_sum += info.user_memory;
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

  // Heap membership must be exactly the live unreserved set, and every stored
  // key must be key_for() of the node's current row.
  const struct {
    const IndexedHeap& heap;
    Order order;
    const char* which;
  } heaps[] = {{min_slots_max_idle_, Order::kMinSlotsMaxIdle, "min-slots-max-idle"},
               {max_idle_, Order::kMaxIdle, "max-idle"}};
  for (const auto& entry : heaps) {
    for (const LoadInfo& info : infos_) {
      const bool eligible = !info.failed && !info.reserved;
      if (entry.heap.contains(info.node) != eligible) {
        std::ostringstream out;
        out << entry.which << " heap membership wrong for node " << info.node
            << ": contains=" << entry.heap.contains(info.node) << " but eligible=" << eligible
            << " (failed=" << info.failed << ", reserved=" << info.reserved << ")";
        return fail(out.str());
      }
      if (eligible && !entry.heap.audit_key_is(info.node, key_for(entry.order, info))) {
        std::ostringstream out;
        out << entry.which << " heap holds a stale key for node " << info.node
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
