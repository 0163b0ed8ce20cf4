#include "cluster/indexed_heap.h"

#include <sstream>

#include "metrics/perf_counters.h"

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

}  // namespace vrc::cluster
