#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#ifdef VRC_AUDIT
#include <cstdlib>

#include "util/log.h"
#endif

namespace vrc::sim {

std::uint32_t Simulator::alloc_slot_slow() {
  assert(num_slots_ < (1u << kSlotBits) && "event slab exhausted");
  if (num_slots_ == chunks_.size() * kChunkSize) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return num_slots_++;
}

EventId Simulator::commit_event(SimTime when, std::uint64_t seq, std::uint32_t index,
                                Slot& slot) {
  // `<=` (not `<`) so a -0.0 timestamp normalizes to now_: the key compare
  // treats time as raw IEEE bits, and -0.0 must not sort before 0.0.
  if (when <= now_) when = now_;
  slot.state = kLiveBit | seq;
  heap_push(make_key(when, seq, index));
  ++live_events_;
  return make_id(index, seq);
}

void Simulator::heap_push(HeapKey entry) {
  // Hole-based sift-up: shift parents down into the hole and place the new
  // entry once, instead of swap chains (3 copies per level -> 1).
  heap_.push_back(entry);
  std::size_t hole = heap_.size() - 1;
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    if (entry >= heap_[parent]) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = entry;
}

void Simulator::heap_pop_min() {
  const HeapKey moved = heap_.back();
  heap_.pop_back();
  const std::size_t size = heap_.size();
  if (size == 0) return;
  // Hole-based sift-down of the former last element from the root.
  std::size_t hole = 0;
  while (true) {
    const std::size_t first_child = hole * 4 + 1;
    if (first_child >= size) break;
    const std::size_t last_child = std::min(first_child + 4, size);
    std::size_t best = first_child;
    for (std::size_t child = first_child + 1; child < last_child; ++child) {
      if (heap_[child] < heap_[best]) best = child;
    }
    if (heap_[best] >= moved) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = moved;
}

void Simulator::compact_heap() {
  // More than half of the heap is cancelled tombstones: drop them in one
  // O(n) filter + bottom-up heapify pass instead of sifting each one out of
  // the root. Keeps cancel-heavy phases (node tick retractions, periodic
  // task teardown) linear instead of O(n log n).
  std::size_t kept = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    if (entry_live(heap_[i])) heap_[kept++] = heap_[i];
  }
  heap_.resize(kept);
  stale_entries_ = 0;
  if (kept < 2) return;
  for (std::size_t start = (kept - 2) / 4 + 1; start-- > 0;) {
    const HeapKey moved = heap_[start];
    std::size_t hole = start;
    while (true) {
      const std::size_t first_child = hole * 4 + 1;
      if (first_child >= kept) break;
      const std::size_t last_child = std::min(first_child + 4, kept);
      std::size_t best = first_child;
      for (std::size_t child = first_child + 1; child < last_child; ++child) {
        if (heap_[child] < heap_[best]) best = child;
      }
      if (heap_[best] >= moved) break;
      heap_[hole] = heap_[best];
      hole = best;
    }
    heap_[hole] = moved;
  }
}

bool Simulator::cancel(EventId id) {
  const std::uint32_t index = static_cast<std::uint32_t>(id >> kSeqBits);
  const std::uint64_t seq = id & kSeqMask;
  if (index >= num_slots_) return false;
  Slot& slot = slot_ref(index);
  if (slot.state != (kLiveBit | seq)) return false;
  slot.callback.reset();
  slot.state = free_head_;  // the heap entry goes stale and is purged on pop
  free_head_ = index;
  --live_events_;
  if (++stale_entries_ > heap_.size() / 2 && heap_.size() > 64) compact_heap();
  return true;
}

bool Simulator::settle_top() {
  while (!heap_.empty() && !entry_live(heap_[0])) {
    heap_pop_min();  // lazily discard cancelled entries
    --stale_entries_;
  }
  return !heap_.empty();
}

bool Simulator::fire_next() {
  for (;;) {
    if (heap_.empty()) return false;
    const HeapKey top = heap_[0];
    const std::uint32_t index = key_slot(top);
    // Touch the slot before the sift-down so its cache fill overlaps the
    // heap work (pop_min never touches the slab).
    Slot& slot = slot_ref(index);
    const bool live = slot.state == (kLiveBit | key_seq(top));
    heap_pop_min();
    if (!live) {
      --stale_entries_;  // cancelled entry: discard and keep looking
      continue;
    }
    // Dead but not yet linked into the free list: cancel() on the fired id
    // now misses, while a callback that schedules new events can never be
    // handed the cell whose callable is still executing.
    slot.state = 0;
    --live_events_;
    now_ = key_time(top);
    ++executed_;
    slot.callback.fire();  // in place: chunk addresses are stable
    slot.state = free_head_;
    free_head_ = index;
    return true;
  }
}

bool Simulator::step() {
  horizon_ = now_;  // the caller regains control after this one event
  return fire_next();
}

std::uint64_t Simulator::run() {
  horizon_ = kNever;
  std::uint64_t executed = 0;
  while (fire_next()) ++executed;
  return executed;
}

std::uint64_t Simulator::run_until(SimTime deadline) {
  horizon_ = deadline;
  std::uint64_t executed = 0;
  while (settle_top() && key_time(heap_[0]) <= deadline) {
    fire_next();
    ++executed;
  }
  if (now_ < deadline) now_ = deadline;
  return executed;
}

SimTime Simulator::next_time_except(EventId id) {
  SimTime next = kNever;
  if (settle_top()) {
    const HeapKey top = heap_[0];
    if (make_id(key_slot(top), key_seq(top)) != id) {
      next = key_time(top);
    } else {
      // Keys are unique, so popping the excluded entry and pushing the same
      // key back leaves the pop order unchanged.
      heap_pop_min();
      if (settle_top()) next = key_time(heap_[0]);
      heap_push(top);
    }
  }
#ifdef VRC_AUDIT
  SimTime scanned = kNever;
  for (const HeapKey entry : heap_) {
    if (entry_live(entry) && make_id(key_slot(entry), key_seq(entry)) != id) {
      scanned = std::min(scanned, key_time(entry));
    }
  }
  if (scanned != next) {
    VRC_LOG(kError) << "VRC_AUDIT failed (next_time_except): heap top says " << next
                    << ", a scan of every live entry says " << scanned;
    std::abort();
  }
#endif
  return next;
}

PeriodicTask::PeriodicTask(Simulator& sim, SimTime start, SimTime period, Callback callback)
    : sim_(sim), period_(period), callback_(std::move(callback)) {
  arm(start);
}

PeriodicTask::~PeriodicTask() { stop(); }

void PeriodicTask::arm(SimTime when) {
  pending_time_ = when;
  pending_ = sim_.schedule_at(when, [this] {
    if (!running_) return;
    const SimTime fired_at = sim_.now();
    arm(fired_at + period_);
    callback_(fired_at);
  });
}

std::uint64_t PeriodicTask::skip(std::uint64_t max_periods) {
  if (!running_) return 0;
  const SimTime bound = std::min(sim_.next_time_except(pending_), sim_.horizon());
  SimTime when = pending_time_;
  std::uint64_t periods = 0;
  while (periods < max_periods && when < bound) {
    when += period_;  // as arm() steps
    ++periods;
  }
  if (periods == 0) return 0;  // re-arming at the same time would lose its tie order
  sim_.cancel(pending_);
  arm(when);
  return periods;
}

void PeriodicTask::stop() {
  if (!running_) return;
  running_ = false;
  if (pending_ != kInvalidEventId) {
    sim_.cancel(pending_);
    pending_ = kInvalidEventId;
  }
}

}  // namespace vrc::sim
