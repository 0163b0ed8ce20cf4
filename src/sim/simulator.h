// Discrete-event simulation core.
//
// The Simulator owns a hand-rolled 4-ary min-heap of timestamped events whose
// payloads live in a chunked slab with a free-list. Components (workstations,
// load-information exchangers, samplers, the trace replayer) schedule events
// against it; the run loop pops events in (time, insertion order) and
// executes them. EventIds are sequence-tagged slot references, so cancel()
// is an O(1) slot check — no hashing, no tombstone buildup in a side table.
// See DESIGN.md "Engine internals & performance envelope" for the layout.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <type_traits>
#include <vector>

#include "sim/event_callback.h"
#include "util/units.h"

namespace vrc::sim {

/// Handle for a scheduled event; used to cancel it before it fires.
/// Encodes (slot index << 40 | sequence number); sequence numbers start at 1
/// and are unique per event, so the id is never 0 and a stale handle can
/// never alias a later event.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEventId = 0;

/// Event-driven simulation executive.
///
/// Time is double seconds starting at 0. Events scheduled at equal times fire
/// in insertion order (FIFO), which keeps runs deterministic.
class Simulator {
 public:
  using Callback = EventCallback;

  /// A time no event reaches.
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::infinity();

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time (the timestamp of the event being executed, or
  /// of the last executed event between runs).
  SimTime now() const { return now_; }

  /// Schedules `callback` at absolute time `when`. `when` must be >= now();
  /// an earlier time is clamped to now() (fires next). The callable is
  /// constructed directly inside the event slab (no intermediate moves).
  template <typename F, typename = std::enable_if_t<
                            std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule_at(SimTime when, F&& callback) {
    return schedule_reserved(when, reserve_sequence(1), std::forward<F>(callback));
  }

  /// Reserves `n` consecutive sequence numbers and returns the first. An
  /// event later scheduled under one of them through schedule_reserved()
  /// takes the place among equal-time events that it would have taken had
  /// it been scheduled now, so a component can keep a long schedule out of
  /// the heap and insert each event lazily in the same order.
  std::uint64_t reserve_sequence(std::uint64_t n) {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    assert(next_seq_ - 1 <= kSeqMask && "event sequence space exhausted");
    return first;
  }

  /// schedule_at() under a number from reserve_sequence(), each number used
  /// at most once.
  template <typename F, typename = std::enable_if_t<
                            std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule_reserved(SimTime when, std::uint64_t seq, F&& callback) {
    assert(seq != 0 && seq < next_seq_ && "schedule_reserved needs a reserved number");
    const std::uint32_t index = alloc_slot();
    Slot& slot = slot_ref(index);
    slot.callback.emplace(std::forward<F>(callback));
    return commit_event(when, seq, index, slot);
  }

  /// Schedules `callback` after a relative delay (>= 0).
  template <typename F, typename = std::enable_if_t<
                            std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule_after(SimTime delay, F&& callback) {
    if (delay < 0.0) delay = 0.0;
    return schedule_at(now_ + delay, std::forward<F>(callback));
  }

  /// Cancels a pending event. Returns true if the event existed and had not
  /// yet fired. Cancelling an already-fired or invalid id is a no-op.
  bool cancel(EventId id);

  /// Runs until the queue drains. Returns the number of events executed.
  std::uint64_t run();

  /// Runs events with time <= `deadline`; after returning, now() == deadline
  /// if the simulation reached it. Returns the number of events executed.
  std::uint64_t run_until(SimTime deadline);

  /// Executes exactly one event if available. Returns false if the queue is
  /// empty (after purging cancelled entries).
  bool step();

  /// True when no live events remain.
  bool empty() const { return live_events_ == 0; }

  /// Number of live (non-cancelled, unfired) events.
  std::uint64_t pending_events() const { return live_events_; }

  /// Total events executed since construction.
  std::uint64_t executed_events() const { return executed_; }

  /// Time of the earliest live event other than `id`, or kNever. Does not
  /// change the order in which events fire.
  SimTime next_time_except(EventId id);

  /// The latest time the running call fires events up to before it returns
  /// to its caller: kNever under run(), the deadline under run_until(), and
  /// no later than the fired event's time under step().
  SimTime horizon() const { return horizon_; }

 private:
  /// EventId / heap-key bit budget: 24 bits of slot index (16.7M concurrent
  /// events, ~1 GiB of slab) and 40 bits of sequence number (1.1e12 events
  /// per run before wrap — about five orders of magnitude beyond the largest
  /// experiment sweep).
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kSeqBits = 40;
  static constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kSeqBits) - 1;
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  /// Set in Slot::state while the slot holds a pending event.
  static constexpr std::uint64_t kLiveBit = std::uint64_t{1} << 63;
  /// Slots per slab chunk (16 KiB chunks). Chunking keeps slot addresses
  /// stable across growth, which is what lets fire_next() fire callbacks in place
  /// instead of moving them out first.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  /// Slab cell holding a pending event's payload. `state` doubles as the
  /// liveness tag and the free-list link: (kLiveBit | seq) while the slot
  /// holds the pending event with that sequence number, the next free slot
  /// index (or kNilSlot) while free. One 64-bit compare validates an
  /// EventId or heap entry.
  struct Slot {
    EventCallback callback;
    std::uint64_t state = kNilSlot;
  };
  static_assert(sizeof(Slot) == 64, "event slot must stay one cache line");

  /// Heap key: (when, seq, slot) packed into one 128-bit integer, so a heap
  /// entry IS its key — 16 bytes moved per sift level and a single
  /// branchless comparison. Simulation time is always >= 0, so the IEEE-754
  /// bit pattern of `when` is monotone in its value and can be compared as
  /// an unsigned integer. The sequence number gives equal-time events FIFO
  /// order; the slot index sits below it and never affects ordering because
  /// sequence numbers are unique.
  using HeapKey = unsigned __int128;

  static HeapKey make_key(SimTime when, std::uint64_t seq, std::uint32_t slot) {
    std::uint64_t when_bits = 0;
    static_assert(sizeof(when_bits) == sizeof(when));
    std::memcpy(&when_bits, &when, sizeof(when_bits));
    return (static_cast<HeapKey>(when_bits) << 64) | (seq << kSlotBits) | slot;
  }

  static SimTime key_time(HeapKey key) {
    const std::uint64_t when_bits = static_cast<std::uint64_t>(key >> 64);
    SimTime when = 0.0;
    std::memcpy(&when, &when_bits, sizeof(when));
    return when;
  }

  static std::uint32_t key_slot(HeapKey key) {
    return static_cast<std::uint32_t>(key) & ((1u << kSlotBits) - 1);
  }

  static std::uint64_t key_seq(HeapKey key) {
    return (static_cast<std::uint64_t>(key) >> kSlotBits) & kSeqMask;
  }

  static EventId make_id(std::uint32_t slot, std::uint64_t seq) {
    return (static_cast<EventId>(slot) << kSeqBits) | seq;
  }

  Slot& slot_ref(std::uint32_t index) {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }
  const Slot& slot_ref(std::uint32_t index) const {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }

  bool entry_live(HeapKey entry) const {
    return slot_ref(key_slot(entry)).state == (kLiveBit | key_seq(entry));
  }

  /// Pops a free slot (or grows the slab). The caller installs the callback
  /// and then commits, which stamps the live state.
  std::uint32_t alloc_slot() {
    if (free_head_ != kNilSlot) {
      const std::uint32_t index = free_head_;
      free_head_ = static_cast<std::uint32_t>(slot_ref(index).state);
      return index;
    }
    return alloc_slot_slow();
  }

  /// Cold path of alloc_slot: appends a chunk if needed.
  std::uint32_t alloc_slot_slow();

  /// Clamps `when`, stamps the slot live under `seq`, pushes the heap entry,
  /// and returns the event id. The slot must already hold the callback.
  EventId commit_event(SimTime when, std::uint64_t seq, std::uint32_t index, Slot& slot);

  void heap_push(HeapKey entry);
  void heap_pop_min();
  /// Filters stale entries out of the heap and re-heapifies in O(n).
  void compact_heap();

  /// Pops stale (cancelled) entries until the top is live; returns false
  /// when the heap drains.
  bool settle_top();

  /// Pops and fires the earliest live event; false when none is left.
  bool fire_next();

  SimTime now_ = 0.0;
  SimTime horizon_ = kNever;
  std::uint64_t next_seq_ = 1;  // 0 is reserved so make_id never returns 0
  std::uint64_t live_events_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<HeapKey> heap_;      // 4-ary min-heap over (when, seq)
  std::size_t stale_entries_ = 0;  // cancelled events still occupying heap entries
  std::vector<std::unique_ptr<Slot[]>> chunks_;  // slab: stable 16 KiB chunks
  std::uint32_t num_slots_ = 0;
  std::uint32_t free_head_ = kNilSlot;
};

/// Repeating task helper: fires `callback(now)` every `period` seconds
/// starting at `start`, until stopped or the simulator drains. Useful for
/// load-information exchange and metric sampling.
class PeriodicTask {
 public:
  using Callback = std::function<void(SimTime)>;

  PeriodicTask(Simulator& sim, SimTime start, SimTime period, Callback callback);
  ~PeriodicTask();
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Stops future firings. Idempotent.
  void stop();

  /// Called from the task's own callback: passes over the firings that
  /// would come before any other event, at most `max_periods` of them, and
  /// returns how many. The next firing time steps T <- T + period as arm()
  /// makes it, up to the first T at or after the earliest other event (or
  /// the simulator's horizon()). With at least one step, the pending firing
  /// is re-armed at T, after every event that exists now and before any
  /// created later; with none, nothing is touched. 0 once stopped.
  std::uint64_t skip(std::uint64_t max_periods);

  bool running() const { return running_; }
  SimTime period() const { return period_; }

 private:
  void arm(SimTime when);

  Simulator& sim_;
  SimTime period_ = 0.0;
  Callback callback_;
  EventId pending_ = kInvalidEventId;
  SimTime pending_time_ = 0.0;  // when the pending firing fires
  bool running_ = true;
};

}  // namespace vrc::sim
