// Zero-overhead-when-off performance counters for the simulation hot paths.
//
// The scaling work (DESIGN.md §12) needs to *attribute* cost — how many
// snapshots an exchange published, how many nodes a tick visited, how many
// heap operations a run performed — without perturbing the paths it measures.
// The design:
//
//   - Counting sites call `perf_add(&PerfCounters::field)`. When no capture
//     is installed on the current thread this is a thread-local pointer load
//     plus a branch; no atomics, no locks, no allocation.
//   - `ScopedPerfCapture` (installed by core::run_experiment) binds a local
//     PerfCounters to the thread for the duration of a run and merges it
//     into a process-wide, mutex-protected aggregate at destruction. Scenario
//     cells run on worker threads, so per-thread locals + one merge per run
//     keeps the counters data-race-free under TSan.
//   - Capture only activates when `set_perf_capture_enabled(true)` was called
//     (the `vrc_run --perf-counters` flag); otherwise ScopedPerfCapture is a
//     no-op and every counting site stays on the null-pointer fast path.
//
// Counter values are write-only observability: nothing in the simulation
// reads them, so they cannot affect event order or any golden.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace vrc::metrics {

/// One thread's (or the merged global) counter set. Plain additive fields so
/// merging is field-wise summation. Each field is also listed once, with its
/// label, in perf_counters.cc; merge() and entries() both walk that list.
struct PerfCounters {
  // Discrete-event engine.
  std::uint64_t events_executed = 0;
  // IndexedHeap maintenance in the LoadInfoBoard.
  std::uint64_t heap_upserts = 0;
  std::uint64_t heap_erases = 0;
  std::uint64_t heap_best_queries = 0;
  // Load-information exchange (dirty-set incremental path).
  std::uint64_t exchange_rounds = 0;
  std::uint64_t exchange_dirty_visited = 0;   // dirty-set entries drained
  std::uint64_t exchange_failed_skips = 0;    // dirty-but-down nodes, no snapshot built
  std::uint64_t snapshots_published = 0;      // board publishes (exchange + immediate)
  std::uint64_t immediate_publishes = 0;      // fail/recover out-of-band broadcasts
  // Tick loop (active-set path).
  std::uint64_t tick_rounds = 0;
  std::uint64_t tick_rounds_skipped = 0;      // passed over while every ticking node was parked
  std::uint64_t node_ticks = 0;               // workstation ticks actually executed
  std::uint64_t ticks_replayed = 0;           // parked-node ticks replayed instead
  std::uint64_t pressure_callbacks = 0;
  // Policy placement scans (each is one indexed best() decision).
  std::uint64_t submission_scans = 0;
  std::uint64_t migration_scans = 0;
  std::uint64_t reservation_scans = 0;
  // M-Reconfiguration (malleable width changes, DESIGN.md §15).
  std::uint64_t resizes_started = 0;
  std::uint64_t resize_completions = 0;
  // Streaming arrival pump (Cluster::submit_source).
  std::uint64_t stream_arrivals = 0;       // specs pulled from an ArrivalSource
  std::uint64_t peak_live_specs = 0;       // MAX-merged: high-water jobs submitted, not done
  // Wall-time buckets (ns). Observability only — never read by simulation
  // code, so host timing cannot leak into event order.
  std::uint64_t exchange_wall_ns = 0;
  std::uint64_t tick_wall_ns = 0;

  /// Field-wise sum of `other` into this (peak_live_specs is max-merged: a
  /// high-water mark across runs is the max of per-run peaks, not their sum).
  void merge(const PerfCounters& other);

  /// (label, value) pairs in declaration order, for printing.
  std::vector<std::pair<const char*, std::uint64_t>> entries() const;
};

namespace perf_detail {
/// Thread-local capture target; null when no ScopedPerfCapture is active on
/// this thread (the common case — every counting site fast-paths on it).
inline thread_local PerfCounters* tl_counters = nullptr;

/// Monotonic nanoseconds for the wall-time buckets (implemented in the .cc
/// behind the determinism escape hatch; only called while a capture is
/// active).
std::uint64_t monotonic_ns();
}  // namespace perf_detail

/// Adds `n` to `field` of the thread's active capture; no-op otherwise.
inline void perf_add(std::uint64_t PerfCounters::* field, std::uint64_t n = 1) {
  if (PerfCounters* counters = perf_detail::tl_counters) counters->*field += n;
}

/// Raises `field` of the thread's active capture to at least `value`
/// (high-water-mark counters); no-op when no capture is active.
inline void perf_max(std::uint64_t PerfCounters::* field, std::uint64_t value) {
  if (PerfCounters* counters = perf_detail::tl_counters) {
    if (counters->*field < value) counters->*field = value;
  }
}

/// True when a ScopedPerfCapture is active on the current thread.
inline bool perf_capture_active() { return perf_detail::tl_counters != nullptr; }

/// Global switch read by ScopedPerfCapture at construction. Off by default so
/// every run outside `vrc_run --perf-counters` stays on the fast path.
bool perf_capture_enabled();
void set_perf_capture_enabled(bool enabled);

/// Returns the process-wide aggregate merged from finished captures and
/// resets it to zero (read-and-clear, so sequential runs don't bleed).
PerfCounters take_perf_aggregate();

/// RAII capture: when the global switch is on, binds a fresh PerfCounters to
/// this thread for its lifetime and merges it into the process aggregate at
/// destruction. Nestable (the outer capture resumes); cheap no-op when off.
class ScopedPerfCapture {
 public:
  ScopedPerfCapture();
  ~ScopedPerfCapture();
  ScopedPerfCapture(const ScopedPerfCapture&) = delete;
  ScopedPerfCapture& operator=(const ScopedPerfCapture&) = delete;

  bool active() const { return active_; }

 private:
  PerfCounters local_;
  PerfCounters* previous_ = nullptr;
  bool active_ = false;
};

/// RAII wall-time bucket: adds the scope's duration (ns) to `field` of the
/// thread's active capture. No clock is read when no capture is active.
class ScopedPerfTimer {
 public:
  explicit ScopedPerfTimer(std::uint64_t PerfCounters::* field) : field_(field) {
    if (perf_detail::tl_counters != nullptr) start_ns_ = perf_detail::monotonic_ns() + 1;
  }
  ~ScopedPerfTimer() {
    if (start_ns_ == 0) return;
    if (PerfCounters* counters = perf_detail::tl_counters) {
      counters->*field_ += perf_detail::monotonic_ns() + 1 - start_ns_;
    }
  }
  ScopedPerfTimer(const ScopedPerfTimer&) = delete;
  ScopedPerfTimer& operator=(const ScopedPerfTimer&) = delete;

 private:
  std::uint64_t PerfCounters::* field_;
  std::uint64_t start_ns_ = 0;  // 0 = inactive (start stored with +1 bias)
};

}  // namespace vrc::metrics
