#include "metrics/perf_counters.h"

#include <atomic>
#include <chrono>
#include <mutex>

namespace vrc::metrics {
namespace {

std::atomic<bool> g_capture_enabled{false};

std::mutex& aggregate_mutex() {
  static std::mutex mutex;
  return mutex;
}

PerfCounters& aggregate_storage() {
  static PerfCounters aggregate;
  return aggregate;
}

}  // namespace

void PerfCounters::merge(const PerfCounters& other) {
  events_executed += other.events_executed;
  heap_upserts += other.heap_upserts;
  heap_erases += other.heap_erases;
  heap_best_queries += other.heap_best_queries;
  exchange_rounds += other.exchange_rounds;
  exchange_dirty_visited += other.exchange_dirty_visited;
  exchange_failed_skips += other.exchange_failed_skips;
  snapshots_published += other.snapshots_published;
  immediate_publishes += other.immediate_publishes;
  tick_rounds += other.tick_rounds;
  tick_rounds_skipped += other.tick_rounds_skipped;
  node_ticks += other.node_ticks;
  ticks_replayed += other.ticks_replayed;
  pressure_callbacks += other.pressure_callbacks;
  submission_scans += other.submission_scans;
  migration_scans += other.migration_scans;
  reservation_scans += other.reservation_scans;
  resizes_started += other.resizes_started;
  resize_completions += other.resize_completions;
  stream_arrivals += other.stream_arrivals;
  spec_slots_recycled += other.spec_slots_recycled;
  if (other.peak_live_specs > peak_live_specs) peak_live_specs = other.peak_live_specs;
  exchange_wall_ns += other.exchange_wall_ns;
  tick_wall_ns += other.tick_wall_ns;
}

std::vector<std::pair<const char*, std::uint64_t>> PerfCounters::entries() const {
  return {
      {"events_executed", events_executed},
      {"heap_upserts", heap_upserts},
      {"heap_erases", heap_erases},
      {"heap_best_queries", heap_best_queries},
      {"exchange_rounds", exchange_rounds},
      {"exchange_dirty_visited", exchange_dirty_visited},
      {"exchange_failed_skips", exchange_failed_skips},
      {"snapshots_published", snapshots_published},
      {"immediate_publishes", immediate_publishes},
      {"tick_rounds", tick_rounds},
      {"tick_rounds_skipped", tick_rounds_skipped},
      {"node_ticks", node_ticks},
      {"ticks_replayed", ticks_replayed},
      {"pressure_callbacks", pressure_callbacks},
      {"submission_scans", submission_scans},
      {"migration_scans", migration_scans},
      {"reservation_scans", reservation_scans},
      {"resizes_started", resizes_started},
      {"resize_completions", resize_completions},
      {"stream_arrivals", stream_arrivals},
      {"spec_slots_recycled", spec_slots_recycled},
      {"peak_live_specs", peak_live_specs},
      {"exchange_wall_ns", exchange_wall_ns},
      {"tick_wall_ns", tick_wall_ns},
  };
}

namespace perf_detail {

std::uint64_t monotonic_ns() {
  // Host wall time feeding write-only observability counters: no simulation
  // code ever reads them, so this cannot affect event order or any golden.
  // NOLINT-determinism(write-only perf observability; values never read by simulation logic)
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

}  // namespace perf_detail

bool perf_capture_enabled() { return g_capture_enabled.load(std::memory_order_relaxed); }

void set_perf_capture_enabled(bool enabled) {
  g_capture_enabled.store(enabled, std::memory_order_relaxed);
}

PerfCounters take_perf_aggregate() {
  const std::lock_guard<std::mutex> lock(aggregate_mutex());
  PerfCounters& aggregate = aggregate_storage();
  PerfCounters out = aggregate;
  aggregate = PerfCounters{};
  return out;
}

ScopedPerfCapture::ScopedPerfCapture() {
  if (!perf_capture_enabled()) return;
  active_ = true;
  previous_ = perf_detail::tl_counters;
  perf_detail::tl_counters = &local_;
}

ScopedPerfCapture::~ScopedPerfCapture() {
  if (!active_) return;
  perf_detail::tl_counters = previous_;
  const std::lock_guard<std::mutex> lock(aggregate_mutex());
  aggregate_storage().merge(local_);
}

}  // namespace vrc::metrics
