#include "metrics/perf_counters.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
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

/// Every counter once, in printing order: its label, its field, and whether
/// it merges as a high-water mark (the max of per-run peaks, not their sum).
struct Counter {
  const char* label;
  std::uint64_t PerfCounters::* field;
  bool high_water = false;
};
constexpr Counter kCounters[] = {
    {"events_executed", &PerfCounters::events_executed},
    {"heap_upserts", &PerfCounters::heap_upserts},
    {"heap_erases", &PerfCounters::heap_erases},
    {"heap_best_queries", &PerfCounters::heap_best_queries},
    {"exchange_rounds", &PerfCounters::exchange_rounds},
    {"exchange_dirty_visited", &PerfCounters::exchange_dirty_visited},
    {"exchange_failed_skips", &PerfCounters::exchange_failed_skips},
    {"snapshots_published", &PerfCounters::snapshots_published},
    {"immediate_publishes", &PerfCounters::immediate_publishes},
    {"tick_rounds", &PerfCounters::tick_rounds},
    {"tick_rounds_skipped", &PerfCounters::tick_rounds_skipped},
    {"node_ticks", &PerfCounters::node_ticks},
    {"ticks_replayed", &PerfCounters::ticks_replayed},
    {"pressure_callbacks", &PerfCounters::pressure_callbacks},
    {"submission_scans", &PerfCounters::submission_scans},
    {"migration_scans", &PerfCounters::migration_scans},
    {"reservation_scans", &PerfCounters::reservation_scans},
    {"resizes_started", &PerfCounters::resizes_started},
    {"resize_completions", &PerfCounters::resize_completions},
    {"stream_arrivals", &PerfCounters::stream_arrivals},
    {"peak_live_specs", &PerfCounters::peak_live_specs, true},
    {"exchange_wall_ns", &PerfCounters::exchange_wall_ns},
    {"tick_wall_ns", &PerfCounters::tick_wall_ns},
};

}  // namespace

void PerfCounters::merge(const PerfCounters& other) {
  for (const Counter& counter : kCounters) {
    std::uint64_t& mine = this->*counter.field;
    const std::uint64_t theirs = other.*counter.field;
    mine = counter.high_water ? std::max(mine, theirs) : mine + theirs;
  }
}

std::vector<std::pair<const char*, std::uint64_t>> PerfCounters::entries() const {
  std::vector<std::pair<const char*, std::uint64_t>> out;
  out.reserve(std::size(kCounters));
  for (const Counter& counter : kCounters) out.emplace_back(counter.label, this->*counter.field);
  return out;
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
