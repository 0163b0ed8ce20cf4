// perfbench: the repository benchmark.
//
//   perfbench --workload paper-traces --seed 1 --seconds 20 --trace 0
//
// Runs every cell of one workload, one after another on this thread, in
// passes until --seconds is used up, checks every report, and prints one
// JSON result as the last line of standard output. --trace 0 reports the
// end-to-end metrics (untraced passes only); --trace 1 alternates untraced
// and traced passes and reports the per-layer split. perfbench/run.py builds
// this binary and is the intended entry point; see perfbench/README.md.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "checks.h"
#include "core/experiment.h"
#include "metrics/perf_counters.h"
#include "tracing.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using vrc::metrics::PerfCounters;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  bool emit_reference = false;
  std::string data_dir = "perfbench/data";
  std::string reference = "perfbench/reference.txt";
};

// --- one traced cell -------------------------------------------------------

/// What a traced cell leaves behind: span aggregates, the simulator's own
/// counters, and the report fields the per-layer metrics need.
struct CellTrace {
  SpanRecorder spans;
  PerfCounters counters;
  double wall_s = 0.0;
  double outer_s = 0.0;  // wall time of the whole traced call, from its caller
  std::uint64_t jobs = 0;
  std::uint64_t migrations = 0;
  std::uint64_t remote_submits = 0;
  std::uint64_t crashes = 0;
  std::uint64_t jobs_killed = 0;

  double tick_wall_s() const { return static_cast<double>(counters.tick_wall_ns) * 1e-9; }
  double exchange_s() const { return static_cast<double>(counters.exchange_wall_ns) * 1e-9; }
  double self_s(Span span) const { return static_cast<double>(spans.totals(span).self_ns) * 1e-9; }
  /// Completion and pressure hooks fire inside the tick loop, so the tick
  /// bucket minus their spans is the tick's own time.
  double tick_self_s() const {
    return tick_wall_s() -
           static_cast<double>(spans.totals(Span::kCompletion).total_ns +
                               spans.totals(Span::kPressure).total_ns) *
               1e-9;
  }
  double spans_self_s() const {
    double total = 0.0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(Span::kCount); ++i) {
      total += self_s(static_cast<Span>(i));
    }
    return total;
  }
  double unattributed_s() const { return wall_s - tick_self_s() - exchange_s() - spans_self_s(); }

  /// Every exact count this cell produced, for the repeat check.
  std::vector<std::uint64_t> exact_counts() const {
    std::vector<std::uint64_t> counts;
    for (const auto& [label, value] : counters.entries()) {
      const std::string name = label;
      if (name.find("wall_ns") == std::string::npos) counts.push_back(value);
    }
    for (std::size_t i = 0; i < static_cast<std::size_t>(Span::kCount); ++i) {
      counts.push_back(spans.totals(static_cast<Span>(i)).calls);
    }
    return counts;
  }
};

struct CellResult {
  vrc::metrics::RunReport report;
  double wall_s = 0.0;
  /// Untraced runs: clock readings at the start, at every policy pulse, and
  /// at the end of the run_experiment call.
  std::vector<std::uint64_t> stamps_ns;
};

/// Runs one cell: untraced (only the pulse clock) when `trace` is null,
/// otherwise under the span decorators with the simulator's counters on.
CellResult run_cell(Cell& cell, CellTrace* trace, std::size_t expected_pulses = 0) {
  CellResult result;
  if (trace == nullptr) {
    result.stamps_ns.reserve(expected_pulses + 2);
    PulseClock clock(*cell.policy, result.stamps_ns);
    result.stamps_ns.push_back(now_ns());
    result.report = vrc::core::run_experiment(*cell.source, cell.config, clock, cell.options);
    result.stamps_ns.push_back(now_ns());
    result.wall_s = static_cast<double>(result.stamps_ns.back() - result.stamps_ns.front()) * 1e-9;
    return result;
  }
  vrc::metrics::take_perf_aggregate();  // start from zero
  vrc::metrics::set_perf_capture_enabled(true);
  TracingPolicy policy(*cell.policy, trace->spans);
  TimedSource source(*cell.source, trace->spans);
  const Clock::time_point start = Clock::now();
  result.report = vrc::core::run_experiment(source, cell.config, policy, cell.options);
  result.wall_s = seconds_since(start);
  vrc::metrics::set_perf_capture_enabled(false);
  trace->counters = vrc::metrics::take_perf_aggregate();
  trace->wall_s = result.wall_s;
  trace->jobs = result.report.jobs_completed;
  trace->migrations = result.report.migrations;
  trace->remote_submits = result.report.remote_submits;
  trace->crashes = result.report.node_crashes;
  trace->jobs_killed = result.report.jobs_killed;
  return result;
}

// --- passes ----------------------------------------------------------------

struct Pass {
  bool traced = false;
  int cpu = -1;  // the CPU the pass was pinned to, -1 if none
  double setup_s = 0.0;
  double build_s = 0.0;
  std::vector<double> cell_wall_s;
  std::vector<std::uint64_t> fingerprints;
  std::vector<CellTrace> traces;  // traced passes only, one per cell
  std::uint64_t jobs = 0;
  std::size_t failed = 0;
};

class Bench {
 public:
  Bench(const Options& options, const Workload& workload)
      : options_(options), workload_(workload) {}

  /// Builds the cells, timing the whole set-up.
  Setup setup(double* setup_s) const {
    const Clock::time_point start = Clock::now();
    Setup built = workload_.build(options_.seed, options_.data_dir);
    *setup_s = seconds_since(start);
    return built;
  }

  /// Sets up and runs every cell once, checking each report as it lands.
  Pass run_pass(bool traced) {
    Pass pass;
    pass.traced = traced;
    Setup built = setup(&pass.setup_s);
    pass.build_s = built.workload_build_s;
    if (traced) pass.traces.resize(built.cells.size());
    fastest_intervals_.resize(built.cells.size());
    labels_.resize(built.cells.size());
    for (std::size_t i = 0; i < built.cells.size(); ++i) {
      Cell& cell = built.cells[i];
      const Clock::time_point start = Clock::now();
      CellResult result = run_cell(cell, traced ? &pass.traces[i] : nullptr,
                                   fastest_intervals_[i].size());
      if (traced) pass.traces[i].outer_s = seconds_since(start);
      if (!traced) keep_fastest_intervals(i, result.stamps_ns);
      pass.cell_wall_s.push_back(result.wall_s);
      pass.jobs += result.report.jobs_completed;
      pass.fingerprints.push_back(fingerprint(result.report));
      labels_[i] = cell.label;
      if (!check(cell, result.report)) ++pass.failed;
    }
    return pass;
  }

  /// Problems are printed once per cell, not once per pass.
  bool check(const Cell& cell, const vrc::metrics::RunReport& report) {
    const std::string key = std::string(workload_.name) + " " + cell.label;
    const std::vector<double>* expected = nullptr;
    std::vector<std::string> problems;
    if (options_.seed == kDefaultSeed && !options_.emit_reference) {
      auto it = reference_.find(key);
      if (it == reference_.end()) {
        problems.push_back("no reference aggregates for '" + key + "'");
      } else {
        expected = &it->second;
      }
    }
    for (std::string& problem : check_cell(report, cell.expected_jobs, expected)) {
      problems.push_back(std::move(problem));
    }
    for (const std::string& problem : problems) {
      if (reported_.insert(cell.label + problem).second) {
        std::fprintf(stderr, "FAIL %s: %s\n", cell.label.c_str(), problem.c_str());
      }
    }
    return problems.empty();
  }

  void load_reference() { reference_ = perfbench::load_reference(options_.reference); }

  const std::vector<std::string>& labels() const { return labels_; }

  /// Per cell: the sum over pulse intervals of each interval's fastest
  /// untraced time. Empty if the pulse counts ever disagreed between passes.
  std::vector<double> fastest_interval_sums_s() const {
    std::vector<double> sums;
    if (intervals_disagree_) return sums;
    for (const std::vector<std::uint64_t>& intervals : fastest_intervals_) {
      std::uint64_t total = 0;
      for (std::uint64_t ns : intervals) total += ns;
      sums.push_back(static_cast<double>(total) * 1e-9);
    }
    return sums;
  }

 private:
  void keep_fastest_intervals(std::size_t cell, const std::vector<std::uint64_t>& stamps) {
    std::vector<std::uint64_t>& fastest = fastest_intervals_[cell];
    if (fastest.empty()) fastest.assign(stamps.size() - 1, UINT64_MAX);
    if (fastest.size() != stamps.size() - 1) {
      intervals_disagree_ = true;
      return;
    }
    for (std::size_t k = 0; k < fastest.size(); ++k) {
      fastest[k] = std::min(fastest[k], stamps[k + 1] - stamps[k]);
    }
  }

  const Options& options_;
  const Workload& workload_;
  Reference reference_;
  std::vector<std::string> labels_;
  std::set<std::string> reported_;
  std::vector<std::vector<std::uint64_t>> fastest_intervals_;  // per cell
  bool intervals_disagree_ = false;
};

/// A pass whose cells differ from the first pass's, bit for bit, or (traced)
/// whose exact counters differ from the first traced pass's, fails every
/// differing cell.
void check_repeats(std::vector<Pass>& passes, const std::vector<std::string>& labels) {
  const Pass* first_traced = nullptr;
  for (Pass& pass : passes) {
    if (pass.traced && first_traced == nullptr) first_traced = &pass;
    for (std::size_t i = 0; i < pass.fingerprints.size(); ++i) {
      bool same = pass.fingerprints[i] == passes.front().fingerprints[i];
      if (!same) {
        std::fprintf(stderr, "FAIL %s: report differs between passes%s\n", labels[i].c_str(),
                     pass.traced ? " (traced vs untraced)" : "");
      }
      if (pass.traced && pass.traces[i].exact_counts() != first_traced->traces[i].exact_counts()) {
        std::fprintf(stderr, "FAIL %s: exact counters differ between traced passes\n",
                     labels[i].c_str());
        same = false;
      }
      if (!same) ++pass.failed;
    }
  }
}

// --- output ----------------------------------------------------------------

class MetricsJson {
 public:
  void add(const std::string& name, double value, const char* unit) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    body_ += (body_.empty() ? "" : ", ") + std::string("\"") + name + "\": {\"value\": " + buffer +
             ", \"unit\": \"" + unit + "\"}";
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Peak resident memory of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, restarts at exec, so it does not inherit the launcher's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

/// End-to-end metrics over the untraced passes.
///
/// jobs_per_s divides the jobs of one pass by the time of the timed phase,
/// taken interval by interval: the simulation is deterministic, so the k-th
/// interval between policy pulses does the same work in every pass, and its
/// fastest time is its cost with the least host noise. Noise on a shared
/// machine only ever slows a run, in bursts from milliseconds to tens of
/// seconds long; the fastest whole pass and the median pass are printed too.
void add_end_to_end(const std::vector<Pass>& passes, const std::vector<double>& interval_sums_s,
                    const std::vector<double>& setups, MetricsJson& metrics) {
  std::vector<std::vector<double>> per_cell;
  std::uint64_t jobs = 0;
  for (const Pass& pass : passes) {
    if (pass.traced) continue;
    jobs = pass.jobs;
    per_cell.resize(pass.cell_wall_s.size());
    for (std::size_t i = 0; i < pass.cell_wall_s.size(); ++i) {
      per_cell[i].push_back(pass.cell_wall_s[i]);
    }
  }
  double fastest_s = 0.0;
  double median_s = 0.0;
  for (const std::vector<double>& walls : per_cell) {
    fastest_s += *std::min_element(walls.begin(), walls.end());
    median_s += median(walls);
  }
  double intervals_s = 0.0;
  for (double sum : interval_sums_s) intervals_s += sum;
  if (interval_sums_s.empty()) intervals_s = fastest_s;  // pulse counts disagreed
  const double count = static_cast<double>(jobs);
  std::printf("jobs/s: fastest intervals %.1f, fastest pass %.1f, median pass %.1f\n",
              ratio(count, intervals_s), ratio(count, fastest_s), ratio(count, median_s));
  metrics.add("jobs_per_s", ratio(count, intervals_s), "1/s");
  metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  metrics.add("setup_s", median(setups), "s");
}

/// Per-layer metrics: exact counts from the first traced pass, times as
/// medians over traced passes.
void add_per_layer(const std::vector<Pass>& passes, MetricsJson& metrics) {
  std::vector<const Pass*> traced;
  std::vector<double> untraced_wall;
  for (const Pass& pass : passes) {
    if (pass.traced) {
      traced.push_back(&pass);
    } else {
      double wall = 0.0;
      for (double w : pass.cell_wall_s) wall += w;
      untraced_wall.push_back(wall);
    }
  }
  const Pass& first = *traced.front();
  PerfCounters c;
  std::uint64_t jobs = 0, migrations = 0, remote_submits = 0, crashes = 0, killed = 0;
  std::uint64_t calls[static_cast<std::size_t>(Span::kCount)] = {};
  for (const CellTrace& cell : first.traces) {
    c.merge(cell.counters);
    jobs += cell.jobs;
    migrations += cell.migrations;
    remote_submits += cell.remote_submits;
    crashes += cell.crashes;
    killed += cell.jobs_killed;
    for (std::size_t i = 0; i < static_cast<std::size_t>(Span::kCount); ++i) {
      calls[i] += cell.spans.totals(static_cast<Span>(i)).calls;
    }
  }
  auto count = [](std::uint64_t value) { return static_cast<double>(value); };
  auto calls_of = [&calls](Span span) {
    return static_cast<double>(calls[static_cast<std::size_t>(span)]);
  };
  // Median over traced passes of a per-pass sum over cells.
  auto timed = [&traced](auto per_cell) {
    std::vector<double> values;
    for (const Pass* pass : traced) {
      double total = 0.0;
      for (const CellTrace& cell : pass->traces) total += per_cell(cell);
      values.push_back(total);
    }
    return median(values);
  };
  const double per_job = count(jobs);
  const double wall = timed([](const CellTrace& t) { return t.wall_s; });
  const double tick_self = timed([](const CellTrace& t) { return t.tick_self_s(); });
  const double unattributed = timed([](const CellTrace& t) { return t.unattributed_s(); });
  auto hook_s = [&timed](Span span) {
    return timed([span](const CellTrace& t) { return t.self_s(span); });
  };
  const double arrival = hook_s(Span::kArrival);
  const double source = timed([](const CellTrace& t) {
    return t.self_s(Span::kSourcePeek) + t.self_s(Span::kSourceNext);
  });
  std::vector<double> builds;
  for (const Pass* pass : traced) builds.push_back(pass->build_s);

  metrics.add("cluster.heap_upserts_per_job", ratio(count(c.heap_upserts), per_job), "count/job");
  metrics.add("cluster.heap_queries_per_job", ratio(count(c.heap_best_queries), per_job),
              "count/job");
  metrics.add("cluster.index_reads_per_write",
              ratio(count(c.heap_best_queries), count(c.heap_upserts)), "ratio");
  metrics.add("cluster.tick_self_s", tick_self, "s");
  metrics.add("cluster.node_ticks_per_job", ratio(count(c.node_ticks), per_job), "count/job");
  metrics.add("cluster.ns_per_node_tick", ratio(tick_self * 1e9, count(c.node_ticks)), "ns");
  metrics.add("cluster.tick_rounds", count(c.tick_rounds), "count");
  metrics.add("cluster.exchange_s", timed([](const CellTrace& t) { return t.exchange_s(); }), "s");
  metrics.add("cluster.snapshots_per_exchange",
              ratio(count(c.snapshots_published), count(c.exchange_rounds)), "count");
  metrics.add("cluster.pressure_callbacks_per_job", ratio(count(c.pressure_callbacks), per_job),
              "count/job");
  metrics.add("sim.events_per_job", ratio(count(c.events_executed), per_job), "count/job");
  metrics.add("sim.unattributed_s", unattributed, "s");
  metrics.add("sim.unattributed_share", ratio(unattributed, wall), "ratio");
  metrics.add("core.arrival_s", arrival, "s");
  metrics.add("core.pressure_s", hook_s(Span::kPressure), "s");
  metrics.add("core.periodic_s", hook_s(Span::kPeriodic), "s");
  metrics.add("core.completion_s", hook_s(Span::kCompletion), "s");
  metrics.add("core.other_hooks_s", timed([](const CellTrace& t) {
                return t.self_s(Span::kMigrationComplete) + t.self_s(Span::kResizeComplete) +
                       t.self_s(Span::kNodeFailed) + t.self_s(Span::kNodeRecovered) +
                       t.self_s(Span::kTransferFailed);
              }),
              "s");
  for (Span span : {Span::kArrival, Span::kCompletion, Span::kPressure, Span::kPeriodic,
                    Span::kMigrationComplete, Span::kResizeComplete, Span::kNodeFailed,
                    Span::kNodeRecovered, Span::kTransferFailed}) {
    metrics.add(std::string("core.hook_calls.") + span_name(span), calls_of(span), "count");
  }
  metrics.add("core.placement_ns_per_arrival", ratio(arrival * 1e9, calls_of(Span::kArrival)),
              "ns");
  metrics.add("core.migration_hit_ratio", ratio(count(migrations), count(c.migration_scans)),
              "ratio");
  metrics.add("core.submission_hit_ratio", ratio(count(remote_submits), count(c.submission_scans)),
              "ratio");
  metrics.add("workload.source_s", source, "s");
  metrics.add("workload.ns_per_arrival", ratio(source * 1e9, calls_of(Span::kSourceNext)), "ns");
  metrics.add("workload.build_s", median(builds), "s");
  metrics.add("workload.peak_live_specs", count(c.peak_live_specs), "count");
  metrics.add("faults.crashes", count(crashes), "count");
  metrics.add("faults.jobs_killed", count(killed), "count");
  metrics.add("faults.immediate_publishes", count(c.immediate_publishes), "count");
  metrics.add("trace.wall_s", wall, "s");
  metrics.add("trace.overhead", ratio(wall, median(untraced_wall)) - 1.0, "ratio");
}

/// Human-readable split of one traced pass, one line per cell.
void print_split(const Pass& pass, const std::vector<std::string>& labels) {
  std::printf("%-36s %9s %9s %9s %9s %9s %9s\n", "cell (traced)", "wall_s", "tick_s", "exch_s",
              "hooks_s", "source_s", "rest_s");
  for (std::size_t i = 0; i < pass.traces.size(); ++i) {
    const CellTrace& t = pass.traces[i];
    const double source = t.self_s(Span::kSourcePeek) + t.self_s(Span::kSourceNext);
    std::printf("%-36s %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f\n", labels[i].c_str(), t.wall_s,
                t.tick_self_s(), t.exchange_s(), t.spans_self_s() - source, source,
                t.unattributed_s());
  }
}

// --- modes -----------------------------------------------------------------

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

/// Pins this thread to one CPU (best effort).
void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

int measure(const Options& options, const Workload& workload) {
  Bench bench(options, workload);
  const std::vector<int> cpus = allowed_cpus();
  if (options.seed == kDefaultSeed) bench.load_reference();
  const Clock::time_point start = Clock::now();
  const double budget = options.seconds;
  // Eight set-ups before every pass. The k-th set-up of every pass does the
  // same work, so, as for jobs_per_s, its fastest time across the run is its
  // cost with the least host noise, and setup_s is the median over the eight.
  // Timing each set-up at one moment instead let slow spells of the host
  // decide the figure: faults-malleable set-up read about 110 us in some runs
  // of one seed and 175 us in others.
  std::vector<double> setups(8, HUGE_VAL);
  auto sample_setup = [&bench, &setups]() {
    for (double& fastest_s : setups) {
      double setup_s = 0.0;
      bench.setup(&setup_s);
      fastest_s = std::min(fastest_s, setup_s);
    }
  };
  std::vector<Pass> passes;
  std::size_t traced_passes = 0;
  std::size_t untraced_passes = 0;
  double longest_pass_s = 0.0;
  // Each pass is pinned to one CPU. A CPU slowed by a neighbour, even for
  // minutes, then holds back only its own passes, and the fastest-interval
  // estimate below takes each interval from a quieter CPU. Even passes visit
  // the CPUs in turn, so a CPU that speeds up again is noticed; odd passes go
  // to the CPU whose last untraced pass was fastest, so the quietest CPU
  // gives the estimate most of its samples.
  std::vector<double> last_on_cpu(cpus.size(), 0.0);  // 0: not measured yet
  std::size_t turn = 0;
  auto pick_cpu = [&]() {
    std::size_t best = cpus.size();
    for (std::size_t i = 0; i < cpus.size(); ++i) {
      if (last_on_cpu[i] > 0.0 && (best == cpus.size() || last_on_cpu[i] < last_on_cpu[best])) {
        best = i;
      }
    }
    if (passes.size() % 2 == 1 && best < cpus.size()) return best;
    return turn++ % cpus.size();
  };
  // Alternate untraced and traced passes under --trace 1 so both see the
  // same host conditions; stop when the next pass, if as slow as the slowest
  // so far, would overrun the budget.
  while (passes.empty() || seconds_since(start) + longest_pass_s <= budget ||
         (options.trace && (traced_passes == 0 || untraced_passes == 0))) {
    const bool traced = options.trace && untraced_passes > traced_passes;
    const std::size_t cpu = cpus.empty() ? 0 : pick_cpu();
    if (!cpus.empty()) pin_to(cpus[cpu]);
    const Clock::time_point pass_start = Clock::now();
    sample_setup();
    passes.push_back(bench.run_pass(traced));
    const double pass_s = seconds_since(pass_start);
    longest_pass_s = std::max(longest_pass_s, pass_s);
    if (!cpus.empty()) {
      passes.back().cpu = cpus[cpu];
      if (!traced) last_on_cpu[cpu] = pass_s;
    }
    ++(traced ? traced_passes : untraced_passes);
  }

  check_repeats(passes, bench.labels());
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const Pass& pass : passes) {
    attempted += pass.fingerprints.size();
    failed += pass.failed;
  }

  MetricsJson metrics;
  if (options.trace) {
    for (const Pass& pass : passes) {
      if (pass.traced) {
        print_split(pass, bench.labels());
        break;
      }
    }
    add_per_layer(passes, metrics);
  } else {
    add_end_to_end(passes, bench.fastest_interval_sums_s(), setups, metrics);
  }
  for (const Pass& pass : passes) {
    std::printf("pass%s cpu %d setup %.6f s, cells", pass.traced ? " (traced)" : "", pass.cpu,
                pass.setup_s);
    for (double wall : pass.cell_wall_s) std::printf(" %.4f", wall);
    std::printf("\n");
  }
  const double fail_rate = ratio(static_cast<double>(failed), static_cast<double>(attempted));
  std::printf("workload %s seed %llu: %zu passes, %zu cells attempted, %zu failed, "
              "fail_rate %g\n",
              workload.name, static_cast<unsigned long long>(options.seed), passes.size(),
              attempted, failed, fail_rate);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed, metrics.str().c_str());
  return 0;
}

int emit_reference(const Options& options, const Workload& workload) {
  Bench bench(options, workload);
  double setup_s = 0.0;
  Setup built = bench.setup(&setup_s);
  bool ok = true;
  for (Cell& cell : built.cells) {
    const CellResult result = run_cell(cell, nullptr);
    ok = bench.check(cell, result.report) && ok;
    const std::string key = std::string(workload.name) + " " + cell.label;
    std::printf("%s\n", reference_line(key, result.report).c_str());
  }
  return ok ? 0 : 1;
}

/// The benchmark's own tests, on one workload:
///  1. a traced cell's report equals the untraced one bit for bit, and both
///     equal a run with no decorator at all;
///  2. the exact counters repeat exactly across two traced runs;
///  3. layer self times plus the remainder sum to the cell's wall time,
///     taken by a separate clock around the whole traced call, within 1%,
///     with no layer (the remainder included) negative.
int selftest(const Options& options, const Workload& workload) {
  Bench bench(options, workload);
  if (options.seed == kDefaultSeed) bench.load_reference();
  std::vector<std::uint64_t> bare;  // no decorator, no counters
  double setup_s = 0.0;
  for (Cell& cell : bench.setup(&setup_s).cells) {
    bare.push_back(fingerprint(
        vrc::core::run_experiment(*cell.source, cell.config, *cell.policy, cell.options)));
  }
  std::vector<Pass> passes;
  passes.push_back(bench.run_pass(false));
  passes.push_back(bench.run_pass(true));
  passes.push_back(bench.run_pass(true));
  const std::vector<std::string>& labels = bench.labels();
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const std::string& cell = labels[i];
    expect(passes[0].fingerprints[i] == bare[i] && passes[1].fingerprints[i] == bare[i] &&
               passes[2].fingerprints[i] == bare[i],
           cell + ": traced, untraced and undecorated reports are bit-identical");
    expect(passes[1].traces[i].exact_counts() == passes[2].traces[i].exact_counts(),
           cell + ": exact counters repeat across traced runs");
    for (std::size_t p = 1; p < 3; ++p) {
      const CellTrace& t = passes[p].traces[i];
      const double parts[] = {t.tick_self_s(), t.exchange_s(), t.spans_self_s(),
                              t.unattributed_s()};
      double sum = 0.0;
      bool none_negative = true;
      for (double part : parts) {
        sum += part;
        none_negative = none_negative && part >= 0.0;
      }
      char what[256];
      std::snprintf(what, sizeof(what),
                    "%s: layers + remainder = %.6f s vs wall %.6f s, none negative (run %zu)",
                    cell.c_str(), sum, t.outer_s, p);
      expect(none_negative && std::abs(sum - t.outer_s) <= 0.01 * t.outer_s, what);
    }
    expect(passes[0].failed == 0 && passes[1].failed == 0 && passes[2].failed == 0,
           cell + ": output checks pass");
  }
  return failures == 0 ? 0 : 1;
}

bool parse_options(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&](const char** out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    const char* text = nullptr;
    char* end = nullptr;
    if (flag == "--selftest") {
      options->selftest = true;
    } else if (flag == "--emit-reference") {
      options->emit_reference = true;
    } else if (!value(&text)) {
      return false;
    } else if (flag == "--workload") {
      options->workload = text;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(text, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(text, &end);
      if (*end != '\0' || options->seconds <= 0.0) return false;
    } else if (flag == "--trace") {
      if (std::string(text) != "0" && std::string(text) != "1") return false;
      options->trace = std::string(text) == "1";
    } else if (flag == "--data-dir") {
      options->data_dir = text;
    } else if (flag == "--reference") {
      options->reference = text;
    } else {
      return false;
    }
  }
  return !options->workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!parse_options(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
                 "                 [--data-dir DIR] [--reference FILE]\n"
                 "                 [--selftest | --emit-reference]\n");
    return 2;
  }
  const Workload* workload = find_workload(options.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", options.workload.c_str());
    for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  try {
    if (options.selftest) return selftest(options, *workload);
    if (options.emit_reference) return emit_reference(options, *workload);
    return measure(options, *workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
