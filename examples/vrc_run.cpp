// Unified scenario driver: run any declarative experiment end to end.
//
// A scenario comes from a spec file, from flags, or both (flags refine the
// file):
//
//   ./vrc_run --scenario examples/scenarios/paper_cluster1.scn
//   ./vrc_run --scenario bench/paper_group1.scn --jobs 4   # Figures 1-2, §5
//   ./vrc_run --traces "spec:trace=3" --policies "g-loadsharing;v-reconf"
//   ./vrc_run --traces "spec:trace=1;spec:trace=2"
//             --policies "v-reconf:early_release=0;v-reconf"
//             --set memory_threshold=0.9 --nodes 8 --trials 3 --csv
//   ./vrc_run --scenario examples/scenarios/blocking_episode.scn --jobs 1 --log
//
// --log narrates the scheduler's decisions on stderr and ends each cell with
// its metrics::describe() summary; stdout stays byte-identical.
//
// List-valued flags are ';'-separated because ',' separates params inside a
// single trace/policy spec. Exits non-zero with the registry's message on an
// unknown policy, a bad param, or a bad config override.
//
// A scenario with `compare` lines prints a second table: per (trial, trace,
// config, compare line), the reductions the paper quotes and the §5 model's
// realized gain, term deltas and approximation error.
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/model.h"
#include "cluster/config.h"
#include "core/policy_registry.h"
#include "metrics/fingerprint.h"
#include "metrics/perf_counters.h"
#include "metrics/report.h"
#include "runner/scenario.h"
#include "util/flags.h"
#include "util/log.h"
#include "util/table.h"
#include "util/units.h"
#include "workload/catalog.h"
#include "workload/trace_generator.h"

using namespace vrc;
using util::Table;

namespace {

// Applies "<directive> <item>" for every ';'-separated item in `list`.
bool apply_list(runner::ScenarioSpec* spec, const std::string& directive,
                const std::string& list, std::string* error) {
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t end = list.find(';', start);
    if (end == std::string::npos) end = list.size();
    const std::string item = list.substr(start, end - start);
    if (!item.empty() && !spec->apply_line(directive + " " + item, error)) return false;
    if (end == list.size()) break;
    start = end + 1;
  }
  return true;
}

// Tables 1 and 2 of the paper: the program catalog of each workload group.
void print_catalogs() {
  for (const workload::WorkloadGroup group :
       {workload::WorkloadGroup::kSpec, workload::WorkloadGroup::kApps}) {
    const bool spec = group == workload::WorkloadGroup::kSpec;
    std::printf("\n%s programs (paper Table %d; lifetimes on the %.0f MHz reference "
                "workstation):\n",
                workload::to_string(group), spec ? 1 : 2, workload::reference_mhz(group));
    const std::vector<workload::ProgramSpec>& programs = workload::catalog(group);
    double total_weight = 0.0;
    for (const workload::ProgramSpec& p : programs) total_weight += p.mix_weight;
    Table table({"program", "description", spec ? "input" : "data size", "working set (MB)",
                 "lifetime (s)", "page touches/s", "mix share"});
    for (const workload::ProgramSpec& p : programs) {
      const std::string peak = Table::fmt(to_megabytes(p.working_set), 1);
      table.add_row({p.name, p.description, p.input,
                     p.has_range() ? Table::fmt(to_megabytes(p.working_set_min), 1) + "-" + peak
                                   : peak,
                     Table::fmt(p.lifetime, 1), Table::fmt(p.touch_rate, 0),
                     Table::pct(p.mix_weight / total_weight)});
    }
    std::fputs(table.to_ascii().c_str(), stdout);
  }
}

int run(int argc, char** argv) {
  std::string scenario_path;
  std::string traces;
  std::string policies;
  std::string overrides;
  std::string cluster;
  // Scalar flags are kept as typed and forwarded as spec-file directives;
  // empty keeps the scenario's value.
  std::string nodes;
  std::string trials;
  std::string base_seed;
  std::string sampling_interval;
  std::string max_sim_time;
  int jobs = 0;
  bool csv = false;
  bool malleable = false;
  bool perf_counters = false;
  bool log = false;
  bool list_policies = false;
  bool list_overrides = false;
  bool list_traces = false;

  util::FlagSet flags;
  flags.add_string("scenario", &scenario_path, "scenario spec file to load first");
  flags.add_string("traces", &traces, "';'-separated trace specs, e.g. spec:trace=1;spec:trace=2");
  flags.add_string("policies", &policies,
                   "';'-separated policy specs, e.g. g-loadsharing;v-reconf:early_release=0");
  flags.add_string("set", &overrides, "comma-separated config overrides, e.g. memory_threshold=0.9");
  flags.add_string("cluster", &cluster, "auto | paper1 | paper2");
  flags.add_string("nodes", &nodes, "number of workstations");
  flags.add_string("trials", &trials, "independent repetitions");
  flags.add_string("base-seed", &base_seed, "sweep base seed");
  flags.add_string("sampling-interval", &sampling_interval,
                   "metric sampling interval, e.g. 10 or 500ms");
  flags.add_string("max-sim-time", &max_sim_time, "simulated-time safety cap, e.g. 2h");
  flags.add_int("jobs", &jobs,
                "parallel worker threads, at most one per cell (0 = one per hardware thread)");
  flags.add_bool("csv", &csv, "emit CSV instead of an ASCII table");
  flags.add_bool("malleable", &malleable,
                 "generate malleable jobs (width [1,2], fraction 1) in traces without their own "
                 "malleable= fraction, and print resize columns");
  flags.add_bool("perf-counters", &perf_counters,
                 "print the exact work counters summed over all runs, then each cell's report "
                 "fingerprint, to stderr");
  flags.add_bool("log", &log,
                 "narrate scheduler decisions on stderr and end each cell with its summary "
                 "(use --jobs 1 for one cell's lines at a time)");
  flags.add_bool("list-policies", &list_policies,
                 "print every registered policy with its parameters, then exit");
  flags.add_bool("list-overrides", &list_overrides,
                 "print every `--set` config override key, then exit");
  flags.add_bool("list-traces", &list_traces,
                 "print the standard trace shapes, the trace-spec syntax and both program "
                 "catalogs, then exit");
  if (!flags.parse(argc, argv)) return flags.help_requested() ? 0 : 1;

  if (list_policies) {
    const core::PolicyRegistry& registry = core::PolicyRegistry::instance();
    for (const std::string& name : registry.names()) {
      std::printf("%s\n%s", name.c_str(), registry.params(name)->listing().c_str());
    }
    return 0;
  }
  if (list_overrides) {
    std::printf("config overrides, `set key=value` or --set (defaults: paper cluster 1):\n%s%s",
                cluster::ClusterConfig::override_params().listing().c_str(),
                cluster::ClusterConfig::node_override_params().listing().c_str());
    return 0;
  }
  if (list_traces) {
    std::printf("standard traces (paper §3.3.2; use as spec:trace=N or apps:trace=N):\n");
    std::printf("  %-6s %-6s %-6s %-6s %-9s\n", "index", "sigma", "mu", "jobs", "duration");
    for (int index = 1; index <= 5; ++index) {
      const workload::StandardTraceShape shape = workload::standard_trace_shape(index);
      std::printf("  %-6d %-6.1f %-6.1f %-6zu %-9.0f\n", index, shape.sigma, shape.mu,
                  shape.num_jobs, shape.duration);
    }
    const std::pair<const char*, const char*> grammars[] = {
        {"spec", "generated workloads, <spec|apps>:key=value,... (one of trace= and jobs=)"},
        {"swf", "SWF log replay, swf:file=PATH,... (scenario form: trace swf file=PATH ...)"},
        {"vrc", "saved '# vrc-trace v1' file replay, vrc:file=PATH (trace vrc file=PATH)"}};
    for (const auto& [group, title] : grammars) {
      std::printf("\n%s:\n%s", title, workload::TraceSpec::grammar(group)->listing().c_str());
    }
    print_catalogs();
    return 0;
  }

  std::string error;
  runner::ScenarioSpec spec;
  if (!scenario_path.empty()) {
    std::optional<runner::ScenarioSpec> loaded = runner::ScenarioSpec::load(scenario_path, &error);
    if (!loaded) {
      std::fprintf(stderr, "vrc_run: %s\n", error.c_str());
      return 1;
    }
    spec = std::move(*loaded);
  }

  // Flags refine the loaded scenario: list flags append, scalar flags
  // override. Everything funnels through apply_line verbatim, so the
  // diagnostics match the spec-file ones.
  bool ok = apply_list(&spec, "trace", traces, &error) &&
            apply_list(&spec, "policy", policies, &error) &&
            (overrides.empty() || spec.apply_line("set " + overrides, &error)) &&
            (!malleable || spec.apply_line("malleable on", &error));
  const std::pair<const char*, const std::string*> scalars[] = {
      {"cluster", &cluster},
      {"nodes", &nodes},
      {"trials", &trials},
      {"base_seed", &base_seed},
      {"sampling_interval", &sampling_interval},
      {"max_sim_time", &max_sim_time}};
  for (const auto& [directive, text] : scalars) {
    ok = ok && (text->empty() || spec.apply_line(std::string(directive) + " " + *text, &error));
  }
  if (!ok) {
    std::fprintf(stderr, "vrc_run: %s\n", error.c_str());
    return 1;
  }

  // Enable before run_scenario so every cell's run_experiment captures; the
  // counters and the log are write-only observability and cannot change any
  // result.
  if (perf_counters) metrics::set_perf_capture_enabled(true);
  if (log) util::set_log_level(util::LogLevel::kInfo);

  std::optional<runner::ScenarioRun> run = runner::run_scenario(spec, jobs, &error);
  if (!run) {
    std::fprintf(stderr, "vrc_run: %s\n", error.c_str());
    return 1;
  }

  // Fault columns only when the scenario configures faults, so fault-free
  // scenario goldens stay byte-identical.
  const bool with_faults = !spec.faults.empty() ||
                           spec.config_overrides.count("fault.mtbf") > 0 ||
                           spec.sweep_key == "fault.mtbf";
  // Same gating for the resize columns: rigid-scenario goldens never change.
  const bool with_malleable = spec.malleable_configured();
  // Both tables open with trial, trace and, under a sweep, the swept value.
  const bool swept = !spec.sweep_key.empty();
  std::vector<std::string> axis_header = {"trial", "trace"};
  if (swept) axis_header.push_back(spec.sweep_key);
  auto axis_row = [&](int trial, const metrics::RunReport& report, std::size_t config) {
    std::vector<std::string> row = {std::to_string(trial), report.trace};
    if (swept) row.push_back(spec.sweep_values[config]);
    return row;
  };
  std::vector<std::string> header = axis_header;
  header.insert(header.end(), {"policy", "jobs", "completed", "makespan", "t_exe", "t_cpu",
                               "t_page", "t_que", "t_mig", "avg_slowdown", "idle_mb", "skew"});
  if (with_faults) {
    header.insert(header.end(), {"crashes", "killed", "restarts", "xfail", "avail"});
  }
  if (with_malleable) {
    header.insert(header.end(), {"resizes", "width_time", "blocked_saved"});
  }
  Table table(header);
  for (int trial = 0; trial < run->num_trials; ++trial) {
    for (std::size_t t = 0; t < run->num_traces; ++t) {
      for (std::size_t c = 0; c < run->num_configs; ++c) {
        for (std::size_t p = 0; p < run->num_policies; ++p) {
          const metrics::RunReport& report = run->cell(trial, t, c, p).report;
          std::vector<std::string> row = axis_row(trial, report, c);
          row.insert(row.end(),
                     {spec.policies[p].print(), std::to_string(report.jobs_submitted),
                      std::to_string(report.jobs_completed), Table::fmt(report.makespan, 1),
                      Table::fmt(report.total_execution, 1), Table::fmt(report.total_cpu, 1),
                      Table::fmt(report.total_page, 1), Table::fmt(report.total_queue, 1),
                      Table::fmt(report.total_migration, 1), Table::fmt(report.avg_slowdown, 4),
                      Table::fmt(report.avg_idle_memory_mb, 1),
                      Table::fmt(report.avg_balance_skew, 4)});
          if (with_faults) {
            row.push_back(std::to_string(report.node_crashes));
            row.push_back(std::to_string(report.jobs_killed));
            row.push_back(std::to_string(report.job_restarts));
            row.push_back(std::to_string(report.transfer_failures));
            row.push_back(Table::fmt(report.availability, 4));
          }
          if (with_malleable) {
            double blocked_saved = 0.0;
            for (const auto& [key, value] : report.policy_stats) {
              if (key == "blocked_time_saved") blocked_saved = value;
            }
            row.push_back(std::to_string(report.resizes));
            row.push_back(Table::fmt(report.width_time_product, 1));
            row.push_back(Table::fmt(blocked_saved, 1));
          }
          table.add_row(row);
        }
      }
    }
  }
  std::fputs(csv ? table.to_csv().c_str() : table.to_ascii().c_str(), stdout);

  if (!spec.compares.empty()) {
    header = axis_header;
    header.insert(header.end(),
                  {"baseline", "ours", "exec_red", "queue_red", "slowdown_red", "idle_red",
                   "skew_red", "gain", "d_page", "d_que", "d_cpu", "d_mig", "approx_err"});
    Table compare(header);
    for (int trial = 0; trial < run->num_trials; ++trial) {
      for (std::size_t t = 0; t < run->num_traces; ++t) {
        for (std::size_t c = 0; c < run->num_configs; ++c) {
          for (const auto& [baseline, ours] : spec.compares) {
            const metrics::RunReport& base =
                run->cell(trial, t, c, spec.policy_index(baseline)).report;
            const metrics::RunReport& our = run->cell(trial, t, c, spec.policy_index(ours)).report;
            const analysis::ModelDelta delta = analysis::compare_runs(base, our);
            std::vector<std::string> row = axis_row(trial, base, c);
            row.insert(
                row.end(),
                {baseline.print(), ours.print(),
                 Table::pct(metrics::reduction(base.total_execution, our.total_execution)),
                 Table::pct(metrics::reduction(base.total_queue, our.total_queue)),
                 Table::pct(metrics::reduction(base.avg_slowdown, our.avg_slowdown)),
                 Table::pct(metrics::reduction(base.avg_idle_memory_mb, our.avg_idle_memory_mb)),
                 Table::pct(metrics::reduction(base.avg_balance_skew, our.avg_balance_skew)),
                 Table::fmt(delta.gain(), 0), Table::fmt(delta.d_page, 0),
                 Table::fmt(delta.d_queue, 0), Table::fmt(delta.d_cpu, 0),
                 Table::fmt(delta.d_migration, 0), Table::pct(delta.approximation_error())});
            compare.add_row(row);
          }
        }
      }
    }
    std::fputs("\n", stdout);
    std::fputs(csv ? compare.to_csv().c_str() : compare.to_ascii().c_str(), stdout);
  }

  if (perf_counters) {
    // stderr, so piping the table to a file or the golden-diff keeps working.
    // Only the exact work counts: the block depends on the scenario alone, so
    // it is committed beside each golden as <name>.counters and diffed too.
    // Each cell's report fingerprint closes it, so the diff also sees every
    // bit the printed table rounds away.
    const metrics::PerfCounters totals = metrics::take_perf_aggregate();
    std::fprintf(stderr, "perf counters (all trials/cells):\n");
    for (const auto& [label, value] : totals.entries()) {
      if (std::string_view(label).ends_with("_wall_ns")) continue;  // host time
      std::fprintf(stderr, "  %-24s %llu\n", label, static_cast<unsigned long long>(value));
    }
    for (int trial = 0; trial < run->num_trials; ++trial) {
      for (std::size_t t = 0; t < run->num_traces; ++t) {
        for (std::size_t c = 0; c < run->num_configs; ++c) {
          for (std::size_t p = 0; p < run->num_policies; ++p) {
            std::fprintf(stderr, "  fingerprint %d/%zu/%zu/%zu 0x%016llx\n", trial, t, c, p,
                         static_cast<unsigned long long>(
                             metrics::full_fingerprint(run->cell(trial, t, c, p).report)));
          }
        }
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // An exception escaping the run (say, an allocation failure) is reported
  // like every other error instead of aborting.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vrc_run: %s\n", e.what());
    return 1;
  }
}
