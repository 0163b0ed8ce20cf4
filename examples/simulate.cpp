// General-purpose simulation driver: run any registered policy on any
// standard or generated or file-loaded trace, on a cluster of any size, and
// print the full report (optionally as CSV rows for sweeps).
//
//   ./simulate --policy v-reconf --group spec --trace 4
//   ./simulate --policy "v-reconf:early_release=0,max_reservations=2" --trace 2
//   ./simulate --policy g-loadsharing --jobs 400 --duration 1800 --seed 9 --nodes 16
//   ./simulate --policy oracle --load-trace my.trace --csv
//   ./simulate --trace 3 --set memory_threshold=0.9,node.0.memory=128MB
//
// The policy flag takes a full registry spec (name[:key=value,...]);
// `vrc_run --list-policies` prints every name. For whole sweeps, see vrc_run.
#include <cstdio>
#include <map>
#include <string>

#include "core/experiment.h"
#include "util/flags.h"
#include "util/log.h"
#include "util/table.h"
#include "workload/trace_spec.h"

using namespace vrc;

int main(int argc, char** argv) {
  std::string policy_text = "v-reconf";
  std::string group_name = "spec";
  std::string load_path;
  std::string overrides;
  int trace_index = 0;  // 0 = generate from --jobs/--duration
  int jobs = 300;
  double duration = 1800.0;
  int nodes = 32;
  long long seed = 1;
  double sampling = 1.0;
  bool csv = false;
  bool log_info = false;

  util::FlagSet flags;
  flags.add_string("policy", &policy_text,
                   "policy spec name[:key=value,...], e.g. v-reconf:early_release=0");
  flags.add_string("group", &group_name, "workload group: spec | apps");
  flags.add_int("trace", &trace_index, "standard trace 1..5 (0: generate from --jobs)");
  flags.add_int("jobs", &jobs, "jobs to generate when --trace 0");
  flags.add_double("duration", &duration, "submission window (s) when --trace 0");
  flags.add_int("nodes", &nodes, "number of workstations");
  flags.add_int64("seed", &seed, "trace generation seed");
  flags.add_double("sampling-interval", &sampling, "metric sampling interval (s)");
  flags.add_string("load-trace", &load_path, "replay this trace file");
  flags.add_string("set", &overrides,
                   "comma-separated cluster config overrides, e.g. memory_threshold=0.9");
  flags.add_bool("csv", &csv, "print one CSV row instead of the report");
  flags.add_bool("log", &log_info, "narrate scheduler decisions");
  if (!flags.parse(argc, argv)) return 1;
  if (log_info) util::set_log_level(util::LogLevel::kInfo);

  std::string error;
  const std::optional<core::PolicySpec> policy = core::PolicySpec::parse(policy_text, &error);
  if (!policy) {
    std::fprintf(stderr, "simulate: %s\n", error.c_str());
    return 1;
  }
  workload::WorkloadGroup group;
  if (!parse_workload_group(group_name, &group)) {
    std::fprintf(stderr, "simulate: unknown group '%s' (expected spec or apps)\n",
                 group_name.c_str());
    return 1;
  }

  const workload::Trace trace = [&] {
    if (!load_path.empty()) return workload::Trace::load_from_file(load_path);
    workload::TraceSpec spec;
    spec.group = group;
    if (trace_index >= 1 && trace_index <= 5) {
      spec.standard_index = trace_index;
    } else {
      spec.num_jobs = static_cast<std::size_t>(jobs);
      spec.duration = duration;
      spec.seed = static_cast<std::uint64_t>(seed);
    }
    return spec.build(static_cast<std::uint32_t>(nodes));
  }();

  auto config = core::paper_cluster_for(trace.group(), static_cast<std::size_t>(nodes));
  if (!overrides.empty()) {
    std::map<std::string, std::string> pairs;
    std::size_t start = 0;
    while (start <= overrides.size()) {
      std::size_t end = overrides.find(',', start);
      if (end == std::string::npos) end = overrides.size();
      const std::string item = overrides.substr(start, end - start);
      const std::size_t eq = item.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::fprintf(stderr, "simulate: --set '%s' is not key=value\n", item.c_str());
        return 1;
      }
      pairs[item.substr(0, eq)] = item.substr(eq + 1);
      if (end == overrides.size()) break;
      start = end + 1;
    }
    if (!config.apply_overrides(pairs, &error)) {
      std::fprintf(stderr, "simulate: %s\n", error.c_str());
      return 1;
    }
  }

  core::ExperimentOptions options;
  options.collector.sampling_intervals = {sampling};
  workload::MaterializedTraceSource source(trace);
  const auto report = core::run_policy_on_source(*policy, source, config, options, &error);
  if (!report) {
    std::fprintf(stderr, "simulate: %s\n", error.c_str());
    return 1;
  }

  if (csv) {
    util::Table table({"policy", "trace", "nodes", "jobs", "completed", "makespan",
                       "t_exe", "t_cpu", "t_page", "t_que", "t_mig", "avg_slowdown",
                       "idle_mb", "skew"});
    using util::Table;
    table.add_row({report->policy, report->trace, std::to_string(nodes),
                   std::to_string(report->jobs_submitted),
                   std::to_string(report->jobs_completed), Table::fmt(report->makespan, 1),
                   Table::fmt(report->total_execution, 1), Table::fmt(report->total_cpu, 1),
                   Table::fmt(report->total_page, 1), Table::fmt(report->total_queue, 1),
                   Table::fmt(report->total_migration, 1), Table::fmt(report->avg_slowdown, 4),
                   Table::fmt(report->avg_idle_memory_mb, 1),
                   Table::fmt(report->avg_balance_skew, 4)});
    std::fputs(table.to_csv().c_str(), stdout);
  } else {
    std::fputs(metrics::describe(*report).c_str(), stdout);
  }
  return 0;
}
