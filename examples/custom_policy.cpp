// Writing a custom scheduling policy against the public API.
//
// Implements "Random-Fit": each arriving job goes to a uniformly random
// workstation that currently accepts work — a classic strawman — registers
// it in the PolicyRegistry, and races it against the shipped policies on the
// same trace. Registration makes the policy addressable as the spec string
// "random-fit:seed=7", exactly like the built-ins — scenario files and
// vrc_run-style drivers in this process can name it too. Demonstrates the
// SchedulerPolicy hooks, cluster operations, and per-policy statistics.
//
//   ./custom_policy [--jobs N] [--nodes N]
#include <cstdio>
#include <memory>
#include <string>

#include "core/experiment.h"
#include "sim/rng.h"
#include "util/flags.h"
#include "util/table.h"
#include "workload/trace_spec.h"

using namespace vrc;

namespace {

/// Random-Fit's params, filled by the registry from "random-fit:seed=7".
struct RandomFitOptions {
  std::uint64_t seed = 7;
};

/// Random-fit: place each arrival on a random workstation that passes the
/// live admission check; retry pending jobs periodically.
class RandomFit : public cluster::SchedulerPolicy {
 public:
  explicit RandomFit(std::uint64_t seed = 7) : rng_(seed) {}

  const char* name() const override { return "Random-Fit"; }

  void on_job_arrival(cluster::Cluster& cluster, cluster::RunningJob& job) override {
    if (!try_place(cluster, job)) ++blocked_;
  }

  void on_periodic(cluster::Cluster& cluster) override {
    for (cluster::RunningJob* job : cluster.pending_jobs()) {
      if (!try_place(cluster, *job)) break;
    }
  }

  std::vector<std::pair<std::string, double>> stats() const override {
    return {{"blocked_submissions", static_cast<double>(blocked_)}};
  }

 private:
  bool try_place(cluster::Cluster& cluster, cluster::RunningJob& job) {
    const Bytes hint = std::max(job.demand, cluster.config().admission_demand_estimate);
    const std::size_t n = cluster.num_nodes();
    const std::size_t start = rng_.uniform_index(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto node_id = static_cast<workload::NodeId>((start + i) % n);
      if (cluster.node(node_id).accepts_new_job(hint)) {
        if (node_id == job.home_node) {
          cluster.place_local(job, node_id);
        } else {
          cluster.place_remote(job, node_id);
        }
        return true;
      }
    }
    return false;
  }

  sim::Rng rng_;
  std::uint64_t blocked_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  int num_jobs = 300;
  int nodes = 16;
  util::FlagSet flags;
  flags.add_int("jobs", &num_jobs, "jobs to generate");
  flags.add_int("nodes", &nodes, "number of workstations");
  if (!flags.parse(argc, argv)) return flags.help_requested() ? 0 : 1;

  // Register Random-Fit alongside the built-ins with its options table: the
  // registry fills RandomFitOptions from the spec's params, so
  // "random-fit:sead=7" fails with the same precise diagnostics the shipped
  // policies give.
  core::PolicyRegistry::instance().register_policy<RandomFitOptions>(
      "random-fit",
      util::ParamTable<RandomFitOptions>({{"seed", util::field<&RandomFitOptions::seed>,
                                           util::ParamKind::kUint64, util::kAnyValue, "7",
                                           "placement RNG seed"}}),
      [](const RandomFitOptions& options) { return std::make_unique<RandomFit>(options.seed); });

  workload::TraceSpec trace_spec;
  trace_spec.group = workload::WorkloadGroup::kSpec;
  trace_spec.num_jobs = static_cast<std::size_t>(num_jobs);
  trace_spec.duration = 1800.0;
  trace_spec.seed = 21;
  trace_spec.name = "custom-demo";
  const auto trace = trace_spec.build(static_cast<std::uint32_t>(nodes));
  const auto config = core::paper_cluster_for(trace.group(), static_cast<std::size_t>(nodes));

  using util::Table;
  Table table({"policy", "T_exe (s)", "avg slowdown", "p95 slowdown", "makespan (s)"});

  for (const char* text : {"random-fit:seed=7", "g-loadsharing", "v-reconf"}) {
    std::string error;
    const auto spec = core::PolicySpec::parse(text, &error);
    workload::MaterializedTraceSource source(trace);
    const auto report =
        spec ? core::run_policy_on_source(*spec, source, config, {}, &error) : std::nullopt;
    if (!report) {
      std::fprintf(stderr, "custom_policy: %s\n", error.c_str());
      return 1;
    }
    table.add_row({report->policy, Table::fmt(report->total_execution, 0),
                   Table::fmt(report->avg_slowdown), Table::fmt(report->p95_slowdown),
                   Table::fmt(report->makespan, 0)});
  }
  std::printf("Custom policy demo: %d jobs on %d workstations\n", num_jobs, nodes);
  std::fputs(table.to_ascii().c_str(), stdout);
  return 0;
}
