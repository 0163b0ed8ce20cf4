// Declarative experiment scenarios.
//
// A ScenarioSpec is everything one sweep needs — traces, policies, cluster,
// config overrides, trial count — as plain data, so any experiment the bench
// binaries hard-coded in C++ is expressible from command-line flags or a
// checked-in spec file:
//
//   trace spec:trace=3            # the paper's SPEC-Trace-3
//   policy g-loadsharing
//   policy v-reconf:early_release=0
//   nodes 8
//   set memory_threshold=0.9
//   fault crash node=2 at=100 for=60
//   trials 3
//   compare g-loadsharing v-reconf:early_release=0
//   sweep fault.mtbf=0|1500|750    # one cluster config per value
//
//   auto spec = runner::ScenarioSpec::load("paper_cluster1.scn", &error);
//   auto run = runner::run_scenario(*spec, /*jobs=*/0, &error);
//
// Determinism contract: every cell pumps a fresh ArrivalSource built from its
// TraceSpec and runs an isolated Simulator / Cluster / policy with a seed
// derived from its grid coordinates, so a scenario's report depends only on
// the spec — never on the worker count or the order cells finish in.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/config.h"
#include "core/experiment.h"
#include "core/policy_registry.h"
#include "faults/fault_plan.h"
#include "metrics/report.h"
#include "runner/sweep_runner.h"
#include "workload/trace_spec.h"

namespace vrc::runner {

/// One complete declarative experiment.
struct ScenarioSpec {
  std::vector<workload::TraceSpec> traces;
  std::vector<core::PolicySpec> policies;
  /// "auto" (the paper testbed matching the traces' workload group: a
  /// generated trace's group, an SWF replay's group=, a trace file's group
  /// line), "paper1", or "paper2".
  std::string cluster = "auto";
  /// Workstations in the cluster; also the default node count traces are
  /// generated for (a trace's own nodes= override wins).
  std::size_t nodes = 32;
  /// cluster::ClusterConfig::apply_overrides key/value pairs, applied after
  /// the base cluster is built (DESIGN.md §9 lists the keys).
  std::map<std::string, std::string> config_overrides;
  /// Explicit failure windows (`fault crash node=K at=T for=D` directives),
  /// applied identically to every cell; the stochastic generator is
  /// configured separately via `set fault.mtbf=...` (DESIGN.md §10).
  std::vector<faults::FaultEntry> faults;
  /// Malleable mode (`malleable on`): every generated trace that does not
  /// carry its own malleable= fraction is built with malleable jobs
  /// (fraction 1, widths [1, 2]) so the width-reconfiguration levers have
  /// material to act on. Off (the default) leaves every trace exactly as
  /// written — a scenario without malleable jobs stays bit-identical to
  /// pre-malleability builds. Resize costs are tuned separately via
  /// `set resize.fixed_cost=... / resize.per_slot_cost=...` (DESIGN.md §15).
  bool malleable = false;
  /// Independent repetitions. Trial 0 runs each trace exactly as specified;
  /// trial t > 0 regenerates it with its effective seed shifted by t (a
  /// replayed file repeats unchanged).
  int trials = 1;
  /// Folded into each cell's cluster seed via derive_seed (matched pairs:
  /// policies of the same (trial, trace) share stochastic conditions).
  std::uint64_t base_seed = 0;
  /// Idle-memory / balance-skew sampling interval in seconds.
  double sampling_interval = 1.0;
  /// Safety cap on simulated time per cell.
  double max_sim_time = 500000.0;
  /// Matched-pair comparisons (`compare BASELINE OURS`). Both sides must
  /// match a `policy` line by canonical print(); drivers report the pair's
  /// reductions for every (trial, trace, config).
  std::vector<std::pair<core::PolicySpec, core::PolicySpec>> compares;
  /// The cluster-config axis (`sweep KEY=V1|V2|...`, at most one): one
  /// config per value, each the `set` overrides plus KEY=value. An empty key
  /// means one config, the `set` overrides alone.
  std::string sweep_key;
  std::vector<std::string> sweep_values;

  bool operator==(const ScenarioSpec&) const = default;

  /// True when any cell of this scenario can contain malleable jobs (the
  /// `malleable on` directive, or a trace with an explicit malleable=
  /// fraction). Drivers use it to decide whether to print resize columns.
  bool malleable_configured() const;

  /// Index of the first `policy` line whose canonical text equals
  /// `policy.print()`, or policies.size() when none does.
  std::size_t policy_index(const core::PolicySpec& policy) const;

  /// Applies one spec-file directive ("policy v-reconf:early_release=0",
  /// "set memory_threshold=0.9", ...). Comments (#) and blank lines are
  /// no-ops. Returns false + *error on an unknown directive or bad value.
  bool apply_line(const std::string& line, std::string* error = nullptr);

  /// Structural checks (non-empty axes, positive counts, every `compare`
  /// side naming a `policy` line). Policy/override
  /// values are validated against the registry/config when the scenario is
  /// turned into a grid by to_grid().
  bool validate(std::string* error = nullptr) const;

  /// Parses a whole spec file body (one directive per line). Errors are
  /// prefixed with the 1-based line number.
  static std::optional<ScenarioSpec> parse(const std::string& text,
                                           std::string* error = nullptr);

  /// Reads `path` and parses it. Errors are prefixed with the path.
  static std::optional<ScenarioSpec> load(const std::string& path,
                                          std::string* error = nullptr);
};

/// One completed cell of a scenario.
struct CellResult {
  std::uint64_t seed = 0;  // the derived ClusterConfig::seed the cell ran with
  metrics::RunReport report;
};

/// A completed scenario. Cells are indexed (trial, trace, config, policy);
/// the flat `cells` vector is row-major in that order (trial-major trace
/// axis, then the sweep's configs, policy fastest).
struct ScenarioRun {
  int num_trials = 0;
  std::size_t num_traces = 0;
  std::size_t num_configs = 0;
  std::size_t num_policies = 0;
  std::vector<CellResult> cells;

  const CellResult& cell(int trial, std::size_t trace, std::size_t config, std::size_t policy) const;
};

/// A validated scenario's plan: what every cell runs besides its policy.
struct ScenarioGrid {
  /// One entry per (trial, trace), trial-major; each cell builds its own
  /// source from its entry (sources are single-pass iterators, and live
  /// JobSpec storage stays O(concurrent jobs) per cell, DESIGN.md §14).
  std::vector<workload::TraceSpec> traces;
  /// The resolved cluster with the `set` overrides applied, one per sweep
  /// value (one in all when the scenario has no sweep).
  std::vector<cluster::ClusterConfig> configs;
  core::ExperimentOptions experiment;
};

/// Validates the scenario and plans its cells: one TraceSpec per (trial,
/// trace) plus the resolved cluster, once per sweep value. Every policy spec,
/// replayed file and config override is checked up front. Returns std::nullopt +
/// *error on any invalid piece — nothing throws, so drivers can report the
/// message and exit cleanly.
std::optional<ScenarioGrid> to_grid(const ScenarioSpec& spec, std::string* error = nullptr);

/// Runs every (trial, trace, config, policy) cell of the scenario on at most
/// `jobs` threads, never more threads than cells (jobs <= 0: one per
/// hardware thread). A cell's seed is derive_seed(base_seed, trace_axis *
/// configs + config): policies of one (trial, trace, config) share it, so
/// comparisons are matched pairs, and a sweep-free scenario keys on the
/// trace axis alone. An exception a cell throws (an allocation failure, say)
/// reaches the caller once every worker has stopped.
std::optional<ScenarioRun> run_scenario(const ScenarioSpec& spec, int jobs = 0,
                                        std::string* error = nullptr);

}  // namespace vrc::runner
