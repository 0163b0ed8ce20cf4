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
// TraceSpec, so a scenario's report depends only on the spec — never on the
// worker count or the order cells finish in.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/policy_registry.h"
#include "faults/fault_plan.h"
#include "runner/sweep_runner.h"
#include "workload/trace_spec.h"

namespace vrc::runner {

/// One complete declarative experiment.
struct ScenarioSpec {
  std::vector<workload::TraceSpec> traces;
  std::vector<core::PolicySpec> policies;
  /// "auto" (the paper testbed matching the traces' workload group),
  /// "paper1", or "paper2".
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
  /// trial t > 0 regenerates it with its effective seed shifted by t.
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

/// A completed scenario. Cells are indexed (trial, trace, config, policy);
/// the flat `cells` vector is the SweepRunner grid order (trial-major trace
/// axis, then the sweep's configs, policy fastest).
struct ScenarioRun {
  int num_trials = 0;
  std::size_t num_traces = 0;
  std::size_t num_configs = 0;
  std::size_t num_policies = 0;
  std::vector<CellResult> cells;

  const CellResult& cell(int trial, std::size_t trace, std::size_t config, std::size_t policy) const;
};

/// Turns the scenario into a SweepGrid: one TraceSpec entry per (trial,
/// trace) — each cell builds its own source from it — plus the resolved
/// cluster with config overrides applied, once per sweep value (a cell's
/// seed is derive_seed(base_seed, trace_axis * configs + config), so a
/// sweep-free scenario keeps its seeds); every policy spec and SWF log is
/// validated up front. Returns std::nullopt + *error on any invalid piece —
/// nothing throws, so drivers can report the message and exit cleanly.
std::optional<SweepGrid> to_grid(const ScenarioSpec& spec, std::string* error = nullptr);

/// to_grid + SweepRunner::run on `jobs` workers (0 = one per hardware
/// thread).
std::optional<ScenarioRun> run_scenario(const ScenarioSpec& spec, int jobs = 0,
                                        std::string* error = nullptr);

}  // namespace vrc::runner
