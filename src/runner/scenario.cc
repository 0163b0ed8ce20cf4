#include "runner/scenario.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "util/params.h"
#include "util/units.h"

namespace vrc::runner {

namespace {

bool fail(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

std::string trim(const std::string& text) {
  const std::size_t first = text.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const std::size_t last = text.find_last_not_of(" \t\r");
  return text.substr(first, last - first + 1);
}

/// Splits on `separator` and trims every item; empty items are kept.
std::vector<std::string> split_trimmed(const std::string& text, char separator) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (true) {
    const std::size_t end = text.find(separator, start);
    items.push_back(trim(text.substr(start, end == std::string::npos ? end : end - start)));
    if (end == std::string::npos) return items;
    start = end + 1;
  }
}

/// The fields of `fault crash node=K at=T for=D`; a line must give all three.
const util::ParamTable<faults::FaultEntry>& crash_fields() {
  using enum util::ParamKind;
  using E = faults::FaultEntry;
  static const util::ParamTable<E> table({
      {"node", util::field<&E::node>, kInt, util::kNonNegative, "2", "the workstation that fails"},
      {"at", util::field<&E::at>, kDuration, util::kNonNegative, "100", "when it fails"},
      {"for", util::field<&E::duration>, kDuration, util::kPositive, "60", "how long it is down"},
  });
  return table;
}

/// Runs body(0) .. body(n - 1) on min(n, jobs) threads (jobs <= 0: one per
/// hardware thread) and joins them all. Each thread claims the next index
/// from a shared counter, so the order is nondeterministic: a body must
/// write only to its own slot of any shared output. The first exception a
/// body throws stops further claims and is rethrown here once all threads
/// have joined.
template <typename Body>
void parallel_for(std::size_t n, int jobs, const Body& body) {
  if (jobs <= 0) jobs = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const std::size_t count = std::min(n, static_cast<std::size_t>(jobs));
  std::atomic<std::size_t> next{0};
  std::mutex failure_mutex;
  std::exception_ptr failure;
  {
    // A jthread joins when destroyed, also when starting a later one throws.
    std::vector<std::jthread> threads;
    threads.reserve(count);
    for (std::size_t t = 0; t < count; ++t) {
      threads.emplace_back([n, &body, &next, &failure_mutex, &failure] {
        try {
          for (std::size_t i = next++; i < n; i = next++) body(i);
        } catch (...) {
          next = n;
          const std::lock_guard<std::mutex> lock(failure_mutex);
          if (!failure) failure = std::current_exception();
        }
      });
    }
  }
  if (failure) std::rethrow_exception(failure);
}

constexpr const char* kKnownDirectives =
    "trace, policy, cluster, nodes, set, fault, malleable, trials, "
    "base_seed, sampling_interval, max_sim_time, compare, sweep";

}  // namespace

bool ScenarioSpec::apply_line(const std::string& raw, std::string* error) {
  std::string line = raw;
  const std::size_t hash = line.find('#');
  if (hash != std::string::npos) line.erase(hash);
  line = trim(line);
  if (line.empty()) return true;

  const std::size_t space = line.find_first_of(" \t");
  const std::string directive = line.substr(0, space);
  const std::string arg = space == std::string::npos ? "" : trim(line.substr(space + 1));
  if (arg.empty()) {
    return fail(error, "scenario directive '" + directive + "' needs an argument");
  }

  if (directive == "trace") {
    // The file replay forms read naturally with spaces —
    //   trace swf file=tests/data/swf/NASA-iPSC-1993-3.swf scale=0.1
    //   trace vrc file=blocking_episode.trace
    // — normalize them to the canonical colon/comma TraceSpec text.
    std::string text = arg;
    const std::string kind = text.substr(0, 3);
    if ((kind == "swf" || kind == "vrc") &&
        (text.size() == 3 || text[3] == ' ' || text[3] == '\t')) {
      std::istringstream in(text.substr(3));
      std::string token;
      text = kind;
      bool first = true;
      while (in >> token) {
        text += (first ? ':' : ',');
        text += token;
        first = false;
      }
    }
    std::optional<workload::TraceSpec> parsed = workload::TraceSpec::parse(text, error);
    if (!parsed) return false;
    traces.push_back(std::move(*parsed));
    return true;
  }
  if (directive == "policy") {
    std::optional<core::PolicySpec> parsed = core::PolicySpec::parse(arg, error);
    if (!parsed) return false;
    policies.push_back(std::move(*parsed));
    return true;
  }
  if (directive == "cluster") {
    if (arg != "auto" && arg != "paper1" && arg != "paper2") {
      return fail(error, "cluster '" + arg + "' unknown (expected auto, paper1, or paper2)");
    }
    cluster = arg;
    return true;
  }
  if (directive == "nodes") {
    std::size_t value = 0;
    if (!parse_integer(arg, &value, 1)) {
      return fail(error, "nodes '" + arg + "' is not a positive int (e.g. nodes 32)");
    }
    // Node ids are NodeId; a wider count would wrap the traces' home range.
    constexpr workload::NodeId kMaxNodes = std::numeric_limits<workload::NodeId>::max();
    if (value > kMaxNodes) {
      return fail(error, "nodes '" + arg + "' exceeds the node id range (at most " +
                             std::to_string(kMaxNodes) + ")");
    }
    nodes = value;
    return true;
  }
  if (directive == "set") {
    // One or more comma-separated key=value config overrides; a later `set`
    // of the same key wins. Values are validated by apply_overrides when
    // to_grid() builds the grid.
    for (const std::string& item : split_trimmed(arg, ',')) {
      const std::size_t eq = item.find('=');
      if (eq == std::string::npos || eq == 0) {
        return fail(error, "set '" + item + "' is not key=value (e.g. set memory_threshold=0.9)");
      }
      config_overrides[item.substr(0, eq)] = item.substr(eq + 1);
    }
    return true;
  }
  if (directive == "fault") {
    // fault crash node=<index> at=<time> for=<duration>
    std::istringstream in(arg);
    std::string kind;
    in >> kind;
    if (kind != "crash") {
      return fail(error, "fault kind '" + kind +
                             "' unknown (expected: fault crash node=K at=T for=D)");
    }
    const util::ParamTable<faults::FaultEntry>& fields = crash_fields();
    faults::FaultEntry entry;
    std::set<std::string> given;
    std::string token;
    while (in >> token) {
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos || eq == 0) {
        return fail(error, "fault field '" + token + "' is not key=value (e.g. node=2)");
      }
      const std::string key = token.substr(0, eq);
      if (!fields.apply({{key, token.substr(eq + 1)}}, &entry, "fault field", error)) return false;
      given.insert(key);
    }
    if (given.size() != fields.rows().size()) {
      return fail(error,
                  "fault crash needs node=, at=, and for= (e.g. fault crash node=2 at=100 "
                  "for=60)");
    }
    faults.push_back(entry);
    return true;
  }
  if (directive == "malleable") {
    if (util::parse_bool(arg, &malleable)) return true;
    return fail(error, "malleable '" + arg + "' unknown (expected on or off)");
  }
  if (directive == "trials") {
    if (!parse_integer(arg, &trials, 1)) {
      return fail(error, "trials '" + arg + "' is not a positive int (e.g. trials 3)");
    }
    return true;
  }
  if (directive == "base_seed") {
    if (!parse_integer(arg, &base_seed)) {
      return fail(error, "base_seed '" + arg + "' is not a uint64 (e.g. base_seed 7)");
    }
    return true;
  }
  if (directive == "sampling_interval") {
    double value = 0.0;
    if (!parse_duration(arg, &value) || value <= 0.0) {
      return fail(error, "sampling_interval '" + arg +
                             "' is not a positive duration (e.g. sampling_interval 10)");
    }
    sampling_interval = value;
    return true;
  }
  if (directive == "max_sim_time") {
    double value = 0.0;
    if (!parse_duration(arg, &value) || value <= 0.0) {
      return fail(error, "max_sim_time '" + arg +
                             "' is not a positive duration (e.g. max_sim_time 500000)");
    }
    max_sim_time = value;
    return true;
  }
  if (directive == "compare") {
    // compare BASELINE OURS; validate() matches both against `policy` lines.
    std::istringstream in(arg);
    std::string baseline_text;
    std::string ours_text;
    std::string extra;
    if (!(in >> baseline_text >> ours_text) || in >> extra) {
      return fail(error, "compare '" + arg +
                             "' needs two policy specs (e.g. compare g-loadsharing v-reconf)");
    }
    std::optional<core::PolicySpec> baseline = core::PolicySpec::parse(baseline_text, error);
    if (!baseline) return false;
    std::optional<core::PolicySpec> ours = core::PolicySpec::parse(ours_text, error);
    if (!ours) return false;
    compares.emplace_back(std::move(*baseline), std::move(*ours));
    return true;
  }
  if (directive == "sweep") {
    // sweep KEY=V1|V2|...; the key and values are validated by
    // apply_overrides when to_grid() builds one config per value.
    if (!sweep_key.empty()) {
      return fail(error, "sweep '" + arg + "': the scenario already sweeps '" + sweep_key +
                             "' (at most one sweep)");
    }
    const std::size_t eq = arg.find('=');
    std::vector<std::string> values =
        split_trimmed(eq == std::string::npos ? "" : arg.substr(eq + 1), '|');
    if (eq == std::string::npos || eq == 0 ||
        std::find(values.begin(), values.end(), "") != values.end()) {
      return fail(error, "sweep '" + arg + "' is not KEY=V1|V2|... (e.g. sweep fault.mtbf=0|750)");
    }
    sweep_key = trim(arg.substr(0, eq));
    sweep_values = std::move(values);
    return true;
  }
  return fail(error, "unknown scenario directive '" + directive + "' (known directives: " +
                         kKnownDirectives + ")");
}

bool ScenarioSpec::malleable_configured() const {
  if (malleable) return true;
  for (const workload::TraceSpec& trace : traces) {
    if (trace.malleable_fraction > 0.0) return true;
  }
  return false;
}

std::size_t ScenarioSpec::policy_index(const core::PolicySpec& policy) const {
  const std::string text = policy.print();
  std::size_t index = 0;
  while (index < policies.size() && policies[index].print() != text) ++index;
  return index;
}

bool ScenarioSpec::validate(std::string* error) const {
  if (traces.empty()) return fail(error, "scenario has no traces (add a `trace ...` line)");
  if (policies.empty()) return fail(error, "scenario has no policies (add a `policy ...` line)");
  if (trials < 1) return fail(error, "trials must be >= 1");
  if (nodes == 0) return fail(error, "nodes must be >= 1");
  if (sampling_interval <= 0.0) return fail(error, "sampling_interval must be > 0");
  if (max_sim_time <= 0.0) return fail(error, "max_sim_time must be > 0");
  if (cluster != "auto" && cluster != "paper1" && cluster != "paper2") {
    return fail(error, "cluster '" + cluster + "' unknown (expected auto, paper1, or paper2)");
  }
  for (const workload::TraceSpec& trace : traces) {
    std::string nested;
    if (!trace.validate(&nested)) {
      return fail(error, "trace spec '" + trace.print() + "': " + nested);
    }
  }
  std::string fault_error;
  if (!faults::FaultPlan::validate(faults, nodes, &fault_error)) {
    return fail(error, fault_error);
  }
  for (const auto& [baseline, ours] : compares) {
    for (const core::PolicySpec* side : {&baseline, &ours}) {
      if (policy_index(*side) == policies.size()) {
        return fail(error, "compare names '" + side->print() +
                               "', which matches no `policy` line of the scenario");
      }
    }
  }
  return true;
}

std::optional<ScenarioSpec> ScenarioSpec::parse(const std::string& text, std::string* error) {
  ScenarioSpec spec;
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::string nested;
    if (!spec.apply_line(line, &nested)) {
      fail(error, "line " + std::to_string(line_number) + ": " + nested);
      return std::nullopt;
    }
  }
  std::string nested;
  if (!spec.validate(&nested)) {
    fail(error, nested);
    return std::nullopt;
  }
  return spec;
}

std::optional<ScenarioSpec> ScenarioSpec::load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    fail(error, path + ": cannot open scenario file");
    return std::nullopt;
  }
  std::ostringstream body;
  body << in.rdbuf();
  std::string nested;
  std::optional<ScenarioSpec> spec = parse(body.str(), &nested);
  if (!spec) {
    fail(error, path + ": " + nested);
    return std::nullopt;
  }
  // Rebase relative replay paths against the scenario file's directory, so a
  // checked-in scenario works regardless of the process's working directory
  // (ctest runs from the build tree, CI from the repo root).
  const std::size_t slash = path.find_last_of("/\\");
  if (slash != std::string::npos) {
    const std::string dir = path.substr(0, slash + 1);
    for (workload::TraceSpec& trace : spec->traces) {
      if (trace.is_replay() && trace.file.front() != '/') trace.file = dir + trace.file;
    }
  }
  return spec;
}

const CellResult& ScenarioRun::cell(int trial, std::size_t trace, std::size_t config,
                                    std::size_t policy) const {
  const std::size_t axis = static_cast<std::size_t>(trial) * num_traces + trace;
  return cells[(axis * num_configs + config) * num_policies + policy];
}

std::optional<ScenarioGrid> to_grid(const ScenarioSpec& spec, std::string* error) {
  std::string nested;
  if (!spec.validate(&nested)) {
    fail(error, nested);
    return std::nullopt;
  }
  for (const core::PolicySpec& policy : spec.policies) {
    if (!core::make_policy(policy, &nested)) {
      fail(error, nested);
      return std::nullopt;
    }
  }

  // Every cell builds its own source from its TraceSpec, so replayed files
  // are read per cell; read each one end to end here so an unreadable or
  // malformed file surfaces as one clean error before any cell runs — a
  // source throwing mid-pump on a worker thread would otherwise tear down the
  // whole sweep. The drain also yields each trace's workload group (an SWF
  // spec's group=, a trace file's group line) and its highest home node.
  std::vector<workload::WorkloadGroup> groups;
  std::vector<std::size_t> home_ranges;  // home nodes each trace can name
  for (const workload::TraceSpec& trace : spec.traces) {
    if (!trace.is_replay()) {
      groups.push_back(trace.group);
      home_ranges.push_back(trace.num_nodes != 0 ? trace.num_nodes : spec.nodes);
      continue;
    }
    try {
      std::unique_ptr<workload::ArrivalSource> probe =
          trace.make_source(static_cast<std::uint32_t>(spec.nodes));
      std::size_t homes = 0;
      while (const std::optional<workload::JobSpec> job = probe->next()) {
        homes = std::max<std::size_t>(homes, std::size_t{job->home_node} + 1);
      }
      groups.push_back(probe->group());
      home_ranges.push_back(homes);
    } catch (const std::exception& e) {
      fail(error, "trace spec '" + trace.print() + "': " + e.what());
      return std::nullopt;
    }
  }

  // Resolve the cluster. "auto" picks the paper testbed of the traces'
  // workload group, which must therefore be unambiguous.
  cluster::ClusterConfig base;
  if (spec.cluster == "paper1") {
    base = cluster::ClusterConfig::paper_cluster1(spec.nodes);
  } else if (spec.cluster == "paper2") {
    base = cluster::ClusterConfig::paper_cluster2(spec.nodes);
  } else {
    if (std::adjacent_find(groups.begin(), groups.end(), std::not_equal_to<>()) != groups.end()) {
      fail(error,
           "cluster 'auto' needs all traces in one workload group; mixing spec and apps "
           "traces requires an explicit `cluster paper1` or `cluster paper2`");
      return std::nullopt;
    }
    base = core::paper_cluster_for(groups.front(), spec.nodes);
  }

  // One config per sweep value: the `set` overrides plus KEY=value.
  ScenarioGrid grid;
  const std::vector<std::string> no_sweep = {""};
  for (const std::string& value : spec.sweep_key.empty() ? no_sweep : spec.sweep_values) {
    std::map<std::string, std::string> overrides = spec.config_overrides;
    if (!spec.sweep_key.empty()) overrides[spec.sweep_key] = value;
    cluster::ClusterConfig& config = grid.configs.emplace_back(base);
    if (!config.apply_overrides(overrides, &nested)) {
      fail(error, nested);
      return std::nullopt;
    }
  }
  int cpu_threshold = grid.configs.front().cpu_threshold;
  std::size_t cluster_nodes = grid.configs.front().num_nodes();
  for (const cluster::ClusterConfig& config : grid.configs) {
    cpu_threshold = std::min(cpu_threshold, config.cpu_threshold);
    cluster_nodes = std::min(cluster_nodes, config.num_nodes());
  }
  // A job's home must be a workstation of the cluster; the cluster would
  // otherwise fold it onto node `home % nodes` without a word.
  for (std::size_t i = 0; i < spec.traces.size(); ++i) {
    if (home_ranges[i] > cluster_nodes) {
      fail(error, "trace spec '" + spec.traces[i].print() + "': home nodes reach node " +
                      std::to_string(home_ranges[i] - 1) + ", but the cluster has " +
                      std::to_string(cluster_nodes) + " nodes");
      return std::nullopt;
    }
  }
  // Malleable jobs submit at their widest width; wider than the slot
  // threshold of any config, no workstation can ever start them and the run
  // silently ends at max_sim_time. `malleable on` makes every generated
  // trace malleable.
  for (const workload::TraceSpec& trace : spec.traces) {
    const bool malleable = trace.malleable_fraction > 0.0 || (spec.malleable && !trace.is_replay());
    if (malleable && trace.malleable_max_width > cpu_threshold) {
      fail(error, "trace spec '" + trace.print() +
                      "': malleable jobs submit at their widest width " +
                      std::to_string(trace.malleable_max_width) + ", above cpu_threshold " +
                      std::to_string(cpu_threshold) + ", so no workstation can start them");
      return std::nullopt;
    }
  }

  grid.experiment.collector.sampling_intervals = {spec.sampling_interval};
  grid.experiment.max_sim_time = spec.max_sim_time;
  grid.experiment.fault_entries = spec.faults;

  // Trial expansion on the trace axis, trial-major. Trial 0 is the trace
  // exactly as specified (byte-identical to a trial-free run); trial t > 0
  // regenerates it with the effective seed shifted by t. Replayed files have
  // no generation seed, so every trial replays the same jobs (trial variation
  // still reaches the cluster seed via derive_seed).
  const std::uint32_t default_nodes = static_cast<std::uint32_t>(spec.nodes);
  for (int trial = 0; trial < spec.trials; ++trial) {
    for (const workload::TraceSpec& base : spec.traces) {
      workload::TraceSpec varied = base;
      // `malleable on` defaults generated traces without their own malleable=
      // fraction to all-malleable [1, 2] jobs; replays stay rigid (their
      // widths come from the file, not the generator).
      if (spec.malleable && !varied.is_replay() && varied.malleable_fraction == 0.0) {
        varied.malleable_fraction = 1.0;
      }
      if (trial > 0 && !varied.is_replay()) {
        varied.seed = varied.to_params(default_nodes).seed + static_cast<std::uint64_t>(trial);
      }
      grid.traces.push_back(std::move(varied));
    }
  }
  return grid;
}

std::optional<ScenarioRun> run_scenario(const ScenarioSpec& spec, int jobs, std::string* error) {
  std::optional<ScenarioGrid> grid = to_grid(spec, error);
  if (!grid) return std::nullopt;

  ScenarioRun run;
  run.num_trials = spec.trials;
  run.num_traces = spec.traces.size();
  run.num_configs = grid->configs.size();
  run.num_policies = spec.policies.size();
  run.cells.resize(grid->traces.size() * run.num_configs * run.num_policies);
  const auto default_nodes = static_cast<std::uint32_t>(spec.nodes);
  parallel_for(run.cells.size(), jobs, [&spec, &grid, &run, default_nodes](std::size_t index) {
    // The seed keys on the (trace axis, config) pair, so every policy of a
    // pair runs under identical stochastic conditions.
    const std::size_t pair = index / run.num_policies;
    cluster::ClusterConfig config = grid->configs[pair % run.num_configs];
    config.seed = derive_seed(spec.base_seed, pair);
    std::unique_ptr<workload::ArrivalSource> source =
        grid->traces[pair / run.num_configs].make_source(default_nodes);
    CellResult& cell = run.cells[index];
    cell.seed = config.seed;
    // to_grid validated every policy spec, so creation cannot fail here.
    cell.report = *core::run_policy_on_source(spec.policies[index % run.num_policies], *source,
                                              config, grid->experiment);
  });
  return run;
}

}  // namespace vrc::runner
