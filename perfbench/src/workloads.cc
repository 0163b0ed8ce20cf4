#include "workloads.h"

#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/policy_registry.h"
#include "runner/scenario.h"
#include "runner/sweep_runner.h"
#include "sim/rng.h"
#include "workload/memory_profile.h"
#include "workload/swf_source.h"
#include "workload/trace_spec.h"

namespace perfbench {
namespace {

using namespace vrc;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Input seed for one generated piece of a workload, derived from the
/// benchmark seed and a per-piece key. Never 0.
std::uint64_t input_seed(std::uint64_t seed, std::uint64_t key) {
  const std::uint64_t derived = runner::derive_seed(seed, key);
  return derived != 0 ? derived : 1;
}

std::unique_ptr<cluster::SchedulerPolicy> policy_or_throw(const core::PolicySpec& spec) {
  std::string error;
  std::unique_ptr<cluster::SchedulerPolicy> policy = core::make_policy(spec, &error);
  if (!policy) throw std::runtime_error("policy '" + spec.print() + "': " + error);
  return policy;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

/// The trace with every job's home node renamed through a seeded random
/// permutation of the `nodes` workstations. On a homogeneous cluster this
/// keeps the offered load (which jobs share a home, and when) while changing
/// where it lands, so seeds vary the input without varying its size much:
/// traces regenerated from new seeds moved node ticks per job by 10% on
/// paper-traces and 20% on faults-malleable.
workload::Trace relabel_homes(const workload::Trace& trace, std::uint32_t nodes,
                              std::uint64_t seed) {
  std::vector<workload::NodeId> rename(nodes);
  for (std::uint32_t i = 0; i < nodes; ++i) rename[i] = i;
  sim::Rng rng(seed);
  for (std::size_t i = nodes; i > 1; --i) std::swap(rename[i - 1], rename[rng.uniform_index(i)]);
  std::vector<workload::JobSpec> jobs = trace.jobs();
  for (workload::JobSpec& job : jobs) job.home_node = rename[job.home_node % nodes];
  return workload::Trace(trace.name(), trace.group(), trace.duration(), std::move(jobs));
}

// --- paper-traces ----------------------------------------------------------

// SPEC-Trace-3 on paper cluster 1 and App-Trace-3 on paper cluster 2, 32
// nodes each, under the baseline and the paper's policy. A non-default seed
// relabels the home nodes of both traces.
Setup build_paper_traces(std::uint64_t seed, const std::string& /*data_dir*/) {
  Setup setup;
  const workload::WorkloadGroup groups[] = {workload::WorkloadGroup::kSpec,
                                            workload::WorkloadGroup::kApps};
  for (workload::WorkloadGroup group : groups) {
    const Clock::time_point start = Clock::now();
    workload::Trace trace = workload::TraceSpec::standard(group, 3).build(32);
    if (seed != kDefaultSeed) {
      trace = relabel_homes(trace, 32, input_seed(seed, static_cast<std::uint64_t>(group) + 1));
    }
    setup.workload_build_s += seconds_since(start);
    for (const char* policy : {"g-loadsharing", "v-reconf"}) {
      Cell cell;
      cell.label = trace.name() + "/" + policy;
      cell.expected_jobs = trace.size();
      cell.source = std::make_unique<workload::MaterializedTraceSource>(trace);
      cell.config = core::paper_cluster_for(group, 32);
      cell.policy = policy_or_throw(core::PolicySpec(policy));
      setup.cells.push_back(std::move(cell));
    }
  }
  return setup;
}

// --- swf-replay ------------------------------------------------------------

/// Keeps every job line's number and submit time in place and deals the rest
/// of each line (runtime, processors, memory, status, ...) out in a seeded
/// random order. Arrival times, home nodes, the accepted-job count and the
/// total work are those of the original log; which job lands where changes.
std::string shuffle_swf_jobs(const std::string& body, std::uint64_t seed) {
  std::vector<std::string> lines;
  std::istringstream in(body);
  for (std::string line; std::getline(in, line);) lines.push_back(line);

  std::vector<std::size_t> job_lines;
  std::vector<std::string> heads;
  std::vector<std::string> tails;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::istringstream fields(lines[i]);
    std::string number;
    std::string submit;
    if (!(fields >> number) || number[0] == ';' || !(fields >> submit)) continue;
    std::string tail;
    std::getline(fields, tail);
    job_lines.push_back(i);
    heads.push_back(number + " " + submit);
    tails.push_back(tail);
  }
  sim::Rng rng(seed);
  for (std::size_t i = tails.size(); i > 1; --i) {
    std::swap(tails[i - 1], tails[rng.uniform_index(i)]);
  }
  for (std::size_t k = 0; k < job_lines.size(); ++k) lines[job_lines[k]] = heads[k] + tails[k];

  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

// Both SWF fixtures (`scale=0.1,min_runtime=1,profile=flat`), streamed on 32
// nodes under v-reconf, as in examples/scenarios/swf_replay.scn.
Setup build_swf_replay(std::uint64_t seed, const std::string& data_dir) {
  Setup setup;
  const char* stems[] = {"NASA-iPSC-1993-3", "SDSC-SP2-1998-4"};
  for (std::size_t index = 0; index < 2; ++index) {
    const std::string stem = stems[index];
    workload::SwfOptions options;
    options.scale = 0.1;
    options.min_runtime = 1.0;
    options.num_nodes = 32;

    const Clock::time_point start = Clock::now();
    std::string body = read_file(data_dir + "/swf/" + stem + ".swf");
    if (seed != kDefaultSeed) body = shuffle_swf_jobs(body, input_seed(seed, index + 1));
    // Validate end to end before the run, as runner::to_grid does: a
    // malformed line must not surface mid-run.
    std::size_t accepted = 0;
    workload::SwfTraceSource probe(stem, std::istringstream(body), options);
    while (probe.next()) ++accepted;
    setup.workload_build_s += seconds_since(start);

    Cell cell;
    cell.label = stem + "/v-reconf";
    cell.expected_jobs = accepted;
    cell.source =
        std::make_unique<workload::SwfTraceSource>(stem, std::istringstream(body), options);
    cell.config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 32);
    cell.config.seed = runner::derive_seed(0, index);
    cell.policy = policy_or_throw(core::PolicySpec("v-reconf"));
    setup.cells.push_back(std::move(cell));
  }
  return setup;
}

// --- large-cluster ---------------------------------------------------------

/// The BM_EndToEndLargeRun/10240 shape, generated lazily: 1,024,000
/// non-paging jobs of 1 s CPU and 50 MB, arriving over 200 s onto the first
/// 320 nodes. Job i arrives at a seeded random point of the i-th of N equal
/// slices of the window (so arrivals stay sorted without materializing
/// them) on a seeded random home node.
class LargeClusterSource final : public workload::ArrivalSource {
 public:
  static constexpr std::size_t kJobs = 1024000;
  static constexpr std::uint64_t kHomes = 320;
  static constexpr SimTime kWindow = 200.0;

  explicit LargeClusterSource(std::uint64_t seed) : rng_(seed) { draw_time(); }

  std::optional<SimTime> peek_time() override {
    if (index_ >= kJobs) return std::nullopt;
    return next_time_;
  }

  std::optional<workload::JobSpec> next() override {
    if (index_ >= kJobs) return std::nullopt;
    workload::JobSpec spec;
    spec.id = static_cast<workload::JobId>(index_ + 1);
    spec.program = "uniform";
    spec.submit_time = next_time_;
    spec.home_node = static_cast<workload::NodeId>(rng_.uniform_index(kHomes));
    spec.cpu_seconds = 1.0;
    spec.touch_rate = 0.0;
    spec.memory = workload::MemoryProfile::constant(megabytes(50));
    ++index_;
    draw_time();
    return spec;
  }

  std::optional<std::size_t> total_jobs() const override { return kJobs; }
  const std::string& name() const override { return name_; }
  workload::WorkloadGroup group() const override { return workload::WorkloadGroup::kSpec; }

 private:
  void draw_time() {
    if (index_ < kJobs) {
      next_time_ = kWindow * (static_cast<double>(index_) + rng_.uniform()) /
                   static_cast<double>(kJobs);
    }
  }

  sim::Rng rng_;
  std::string name_ = "large-cluster";
  std::size_t index_ = 0;
  SimTime next_time_ = 0.0;
};

Setup build_large_cluster(std::uint64_t seed, const std::string& /*data_dir*/) {
  Setup setup;
  const Clock::time_point start = Clock::now();
  Cell cell;
  cell.label = "large-cluster/g-loadsharing";
  cell.expected_jobs = LargeClusterSource::kJobs;
  cell.source = std::make_unique<LargeClusterSource>(input_seed(seed, 1));
  setup.workload_build_s = seconds_since(start);
  cell.config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 10240);
  cell.config.tick = 0.1;                  // as BM_EndToEndLargeRun
  cell.config.load_exchange_period = 5.0;  // as BM_EndToEndLargeRun
  cell.policy = policy_or_throw(core::PolicySpec("g-loadsharing"));
  setup.cells.push_back(std::move(cell));
  return setup;
}

// --- faults-malleable ------------------------------------------------------

/// Appends the cells of one scenario file, built the way runner::to_grid
/// builds them (cluster, overrides, per-cell seed, malleable traces), but
/// each run through its own MaterializedTraceSource.
void add_scenario_cells(const std::string& path, std::uint64_t seed, std::uint64_t key,
                        Setup& setup) {
  const Clock::time_point start = Clock::now();
  std::string error;
  std::optional<runner::ScenarioSpec> spec = runner::ScenarioSpec::load(path, &error);
  if (!spec) throw std::runtime_error(error);
  const auto nodes = static_cast<std::uint32_t>(spec->nodes);
  std::vector<workload::Trace> traces;
  for (workload::TraceSpec trace : spec->traces) {
    if (spec->malleable && trace.malleable_fraction == 0.0) trace.malleable_fraction = 1.0;
    traces.push_back(trace.build(nodes));
    if (seed != kDefaultSeed) {
      traces.back() = relabel_homes(traces.back(), nodes, input_seed(seed, key + traces.size()));
    }
  }
  setup.workload_build_s += seconds_since(start);

  cluster::ClusterConfig config = spec->cluster == "paper2"
                                      ? cluster::ClusterConfig::paper_cluster2(spec->nodes)
                                      : cluster::ClusterConfig::paper_cluster1(spec->nodes);
  if (!config.apply_overrides(spec->config_overrides, &error)) throw std::runtime_error(error);
  core::ExperimentOptions options;
  options.collector.sampling_intervals = {spec->sampling_interval};
  options.max_sim_time = spec->max_sim_time;
  options.fault_entries = spec->faults;
  for (std::size_t index = 0; index < traces.size(); ++index) {
    for (const core::PolicySpec& policy : spec->policies) {
      Cell cell;
      cell.label = traces[index].name() + "/" + policy.print();
      cell.expected_jobs = traces[index].size();
      cell.source = std::make_unique<workload::MaterializedTraceSource>(traces[index]);
      cell.config = config;
      cell.config.seed = runner::derive_seed(spec->base_seed, index);
      cell.policy = policy_or_throw(policy);
      cell.options = options;
      setup.cells.push_back(std::move(cell));
    }
  }
}

Setup build_faults_malleable(std::uint64_t seed, const std::string& data_dir) {
  Setup setup;
  add_scenario_cells(data_dir + "/scenarios/fault_matrix.scn", seed, 1, setup);
  add_scenario_cells(data_dir + "/scenarios/malleable_blocking.scn", seed, 2, setup);
  return setup;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"paper-traces", build_paper_traces},
      {"swf-replay", build_swf_replay},
      {"large-cluster", build_large_cluster},
      {"faults-malleable", build_faults_malleable},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& workload : workloads()) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

}  // namespace perfbench
