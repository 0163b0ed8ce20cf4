// Engine micro-benchmarks (google-benchmark): event queue throughput,
// workstation tick cost, trace generation, and a small end-to-end run. These
// guard the simulator's performance envelope — a full Figure-1 sweep
// executes hundreds of millions of node-ticks.
#include <benchmark/benchmark.h>

#include <sstream>
#include <string>

#include "cluster/cluster.h"
#include "core/baselines.h"
#include "core/experiment.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "workload/arrival_source.h"
#include "workload/swf_source.h"
#include "workload/trace_generator.h"
#include "workload/trace_spec.h"

namespace {

void BM_EventScheduleExecute(benchmark::State& state) {
  vrc::sim::Simulator sim;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_after(static_cast<double>(i % 17), [&fired] { ++fired; });
    }
    sim.run();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventScheduleExecute);

void BM_EventCancel(benchmark::State& state) {
  vrc::sim::Simulator sim;
  std::vector<vrc::sim::EventId> ids;
  ids.reserve(1000);
  for (auto _ : state) {
    ids.clear();
    for (int i = 0; i < 1000; ++i) ids.push_back(sim.schedule_after(1e9, [] {}));
    for (vrc::sim::EventId id : ids) sim.cancel(id);
    sim.run();  // drains cancelled entries
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventCancel);

// Cancel-heavy steady state, shaped like the load-information exchange:
// a standing pool of far-future timers where each round retracts half of
// them and re-arms replacements. Exercises the slab free-list under churn
// and the heap's tombstone compaction.
void BM_EventCancelHeavy(benchmark::State& state) {
  vrc::sim::Simulator sim;
  constexpr int kPool = 512;
  std::vector<vrc::sim::EventId> pool;
  pool.reserve(kPool);
  for (int i = 0; i < kPool; ++i) {
    pool.push_back(sim.schedule_after(1e6 + i, [] {}));
  }
  std::size_t victim = 0;
  for (auto _ : state) {
    for (int i = 0; i < kPool / 2; ++i) {
      victim = (victim * 2654435761u + 1) % kPool;  // deterministic scatter
      if (sim.cancel(pool[victim])) {
        pool[victim] = sim.schedule_after(1e6 + static_cast<double>(i), [] {});
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * (kPool / 2));
}
BENCHMARK(BM_EventCancelHeavy);

// Mixed schedule/cancel/execute at the ratios a policy run produces: most
// events fire, a minority are retracted before their timestamp arrives.
void BM_EventMixedScheduleCancel(benchmark::State& state) {
  vrc::sim::Simulator sim;
  std::uint64_t fired = 0;
  std::uint64_t rng_state = 0x2545f4914f6cdd1dull;
  std::vector<vrc::sim::EventId> cancellable;
  cancellable.reserve(256);
  for (auto _ : state) {
    cancellable.clear();
    for (int i = 0; i < 1000; ++i) {
      rng_state ^= rng_state << 13;
      rng_state ^= rng_state >> 7;
      rng_state ^= rng_state << 17;
      const double when = static_cast<double>(rng_state % 97);
      const vrc::sim::EventId id = sim.schedule_after(when, [&fired] { ++fired; });
      if (rng_state % 5 == 0) cancellable.push_back(id);  // ~20% retracted
    }
    for (vrc::sim::EventId id : cancellable) sim.cancel(id);
    sim.run();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventMixedScheduleCancel);

void BM_RngLognormal(benchmark::State& state) {
  vrc::sim::Rng rng(1);
  double sum = 0.0;
  for (auto _ : state) sum += rng.lognormal(3.0, 3.0);
  benchmark::DoNotOptimize(sum);
}
BENCHMARK(BM_RngLognormal);

void BM_WorkstationTick(benchmark::State& state) {
  using namespace vrc;
  const auto config = cluster::ClusterConfig::paper_cluster1(1);
  cluster::Workstation node(0, config.nodes[0], config);
  std::vector<workload::JobSpec> specs(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].id = static_cast<workload::JobId>(i + 1);
    specs[i].cpu_seconds = 1e9;
    specs[i].touch_rate = 200.0;
    specs[i].memory = workload::MemoryProfile::constant(megabytes(120));
    auto job = std::make_unique<cluster::RunningJob>();
    job->spec = &specs[i];
    job->phase = cluster::JobPhase::kRunning;
    job->demand = specs[i].memory.demand_at(0.0);
    node.add_job(std::move(job));
  }
  sim::Rng rng(1);
  double now = 0.0;
  for (auto _ : state) {
    now += config.tick;
    auto outcome = node.tick(now, config.tick, rng);
    benchmark::DoNotOptimize(outcome.faults);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WorkstationTick)->Arg(1)->Arg(4)->Arg(8);

// Load snapshot cost with N resident jobs: the exchange task publishes one
// per node per period, so this tracks the O(1) aggregate maintenance win
// over rescanning the job list.
void BM_WorkstationSnapshot(benchmark::State& state) {
  using namespace vrc;
  const auto config = cluster::ClusterConfig::paper_cluster1(1);
  cluster::Workstation node(0, config.nodes[0], config);
  std::vector<workload::JobSpec> specs(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].id = static_cast<workload::JobId>(i + 1);
    specs[i].cpu_seconds = 1e9;
    specs[i].memory = workload::MemoryProfile::constant(megabytes(30));
    auto job = std::make_unique<cluster::RunningJob>();
    job->spec = &specs[i];
    job->phase = cluster::JobPhase::kRunning;
    job->demand = specs[i].memory.demand_at(0.0);
    node.add_job(std::move(job));
  }
  double now = 0.0;
  for (auto _ : state) {
    now += 1.0;
    auto info = node.snapshot(now);
    benchmark::DoNotOptimize(info.idle_memory);
  }
}
BENCHMARK(BM_WorkstationSnapshot)->Arg(4)->Arg(16);

void BM_TraceGeneration(benchmark::State& state) {
  for (auto _ : state) {
    vrc::workload::TraceParams params;
    params.num_jobs = 578;
    params.seed = 3;
    auto trace = vrc::workload::generate_trace(params);
    benchmark::DoNotOptimize(trace.size());
  }
}
BENCHMARK(BM_TraceGeneration);

void BM_EndToEndSmallRun(benchmark::State& state) {
  using namespace vrc;
  workload::TraceParams params;
  params.num_jobs = 40;
  params.duration = 600.0;
  params.num_nodes = 4;
  params.seed = 9;
  const auto trace = workload::generate_trace(params);
  const auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 4);
  for (auto _ : state) {
    workload::MaterializedTraceSource source(trace);
    auto report = core::run_policy_on_source(core::PolicySpec("v-reconf"), source, config);
    benchmark::DoNotOptimize(report->total_execution);
  }
}
BENCHMARK(BM_EndToEndSmallRun)->Unit(benchmark::kMillisecond);

// The same small run with fault injection on: an explicit crash window plus
// a stochastic MTBF/MTTR stream, so every fail/recover transition, job kill,
// and hardened transfer path is on the measured path. Tracks the overhead
// the faults subsystem adds to an end-to-end run.
void BM_EndToEndFaultedRun(benchmark::State& state) {
  using namespace vrc;
  workload::TraceParams params;
  params.num_jobs = 40;
  params.duration = 600.0;
  params.num_nodes = 4;
  params.seed = 9;
  const auto trace = workload::generate_trace(params);
  auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 4);
  config.fault_mtbf = 500.0;
  config.fault_mttr = 40.0;
  config.fault_seed = 11;
  config.fault_restart = "resubmit";
  core::ExperimentOptions options;
  options.fault_entries = {{1, 50.0, 20.0}};
  options.max_sim_time = 50000.0;
  for (auto _ : state) {
    workload::MaterializedTraceSource source(trace);
    auto report =
        core::run_policy_on_source(core::PolicySpec("v-reconf"), source, config, options);
    benchmark::DoNotOptimize(report->total_execution);
  }
}
BENCHMARK(BM_EndToEndFaultedRun)->Unit(benchmark::kMillisecond);

// Large-cluster scaling run: N workstations, 100 jobs per workstation
// (10240 -> 1,024,000 jobs), submissions concentrated on the first N/32
// homes so nearly every placement overflows the home node and goes through
// the board's indexed submission scan. Short uniform jobs keep the run
// placement-bound: jobs/s across the Arg sweep is the decision-cost scaling
// curve quoted in EXPERIMENTS.md — roughly flat (sub-linear total cost)
// now that placement is O(log n) and idle workstations skip their ticks,
// where the pre-index linear scans degraded with the node count.
void BM_EndToEndLargeRun(benchmark::State& state) {
  using namespace vrc;
  const std::size_t nodes = static_cast<std::size_t>(state.range(0));
  const std::size_t jobs = nodes * 100;
  const std::size_t homes = std::max<std::size_t>(1, nodes / 32);
  const SimTime window = 200.0;

  std::vector<workload::JobSpec> specs;
  specs.reserve(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    workload::JobSpec spec;
    spec.id = static_cast<workload::JobId>(i + 1);
    spec.program = "uniform";
    spec.submit_time = window * static_cast<double>(i) / static_cast<double>(jobs);
    spec.home_node = static_cast<workload::NodeId>(i % homes);
    spec.cpu_seconds = 1.0;
    spec.touch_rate = 0.0;  // no paging: measure scheduling, not fault service
    spec.memory = workload::MemoryProfile::constant(megabytes(50));
    specs.push_back(spec);
  }
  const workload::Trace trace("large-run", workload::WorkloadGroup::kSpec, window,
                              std::move(specs));

  auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, nodes);
  config.tick = 0.1;                 // 10 ms ticks would swamp the placement signal
  config.load_exchange_period = 5.0; // a 10k-node board refresh is O(n log n)

  for (auto _ : state) {
    workload::MaterializedTraceSource source(trace);
    auto report = core::run_policy_on_source(core::PolicySpec("g-loadsharing"), source, config);
    if (report->jobs_completed != jobs) {
      state.SkipWithError("large run did not drain");
      break;
    }
    benchmark::DoNotOptimize(report->total_execution);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(jobs));
}
BENCHMARK(BM_EndToEndLargeRun)
    ->Arg(32)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(10240)
    ->Unit(benchmark::kMillisecond);

// Isolates the periodic state-propagation cost from job churn: N nodes, a
// fixed 32-node busy set running everlasting jobs, no arrivals or
// completions inside the measured window. Each iteration advances ten load
// exchange periods (with all the ticks and policy rounds inside them).
// Under the dirty-set exchange and active-set tick loop the per-period cost
// tracks the busy-set size, not N, so time per iteration should stay flat
// across the Arg sweep — the O(active) evidence the perf counters attribute
// (DESIGN.md §12). The pre-PR-7 full-rebroadcast engine was linear in N
// here (~40x from first to last Arg).
void BM_ExchangeScaling(benchmark::State& state) {
  using namespace vrc;
  const std::size_t nodes = static_cast<std::size_t>(state.range(0));
  const std::size_t busy = 32;
  const std::size_t jobs_per_node = 2;

  auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, nodes);
  config.tick = 0.1;
  config.load_exchange_period = 0.5;

  sim::Simulator sim;
  core::LocalOnly policy;
  cluster::Cluster cluster(sim, config, policy);
  for (std::size_t i = 0; i < busy * jobs_per_node; ++i) {
    workload::JobSpec spec;
    spec.id = static_cast<workload::JobId>(i + 1);
    spec.program = "everlasting";
    spec.submit_time = 0.0;
    spec.home_node = static_cast<workload::NodeId>(i % busy);
    spec.cpu_seconds = 1e15;  // never completes: the busy set stays fixed
    spec.touch_rate = 0.0;
    spec.memory = workload::MemoryProfile::constant(megabytes(50));
    cluster.submit_job(spec);
  }
  sim.run_until(1.0);  // placements settle; periodic tasks armed

  const int periods_per_iteration = 10;
  SimTime deadline = 1.0;
  for (auto _ : state) {
    deadline += periods_per_iteration * config.load_exchange_period;
    sim.run_until(deadline);
  }
  benchmark::DoNotOptimize(cluster.board().cluster_idle_memory());
  state.SetItemsProcessed(state.iterations() * periods_per_iteration);
}
BENCHMARK(BM_ExchangeScaling)
    ->Arg(256)
    ->Arg(2048)
    ->Arg(10240)
    ->Unit(benchmark::kMicrosecond);

// SWF line-parse throughput: drain an in-memory archive-style log through
// SwfTraceSource (DESIGN.md §14.4). The body is synthesized once outside the
// measured loop; each iteration re-parses all of it, so items/s is
// jobs-parsed/s including the skip rules (a slice of cancelled and
// never-ran entries is mixed in, as in the real logs).
void BM_SwfParse(benchmark::State& state) {
  using namespace vrc;
  constexpr int kLines = 8192;
  std::string body = "; synthetic SWF body for the parse bench\n";
  body.reserve(static_cast<std::size_t>(kLines) * 64);
  for (int i = 1; i <= kLines; ++i) {
    const int status = (i % 31 == 0) ? 5 : 1;      // ~3% cancelled
    const int run = (i % 47 == 0) ? 0 : 30 + i % 600;  // ~2% never ran
    const int procs = 1 + i % 8;
    const int mem_kb = (i % 3 == 0) ? -1 : 1024 + (i % 8) * 512;
    body += std::to_string(i) + ' ' + std::to_string(i * 7) + " 0 " + std::to_string(run) + ' ' +
            std::to_string(procs) + " -1 " + std::to_string(mem_kb) + ' ' +
            std::to_string(procs) + " -1 -1 " + std::to_string(status) + " 1 1 " +
            std::to_string(1 + i % 16) + " 1 1 -1 -1\n";
  }
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    workload::SwfTraceSource source("bench", std::istringstream(body));
    while (source.next()) ++jobs;
  }
  benchmark::DoNotOptimize(jobs);
  state.SetItemsProcessed(state.iterations() * kLines);
}
BENCHMARK(BM_SwfParse);

// Width-reconfiguration mechanics in isolation: one node, one everlasting
// malleable job, alternating shrink/grow cycles through Cluster::resize_job
// (DESIGN.md §15). Each cycle pays the resize event, the slot re-accounting,
// and the indexed republish; items/s is resize cycles per second. Guards the
// resize path against accidental O(jobs) or O(nodes) work.
void BM_MalleableResize(benchmark::State& state) {
  using namespace vrc;
  auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 1);
  sim::Simulator sim;
  core::LocalOnly policy;
  cluster::Cluster cluster(sim, config, policy);
  workload::JobSpec spec;
  spec.id = 1;
  spec.program = "everlasting-malleable";
  spec.submit_time = 0.0;
  spec.home_node = 0;
  spec.cpu_seconds = 1e15;  // never completes: the resize target stays live
  spec.touch_rate = 0.0;
  spec.memory = workload::MemoryProfile::constant(megabytes(50));
  spec.malleability.min_width = 1;
  spec.malleability.max_width = 4;
  cluster.submit_job(spec);
  sim.run_until(1.0);  // placement settles at width 4

  SimTime deadline = 1.0;
  int width = 1;
  for (auto _ : state) {
    if (!cluster.resize_job(0, 1, width)) {
      state.SkipWithError("resize refused");
      break;
    }
    deadline += 5.0;  // covers the resize pause (fixed 0.5 s + 0.25 s/slot)
    sim.run_until(deadline);
    width = width == 1 ? 4 : 1;
  }
  if (cluster.resizes_completed() <
      static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("resizes did not complete");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MalleableResize);

// Malleable-vs-rigid end-to-end pair: the identical generated shape on a
// slot-tight 4-node cluster, Arg(0) rigid under G-Loadsharing, Arg(1)
// all-malleable (widths [1, 2]) under M-Reconfiguration. The Arg(1)/Arg(0)
// delta prices the whole third axis — wide-job tick arithmetic, shrink
// waves, regrow scans, and resize completions — on a run where the levers
// actually fire.
void BM_MalleableEndToEnd(benchmark::State& state) {
  using namespace vrc;
  const bool malleable = state.range(0) != 0;
  workload::TraceSpec spec;
  spec.group = workload::WorkloadGroup::kSpec;
  spec.num_jobs = 80;
  spec.duration = 400.0;
  spec.seed = 5;
  if (malleable) spec.malleable_fraction = 1.0;
  const workload::Trace trace = spec.build(4);
  const auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 4);
  const core::PolicySpec policy(malleable ? "m-reconfiguration" : "g-loadsharing");

  std::uint64_t jobs_done = 0;
  for (auto _ : state) {
    workload::MaterializedTraceSource source(trace);
    auto report = core::run_policy_on_source(policy, source, config);
    if (!report || report->jobs_completed != report->jobs_submitted) {
      state.SkipWithError("run did not drain");
      break;
    }
    jobs_done += report->jobs_completed;
  }
  benchmark::DoNotOptimize(jobs_done);
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs_done));
}
BENCHMARK(BM_MalleableEndToEnd)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Arrival-pump end-to-end run: the standard trace-3 shape (578 SPEC jobs,
// ~3581 s, 32 nodes) under G-Loadsharing. Both rows go through
// Cluster::submit_source and run the identical simulation: Arg(0) pumps a
// MaterializedTraceSource copy of the pre-built trace, Arg(1) a
// GeneratedStreamSource that draws each job as it is pulled. The delta
// between the rows is lazy generation against copying a pre-built trace;
// either way peak live JobSpec storage is O(concurrent jobs).
void BM_StreamingArrivals(benchmark::State& state) {
  using namespace vrc;
  const bool generated = state.range(0) != 0;
  const workload::TraceSpec spec = workload::TraceSpec::standard(workload::WorkloadGroup::kSpec, 3);
  const workload::TraceParams params = spec.to_params(32);
  const auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 32);
  const workload::Trace trace = generated ? workload::Trace{} : spec.build(32);

  std::uint64_t jobs_done = 0;
  for (auto _ : state) {
    std::optional<metrics::RunReport> report;
    if (generated) {
      workload::GeneratedStreamSource source(params);
      report = core::run_policy_on_source(core::PolicySpec("g-loadsharing"), source, config);
    } else {
      workload::MaterializedTraceSource source(trace);
      report = core::run_policy_on_source(core::PolicySpec("g-loadsharing"), source, config);
    }
    if (!report || report->jobs_completed != params.num_jobs) {
      state.SkipWithError("run did not drain");
      break;
    }
    jobs_done += report->jobs_completed;
  }
  benchmark::DoNotOptimize(jobs_done);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(params.num_jobs));
}
BENCHMARK(BM_StreamingArrivals)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
