// Synthetic trace generation following the paper's §3.3.2.
//
// Job submission times follow the lognormal arrival-rate function (Eq. 1)
// truncated to the trace duration; each job is an instance of a catalog
// program with lightly jittered lifetime/working set, randomly submitted to
// one of the cluster's workstations. The five standard traces per group use
// the published (sigma, mu, job count, duration) tuples; TraceSpec::standard
// (trace_spec.h) names them and derives their replayed seed.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.h"
#include "workload/catalog.h"
#include "workload/trace.h"

namespace vrc::workload {

/// Parameters of one generated trace.
struct TraceParams {
  std::string name;
  WorkloadGroup group = WorkloadGroup::kSpec;
  double sigma = 3.0;          // lognormal shape (the paper's ff)
  double mu = 3.0;             // lognormal scale (the paper's mu)
  std::size_t num_jobs = 578;  // jobs submitted within the window
  SimTime duration = 3581.0;   // submission window in seconds
  std::uint32_t num_nodes = 32;
  std::uint64_t seed = 1;
  /// Arrival times are lognormal(mu, sigma) in units of `time_scale` seconds,
  /// truncated to the duration. The paper's Eq. 1 parameter pairs produce
  /// degenerate all-at-once bursts when read in seconds; at the default
  /// 60 s unit the five published shapes span light-to-intensive workloads
  /// (EXPERIMENTS.md, calibration notes).
  double time_scale = 60.0;

  // Per-instance jitter: lifetime and working set are multiplied by a
  // uniform factor in [1-jitter, 1+jitter]. 0 replays the catalog exactly.
  double lifetime_jitter = 0.10;
  double working_set_jitter = 0.08;

  // Optional program-mix override: weights parallel to catalog(group) order.
  // Empty means uniform random selection, matching "randomly submitted".
  std::vector<double> program_weights;

  // --- malleability (DESIGN.md §15) ---
  // Fraction of jobs generated with a Malleability block (width range
  // [malleable_min_width, malleable_max_width], submitted at max width).
  // 0 (the default) draws nothing from the malleability RNG stream and
  // produces the exact pre-malleability trace bit-for-bit.
  double malleable_fraction = 0.0;
  int malleable_min_width = 1;
  int malleable_max_width = 2;
  /// Speedup-curve exponent assigned to generated malleable jobs.
  double malleable_speedup_alpha = 0.8;
};

/// Index of the paper's five standard traces (1..5 = light..highly intensive).
struct StandardTraceShape {
  double sigma = 0.0;
  double mu = 0.0;
  std::size_t num_jobs = 0;
  SimTime duration = 0.0;
};

/// The published (sigma, mu, jobs, duration) for trace index 1..5.
StandardTraceShape standard_trace_shape(int index);

/// Generates a trace from explicit parameters: a drain of
/// GeneratedStreamSource(params) (arrival_source.h), the one per-job draw.
Trace generate_trace(const TraceParams& params);

/// Arrival-time sampler used by the generator: draws from LogNormal(mu,
/// sigma) conditioned on the value falling in (0, duration]. Exposed for
/// testing the arrival process in isolation.
SimTime sample_truncated_lognormal(sim::Rng& rng, double mu, double sigma, SimTime duration);

}  // namespace vrc::workload
