#include "workload/trace_generator.h"

#include <cstdio>
#include <cstdlib>

#include "workload/arrival_source.h"

namespace vrc::workload {

StandardTraceShape standard_trace_shape(int index) {
  // Section 3.3.2 of the paper, verbatim.
  switch (index) {
    case 1:
      return {4.0, 4.0, 359, 3586.0};
    case 2:
      return {3.7, 3.7, 448, 3589.0};
    case 3:
      return {3.0, 3.0, 578, 3581.0};
    case 4:
      return {2.0, 2.0, 684, 3585.0};
    case 5:
      return {1.5, 1.5, 777, 3582.0};
    default:
      std::fprintf(stderr, "standard_trace_shape: index must be 1..5, got %d\n", index);
      std::abort();
  }
}

SimTime sample_truncated_lognormal(sim::Rng& rng, double mu, double sigma, SimTime duration) {
  // Rejection sampling against the untruncated lognormal. Acceptance is the
  // lognormal CDF at `duration`, which for all published parameter pairs is
  // well above 0.4, so the loop terminates quickly. A hard cap guards the
  // degenerate-parameter case.
  for (int attempt = 0; attempt < 100000; ++attempt) {
    const double t = rng.lognormal(mu, sigma);
    if (t > 0.0 && t <= duration) return t;
  }
  std::fprintf(stderr, "sample_truncated_lognormal: acceptance too low (mu=%f sigma=%f)\n", mu,
               sigma);
  std::abort();
}

Trace generate_trace(const TraceParams& params) {
  GeneratedStreamSource source(params);
  return materialize(source, params.duration);
}

}  // namespace vrc::workload
