#include "workload/arrival_source.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "workload/catalog.h"

namespace vrc::workload {

std::optional<SimTime> MaterializedTraceSource::peek_time() {
  if (next_index_ >= trace_.size()) return std::nullopt;
  return trace_.jobs()[next_index_].submit_time;
}

std::optional<JobSpec> MaterializedTraceSource::next() {
  if (next_index_ >= trace_.size()) return std::nullopt;
  return trace_.jobs()[next_index_++];
}

GeneratedStreamSource::GeneratedStreamSource(TraceParams params) : params_(std::move(params)) {
  const std::vector<ProgramSpec>& programs = catalog(params_.group);
  if (!params_.program_weights.empty() && params_.program_weights.size() != programs.size()) {
    std::fprintf(stderr, "GeneratedStreamSource: %zu weights for %zu programs\n",
                 params_.program_weights.size(), programs.size());
    std::abort();
  }
  if (params_.malleable_min_width < 1 ||
      params_.malleable_max_width < params_.malleable_min_width) {
    std::fprintf(stderr, "GeneratedStreamSource: bad malleable width range [%d, %d]\n",
                 params_.malleable_min_width, params_.malleable_max_width);
    std::abort();
  }

  // Fork order is part of the trace: the malleability stream comes fifth,
  // after the original four, so a malleability-free trace is bit-identical
  // to one generated before the stream existed.
  sim::Rng rng(params_.seed);
  sim::Rng arrival_rng = rng.fork();
  pick_rng_ = rng.fork();
  jitter_rng_ = rng.fork();
  node_rng_ = rng.fork();
  malleable_rng_ = rng.fork();

  arrivals_.resize(params_.num_jobs);
  for (SimTime& t : arrivals_) {
    t = params_.time_scale * sample_truncated_lognormal(arrival_rng, params_.mu, params_.sigma,
                                                        params_.duration / params_.time_scale);
  }
  std::sort(arrivals_.begin(), arrivals_.end());

  weights_ = params_.program_weights;
  if (weights_.empty()) {
    weights_.reserve(programs.size());
    for (const ProgramSpec& p : programs) weights_.push_back(p.mix_weight);
  }
  total_weight_ = std::accumulate(weights_.begin(), weights_.end(), 0.0);
}

std::optional<SimTime> GeneratedStreamSource::peek_time() {
  if (next_index_ >= arrivals_.size()) return std::nullopt;
  return arrivals_[next_index_];
}

std::optional<JobSpec> GeneratedStreamSource::next() {
  if (next_index_ >= arrivals_.size()) return std::nullopt;
  const std::vector<ProgramSpec>& programs = catalog(params_.group);
  const std::size_t i = next_index_++;

  // Program selection: explicit weights when given, otherwise the catalog's
  // mix weights (which keep exceptionally large jobs a small percentage of
  // the pool, per the workload studies the paper cites).
  const ProgramSpec* program = &programs.back();
  double target = pick_rng_.uniform() * total_weight_;
  for (std::size_t p = 0; p < programs.size(); ++p) {
    target -= weights_[p];
    if (target <= 0.0) {
      program = &programs[p];
      break;
    }
  }

  JobSpec job;
  job.id = static_cast<JobId>(i + 1);
  job.program = program->name;
  job.submit_time = arrivals_[i];
  job.home_node = static_cast<NodeId>(node_rng_.uniform_index(params_.num_nodes));
  const double life_jitter =
      jitter_rng_.uniform(1.0 - params_.lifetime_jitter, 1.0 + params_.lifetime_jitter);
  const double ws_jitter =
      jitter_rng_.uniform(1.0 - params_.working_set_jitter, 1.0 + params_.working_set_jitter);
  job.cpu_seconds = program->lifetime * life_jitter;
  job.touch_rate = program->touch_rate;
  job.memory = program->profile().scaled(ws_jitter);
  if (params_.malleable_fraction > 0.0 &&
      malleable_rng_.uniform() < params_.malleable_fraction) {
    job.malleability.min_width = params_.malleable_min_width;
    job.malleability.max_width = params_.malleable_max_width;
    job.malleability.speedup_alpha = params_.malleable_speedup_alpha;
  }
  return job;
}

Trace materialize(ArrivalSource& source, SimTime duration) {
  std::vector<JobSpec> jobs;
  if (std::optional<std::size_t> total = source.total_jobs()) jobs.reserve(*total);
  SimTime last = 0.0;
  while (std::optional<JobSpec> job = source.next()) {
    last = std::max(last, job->submit_time);
    jobs.push_back(std::move(*job));
  }
  return Trace(source.name(), source.group(), duration > 0.0 ? duration : last, std::move(jobs));
}

}  // namespace vrc::workload
