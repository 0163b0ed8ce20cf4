// Bit-exact report fingerprints.
//
// Hashes every completed-job record (ids, nodes, and the raw bit patterns of
// all accounting doubles) plus the report aggregates into one FNV-1a value.
// Any change to event ordering, tick accounting, or policy decisions shifts
// the fingerprint, so goldens over this hash pin byte-identical behavior:
// the determinism tests compare them against captured values, and
// `vrc_run --perf-counters` ends its block with each cell's full_fingerprint.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "metrics/report.h"

namespace vrc::metrics {

class Fnv1a {
 public:
  void mix_u64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }

  void mix_double(double value) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    mix_u64(bits);
  }

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

inline std::uint64_t fingerprint(const RunReport& report) {
  Fnv1a h;
  h.mix_u64(report.jobs_submitted);
  h.mix_u64(report.jobs_completed);
  h.mix_double(report.makespan);
  h.mix_double(report.total_execution);
  h.mix_double(report.total_cpu);
  h.mix_double(report.total_page);
  h.mix_double(report.total_queue);
  h.mix_double(report.total_migration);
  h.mix_double(report.total_faults);
  h.mix_u64(report.migrations);
  h.mix_u64(report.remote_submits);
  h.mix_u64(report.local_placements);
  for (const cluster::CompletedJob& job : report.jobs) {
    h.mix_u64(job.id);
    h.mix_u64(job.final_node);
    h.mix_u64(static_cast<std::uint64_t>(job.migrations));
    h.mix_u64(static_cast<std::uint64_t>(job.remote_submits));
    h.mix_double(job.submit_time);
    h.mix_double(job.completion_time);
    h.mix_double(job.cpu_seconds);
    h.mix_double(job.t_cpu);
    h.mix_double(job.t_page);
    h.mix_double(job.t_queue);
    h.mix_double(job.t_mig);
    h.mix_double(job.faults);
  }
  return h.value();
}

/// Mixes every field of one completed-job record, the restart, resize, width
/// and working-set fields that `fingerprint` predates included.
inline void mix_record(Fnv1a& h, const cluster::CompletedJob& job) {
  h.mix_u64(job.id);
  for (const char c : job.program) h.mix_u64(static_cast<unsigned char>(c));
  h.mix_double(job.submit_time);
  h.mix_double(job.completion_time);
  h.mix_double(job.cpu_seconds);
  h.mix_double(job.t_cpu);
  h.mix_double(job.t_page);
  h.mix_double(job.t_queue);
  h.mix_double(job.t_mig);
  h.mix_double(job.faults);
  h.mix_u64(static_cast<std::uint64_t>(job.migrations));
  h.mix_u64(static_cast<std::uint64_t>(job.remote_submits));
  h.mix_u64(static_cast<std::uint64_t>(job.restarts));
  h.mix_u64(static_cast<std::uint64_t>(job.resizes));
  h.mix_u64(job.malleable ? 1 : 0);
  h.mix_double(job.width_seconds);
  h.mix_u64(job.final_node);
  h.mix_u64(static_cast<std::uint64_t>(job.working_set));
}

/// Every field of every completed-job record, in completion order.
inline std::uint64_t record_fingerprint(const std::vector<cluster::CompletedJob>& jobs) {
  Fnv1a h;
  h.mix_u64(jobs.size());
  for (const cluster::CompletedJob& job : jobs) mix_record(h, job);
  return h.value();
}

/// `fingerprint`'s aggregates plus the fault counters and sampled signals,
/// then every field of every job record (mix_record).
inline std::uint64_t full_fingerprint(const RunReport& report) {
  Fnv1a h;
  h.mix_u64(fingerprint(report));
  h.mix_u64(report.node_crashes);
  h.mix_u64(report.jobs_killed);
  h.mix_u64(report.transfer_failures);
  h.mix_double(report.work_lost_cpu_seconds);
  h.mix_double(report.avg_idle_memory_mb);
  h.mix_double(report.avg_balance_skew);
  h.mix_u64(record_fingerprint(report.jobs));
  return h.value();
}

}  // namespace vrc::metrics
