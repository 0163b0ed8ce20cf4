// Phased memory-demand profiles.
//
// The paper's traces record each job's memory demand every 10 ms from kernel
// instrumentation. We substitute compact piecewise-linear profiles over job
// progress (fraction of CPU work completed, in [0,1]) that reproduce the
// published working sets: an allocation ramp, a plateau at the working set,
// and optional phase changes. See DESIGN.md §5 (substitution 1).
#pragma once

#include <vector>

#include "util/units.h"

namespace vrc::workload {

/// Piecewise-linear memory demand as a function of job progress.
class MemoryProfile {
 public:
  struct Point {
    double progress = 0.0;  // in [0, 1], strictly increasing across points
    Bytes demand = 0;
  };

  /// Constant demand over the whole lifetime.
  static MemoryProfile constant(Bytes demand);

  /// Linear ramp from near-zero to `peak` over the first `ramp_fraction` of
  /// progress, then a plateau at `peak`.
  static MemoryProfile ramp_to(Bytes peak, double ramp_fraction);

  /// Arbitrary phase list. Points must be sorted by progress; demand is
  /// linearly interpolated between them and clamped at the ends.
  static MemoryProfile phased(std::vector<Point> points);

  /// Demand at the given progress fraction (clamped to [0,1]).
  Bytes demand_at(double progress) const;

  /// Largest demand over the profile (the job's working set).
  Bytes peak() const;

  /// End of the rising stretch at `progress`: the largest progress through
  /// which demand_at() never decreases, starting from `progress`. Equal to
  /// `progress` when the demand falls right after it, and +infinity when it
  /// never falls again (demand_at clamps beyond the last point).
  double rising_until(double progress) const;

  /// True for a single-point (constant()) profile, whose demand never
  /// changes.
  bool is_constant() const { return points_.size() == 1; }

  const std::vector<Point>& points() const { return points_; }

  /// Returns a copy with every demand scaled by `factor` (used to jitter
  /// per-job-instance working sets).
  MemoryProfile scaled(double factor) const;

 private:
  explicit MemoryProfile(std::vector<Point> points);
  std::vector<Point> points_;
};

}  // namespace vrc::workload
