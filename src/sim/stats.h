// Streaming statistics used throughout metrics collection.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace vrc::sim {

/// Welford-style streaming mean/variance with min/max. O(1) space.
class RunningStats {
 public:
  void add(double value);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Population standard deviation (n denominator); the paper's "job balance
  /// skew" is a population stddev over the 32 workstations at an instant.
  double population_stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact percentile over a stored sample set (linear interpolation between
/// order statistics). Used for slowdown distributions in reports.
class Percentiles {
 public:
  void add(double value) { values_.push_back(value); }
  std::size_t count() const { return values_.size(); }

  /// q in [0, 1]; returns 0 when empty. Sorts lazily.
  double quantile(double q) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

}  // namespace vrc::sim
