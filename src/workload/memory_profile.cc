#include "workload/memory_profile.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace vrc::workload {

MemoryProfile::MemoryProfile(std::vector<Point> points) : points_(std::move(points)) {
  if (points_.empty()) {
    std::fprintf(stderr, "MemoryProfile requires at least one point\n");
    std::abort();
  }
  for (size_t i = 1; i < points_.size(); ++i) {
    if (points_[i].progress <= points_[i - 1].progress) {
      std::fprintf(stderr, "MemoryProfile points must be strictly increasing in progress\n");
      std::abort();
    }
  }
  for (const Point& p : points_) {
    if (p.demand < 0 || p.progress < 0.0 || p.progress > 1.0) {
      std::fprintf(stderr, "MemoryProfile point out of range\n");
      std::abort();
    }
  }
}

MemoryProfile MemoryProfile::constant(Bytes demand) { return MemoryProfile({{0.0, demand}}); }

MemoryProfile MemoryProfile::ramp_to(Bytes peak, double ramp_fraction) {
  ramp_fraction = std::clamp(ramp_fraction, 1e-6, 1.0);
  // Start at 4 MiB (text + initial heap) rather than zero: a freshly started
  // job always occupies some frames.
  const Bytes base = std::min<Bytes>(peak, 4 * kMiB);
  if (ramp_fraction >= 1.0) return MemoryProfile({{0.0, base}, {1.0, peak}});
  return MemoryProfile({{0.0, base}, {ramp_fraction, peak}});
}

MemoryProfile MemoryProfile::phased(std::vector<Point> points) {
  return MemoryProfile(std::move(points));
}

Bytes MemoryProfile::demand_at(double progress) const {
  progress = std::clamp(progress, 0.0, 1.0);
  if (progress <= points_.front().progress) return points_.front().demand;
  if (progress >= points_.back().progress) return points_.back().demand;
  // Find the first point strictly beyond `progress`.
  auto hi = std::upper_bound(
      points_.begin(), points_.end(), progress,
      [](double value, const Point& p) { return value < p.progress; });
  auto lo = hi - 1;
  const double span = hi->progress - lo->progress;
  const double frac = (progress - lo->progress) / span;
  return lo->demand + static_cast<Bytes>(frac * static_cast<double>(hi->demand - lo->demand));
}

double MemoryProfile::rising_until(double progress) const {
  progress = std::clamp(progress, 0.0, 1.0);
  // As in demand_at: the first point strictly beyond `progress`.
  auto hi = std::upper_bound(
      points_.begin(), points_.end(), progress,
      [](double value, const Point& p) { return value < p.progress; });
  if (hi == points_.end()) return std::numeric_limits<double>::infinity();
  // Before the first point demand_at clamps to it; otherwise the segment
  // from the point before `hi` must not fall. demand_at interpolates each
  // segment monotonically and is continuous at the points, so the stretch
  // runs until the first falling segment.
  if (hi != points_.begin() && (hi - 1)->demand > hi->demand) return progress;
  while (hi + 1 != points_.end() && (hi + 1)->demand >= hi->demand) ++hi;
  if (hi + 1 == points_.end()) return std::numeric_limits<double>::infinity();
  return hi->progress;
}

Bytes MemoryProfile::peak() const {
  Bytes best = 0;
  for (const Point& p : points_) best = std::max(best, p.demand);
  return best;
}

MemoryProfile MemoryProfile::scaled(double factor) const {
  std::vector<Point> points = points_;
  for (Point& p : points) p.demand = static_cast<Bytes>(static_cast<double>(p.demand) * factor);
  return MemoryProfile(std::move(points));
}

}  // namespace vrc::workload
