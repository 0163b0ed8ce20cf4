// A workload trace: an ordered list of JobSpecs plus metadata, with a plain
// text serialization so traces can be generated once and replayed across
// experiments (the paper collects each trace once and feeds it to both
// schedulers).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "workload/job.h"
#include "workload/program.h"

namespace vrc::workload {

/// An immutable job trace. Jobs are sorted by submit_time.
class Trace {
 public:
  Trace() = default;
  Trace(std::string name, WorkloadGroup group, SimTime duration, std::vector<JobSpec> jobs);

  const std::string& name() const { return name_; }
  WorkloadGroup group() const { return group_; }
  /// Paper-reported submission window (e.g. 3,586 s for Trace-1).
  SimTime duration() const { return duration_; }
  const std::vector<JobSpec>& jobs() const { return jobs_; }
  std::size_t size() const { return jobs_.size(); }

  /// Sum of dedicated CPU demand over all jobs.
  SimTime total_cpu_seconds() const;

  /// Serializes to the "vrc-trace v1" text format, with enough digits that
  /// load() reproduces every double bit for bit.
  void save(std::ostream& out) const;
  bool save_to_file(const std::string& path) const;

  /// Parses the text format. Throws std::runtime_error on malformed input.
  static Trace load(std::istream& in);
  static Trace load_from_file(const std::string& path);

 private:
  std::string name_;
  WorkloadGroup group_ = WorkloadGroup::kSpec;
  SimTime duration_ = 0.0;
  std::vector<JobSpec> jobs_;
};

}  // namespace vrc::workload
