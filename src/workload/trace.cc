#include "workload/trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/units.h"

namespace vrc::workload {

Trace::Trace(std::string name, WorkloadGroup group, SimTime duration, std::vector<JobSpec> jobs)
    : name_(std::move(name)), group_(group), duration_(duration), jobs_(std::move(jobs)) {
  std::stable_sort(jobs_.begin(), jobs_.end(), [](const JobSpec& a, const JobSpec& b) {
    return a.submit_time < b.submit_time;
  });
}

SimTime Trace::total_cpu_seconds() const {
  SimTime total = 0.0;
  for (const JobSpec& job : jobs_) total += job.cpu_seconds;
  return total;
}

void Trace::save(std::ostream& out) const {
  // Enough digits that every double reads back bit for bit.
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "# vrc-trace v1\n";
  out << "name " << name_ << '\n';
  out << "group " << to_string(group_) << '\n';
  out << "duration " << duration_ << '\n';
  out << "jobs " << jobs_.size() << '\n';
  for (const JobSpec& job : jobs_) {
    out << "job " << job.id << ' ' << job.submit_time << ' ' << job.home_node << ' '
        << job.program << ' ' << job.cpu_seconds << ' ' << job.touch_rate << ' '
        << job.memory.points().size();
    for (const auto& p : job.memory.points()) out << ' ' << p.progress << ' ' << p.demand;
    out << '\n';
  }
}

bool Trace::save_to_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  save(out);
  return static_cast<bool>(out);
}

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("Trace::load: " + message);
}

}  // namespace

Trace Trace::load(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line.rfind("# vrc-trace v1", 0) != 0) {
    fail("missing '# vrc-trace v1' header");
  }

  std::string name;
  WorkloadGroup group = WorkloadGroup::kSpec;
  SimTime duration = 0.0;
  std::size_t expected_jobs = 0;
  bool have_group = false;
  std::vector<JobSpec> jobs;

  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "name") {
      ls >> std::ws;
      std::getline(ls, name);
    } else if (key == "group") {
      std::string text;
      ls >> text;
      if (!parse_workload_group(text, &group)) fail("bad group '" + text + "'");
      have_group = true;
    } else if (key == "duration") {
      if (!(ls >> duration) || !std::isfinite(duration) || duration < 0.0) fail("bad duration");
    } else if (key == "jobs") {
      // Parse signed: `>>` into an unsigned type accepts "-3" by modular
      // wrap, which would turn a typo into a 2^64-scale job count.
      long long count = -1;
      if (!(ls >> count) || count < 0) fail("bad job count");
      expected_jobs = static_cast<std::size_t>(count);
    } else if (key == "job") {
      JobSpec job;
      std::string id;
      std::string home;
      long long npoints = -1;
      if (!(ls >> id >> job.submit_time >> home >> job.program >> job.cpu_seconds >>
            job.touch_rate >> npoints)) {
        fail("malformed job line: " + line);
      }
      // parse_integer checks the 32-bit range; a wider read and a cast would
      // wrap 2^32 + 1 to 1.
      if (!parse_integer(id, &job.id)) fail("job id is not a uint32: " + line);
      if (!parse_integer(home, &job.home_node)) fail("home node is not a uint32: " + line);
      if (!std::isfinite(job.submit_time) || job.submit_time < 0.0) {
        fail("bad submit time: " + line);
      }
      if (!std::isfinite(job.cpu_seconds) || job.cpu_seconds < 0.0) {
        fail("bad cpu seconds: " + line);
      }
      if (!std::isfinite(job.touch_rate) || job.touch_rate < 0.0) {
        fail("bad touch rate: " + line);
      }
      if (npoints <= 0 || npoints > 1024) fail("bad profile point count");
      std::vector<MemoryProfile::Point> points(static_cast<std::size_t>(npoints));
      for (std::size_t i = 0; i < points.size(); ++i) {
        MemoryProfile::Point& p = points[i];
        long long demand = -1;
        if (!(ls >> p.progress >> demand)) fail("malformed profile point");
        if (!std::isfinite(p.progress) || p.progress < 0.0 || p.progress > 1.0) {
          fail("profile progress out of [0, 1]: " + line);
        }
        // MemoryProfile aborts on points out of order; reject them here.
        if (i > 0 && p.progress <= points[i - 1].progress) {
          fail("profile progress not strictly increasing: " + line);
        }
        if (demand < 0) fail("negative profile demand: " + line);
        p.demand = static_cast<Bytes>(demand);
      }
      std::string extra;
      if (ls >> extra) fail("trailing data on job line: " + line);
      job.memory = MemoryProfile::phased(std::move(points));
      jobs.push_back(std::move(job));
    } else {
      fail("unknown key '" + key + "'");
    }
  }

  if (!have_group) fail("missing group");
  if (expected_jobs != jobs.size()) {
    fail("job count mismatch: header says " + std::to_string(expected_jobs) + ", found " +
         std::to_string(jobs.size()));
  }
  return Trace(std::move(name), group, duration, std::move(jobs));
}

Trace Trace::load_from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open " + path);
  return load(in);
}

}  // namespace vrc::workload
