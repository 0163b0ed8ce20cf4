#include "workload/trace_spec.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/units.h"
#include "workload/swf_source.h"

namespace vrc::workload {

TraceSpec TraceSpec::standard(WorkloadGroup group, int index) {
  TraceSpec spec;
  spec.group = group;
  spec.standard_index = index;
  return spec;
}

TraceSpec TraceSpec::swf(std::string file) {
  TraceSpec spec;
  spec.file = std::move(file);
  return spec;
}

TraceSpec TraceSpec::vrc(std::string file) {
  TraceSpec spec;
  spec.file = std::move(file);
  spec.file_format = FileFormat::kVrc;
  return spec;
}

std::string TraceSpec::print() const {
  std::ostringstream out;
  if (is_swf()) {
    out << "swf:file=" << file;
    if (swf_scale != 1.0) {
      std::ostringstream scale;
      scale << swf_scale;
      out << ",scale=" << scale.str();
    }
    if (swf_max_jobs > 0) out << ",max_jobs=" << swf_max_jobs;
    if (swf_min_runtime > 0.0) {
      std::ostringstream min_rt;
      min_rt << swf_min_runtime;
      out << ",min_runtime=" << min_rt.str();
    }
    if (group != WorkloadGroup::kSpec) out << ",group=" << to_string(group);
    if (!swf_profile.empty()) out << ",profile=" << swf_profile;
    if (num_nodes != 0) out << ",nodes=" << num_nodes;
    if (!name.empty()) out << ",name=" << name;
    return out.str();
  }
  if (is_replay()) return "vrc:file=" + file;
  out << to_string(group);
  // Canonical key order; only non-default fields are emitted.
  std::vector<std::pair<std::string, std::string>> items;
  if (standard_index > 0) items.emplace_back("trace", std::to_string(standard_index));
  if (num_jobs > 0) {
    items.emplace_back("jobs", std::to_string(num_jobs));
    std::ostringstream dur;
    dur << duration;
    items.emplace_back("duration", dur.str());
  }
  if (arrival_scale != 1.0) {
    std::ostringstream scale;
    scale << arrival_scale;
    items.emplace_back("arrival_scale", scale.str());
  }
  if (seed != 0) items.emplace_back("seed", std::to_string(seed));
  if (malleable_fraction > 0.0) {
    std::ostringstream fraction;
    fraction << malleable_fraction;
    items.emplace_back("malleable", fraction.str());
    if (malleable_min_width != 1) {
      items.emplace_back("malleable_min", std::to_string(malleable_min_width));
    }
    if (malleable_max_width != 2) {
      items.emplace_back("malleable_max", std::to_string(malleable_max_width));
    }
    if (malleable_speedup_alpha != 0.8) {
      std::ostringstream alpha;
      alpha << malleable_speedup_alpha;
      items.emplace_back("malleable_alpha", alpha.str());
    }
  }
  if (big_share) {
    std::ostringstream share;
    share << *big_share;
    items.emplace_back("big_share", share.str());
  }
  if (num_nodes != 0) items.emplace_back("nodes", std::to_string(num_nodes));
  if (!name.empty()) items.emplace_back("name", name);
  for (std::size_t i = 0; i < items.size(); ++i) {
    out << (i == 0 ? ':' : ',') << items[i].first << '=' << items[i].second;
  }
  return out.str();
}

namespace {

bool fail(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

bool parse_key_values(const std::string& text, const std::string& whole,
                      std::map<std::string, std::string>* out, std::string* error) {
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(',', start);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(start, end - start);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      return fail(error,
                  "trace spec '" + whole + "': param '" + item + "' is not key=value");
    }
    const std::string key = item.substr(0, eq);
    if (out->count(key) != 0) {
      return fail(error, "trace spec '" + whole + "': duplicate param '" + key + "'");
    }
    (*out)[key] = item.substr(eq + 1);
    if (end == text.size()) break;
    start = end + 1;
  }
  return true;
}

bool value_error(std::string* error, const std::string& whole, const std::string& key,
                 const std::string& value, const std::string& type, const std::string& example) {
  return fail(error, "trace spec '" + whole + "': invalid value '" + value + "' for '" + key +
                         "' (expected " + type + ", e.g. " + key + "=" + example + ")");
}

}  // namespace

std::optional<TraceSpec> TraceSpec::parse(const std::string& text, std::string* error) {
  const std::size_t colon = text.find(':');
  const std::string group_name = text.substr(0, colon);
  TraceSpec spec;
  if (group_name == "vrc") {
    std::map<std::string, std::string> params;
    if (colon != std::string::npos &&
        !parse_key_values(text.substr(colon + 1), text, &params, error)) {
      return std::nullopt;
    }
    for (const auto& [key, value] : params) {
      if (key != "file") {
        fail(error, "trace spec '" + text + "': unknown key '" + key +
                        "' (a vrc trace file takes only file=)");
        return std::nullopt;
      }
    }
    const std::string file = params["file"];
    if (file.empty()) {
      value_error(error, text, "file", file, "path", "examples/scenarios/blocking_episode.trace");
      return std::nullopt;
    }
    return vrc(file);
  }
  if (group_name == "swf") {
    std::map<std::string, std::string> params;
    if (colon != std::string::npos) {
      if (!parse_key_values(text.substr(colon + 1), text, &params, error)) return std::nullopt;
    }
    for (const auto& [key, value] : params) {
      if (key == "file") {
        if (value.empty()) {
          value_error(error, text, key, value, "path", "tests/data/swf/NASA-iPSC-1993-3.swf");
          return std::nullopt;
        }
        spec.file = value;
      } else if (key == "scale") {
        double scale = 0.0;
        if (!parse_finite_double(value, &scale) || scale <= 0.0) {
          value_error(error, text, key, value, "positive double", "0.1");
          return std::nullopt;
        }
        spec.swf_scale = scale;
      } else if (key == "max_jobs") {
        if (!parse_integer(value, &spec.swf_max_jobs, 1)) {
          value_error(error, text, key, value, "positive int", "200");
          return std::nullopt;
        }
      } else if (key == "min_runtime") {
        if (!parse_duration(value, &spec.swf_min_runtime) || spec.swf_min_runtime < 0.0) {
          value_error(error, text, key, value, "non-negative duration", "10");
          return std::nullopt;
        }
      } else if (key == "group") {
        if (!parse_workload_group(value, &spec.group)) {
          value_error(error, text, key, value, "spec or apps", "apps");
          return std::nullopt;
        }
      } else if (key == "profile") {
        if (value != "flat" && value != "ramp") {
          value_error(error, text, key, value, "flat or ramp", "ramp");
          return std::nullopt;
        }
        spec.swf_profile = value;
      } else if (key == "nodes") {
        if (!parse_integer(value, &spec.num_nodes, 1)) {
          value_error(error, text, key, value, "positive int", "32");
          return std::nullopt;
        }
      } else if (key == "name") {
        if (value.empty()) {
          value_error(error, text, key, value, "non-empty string", "nasa-replay");
          return std::nullopt;
        }
        spec.name = value;
      } else {
        fail(error, "trace spec '" + text + "': unknown key '" + key +
                        "' (known swf keys: file, scale, max_jobs, min_runtime, group, profile, "
                        "nodes, name)");
        return std::nullopt;
      }
    }
    std::string semantic;
    if (!spec.validate(&semantic)) {
      fail(error, "trace spec '" + text + "': " + semantic);
      return std::nullopt;
    }
    return spec;
  }
  if (!parse_workload_group(group_name, &spec.group)) {
    fail(error, "trace spec '" + text + "': unknown workload group '" + group_name +
                    "' (expected spec, apps, swf, or vrc)");
    return std::nullopt;
  }
  std::map<std::string, std::string> params;
  if (colon != std::string::npos) {
    if (!parse_key_values(text.substr(colon + 1), text, &params, error)) return std::nullopt;
  }

  for (const auto& [key, value] : params) {
    if (key == "trace") {
      if (!parse_integer(value, &spec.standard_index)) {
        value_error(error, text, key, value, "int 1..5", "3");
        return std::nullopt;
      }
    } else if (key == "jobs") {
      if (!parse_integer(value, &spec.num_jobs, 1)) {
        value_error(error, text, key, value, "positive int", "400");
        return std::nullopt;
      }
    } else if (key == "duration") {
      if (!parse_duration(value, &spec.duration) || spec.duration <= 0.0) {
        value_error(error, text, key, value, "positive duration", "1800");
        return std::nullopt;
      }
    } else if (key == "arrival_scale") {
      double scale = 0.0;
      if (!parse_finite_double(value, &scale) || scale <= 0.0) {
        value_error(error, text, key, value, "positive double", "1.5");
        return std::nullopt;
      }
      spec.arrival_scale = scale;
    } else if (key == "seed") {
      if (!parse_integer(value, &spec.seed)) {
        value_error(error, text, key, value, "uint64", "9");
        return std::nullopt;
      }
    } else if (key == "malleable") {
      double fraction = 0.0;
      if (!parse_finite_double(value, &fraction) || fraction < 0.0 || fraction > 1.0) {
        value_error(error, text, key, value, "double in [0, 1]", "0.5");
        return std::nullopt;
      }
      spec.malleable_fraction = fraction;
    } else if (key == "malleable_min") {
      if (!parse_integer(value, &spec.malleable_min_width, 1)) {
        value_error(error, text, key, value, "int >= 1", "1");
        return std::nullopt;
      }
    } else if (key == "malleable_max") {
      if (!parse_integer(value, &spec.malleable_max_width, 1)) {
        value_error(error, text, key, value, "int >= 1", "3");
        return std::nullopt;
      }
    } else if (key == "malleable_alpha") {
      double alpha = 0.0;
      if (!parse_finite_double(value, &alpha) || alpha < 0.0 || alpha > 1.0) {
        value_error(error, text, key, value, "double in [0, 1]", "0.8");
        return std::nullopt;
      }
      spec.malleable_speedup_alpha = alpha;
    } else if (key == "big_share") {
      double share = 0.0;
      if (!parse_finite_double(value, &share) || share < 0.0 || share > 1.0) {
        value_error(error, text, key, value, "double in [0, 1]", "0.15");
        return std::nullopt;
      }
      spec.big_share = share;
    } else if (key == "nodes") {
      if (!parse_integer(value, &spec.num_nodes, 1)) {
        value_error(error, text, key, value, "positive int", "32");
        return std::nullopt;
      }
    } else if (key == "name") {
      if (value.empty()) {
        value_error(error, text, key, value, "non-empty string", "my-trace");
        return std::nullopt;
      }
      spec.name = value;
    } else {
      fail(error, "trace spec '" + text + "': unknown key '" + key +
                      "' (known keys: trace, jobs, duration, arrival_scale, seed, malleable, "
                      "malleable_min, malleable_max, malleable_alpha, big_share, nodes, name)");
      return std::nullopt;
    }
  }

  std::string semantic;
  if (!spec.validate(&semantic)) {
    fail(error, "trace spec '" + text + "': " + semantic);
    return std::nullopt;
  }
  return spec;
}

bool TraceSpec::validate(std::string* error) const {
  if (is_swf()) {
    if (standard_index != 0 || num_jobs != 0) {
      return fail(error, "an swf spec cannot also set trace= or jobs=");
    }
    if (swf_scale <= 0.0) return fail(error, "swf scale must be > 0");
    if (swf_min_runtime < 0.0) return fail(error, "swf min_runtime must be >= 0");
    if (!swf_profile.empty() && swf_profile != "flat" && swf_profile != "ramp") {
      return fail(error, "swf profile must be flat or ramp");
    }
    if (malleable_fraction != 0.0) {
      return fail(error, "malleable= applies to generated traces, not swf replays");
    }
    if (big_share) return fail(error, "big_share= applies to generated traces, not swf replays");
    return true;
  }
  if (is_replay()) {
    // The file carries everything else: name, group, jobs and home nodes.
    if (*this != vrc(file)) return fail(error, "a vrc trace file takes only file=");
    return true;
  }
  if (swf_scale != 1.0 || swf_max_jobs != 0 || swf_min_runtime != 0.0 || !swf_profile.empty()) {
    return fail(error, "swf options need the swf group (swf:file=...)");
  }
  if (malleable_fraction < 0.0 || malleable_fraction > 1.0) {
    return fail(error, "malleable fraction must be in [0, 1]");
  }
  if (malleable_min_width < 1 || malleable_max_width < malleable_min_width) {
    return fail(error, "malleable widths need 1 <= malleable_min <= malleable_max");
  }
  if (big_share && !(*big_share >= 0.0 && *big_share <= 1.0)) {
    return fail(error, "big_share must be in [0, 1]");
  }
  if (standard_index != 0 && num_jobs != 0) {
    return fail(error, "trace= and jobs= are mutually exclusive");
  }
  if (standard_index == 0 && num_jobs == 0) {
    return fail(error, "one of trace=1..5 or jobs=N is required");
  }
  if (standard_index != 0 && (standard_index < 1 || standard_index > 5)) {
    return fail(error,
                "trace index " + std::to_string(standard_index) + " out of range (1..5)");
  }
  return true;
}

namespace {

SwfOptions swf_options_of(const TraceSpec& spec, std::uint32_t default_nodes) {
  SwfOptions options;
  options.scale = spec.swf_scale;
  options.max_jobs = spec.swf_max_jobs;
  options.min_runtime = spec.swf_min_runtime;
  options.num_nodes = spec.num_nodes != 0 ? spec.num_nodes : default_nodes;
  options.group = spec.group;
  options.name = spec.name;
  options.synthesize_profile = spec.swf_profile == "ramp";
  return options;
}

}  // namespace

TraceParams TraceSpec::to_params(std::uint32_t default_nodes) const {
  const std::uint32_t nodes = num_nodes != 0 ? num_nodes : default_nodes;
  TraceParams params;
  params.group = group;
  params.num_nodes = nodes;
  params.time_scale = 60.0 * arrival_scale;
  params.malleable_fraction = malleable_fraction;
  params.malleable_min_width = malleable_min_width;
  params.malleable_max_width = malleable_max_width;
  params.malleable_speedup_alpha = malleable_speedup_alpha;
  if (standard_index > 0) {
    const StandardTraceShape shape = standard_trace_shape(standard_index);
    params.sigma = shape.sigma;
    params.mu = shape.mu;
    params.num_jobs = shape.num_jobs;
    params.duration = shape.duration;
    params.name = !name.empty()
                      ? name
                      : (group == WorkloadGroup::kSpec ? std::string("SPEC-Trace-")
                                                       : std::string("App-Trace-")) +
                            std::to_string(standard_index);
    // Default to the deterministic per-(group, index) seed: the same trace is
    // replayed for every policy, mirroring the paper's collect-once,
    // replay-everywhere setup.
    const std::uint64_t group_key = group == WorkloadGroup::kSpec ? 1 : 2;
    params.seed = seed != 0 ? seed
                            : 0xC0FFEEULL * 31 + group_key * 1000 +
                                  static_cast<std::uint64_t>(standard_index);
  } else {
    params.num_jobs = num_jobs;
    params.duration = duration;
    params.name = !name.empty() ? name : "generated";
    params.seed = seed != 0 ? seed : 1;
  }
  if (big_share) {
    // Large programs split the share evenly; the others keep their relative
    // catalog weights.
    const std::vector<ProgramSpec>& programs = catalog(group);
    Bytes largest = 0;
    for (const ProgramSpec& p : programs) largest = std::max(largest, p.working_set);
    const auto is_large = [largest](const ProgramSpec& p) { return p.working_set * 2 > largest; };
    double large_count = 0.0;
    double normal_total = 0.0;
    for (const ProgramSpec& p : programs) {
      if (is_large(p)) {
        large_count += 1.0;
      } else {
        normal_total += p.mix_weight;
      }
    }
    for (const ProgramSpec& p : programs) {
      if (is_large(p)) {
        params.program_weights.push_back(*big_share / large_count);
      } else {
        params.program_weights.push_back((1.0 - *big_share) * p.mix_weight / normal_total);
      }
    }
  }
  return params;
}

Trace TraceSpec::build(std::uint32_t default_nodes) const {
  if (is_swf()) {
    SwfTraceSource source(file, swf_options_of(*this, default_nodes));
    return materialize(source);
  }
  if (is_replay()) return Trace::load_from_file(file);
  return generate_trace(to_params(default_nodes));
}

std::unique_ptr<ArrivalSource> TraceSpec::make_source(std::uint32_t default_nodes) const {
  if (is_swf()) {
    return std::make_unique<SwfTraceSource>(file, swf_options_of(*this, default_nodes));
  }
  if (is_replay()) return std::make_unique<MaterializedTraceSource>(Trace::load_from_file(file));
  // build() above is a drain of this same source.
  return std::make_unique<GeneratedStreamSource>(to_params(default_nodes));
}

}  // namespace vrc::workload
