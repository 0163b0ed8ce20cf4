#include "workload/trace_spec.h"

#include <algorithm>
#include <map>

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

namespace {

bool fail(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

// The three grammars, built once. Generated traces and SWF replays share
// the nodes and name rows.
struct Grammars {
  util::ParamTable<TraceSpec> generated;
  util::ParamTable<TraceSpec> swf;
  util::ParamTable<TraceSpec> vrc;
};

const Grammars& grammars() {
  static const Grammars* all = [] {
    using enum util::ParamKind;
    using util::field;
    using util::kAnyValue;
    using util::kNonNegative;
    using util::kPositive;
    using util::within;
    using T = TraceSpec;
    const util::Param<T> nodes{"nodes", field<&T::num_nodes>, kInt, kPositive, "32",
                               "home-node range (default: the scenario's nodes)"};
    const util::Param<T> name{"name", field<&T::name>, kString, kAnyValue, "my-trace",
                              "report label"};
    return new Grammars{
        util::ParamTable<T>({
            {"trace", field<&T::standard_index>, kInt, within(1, 5), "3",
             "one of the paper's five standard shapes (light to highly intensive)"},
            {"jobs", field<&T::num_jobs>, kInt, kPositive, "400",
             "generated trace: jobs submitted in the window"},
            {"duration", field<&T::duration>, kDuration, kPositive, "1800",
             "generated trace: submission window"},
            {"arrival_scale", field<&T::arrival_scale>, kDouble, kPositive, "1.5",
             "multiplies the 60 s arrival time unit (>1 slower, <1 burstier)"},
            {"seed", field<&T::seed>, kUint64, kAnyValue, "9",
             "generation seed; 0: a standard shape's replayed seed"},
            {"malleable", field<&T::malleable_fraction>, kDouble, within(0, 1), "0.5",
             "fraction of jobs generated malleable (DESIGN.md §15)"},
            {"malleable_min", field<&T::malleable_min_width>, kInt, kPositive, "1",
             "narrowest width of a malleable job"},
            {"malleable_max", field<&T::malleable_max_width>, kInt, kPositive, "3",
             "widest width; malleable jobs submit at it"},
            {"malleable_alpha", field<&T::malleable_speedup_alpha>, kDouble, within(0, 1), "0.9",
             "per-width speedup exponent: s(w) = w^alpha"},
            {"big_share", field<&T::big_share>, kDouble, within(0, 1), "0.15",
             "arrival share of the large programs (unset: the catalog mix)"},
            nodes,
            name,
        }),
        util::ParamTable<T>({
            {"file", field<&T::file>, kString, kAnyValue, "tests/data/swf/NASA-iPSC-1993-3.swf",
             "the .swf log; a relative path rebases against the scenario file"},
            {"scale", field<&T::swf_scale>, kDouble, kPositive, "0.1",
             "multiplies every submit time"},
            {"max_jobs", field<&T::swf_max_jobs>, kInt, kPositive, "200",
             "stop after this many accepted jobs (default: all)"},
            {"min_runtime", field<&T::swf_min_runtime>, kDuration, kNonNegative, "10",
             "skip jobs shorter than this"},
            // Word i is WorkloadGroup value i.
            {"group", field<&T::group>, kChoice, kAnyValue, "apps",
             "workload group the replay is billed to (cluster auto)", {"spec", "apps"}},
            {"profile", field<&T::swf_profile>, kChoice, kAnyValue, "ramp",
             "memory profile: the archive field flat, or a synthetic ramp (DESIGN.md §14.4)",
             {"flat", "ramp"}},
            nodes,
            name,
        }),
        util::ParamTable<T>({
            {"file", field<&T::file>, kString, kAnyValue,
             "examples/scenarios/blocking_episode.trace",
             "the trace file; a relative path rebases against the scenario file"},
        })};
  }();
  return *all;
}

const util::ParamTable<TraceSpec>& grammar_of(const TraceSpec& spec) {
  if (spec.is_swf()) return grammars().swf;
  return spec.is_replay() ? grammars().vrc : grammars().generated;
}

}  // namespace

const util::ParamTable<TraceSpec>* TraceSpec::grammar(std::string_view group) {
  if (group == "spec" || group == "apps") return &grammars().generated;
  if (group == "swf") return &grammars().swf;
  return group == "vrc" ? &grammars().vrc : nullptr;
}

std::string TraceSpec::print() const {
  const std::string params = grammar_of(*this).print(*this);
  const std::string token = is_swf() ? "swf" : is_replay() ? "vrc" : to_string(group);
  return params.empty() ? token : token + ":" + params;
}

std::optional<TraceSpec> TraceSpec::parse(const std::string& text, std::string* error) {
  const auto failed = [error, &text](const std::string& message) {
    fail(error, "trace spec '" + text + "': " + message);
    return std::nullopt;
  };
  const std::size_t colon = text.find(':');
  const std::string group_name = text.substr(0, colon);
  const util::ParamTable<TraceSpec>* table = grammar(group_name);
  if (table == nullptr) {
    return failed("unknown workload group '" + group_name + "' (expected spec, apps, swf, or vrc)");
  }
  TraceSpec spec;
  parse_workload_group(group_name, &spec.group);
  if (group_name == "vrc") spec.file_format = FileFormat::kVrc;
  std::map<std::string, std::string> params;
  std::string nested;
  if (colon != std::string::npos &&
      !util::split_params(text.substr(colon + 1), &params, &nested)) {
    return failed(nested);
  }
  if (!table->apply(params, &spec, "key", &nested)) return failed(nested);
  // A replay reads its file, so the file is the one required key.
  const std::size_t file = table->find("file");
  if (file != util::ParamList::npos && spec.file.empty()) {
    return failed(table->rows()[file].invalid("key", "file", ""));
  }
  if (!spec.validate(&nested)) return failed(nested);
  return spec;
}

bool TraceSpec::validate(std::string* error) const {
  if (!grammar_of(*this).check(*this, "key", error)) return false;
  if (is_swf()) {
    if (standard_index != 0 || num_jobs != 0) {
      return fail(error, "an swf spec cannot also set trace= or jobs=");
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
  if (malleable_max_width < malleable_min_width) {
    return fail(error, "malleable widths need 1 <= malleable_min <= malleable_max");
  }
  if (standard_index != 0 && num_jobs != 0) {
    return fail(error, "trace= and jobs= are mutually exclusive");
  }
  if (standard_index == 0 && num_jobs == 0) {
    return fail(error, "one of trace=1..5 or jobs=N is required");
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
