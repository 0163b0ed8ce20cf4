// Declarative trace description: the workload third of a scenario spec.
//
// A TraceSpec names one of the paper's five published trace shapes
// ("spec:trace=3"), a custom generated workload
// ("apps:jobs=400,duration=1800,seed=9,arrival_scale=1.5"), a real
// Standard Workload Format log replay
// ("swf:file=tests/data/swf/NASA-iPSC-1993-3.swf,scale=0.1,max_jobs=200"), or
// a saved trace file ("vrc:file=examples/scenarios/blocking_episode.trace")
// as text, and builds the pull-based ArrivalSource a run pumps
// (make_source(), DESIGN.md §14) — or, via build(), a drain of that source
// into a Trace. TraceSpec::standard(group, index) is the one way to name a
// published trace: to_params() derives its name and replayed seed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "util/params.h"
#include "workload/arrival_source.h"
#include "workload/trace.h"
#include "workload/trace_generator.h"

namespace vrc::workload {

/// Text-describable recipe for one trace.
///
/// Text form: `<group>[:key=value,...]` with group `spec` or `apps` (a
/// generated workload: exactly one of trace= and jobs=), `swf` (a Standard
/// Workload Format log replay, DESIGN.md §14) or `vrc` (a `# vrc-trace v1`
/// file as Trace::save writes it; its name, group line, jobs and home nodes
/// are replayed as written). Each group's keys are the rows of grammar();
/// `vrc_run --list-traces` prints them (examples/list_traces.golden).
struct TraceSpec {
  WorkloadGroup group = WorkloadGroup::kSpec;
  int standard_index = 0;      // 1..5 selects a published shape; 0 = custom
  std::size_t num_jobs = 0;    // custom workloads only
  SimTime duration = 1800.0;   // custom workloads only
  double arrival_scale = 1.0;  // scales TraceParams::time_scale
  std::uint64_t seed = 0;      // 0 = default seed
  std::uint32_t num_nodes = 0; // 0 = inherit from the caller
  std::string name;            // empty = derived name

  // Malleability of generated jobs (DESIGN.md §15). fraction 0 (default)
  // never draws from the malleability RNG stream: bit-identical traces.
  double malleable_fraction = 0.0;
  int malleable_min_width = 1;
  int malleable_max_width = 2;
  double malleable_speedup_alpha = 0.8;

  // Program-mix override of generated traces; unset keeps the catalog mix.
  std::optional<double> big_share;

  // File replay (group token `swf` or `vrc`). A non-empty file selects it and
  // is mutually exclusive with trace=/jobs=; the swf_* options apply to SWF
  // logs only.
  enum class FileFormat { kSwf, kVrc };
  std::string file;
  FileFormat file_format = FileFormat::kSwf;
  double swf_scale = 1.0;
  std::size_t swf_max_jobs = 0;
  double swf_min_runtime = 0.0;
  std::string swf_profile;  // empty/"flat" = archive replay; "ramp" = synthetic

  bool operator==(const TraceSpec&) const = default;

  /// A published standard trace: group + index, everything else default.
  static TraceSpec standard(WorkloadGroup group, int index);

  /// An SWF log replay.
  static TraceSpec swf(std::string file);

  /// A replay of a saved `# vrc-trace v1` file.
  static TraceSpec vrc(std::string file);

  /// True for both file kinds: the jobs are read, not generated, so there is
  /// no seed to shift and no generator to make them malleable.
  bool is_replay() const { return !file.empty(); }
  bool is_swf() const { return is_replay() && file_format == FileFormat::kSwf; }

  /// Canonical text form: the group token and the rows whose field differs
  /// from the default, in table order; parse(print(spec)) == spec.
  std::string print() const;

  /// Parses the text form. std::nullopt + *error on malformed text, unknown
  /// keys, malformed values, or inconsistent combinations (trace and jobs
  /// together, trace out of 1..5, neither given).
  static std::optional<TraceSpec> parse(const std::string& text, std::string* error = nullptr);

  /// Semantic validation for programmatically-built specs (parse() already
  /// validates): each row's bound against its field, then the cross-key
  /// rules.
  bool validate(std::string* error) const;

  /// The key table of a group token: `spec` and `apps` share the generated
  /// grammar, `swf` and `vrc` have their own; nullptr for any other token.
  static const util::ParamTable<TraceSpec>* grammar(std::string_view group);

  /// The generator parameters this spec describes (generated specs only; the
  /// derivation behind build() and make_source()). A standard-index spec
  /// gets the published shape, the "SPEC-Trace-<i>" / "App-Trace-<i>" name,
  /// and the per-(group, index) seed unless overridden.
  TraceParams to_params(std::uint32_t default_nodes = 32) const;

  /// Builds the trace: a drain of make_source(default_nodes). `default_nodes`
  /// supplies the home-node range when the spec does not pin one. File
  /// replays read the file eagerly (throws std::runtime_error on a missing or
  /// malformed file, like Trace::load).
  Trace build(std::uint32_t default_nodes = 32) const;

  /// Builds the pull-based source a run pumps: a GeneratedStreamSource for
  /// generated specs, an SwfTraceSource for SWF specs, or a
  /// MaterializedTraceSource over Trace::load_from_file for trace files.
  /// Throws std::runtime_error on an unreadable or malformed file.
  std::unique_ptr<ArrivalSource> make_source(std::uint32_t default_nodes = 32) const;
};

}  // namespace vrc::workload
