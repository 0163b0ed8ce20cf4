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

#include "workload/arrival_source.h"
#include "workload/trace.h"
#include "workload/trace_generator.h"

namespace vrc::workload {

/// Text-describable recipe for one trace.
///
/// Text form: `<group>[:key=value,...]` with group `spec`, `apps`, `swf`, or
/// `vrc`.
/// Keys for `spec` / `apps` (generated workloads):
///   trace          int 1..5: one of the published standard shapes
///   jobs           int: custom workload size (mutually exclusive with trace)
///   duration       duration: submission window of a custom workload
///   arrival_scale  double: multiplies the 60 s arrival time unit (>1 =
///                  slower arrivals, <1 = burstier)
///   seed           uint64: trace-generation seed (0 = the per-(group,
///                  index) default for standard shapes)
///   nodes          int: home-node range; 0 = inherit the scenario's count
///   name           string: trace name override
///   malleable      double 0..1: fraction of jobs generated with a
///                  Malleability block (DESIGN.md §15); 0 (default) keeps the
///                  trace bit-identical to the pre-malleability generator
///   malleable_min  int >= 1: narrowest width of generated malleable jobs
///   malleable_max  int >= malleable_min: widest width (jobs submit at it)
///   malleable_alpha double: per-width speedup exponent s(w) = w^alpha
///   big_share      double 0..1: arrival probability of the group's large
///                  programs (working set above half the largest: apsi and
///                  mcf, metis), split evenly among them; the others share
///                  the rest in proportion to their catalog mix weights.
///                  Unset (default) keeps the catalog mix; 0 drops them
/// Keys for `swf` (Standard Workload Format replay; DESIGN.md §14):
///   file           path to the .swf log (required; relative paths are
///                  rebased against the scenario file by ScenarioSpec::load)
///   scale          double > 0: multiplies every submit time (compresses or
///                  stretches the log's arrival process)
///   max_jobs       int: stop after this many accepted jobs (0 = all)
///   min_runtime    duration: skip jobs shorter than this
///   group          spec | apps: workload group the replay is billed to
///                  (picks the paper testbed under `cluster auto`)
///   profile        flat | ramp: memory-profile synthesis. `flat` (default)
///                  replays the archive memory field as a constant working
///                  set with no paging signal; `ramp` maps it onto a
///                  synthetic ramp-up MemoryProfile and derives a page-touch
///                  rate from the per-process footprint, so the policies'
///                  paging behavior differentiates on real-trace replays
///                  (DESIGN.md §14.4)
///   nodes, name    as above
/// Key for `vrc` (a `# vrc-trace v1` file as Trace::save writes it; its
/// name, group line, jobs and home nodes are replayed as written):
///   file           path to the trace file (required, the only key; relative
///                  paths are rebased like swf ones)
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

  /// Canonical text form; parse(print(spec)) == spec.
  std::string print() const;

  /// Parses the text form. std::nullopt + *error on malformed text, unknown
  /// keys, malformed values, or inconsistent combinations (trace and jobs
  /// together, trace out of 1..5, neither given).
  static std::optional<TraceSpec> parse(const std::string& text, std::string* error = nullptr);

  /// Semantic validation for programmatically-built specs (parse() already
  /// validates).
  bool validate(std::string* error) const;

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
