"""Determinism analyzer: statically bans nondeterminism sources in src/.

The reproduction's headline results rest on bit-reproducible simulation runs
(see tests/integration/determinism_fingerprint_test.cc). The runtime
fingerprint goldens catch a nondeterminism bug only after it lands; this
analyzer rejects the usual sources at review time, before a seed-dependent
heisendiff ever reaches the goldens.

Scanned by default: ALL of src/ — the sim core whose execution order feeds
the event loop, the parallel sweep/scenario layer, the fault-injection
subsystem, the metrics/perf-counter layer (its one wall-clock read is
justified inline: write-only observability), and the util/analysis leaves.
Everything under src/ is one lint surface so a new module is covered the day
it lands. Banned constructs:

  wall-clock        std::chrono::{system,steady,high_resolution}_clock,
                    time(NULL)-style calls, clock(), gettimeofday(
  libc-rng          rand(), srand(), random(), drand48()
  random-device     std::random_device (nondeterministic seed source)
  unordered-iter    any use of std::unordered_map / std::unordered_set /
                    std::unordered_multimap / std::unordered_multiset.
                    Hash-table iteration order depends on libstdc++ version,
                    pointer values, and insertion history; in event-order-
                    sensitive code even a lookup-only table invites a later
                    `for (auto& [k, v] : table)`. Use std::map / sorted
                    vectors, or justify with the escape hatch.
  pointer-key       ordered containers keyed on raw pointers
                    (std::set<T*>, std::map<T*, ...>) and std::less<T*> —
                    address order varies run to run under ASLR.
  pointer-compare   relational comparison of addresses-of (&a < &b) used as
                    a tiebreak or sort key.
  uninit-member     scalar class/struct members in headers with no default
                    initializer (`double x_;`): reads of indeterminate
                    values are UB and seed-dependent. Initialize in-class
                    even when a constructor also assigns.
  env-read          getenv() — environment-dependent behavior.
  fp-env            fesetround(), fesetenv(), feupdateenv(), FENV_ACCESS
                    and #include <cfenv> / <fenv.h>. Every fingerprint
                    golden, and the closed-form replay of parked ticks
                    (src/util/repeated_add.h), assume IEEE round-to-nearest-
                    even, the default mode; a changed mode moves low bits.

Escape hatch: `// NOLINT-determinism(reason)` on the line or alone directly
above. Policy: the reason must say why the construct cannot affect event
order (e.g. "lookup-only, never iterated" is NOT sufficient for unordered
containers — prefer std::map).
"""

import os
import re

from vrc_lint import core

# Each rule: (name, compiled regex, human message). Applied line-by-line to
# code with comments and string literals blanked out.
RULES = [
    ("wall-clock",
     re.compile(r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"),
     "wall-clock read; simulation time must come from Simulator::now()"),
    ("wall-clock",
     re.compile(r"(?<![\w:.])(time|clock|gettimeofday|clock_gettime)\s*\("),
     "libc wall-clock call; simulation time must come from Simulator::now()"),
    ("libc-rng",
     re.compile(r"(?<![\w:.])(rand|srand|random|drand48|lrand48)\s*\("),
     "libc RNG; use the seeded vrc::sim::Rng instead"),
    ("random-device",
     re.compile(r"std::random_device"),
     "nondeterministic seed source; seeds must be explicit parameters"),
    ("unordered-iter",
     re.compile(r"std::unordered_(map|set|multimap|multiset)\b"),
     "hash-table iteration order is unstable across runs; use std::map or a "
     "sorted vector"),
    ("pointer-key",
     re.compile(r"std::(multi)?(set|map)\s*<\s*(const\s+)?[A-Za-z_][\w:]*\s*\*"),
     "ordered container keyed on a raw pointer; address order varies under "
     "ASLR — key on a stable id instead"),
    ("pointer-key",
     re.compile(r"std::less\s*<\s*(const\s+)?[A-Za-z_][\w:]*\s*\*\s*>"),
     "std::less over raw pointers; address order varies under ASLR"),
    ("pointer-compare",
     re.compile(r"&\s*[A-Za-z_]\w*(\[\w+\])?\s*[<>]=?\s*&\s*[A-Za-z_]\w*"),
     "address comparison as an ordering; varies run to run — compare stable "
     "ids instead"),
    ("env-read",
     re.compile(r"(?<![\w:.])getenv\s*\("),
     "environment read; pass configuration explicitly so runs are "
     "reproducible from the command line alone"),
    ("fp-env",
     re.compile(r"(?<![\w.])(fesetround|fesetenv|feupdateenv)\s*\(|\bFENV_ACCESS\b"),
     "floating-point environment change; results assume the default "
     "round-to-nearest-even mode"),
]

# Header names are quoted, so the blanking erases them: include rules read
# the raw text of lines that are #include directives in the code.
INCLUDE_RE = re.compile(r"^\s*#\s*include\b")
INCLUDE_RULES = [
    ("fp-env",
     re.compile(r"[<\"](cfenv|fenv\.h)[>\"]"),
     "floating-point environment header; results assume the default "
     "round-to-nearest-even mode"),
]

# uninit-member is structural (class bodies only), handled separately.
SCALAR_MEMBER_RE = re.compile(
    r"^\s*(?:const\s+)?"
    r"(?:bool|char|short|int|long|float|double|unsigned(?:\s+\w+)?"
    r"|std::u?int(?:8|16|32|64|ptr)_t|u?int(?:8|16|32|64|ptr)_t"
    r"|std::size_t|size_t|std::ptrdiff_t"
    r"|SimTime|EventId|vrc::sim::SimTime|vrc::sim::EventId)"
    r"(?:\s+(?:const\s+)?)"
    r"[A-Za-z_]\w*\s*;\s*$")


class DeterminismAnalyzer(core.Analyzer):
    name = "determinism"
    description = "bans nondeterminism sources (wall clock, libc RNG, " \
                  "unordered iteration, pointer ordering, uninit members, " \
                  "floating-point environment changes)"
    # ALL of src/: the scan set is the whole tree so a new module cannot land
    # outside the lint surface (src/analysis and src/util were blind spots
    # when the set was an explicit directory list).
    default_paths = ("src",)

    def run(self, files, root):
        violations = []
        for full, rel in files:
            violations.extend(self._lint_file(full, rel))
        return violations

    def _lint_file(self, full, rel):
        raw_lines = core.read_lines(full)
        code_lines = core.blank_comments_and_strings(raw_lines)
        violations = []
        for index, code in enumerate(code_lines):
            for rule, pattern, message in RULES:
                if pattern.search(code):
                    violations.append(core.Violation(
                        rel, index + 1, rule, message, raw_lines[index]))
            if not INCLUDE_RE.match(code):
                continue
            for rule, pattern, message in INCLUDE_RULES:
                if pattern.search(raw_lines[index]):
                    violations.append(core.Violation(
                        rel, index + 1, rule, message, raw_lines[index]))
        mask = core.in_class_body_mask(code_lines)
        for index, code in enumerate(code_lines):
            if not mask[index]:
                continue
            if "static" in code or "constexpr" in code or "using" in code:
                continue
            if SCALAR_MEMBER_RE.match(code):
                violations.append(core.Violation(
                    rel, index + 1, "uninit-member",
                    "scalar member without a default initializer; reads "
                    "of indeterminate values are seed-dependent UB",
                    raw_lines[index]))
        return violations

    def extra_self_test(self, root):
        """Recursive discovery over src/ must cover the files whose execution
        order is most load-bearing — a discovery regression would silently
        drop them from the lint — including the former blind spots
        (src/util, src/analysis) this scan-set closes."""
        failures = []
        scanned = {rel for _full, rel in
                   core.collect_files(list(self.default_paths), root,
                                      self.extensions)}
        for required in ("src/cluster/indexed_heap.h",
                         "src/cluster/indexed_heap.cc",
                         "src/cluster/load_index.cc",
                         "src/cluster/workstation.cc",
                         "src/cluster/node_activity.h",
                         "src/metrics/perf_counters.h",
                         "src/metrics/perf_counters.cc",
                         "src/util/log.cc",
                         "src/util/flags.cc",
                         "src/analysis/model.cc",
                         "src/sim/simulator.cc",
                         "src/runner/sweep_runner.cc",
                         "src/faults/injector.cc"):
            if required not in scanned:
                failures.append(f"default scan set is missing {required}")
        # The scan set must be the whole of src/ — an explicit allowlist of
        # subdirectories is exactly how src/util and src/analysis fell out.
        for entry in sorted(os.listdir(os.path.join(root, "src"))):
            subdir = os.path.join(root, "src", entry)
            if not os.path.isdir(subdir):
                continue
            covered = any(rel.startswith(f"src/{entry}/") for rel in scanned)
            has_sources = any(
                name.endswith(self.extensions)
                for _dir, _subdirs, names in os.walk(subdir) for name in names)
            if has_sources and not covered:
                failures.append(f"src/{entry} has sources but is not scanned")
        return failures
