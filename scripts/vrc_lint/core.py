"""Shared core of the vrc_lint static-analysis framework.

Hosts everything the analyzers have in common so each analyzer is only its
rules: recursive file discovery, comment/string blanking, class-body and
class-name masking for structural rules, the per-analyzer
``NOLINT-<analyzer>(reason)`` escape hatch, the seeded-fixture self-test
harness, and the unified CLI (``vrc_lint.py``).

Analyzer contract
-----------------
An analyzer subclasses :class:`Analyzer` and implements ``run(files, root)``
returning :class:`Violation` objects. ``files`` is the discovered
``(absolute, repo-relative)`` list; analyzers that need whole-program context
(layering's include graph, heap-order's code-vs-doc diff) receive the full
set in one call rather than file at a time. Violations on lines carrying a
valid ``NOLINT-<name>(reason)`` are suppressed by the core; an *empty* reason
is itself an error so suppressions cannot rot in place.

Fixtures
--------
Each analyzer owns seeded fixtures under ``scripts/testdata/vrc_lint/<name>/``:
every fixture line tagged ``SEED: <rule>`` must be reported with exactly that
rule and nothing else may be reported; a ``clean`` fixture must produce zero
findings. ``vrc_lint.py --self-test`` runs every analyzer's fixtures, so a
refactor that silently stops detecting a category fails CI.

Exit status: 0 clean, 1 violations found, 2 internal/usage error.
Stdlib-only; no third-party dependencies.
"""

import argparse
import os
import re
import sys

SOURCE_EXTENSIONS = (".h", ".cc", ".cpp", ".hpp")

SEED_RE = re.compile(r"SEED:\s*([\w-]+)")


class Violation:
    """One finding: a file/line, the rule that fired, and the message."""

    def __init__(self, path, line_number, rule, message, line_text=""):
        self.path = path
        self.line_number = line_number
        self.rule = rule
        self.message = message
        self.line_text = line_text

    def __str__(self):
        text = f"{self.path}:{self.line_number}: [{self.rule}] {self.message}"
        if self.line_text.strip():
            text += f"\n    {self.line_text.strip()}"
        return text


class Nolint:
    """Per-analyzer ``NOLINT-<name>(reason)`` escape-hatch handling.

    A suppression is valid on the offending line or alone on the line
    directly above. The reason is mandatory; ``NOLINT-<name>()`` is an error
    even when no rule fired on that line, so a reasonless suppression cannot
    silently rot in place.
    """

    def __init__(self, analyzer_name):
        self.pattern = re.compile(
            r"//\s*NOLINT-" + re.escape(analyzer_name) + r"\((?P<reason>[^)]*)\)")

    def reason(self, raw_lines, index):
        """The suppression reason covering line `index`, or None."""
        match = self.pattern.search(raw_lines[index])
        if match is None and index > 0:
            prev = raw_lines[index - 1].strip()
            prev_match = self.pattern.search(prev)
            if prev_match and prev.startswith("//"):
                match = prev_match
        if match is None:
            return None
        reason = match.group("reason").strip()
        return reason or None

    def empty_reason_violations(self, display, raw_lines, analyzer_name):
        """Every reasonless suppression in the file, as violations."""
        violations = []
        for index, raw in enumerate(raw_lines):
            match = self.pattern.search(raw)
            if match and not match.group("reason").strip():
                violations.append(Violation(
                    display, index + 1, "empty-nolint",
                    f"NOLINT-{analyzer_name} requires a non-empty reason", raw))
        return violations


def blank_comments_and_strings(lines):
    """Returns lines with comments and string/char literals overwritten by
    spaces, so rules never fire on prose. Tracks /* */ across lines; raw
    strings are rare in this codebase and handled as plain strings."""
    out = []
    in_block_comment = False
    for line in lines:
        result = []
        i = 0
        n = len(line)
        in_string = None  # '"' or "'" while inside a literal
        while i < n:
            ch = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if in_block_comment:
                if ch == "*" and nxt == "/":
                    in_block_comment = False
                    result.append("  ")
                    i += 2
                    continue
                result.append(" ")
                i += 1
                continue
            if in_string:
                if ch == "\\":
                    result.append("  ")
                    i += 2
                    continue
                if ch == in_string:
                    in_string = None
                result.append(" ")
                i += 1
                continue
            if ch == "/" and nxt == "/":
                result.append(" " * (n - i))
                break
            if ch == "/" and nxt == "*":
                in_block_comment = True
                result.append("  ")
                i += 2
                continue
            if ch in "\"'":
                in_string = ch
                result.append(" ")
                i += 1
                continue
            result.append(ch)
            i += 1
        out.append("".join(result))
    return out


CLASS_HEAD_RE = re.compile(
    r"(template\s*<.*>\s*)?(class|struct)\s+([A-Za-z_]\w*)")


def class_regions(code_lines):
    """Per-line innermost class/struct context.

    Returns a list (one entry per line) of ``(class_name, body_flag)`` where
    ``class_name`` is the innermost open class/struct (None at namespace or
    function scope) and ``body_flag`` is True when the line sits directly in
    that class's body — i.e. at member-declaration depth, not inside a member
    function body. Brace-counting best effort, same approach the determinism
    linter has used since PR 3."""
    regions = []
    depth = 0
    stack = []  # (class_name, brace depth at which its body opened)
    pending = None
    for line in code_lines:
        name = stack[-1][0] if stack else None
        in_body = bool(stack) and depth == stack[-1][1] + 1
        regions.append((name, in_body))
        stripped = line.strip()
        head = CLASS_HEAD_RE.match(stripped)
        if head and not stripped.endswith(";"):
            pending = head.group(3)
        for ch in line:
            if ch == "{":
                if pending is not None:
                    stack.append((pending, depth))
                    pending = None
                depth += 1
            elif ch == "}":
                depth -= 1
                if stack and depth == stack[-1][1]:
                    stack.pop()
        if pending is not None and stripped.endswith(";"):
            pending = None  # forward declaration
    return regions


def in_class_body_mask(code_lines):
    """Per-line flag: inside a class/struct body but not inside a member
    function body (drives structural member rules)."""
    return [in_body for _name, in_body in class_regions(code_lines)]


def read_lines(path):
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return fh.read().splitlines()
    except OSError as err:
        raise RuntimeError(f"cannot read {path}: {err}")


def collect_files(paths, root, extensions=SOURCE_EXTENSIONS):
    """Expands files/directories into a sorted (absolute, relative) list."""
    files = []
    for path in paths:
        full = path if os.path.isabs(path) else os.path.join(root, path)
        if os.path.isfile(full):
            files.append((full, os.path.relpath(full, root)))
        elif os.path.isdir(full):
            for dirpath, _dirnames, filenames in os.walk(full):
                for name in sorted(filenames):
                    if name.endswith(extensions):
                        file_path = os.path.join(dirpath, name)
                        files.append((file_path, os.path.relpath(file_path, root)))
        else:
            raise RuntimeError(f"no such file or directory: {full}")
    files.sort(key=lambda pair: pair[1])
    return files


class Analyzer:
    """Base class: name, scan scope, and the run() hook."""

    #: Analyzer name; also the NOLINT suffix (``NOLINT-<name>(reason)``).
    name = ""
    description = ""
    #: Default scan scope (repo-relative files or directories).
    default_paths = ()
    #: File extensions the discovery walk keeps for this analyzer.
    extensions = SOURCE_EXTENSIONS
    #: Whether explicit CLI paths override the default scope. Analyzers that
    #: need whole-program context (layering, heap-order) ignore CLI paths and
    #: always scan their fixed scope.
    accepts_paths = True

    def __init__(self):
        self.nolint = Nolint(self.name)

    def collect(self, root, paths=None):
        if paths and not self.accepts_paths:
            paths = None
        return collect_files(paths or list(self.default_paths), root,
                             self.extensions)

    def run(self, files, root):
        raise NotImplementedError

    def filtered_run(self, files, root):
        """run() with NOLINT suppression applied + empty-reason errors."""
        raw_cache = {}

        def raw_for(rel, full_by_rel={f[1]: f[0] for f in files}):
            if rel not in raw_cache:
                full = full_by_rel.get(rel)
                raw_cache[rel] = read_lines(full) if full else []
            return raw_cache[rel]

        violations = []
        for violation in self.run(files, root):
            raw = raw_for(violation.path)
            index = violation.line_number - 1
            if 0 <= index < len(raw) and self.nolint.reason(raw, index):
                continue
            violations.append(violation)
        for _full, rel in files:
            violations.extend(self.nolint.empty_reason_violations(
                rel, raw_for(rel), self.name))
        # Deterministic report order regardless of rule evaluation order.
        violations.sort(key=lambda v: (v.path, v.line_number, v.rule))
        return violations

    # --- self-test -------------------------------------------------------

    def fixture_dir(self, root):
        return os.path.join(root, "scripts", "testdata", "vrc_lint",
                            self.name.replace("-", "_"))

    def self_test(self, root):
        """Failure messages from this analyzer's seeded fixtures (both the
        SEED-tagged violation set and the clean set) plus any analyzer-
        specific extra assertions."""
        failures = []
        fixture_root = self.fixture_dir(root)
        if not os.path.isdir(fixture_root):
            return [f"{self.name}: fixture directory missing: {fixture_root}"]
        failures.extend(self.check_seeded_case(root, self.violations_case(root)))
        failures.extend(self.check_clean_case(root, self.clean_case(root)))
        failures.extend(self.extra_self_test(root))
        return [f"{self.name}: {failure}" for failure in failures]

    def violations_case(self, root):
        """Path(s) of the seeded-violations fixture (file or directory)."""
        base = self.fixture_dir(root)
        for candidate in ("violations", "violations.cc"):
            path = os.path.join(base, candidate)
            if os.path.exists(path):
                return [path]
        return [base]

    def clean_case(self, root):
        base = self.fixture_dir(root)
        for candidate in ("clean", "clean.cc"):
            path = os.path.join(base, candidate)
            if os.path.exists(path):
                return [path]
        return [base]

    def check_seeded_case(self, root, paths):
        """Every SEED-tagged fixture line must be reported with exactly that
        rule; no untagged line may be reported."""
        failures = []
        files = collect_files(paths, root, self.extensions)
        expected = {}
        for full, rel in files:
            for line_number, line in enumerate(read_lines(full), start=1):
                match = SEED_RE.search(line)
                if match:
                    expected[(rel, line_number)] = match.group(1)
        found = {}
        for violation in self.filtered_run(files, root):
            found.setdefault(
                (violation.path, violation.line_number), []).append(violation.rule)
        for key, rule in sorted(expected.items()):
            if rule not in found.get(key, []):
                failures.append(f"{key[0]}:{key[1]}: expected rule '{rule}', "
                                f"got {found.get(key, [])}")
        for key, rules in sorted(found.items()):
            if key not in expected:
                failures.append(f"{key[0]}:{key[1]}: unexpected finding(s) {rules}")
        return failures

    def check_clean_case(self, root, paths):
        files = collect_files(paths, root, self.extensions)
        return [f"clean fixture: unexpected finding: {violation}"
                for violation in self.filtered_run(files, root)]

    def extra_self_test(self, root):
        return []


def registry():
    """All analyzers in canonical run order. Imported lazily so the analyzer
    modules can import core without a cycle."""
    from vrc_lint import determinism, heap_order, layering, publish_audit, settle_audit
    return [determinism.DeterminismAnalyzer(),
            layering.LayeringAnalyzer(),
            publish_audit.PublishAuditAnalyzer(),
            settle_audit.SettleAuditAnalyzer(),
            heap_order.HeapOrderAnalyzer()]


def default_root():
    """Repo root: parent of the scripts/ directory holding this package."""
    return os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))


def main(argv=None):
    analyzers = registry()
    names = [analyzer.name for analyzer in analyzers]
    parser = argparse.ArgumentParser(
        prog="vrc_lint.py",
        description="static-analysis framework for the vrcluster repo "
                    "(DESIGN.md §13)")
    parser.add_argument("--analyzer", action="append", default=[],
                        choices=names, metavar="NAME",
                        help=f"run only this analyzer (repeatable); "
                             f"one of: {', '.join(names)}")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to scan (analyzers "
                             "needing whole-program context — layering, "
                             "heap-order — always scan their fixed scope)")
    parser.add_argument("--root", default=None,
                        help="repository root (default: auto-detected)")
    parser.add_argument("--self-test", action="store_true",
                        help="run every selected analyzer's seeded-fixture "
                             "self-test and exit")
    parser.add_argument("--list-files", action="store_true",
                        help="print the file set each selected analyzer "
                             "would scan and exit")
    args = parser.parse_args(argv)

    root = args.root or default_root()
    selected_names = args.analyzer or names
    selected = [analyzer for analyzer in analyzers
                if analyzer.name in selected_names]

    if args.self_test:
        failures = []
        seeded = 0
        for analyzer in selected:
            result = analyzer.self_test(root)
            failures.extend(result)
            files = collect_files(analyzer.violations_case(root), root,
                                  analyzer.extensions)
            for full, _rel in files:
                for line in read_lines(full):
                    if SEED_RE.search(line):
                        seeded += 1
        if failures:
            print("vrc_lint self-test FAILED:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"vrc_lint self-test passed: {len(selected)} analyzer(s), "
              f"{seeded} seeded violations detected, clean fixtures clean.")
        return 0

    if args.list_files:
        try:
            for analyzer in selected:
                for _full, rel in analyzer.collect(root, args.paths):
                    if len(selected) == 1:
                        print(rel)
                    else:
                        print(f"{analyzer.name}\t{rel}")
        except RuntimeError as err:
            print(f"vrc_lint: {err}", file=sys.stderr)
            return 2
        return 0

    all_violations = []
    try:
        for analyzer in selected:
            files = analyzer.collect(root, args.paths)
            for violation in analyzer.filtered_run(files, root):
                all_violations.append((analyzer.name, violation))
    except RuntimeError as err:
        print(f"vrc_lint: {err}", file=sys.stderr)
        return 2

    if all_violations:
        print(f"vrc_lint: {len(all_violations)} violation(s):\n",
              file=sys.stderr)
        for name, violation in all_violations:
            print(f"{name}: {violation}", file=sys.stderr)
        print("\nSuppress a justified use with "
              "`// NOLINT-<analyzer>(reason)` — see DESIGN.md §13.",
              file=sys.stderr)
        return 1
    scanned = ", ".join(analyzer.name for analyzer in selected)
    print(f"vrc_lint: clean ({scanned}).")
    return 0
