"""Publish-audit analyzer: board-visible writes must republish before exit.

The VRC board protocol (DESIGN.md §5, §13.3) caches per-node load state in
`Workstation`'s snapshot fields and `LoadInfoBoard`'s rows; every mutation of
that state must be followed by a republish (`publish_index()`,
`publish_to_board()`, `LoadInfoBoard::publish()`) before control leaves the
member function, or the board serves stale aggregates until the next
exchange. PR 6's fault-blind-aggregate bug was exactly this shape. The
contract is annotated in the headers and enforced here:

  ``// vrc:board-visible``  on a field declaration: writes to this field are
                            audited.
  ``// vrc:publish-fn``     on a member-function declaration: calling it
                            counts as republishing (the function itself is
                            exempt from auditing).
  ``// vrc:must-publish``   on a member-function declaration: the definition
                            must contain at least one publish call
                            (rule ``missing-publish``) — used for functions
                            like Cluster::fail_node whose whole job is a
                            state flip plus rebroadcast.

The check is textual, not control-flow-accurate, by design: events are
collected in (line, column) order inside each member-function body —
mutations of annotated fields, publish calls, and exits (every ``return``
plus the closing brace). For each exit, the last mutation textually before
it must be followed by a publish call textually before the exit (rule
``publish-audit``). This accepts the codebase's real shapes (early returns
before any write, a conditional ``if (dirty) publish_index();`` directly
ahead of the final return) while catching the dangerous one: a write with no
publish between it and a way out.

Mutations recognized: assignment and compound assignment (optionally through
one subscript and then member accesses, ``infos_[n] = ...``,
``rows_[i].slots_used = ...``), ``++``/``--``, mutating container
methods (push_back, emplace_back, pop_back, clear, erase, insert, emplace,
resize, assign, swap, reserve), ``std::move(field)``, and binding a
non-const reference to the field (``LoadInfo& info = infos_[node];`` — the
alias may be written through later, so the binding itself is conservatively
treated as a write). Range-for bindings use ``:`` not ``=`` and do not
match. Constructors and destructors are exempt (the object is not yet / no
longer board-visible).

Escape hatch: ``// NOLINT-publish-audit(reason)`` on the flagged line.
"""

import re

from vrc_lint import core

ANNOTATION_RE = re.compile(r"//\s*vrc:(board-visible|publish-fn|must-publish)")
FIELD_DECL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*(?:=[^;]*|\{[^;]*\})?;")
METHOD_NAME_RE = re.compile(r"\b(~?[A-Za-z_]\w*)\s*\(")

MUTATING_METHODS = ("push_back|emplace_back|pop_back|clear|erase|insert"
                    "|emplace|resize|assign|swap|reserve")


class ClassContract:
    """Annotated surface of one class: audited fields + publish functions."""

    def __init__(self, name):
        self.name = name
        self.fields = []        # annotated field names
        self.publish_fns = []   # calling one of these counts as republishing
        self.must_publish = []  # these definitions must contain a publish
        self._mutation_re = None
        self._publish_re = None

    def mutation_re(self):
        if self._mutation_re is None and self.fields:
            field = r"(?P<field>\b(?:" + "|".join(
                re.escape(f) for f in self.fields) + r")\b)"
            # One optional subscript, then any member accesses:
            # ``infos_[n] = ...`` and ``rows_[i].slots_used = ...`` both
            # write the field.
            sub = (r"(?:\s*\[[^\]]*\])?"
                   r"(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*")
            self._mutation_re = re.compile(
                "|".join((
                    field + sub + r"\s*(?:[+\-*/%&|^]=|<<=|>>=|=(?!=))",
                    r"(?:\+\+|--)\s*" + field.replace("?P<field>", "?P<fieldb>"),
                    field.replace("?P<field>", "?P<fieldc>")
                    + sub + r"\s*(?:\+\+|--)",
                    field.replace("?P<field>", "?P<fieldd>")
                    + sub + r"\.(?:" + MUTATING_METHODS + r")\s*\(",
                    r"std::move\s*\(\s*"
                    + field.replace("?P<field>", "?P<fielde>"),
                    r"&\s*[A-Za-z_]\w*\s*=(?!=)[^;]*"
                    + field.replace("?P<field>", "?P<fieldf>"),
                )))
        return self._mutation_re

    def publish_re(self):
        if self._publish_re is None and self.publish_fns:
            self._publish_re = re.compile(
                r"\b(?:" + "|".join(re.escape(f) for f in self.publish_fns)
                + r")\s*\(")
        return self._publish_re


def collect_contracts(files):
    """First pass: every vrc: annotation, grouped by enclosing class."""
    contracts = {}
    for full, rel in files:
        raw_lines = core.read_lines(full)
        code_lines = core.blank_comments_and_strings(raw_lines)
        regions = core.class_regions(code_lines)
        for index, raw in enumerate(raw_lines):
            match = ANNOTATION_RE.search(raw)
            if not match:
                continue
            kind = match.group(1)
            # The annotation covers the declaration on its own line, or the
            # next line when it sits alone on a comment line.
            decl_index = index
            if not code_lines[index].strip() and index + 1 < len(code_lines):
                decl_index = index + 1
            class_name, in_body = regions[decl_index]
            if class_name is None or not in_body:
                continue  # annotation outside a class body: inert
            contract = contracts.setdefault(class_name,
                                            ClassContract(class_name))
            code = code_lines[decl_index]
            if kind == "board-visible":
                decl = FIELD_DECL_RE.search(code)
                if decl:
                    contract.fields.append(decl.group(1))
            else:
                name = METHOD_NAME_RE.search(code)
                if name:
                    target = (contract.publish_fns if kind == "publish-fn"
                              else contract.must_publish)
                    target.append(name.group(1))
    return contracts


class FunctionBody:
    def __init__(self, contract, method, rel, def_index):
        self.contract = contract
        self.method = method
        self.rel = rel
        self.def_index = def_index   # 0-based line of the definition
        self.lines = []              # (0-based line index, code text)


def find_function_bodies(code_lines, rel, contracts):
    """Second pass: member-function definitions of annotated classes.

    Handles both out-of-line definitions (``Ret Class::method(...) {``) and
    in-class inline definitions. Definitions are only matched outside any
    already-open function body, so qualified calls inside bodies cannot
    false-positive. Bodies whose opening brace never arrives (declarations,
    ``= default``) are skipped.
    """
    class_names = "|".join(re.escape(name) for name in contracts)
    out_of_line_re = re.compile(
        r"\b(?P<cls>" + class_names + r")::(?P<name>~?[A-Za-z_]\w*)\s*\(")
    regions = core.class_regions(code_lines)

    bodies = []
    depth = 0
    current = None          # FunctionBody being collected
    body_open_depth = None  # depth at which current's body opened
    pending = None          # (FunctionBody) awaiting its opening '{'
    pending_paren = 0

    for index, code in enumerate(code_lines):
        start_col = 0
        if current is None and pending is None:
            match = out_of_line_re.search(code)
            cls = name = None
            if match:
                cls, name = match.group("cls"), match.group("name")
            else:
                class_name, in_body = regions[index]
                if in_body and class_name in contracts:
                    inline = METHOD_NAME_RE.search(code)
                    # Require the parens to look like a parameter list that
                    # could open a body on this or a later line (not a pure
                    # declaration ending in ';' before any '{').
                    if inline:
                        cls, name = class_name, inline.group(1)
            if cls is not None:
                pending = FunctionBody(contracts[cls], name, rel, index)
                pending_paren = 0
        if pending is not None:
            # Scan forward for the body's '{' (after the parameter list and
            # any const/noexcept/member-init list); a ';' at paren depth 0
            # first means declaration — drop it.
            for col, ch in enumerate(code[start_col:], start=start_col):
                if ch == "(":
                    pending_paren += 1
                elif ch == ")":
                    pending_paren -= 1
                elif ch == ";" and pending_paren <= 0:
                    pending = None
                    break
                elif ch == "{" and pending_paren <= 0:
                    current = pending
                    pending = None
                    body_open_depth = depth
                    break
        for ch in code:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if current is not None and depth == body_open_depth:
                    current.lines.append((index, code))
                    bodies.append(current)
                    current = None
        if current is not None:
            current.lines.append((index, code))
    return bodies


RETURN_RE = re.compile(r"\breturn\b")


class PublishAuditAnalyzer(core.Analyzer):
    name = "publish-audit"
    description = "writes to // vrc:board-visible fields must republish " \
                  "before every exit"
    default_paths = ("src/cluster",)
    # Annotations live in headers, definitions in .cc files; the analyzer
    # needs both halves together, so CLI paths do not restrict it.
    accepts_paths = False

    def run(self, files, root):
        contracts = collect_contracts(files)
        violations = []
        if not contracts:
            return violations
        for full, rel in files:
            code_lines = core.blank_comments_and_strings(core.read_lines(full))
            for body in find_function_bodies(code_lines, rel, contracts):
                violations.extend(self._check_body(body))
        return violations

    def _check_body(self, body):
        contract = body.contract
        method = body.method
        if method == contract.name or method.startswith("~"):
            return []  # constructors/destructors: not yet / no longer visible
        if method in contract.publish_fns:
            return []  # the publisher itself writes the fields it publishes

        mutation_re = contract.mutation_re()
        publish_re = contract.publish_re()
        events = []  # (line_index, col, kind, field)
        for index, code in body.lines:
            if mutation_re is not None:
                for match in mutation_re.finditer(code):
                    if (match.lastgroup == "fieldf"
                            and re.search(r"\bconst\b[\w\s:<>,]*$",
                                          code[:match.start()])):
                        continue  # const ref binding is a read, not a write
                    field = match.group(match.lastgroup)
                    events.append((index, match.start(), "mutate", field))
            if publish_re is not None:
                for match in publish_re.finditer(code):
                    events.append((index, match.start(), "publish", None))
            for match in RETURN_RE.finditer(code):
                events.append((index, match.start(), "exit", None))
        close_index, close_code = body.lines[-1]
        events.append((close_index, len(close_code), "exit", None))
        events.sort(key=lambda e: (e[0], e[1]))

        violations = []
        if method in contract.must_publish:
            if not any(kind == "publish" for _l, _c, kind, _f in events):
                violations.append(core.Violation(
                    body.rel, body.def_index + 1, "missing-publish",
                    f"{contract.name}::{method} is annotated vrc:must-publish "
                    f"but contains no call to "
                    f"{' / '.join(contract.publish_fns) or '<no publish-fn>'}"))

        flagged = set()
        for exit_pos, event in enumerate(events):
            if event[2] != "exit":
                continue
            last_mutation = None
            published_after = False
            for prior in events[:exit_pos]:
                if prior[2] == "mutate":
                    last_mutation = prior
                    published_after = False
                elif prior[2] == "publish":
                    published_after = True
            if last_mutation is not None and not published_after:
                key = (last_mutation[0], last_mutation[3])
                if key not in flagged:
                    flagged.add(key)
                    violations.append(core.Violation(
                        body.rel, last_mutation[0] + 1, "publish-audit",
                        f"{contract.name}::{method} writes board-visible "
                        f"field '{last_mutation[3]}' with no "
                        f"{' / '.join(contract.publish_fns) or 'publish'} "
                        f"call before the exit at line {event[0] + 1}"))
        return violations

    def extra_self_test(self, root):
        """The real tree must actually carry the contract — if someone strips
        the annotations the analyzer silently audits nothing."""
        files = self.collect(root)
        contracts = collect_contracts(files)
        failures = []
        for cls, needs_fields in (("Workstation", True),
                                  ("LoadInfoBoard", True),
                                  ("Cluster", False)):
            if cls not in contracts:
                failures.append(f"no vrc: annotations found for {cls} "
                                f"in src/cluster")
                continue
            if needs_fields and not contracts[cls].fields:
                failures.append(f"{cls} has no vrc:board-visible fields")
            if not contracts[cls].publish_fns:
                failures.append(f"{cls} has no vrc:publish-fn")
        if "Cluster" in contracts and not contracts["Cluster"].must_publish:
            failures.append("Cluster has no vrc:must-publish functions")
        return failures
