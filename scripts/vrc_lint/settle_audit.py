"""Settle-audit analyzer: parked state is read only through a settling path.

A parked workstation skips its ticks and has them replayed on demand
(DESIGN.md §12.6). Until it is settled, its jobs' accumulators lag, and a
node parked on a memory ramp also publishes a stale resident demand. So
``Cluster`` reaches its workstations through one settled accessor, and this
analyzer makes that a checked rule instead of a convention:

  ``// vrc:settle-before-read``  on a field declaration: reading the field
                                 reaches parked state.
  ``// vrc:settles``             on a member-function declaration: the
                                 function may read such fields — it is the
                                 settled accessor, the settle itself, or the
                                 tick pass that integrates the nodes.

Every use of an annotated field inside any other member function of the
class is a violation (rule ``settle-before-read``), except ``field.size()``:
how many workstations there are does not depend on what they have
integrated. Constructors and destructors are exempt (nothing is parked yet /
any more). Annotations are read from the class bodies of every scanned file,
so the header's declarations cover the .cc definitions.

Escape hatch: ``// NOLINT-settle-audit(reason)`` on the flagged line.
"""

import re

from vrc_lint import core
from vrc_lint.publish_audit import METHOD_NAME_RE, FIELD_DECL_RE, find_function_bodies

ANNOTATION_RE = re.compile(r"//\s*vrc:(settle-before-read|settles)\b")


class SettleContract:
    """Annotated surface of one class: parked-state fields + settling functions."""

    def __init__(self, name):
        self.name = name
        self.fields = []     # reads of these must come from a settling function
        self.settlers = []   # functions allowed to read them

    def read_re(self):
        return re.compile(r"\b(?P<field>" + "|".join(re.escape(f) for f in self.fields)
                          + r")\b(?!\s*\.\s*size\s*\(\s*\))")


def collect_contracts(files):
    contracts = {}
    for full, _rel in files:
        raw_lines = core.read_lines(full)
        code_lines = core.blank_comments_and_strings(raw_lines)
        regions = core.class_regions(code_lines)
        for index, raw in enumerate(raw_lines):
            match = ANNOTATION_RE.search(raw)
            if not match:
                continue
            decl_index = index
            if not code_lines[index].strip() and index + 1 < len(code_lines):
                decl_index = index + 1
            class_name, in_body = regions[decl_index]
            if class_name is None or not in_body:
                continue
            contract = contracts.setdefault(class_name, SettleContract(class_name))
            code = code_lines[decl_index]
            if match.group(1) == "settle-before-read":
                decl = FIELD_DECL_RE.search(code)
                if decl:
                    contract.fields.append(decl.group(1))
            else:
                name = METHOD_NAME_RE.search(code)
                if name:
                    contract.settlers.append(name.group(1))
    return {name: c for name, c in contracts.items() if c.fields}


class SettleAuditAnalyzer(core.Analyzer):
    name = "settle-audit"
    description = "// vrc:settle-before-read fields are read only by // vrc:settles functions"
    default_paths = ("src/cluster",)
    # The annotations live in the header and the reads in the .cc file, so
    # the analyzer always scans both halves together.
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
        if method == contract.name or method.startswith("~") or method in contract.settlers:
            return []
        read_re = contract.read_re()
        violations = []
        for index, code in body.lines:
            for match in read_re.finditer(code):
                violations.append(core.Violation(
                    body.rel, index + 1, "settle-before-read",
                    f"{contract.name}::{method} reads '{match.group('field')}' outside the "
                    f"vrc:settles functions ({', '.join(contract.settlers) or 'none'}), "
                    f"so it may see a parked node unsettled"))
        return violations

    def extra_self_test(self, root):
        """The real tree must carry the contract, or the analyzer checks nothing."""
        contracts = collect_contracts(self.collect(root))
        cluster = contracts.get("Cluster")
        if cluster is None:
            return ["no vrc:settle-before-read field found for Cluster in src/cluster"]
        if not cluster.settlers:
            return ["Cluster has no vrc:settles function"]
        return []
