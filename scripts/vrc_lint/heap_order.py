"""Heap-order analyzer: code and documented tie-break contract must agree.

The two ``LoadInfoBoard`` heap orders (DESIGN.md §11) are the scheduling
policies' selection semantics: which node "wins" for a given policy is
decided entirely by the key pair ``key_for`` returns and the final node-id
tie-break in ``IndexedHeap::precedes``. A silent edit to one comparator —
flipping a sign, swapping primary and secondary — changes placement
decisions everywhere while every structural test still passes. This
analyzer diffs three sources that must stay in lockstep:

  1. the ``Order`` enum in ``src/cluster/load_index.h``,
  2. the ``case Order::kX: return {A, B};`` arms of ``LoadInfoBoard::key_for``
     in ``src/cluster/load_index.cc`` plus the node tie-break direction
     in ``IndexedHeap::precedes`` (``src/cluster/indexed_heap.h``),
  3. the machine-readable table DESIGN.md §11 carries in a
     ``<!-- vrc-lint:heap-order ... -->`` comment block::

        <!-- vrc-lint:heap-order
        kMinSlotsMaxIdle: (info.slots_used, -info.idle_memory)
        ...
        tiebreak: node asc
        -->

Key expressions are compared whitespace-insensitively. Any drift — an enum
member with no case, a case absent from the table, an expression mismatch,
a tie-break direction mismatch, or a missing block — fails the lint (rule
``heap-order``). Changing a comparator therefore requires touching
DESIGN.md in the same commit, which is the point: the contract change
becomes visible in review instead of hiding in a sign flip.

Fixtures carry miniature ``load_index.{h,cc}``, ``indexed_heap.h`` and
``DESIGN.md`` sets; the analyzer locates its inputs by basename, so the
same code paths run on the fixture and the real tree.
"""

import re

from vrc_lint import core

CASE_RE = re.compile(r"case\s+Order::(k\w+)\s*:")
RETURN_KEY_RE = re.compile(r"return\s*\{([^}]*)\}\s*;")
DOC_ENTRY_RE = re.compile(r"^\s*(k\w+):\s*\(([^)]*)\)")
DOC_TIEBREAK_RE = re.compile(r"^\s*tiebreak:\s*(node\s+(?:asc|desc))")
BLOCK_START = "<!-- vrc-lint:heap-order"


def normalize(expr):
    return re.sub(r"\s+", "", expr)


def parse_enum(code_lines):
    """Order enum members with their 1-based line numbers."""
    members = []
    in_enum = False
    for index, code in enumerate(code_lines):
        if not in_enum:
            if re.search(r"enum\s+class\s+Order\b", code):
                in_enum = True
            else:
                continue
        for match in re.finditer(r"\b(k\w+)\b", code):
            members.append((match.group(1), index + 1))
        if "}" in code:
            break
    return members


def parse_key_for(code_lines):
    """(name -> (normalized expr pair, case line)) from LoadInfoBoard::key_for,
    or None when the function is not found."""
    start = None
    for index, code in enumerate(code_lines):
        if "LoadInfoBoard::key_for" in code:
            start = index
            break
    if start is None:
        return None
    cases = {}
    pending = None  # (name, case line) awaiting its return {...};
    depth = 0
    entered = False
    for index in range(start, len(code_lines)):
        code = code_lines[index]
        match = CASE_RE.search(code)
        if match:
            pending = (match.group(1), index + 1)
        if pending is not None:
            ret = RETURN_KEY_RE.search(code)
            if ret:
                parts = [normalize(p) for p in ret.group(1).split(",")]
                cases[pending[0]] = (tuple(parts), pending[1])
                pending = None
        for ch in code:
            if ch == "{":
                depth += 1
                entered = True
            elif ch == "}":
                depth -= 1
        if entered and depth <= 0:
            break
    return cases


def parse_tiebreak(code_lines):
    """'node asc' / 'node desc' from IndexedHeap::precedes, else None."""
    for code in code_lines:
        if re.search(r"a\.node\s*<\s*b\.node|b\.node\s*>\s*a\.node", code):
            return "node asc"
        if re.search(r"b\.node\s*<\s*a\.node|a\.node\s*>\s*b\.node", code):
            return "node desc"
    return None


def parse_doc_block(raw_lines):
    """(entries, tiebreak, block line) from the DESIGN.md comment block.
    entries: name -> (normalized expr pair, 1-based line)."""
    start = None
    for index, raw in enumerate(raw_lines):
        if BLOCK_START in raw:
            start = index
            break
    if start is None:
        return None, None, None
    entries = {}
    tiebreak = None
    for index in range(start + 1, len(raw_lines)):
        raw = raw_lines[index]
        if "-->" in raw:
            break
        match = DOC_ENTRY_RE.match(raw)
        if match:
            parts = [normalize(p) for p in match.group(2).split(",")]
            entries[match.group(1)] = (tuple(parts), index + 1)
            continue
        match = DOC_TIEBREAK_RE.match(raw)
        if match:
            tiebreak = (re.sub(r"\s+", " ", match.group(1)), index + 1)
    return entries, tiebreak, start + 1


class HeapOrderAnalyzer(core.Analyzer):
    name = "heap-order"
    description = "IndexedHeap key orders in load_index.cc must match " \
                  "the machine-readable table in DESIGN.md §11"
    default_paths = ("src/cluster/load_index.h",
                     "src/cluster/load_index.cc",
                     "src/cluster/indexed_heap.h",
                     "DESIGN.md")
    extensions = (".h", ".cc", ".md")
    # A four-file diff; CLI paths cannot meaningfully restrict it.
    accepts_paths = False

    def run(self, files, root):
        header = impl = heap = doc = None
        for full, rel in files:
            base = rel.replace("\\", "/").rsplit("/", 1)[-1]
            if base == "load_index.h":
                header = (full, rel)
            elif base == "load_index.cc":
                impl = (full, rel)
            elif base == "indexed_heap.h":
                heap = (full, rel)
            elif base == "DESIGN.md":
                doc = (full, rel)
        violations = []
        for found, what in ((header, "load_index.h"),
                            (impl, "load_index.cc"),
                            (heap, "indexed_heap.h"),
                            (doc, "DESIGN.md")):
            if found is None:
                violations.append(core.Violation(
                    what, 1, "heap-order", f"{what} not found in scan set"))
        if violations:
            return violations

        header_code = core.blank_comments_and_strings(
            core.read_lines(header[0]))
        impl_raw = core.read_lines(impl[0])
        impl_code = core.blank_comments_and_strings(impl_raw)
        heap_code = core.blank_comments_and_strings(core.read_lines(heap[0]))
        doc_raw = core.read_lines(doc[0])

        enum_members = parse_enum(header_code)
        cases = parse_key_for(impl_code)
        tiebreak_code = parse_tiebreak(heap_code)
        doc_entries, doc_tiebreak, block_line = parse_doc_block(doc_raw)

        if not enum_members:
            violations.append(core.Violation(
                header[1], 1, "heap-order", "enum class Order not found"))
        if cases is None:
            violations.append(core.Violation(
                impl[1], 1, "heap-order", "LoadInfoBoard::key_for not found"))
        if doc_entries is None:
            violations.append(core.Violation(
                doc[1], 1, "heap-order",
                f"machine-readable block '{BLOCK_START} ... -->' not found; "
                f"see DESIGN.md §11"))
        if violations:
            return violations

        case_names = set(cases)
        doc_names = set(doc_entries)
        for name, line in enum_members:
            if name not in case_names:
                violations.append(core.Violation(
                    header[1], line, "heap-order",
                    f"Order::{name} has no case in LoadInfoBoard::key_for",
                    header_code[line - 1]))
        for name, (exprs, line) in sorted(cases.items()):
            if name not in doc_names:
                violations.append(core.Violation(
                    impl[1], line, "heap-order",
                    f"case Order::{name} is missing from the DESIGN.md "
                    f"vrc-lint:heap-order table", impl_raw[line - 1]))
            elif exprs != doc_entries[name][0]:
                violations.append(core.Violation(
                    impl[1], line, "heap-order",
                    f"Order::{name} key is ({', '.join(exprs)}) in code but "
                    f"({', '.join(doc_entries[name][0])}) in DESIGN.md line "
                    f"{doc_entries[name][1]} — update both in one commit",
                    impl_raw[line - 1]))
        for name, (_exprs, line) in sorted(doc_entries.items()):
            if name not in case_names:
                violations.append(core.Violation(
                    doc[1], line, "heap-order",
                    f"{name} is documented in the vrc-lint:heap-order table "
                    f"but has no case in LoadInfoBoard::key_for",
                    doc_raw[line - 1]))

        if tiebreak_code is None:
            violations.append(core.Violation(
                heap[1], 1, "heap-order",
                "node tie-break comparison not found in IndexedHeap"))
        elif doc_tiebreak is None:
            violations.append(core.Violation(
                doc[1], block_line, "heap-order",
                "vrc-lint:heap-order block has no 'tiebreak: node asc|desc' "
                "line"))
        elif doc_tiebreak[0] != tiebreak_code:
            violations.append(core.Violation(
                doc[1], doc_tiebreak[1], "heap-order",
                f"documented tie-break '{doc_tiebreak[0]}' does not match "
                f"the code's '{tiebreak_code}' (IndexedHeap::precedes)",
                doc_raw[doc_tiebreak[1] - 1]))
        return violations
