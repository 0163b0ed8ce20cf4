#!/usr/bin/env python3
"""Unified CLI for the vrc_lint static-analysis framework (DESIGN.md §13).

Runs five analyzers over the tree (all of them by default):

  determinism    bans nondeterminism sources in src/ (DESIGN.md §8)
  layering       enforces the module DAG declared in
                 scripts/vrc_lint/layering.toml over the #include graph
  publish-audit  board-visible state writes must republish on every path out
                 (the `// vrc:board-visible` contract, DESIGN.md §13.3)
  settle-audit   parked workstation state is read only through a settling
                 path (the `// vrc:settle-before-read` contract, §13.3)
  heap-order     IndexedHeap key orders in load_index.cc must match the
                 machine-readable tie-break table in DESIGN.md §11

Usage:
  vrc_lint.py                          # all five analyzers, default scopes
  vrc_lint.py --analyzer layering      # one analyzer
  vrc_lint.py src/cluster              # restrict path-scoped analyzers
  vrc_lint.py --list-files             # print the scanned file sets
  vrc_lint.py --self-test              # seeded-fixture self-test (CI)

Suppress a justified finding with `// NOLINT-<analyzer>(reason)` on the
line or alone on the line above; the reason is mandatory.

Exit status: 0 clean, 1 violations found, 2 internal/usage error.
Stdlib-only (python3 >= 3.11 for tomllib).
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from vrc_lint import core  # noqa: E402

if __name__ == "__main__":
    sys.exit(core.main())
