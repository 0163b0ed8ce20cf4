# vrc_lint: the repo's static-analysis framework (DESIGN.md §13).
#
# A shared core (scripts/vrc_lint/core.py) hosts five analyzers:
#   determinism   — bans nondeterminism sources in the simulation core (§8)
#   layering      — enforces the module DAG declared in layering.toml
#   publish-audit — board-visible writes must republish on every path out
#   settle-audit  — parked workstation state is read only through a settling path
#   heap-order    — IndexedHeap comparators must match DESIGN.md §11's table
#
# Entry point: scripts/vrc_lint.py (`--analyzer determinism` runs one
# analyzer alone).
