// Shadow-verification hooks for the VRC_AUDIT build (DESIGN.md §13.5).
//
// The incremental structures (the board's heaps and live totals, the
// dirty-set board exchange) buy speed by maintaining state instead of
// recomputing it; a missed publish or a broken fold is invisible until a
// placement goes subtly wrong. Under -DVRC_AUDIT=ON, Cluster calls these checks from its exchange
// hook to compare the incremental answers against brute-force recomputation
// and abort loudly on the first divergence. Workstation::replay likewise
// re-integrates every replayed stretch of a parked node tick by tick
// (Workstation::audit_replay) and counts it here, and Cluster recounts the
// parked set before every skip of empty tick rounds (check_skip).
//
// Everything here is compiled in every build so the default build can
// unit-test the checkers; only the *call sites* in cluster.cc and
// workstation.cc are gated behind #ifdef VRC_AUDIT, so the default build's
// behaviour — and its determinism fingerprints — are untouched.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "cluster/load_index.h"
#include "cluster/node_activity.h"
#include "workload/job.h"

namespace vrc::cluster::audit {

/// Running tallies of audit activity, so tests can assert the checks actually
/// fired (a silently skipped audit is indistinguishable from a passing one).
struct Counters {
  std::uint64_t board_audits = 0;  // board-vs-live diff sweeps run
  std::uint64_t rows_checked = 0;  // board rows compared across all sweeps
  std::uint64_t replays_checked = 0;  // parked-tick replays re-integrated tick by tick
  std::uint64_t skips_checked = 0;    // tick-round skips whose parked set was recounted
};

/// Process-wide counters. A singleton, not a Cluster member, so enabling the
/// audit never changes any simulation object's layout (ODR-safe when audit
/// and non-audit objects are mixed) and multi-cluster tests aggregate.
Counters& counters();

/// Zeroes the counters; tests call this between scenarios.
void reset_counters();

/// Verifies the board against freshly captured node state: for every node,
/// `fresh(node)` returns the snapshot the node would publish right now (or
/// nullopt to skip it — failed nodes keep deliberately frozen rows), and the
/// board's row must match it field-for-field except `timestamp` (undirtied
/// nodes legitimately keep their old stamp; their *values* must still agree,
/// which is exactly the dirty-set soundness contract of DESIGN.md §12). Also
/// runs board.audit_verify(), which sweeps the board's heaps and totals.
/// Aborts on the first divergence.
void check_board(const LoadInfoBoard& board,
                 const std::function<std::optional<LoadInfo>(NodeId)>& fresh,
                 const char* context);

/// Verifies the parked set before a tick-round skip after round `round`
/// (DESIGN.md §12.6): a scan over every node must count `parked_count`
/// parked nodes, each of them ticking, find every moving node parked, and
/// find their earliest wake equal to `min_wake` (the maximum value when
/// none is parked) and after `round`. Aborts on the first divergence.
void check_skip(const NodeActivity& activity, std::uint64_t min_wake, std::uint64_t round);

}  // namespace vrc::cluster::audit
