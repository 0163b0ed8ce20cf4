// Global load-index board.
//
// "Each workstation maintains a global load index file which contains CPU,
// memory, and I/O load status information of other computing nodes. The load
// sharing system periodically collects and distributes the load information."
// We model one shared board refreshed every load_exchange_period; policies
// read these (possibly stale) snapshots, never live node state, which
// reproduces the staleness a real system would see.
//
// The board keeps two IndexedHeaps over its own rows: placement scans query
// a heap instead of walking all entries, and the §2.1 aggregates (cluster
// idle memory, average user memory) are O(1) running totals over *live*
// nodes — a crashed node's stale snapshot does not leak into the
// reconfiguration trigger (DESIGN.md §11).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "cluster/indexed_heap.h"
#include "metrics/perf_counters.h"
#include "util/units.h"
#include "workload/job.h"

namespace vrc::cluster {

using workload::NodeId;

/// One node's published load snapshot.
struct LoadInfo {
  NodeId node = 0;
  /// Time this entry was last published. Under the dirty-set incremental
  /// exchange a node that hasn't mutated keeps its old stamp (its values are
  /// provably unchanged); no simulation code reads this field, it exists for
  /// tests and debugging.
  SimTime timestamp = 0.0;
  int slots_used = 0;      // active jobs + in-flight placements
  Bytes user_memory = 0;
  Bytes idle_memory = 0;   // max(0, user_memory - demand incl. in-flight placements)
  bool reserved = false;   // virtual-reconfiguration reservation flag
  bool pressured = false;  // memory-pressure predicate at publication time
  bool failed = false;     // node is down (fault injection); never a target
};

/// The shared snapshot table.
class LoadInfoBoard {
 public:
  explicit LoadInfoBoard(std::size_t num_nodes);

  void update(const LoadInfo& info);

  /// Sender-side bookkeeping: every scheduler immediately accounts a
  /// placement it initiated (`width` slots plus estimated demand) against its
  /// copy of the board, so successive placements spread instead of
  /// dog-piling one stale "lightly loaded" entry. The *actual* demand remains
  /// unknown until the next exchange — which is what lets big jobs collide.
  void note_placement(NodeId node, Bytes estimated_demand, int width = 1);

  /// Reservations are control-path actions coordinated by the
  /// reconfiguration routine, not subject to exchange staleness: the flag is
  /// reflected on the board immediately.
  void set_reserved(NodeId node, bool reserved);

  const LoadInfo& info(NodeId node) const { return infos_[node]; }
  const std::vector<LoadInfo>& all() const { return infos_; }
  std::size_t size() const { return infos_.size(); }

  /// The submission target: among live, unreserved nodes passing `keep`,
  /// the fewest slots used, then the most idle memory, then the lowest id.
  /// Each call counts one `heap_best_queries`; the queries are counted here,
  /// not in IndexedHeap::best, so audit_verify's cross-checks do not count.
  template <typename Filter>
  std::optional<NodeId> best_min_slots_max_idle(Filter&& keep) const {
    metrics::perf_add(&metrics::PerfCounters::heap_best_queries);
    return min_slots_max_idle_.best(keep);
  }

  /// The migration target: among live, unreserved nodes passing `keep`, the
  /// most idle memory, then the lowest id. Counted like the one above.
  template <typename Filter>
  std::optional<NodeId> best_max_idle(Filter&& keep) const {
    metrics::perf_add(&metrics::PerfCounters::heap_best_queries);
    return max_idle_.best(keep);
  }

  /// Accumulated idle memory across the *live* workstations — the quantity
  /// §2.1 compares against the average user memory to decide whether
  /// reconfiguring can help at all. Failed nodes' stale snapshots are
  /// excluded: a crashed node contributes no usable idle memory.
  Bytes cluster_idle_memory() const { return total_idle_; }

  /// Average per-workstation user memory over live nodes.
  Bytes average_user_memory() const;

  /// Number of non-failed rows.
  std::size_t live_count() const { return live_count_; }

  // --- shadow-audit surface (DESIGN.md §13.5) ---
  /// Full brute-force self-consistency sweep, O(n log n): the totals must
  /// equal fresh sums over non-failed rows, heap membership must be exactly
  /// the live unreserved set, every stored heap key must equal key_for() of
  /// the node's current row, both heaps must pass audit_invariants(), and
  /// both pruned best() minima must match a linear argmin. Compiled in every
  /// build; called under -DVRC_AUDIT=ON from Cluster's exchange hook.
  /// Returns false and describes the first inconsistency in `why` (when
  /// non-null).
  bool audit_verify(std::string* why) const;

 private:
  /// Key schema of one heap; each matches one policy scan's ranking exactly.
  enum class Order {
    kMinSlotsMaxIdle,  // (slots asc, idle desc, id asc) — submission targets
    kMaxIdle,          // (idle desc, id asc)            — migration targets
  };

  static IndexedHeap::Key key_for(Order order, const LoadInfo& info);

  /// Replaces `next.node`'s row with `next`: moves the live totals from the
  /// old row to the new one and re-keys the node in both heaps, evicting it
  /// when failed or reserved. Every writer funnels through here.
  void publish(const LoadInfo& next);  // vrc:publish-fn

  // Every field is board-visible; the publish-audit lint (DESIGN.md §13.3)
  // checks every writer goes through publish() before returning.
  std::vector<LoadInfo> infos_;     // vrc:board-visible
  IndexedHeap min_slots_max_idle_;  // vrc:board-visible
  IndexedHeap max_idle_;            // vrc:board-visible
  Bytes total_idle_ = 0;            // vrc:board-visible
  Bytes total_user_ = 0;            // vrc:board-visible
  std::size_t live_count_ = 0;      // vrc:board-visible
};

}  // namespace vrc::cluster
