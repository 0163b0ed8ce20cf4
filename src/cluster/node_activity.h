// Mutation bookkeeping shared by the cluster's incremental loops: which
// workstations currently need ticks (active set), which have mutated since
// the last load exchange (dirty set), and which are parked (steady, their
// ticks replayed on demand). Workstations feed all three through their
// publish_index() hook, which fires on every state mutation, so membership
// is exact by construction (DESIGN.md §12).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/units.h"
#include "workload/job.h"

namespace vrc::cluster {

using workload::NodeId;

/// Flat bitmask over node ids with ascending-id iteration — the same visit
/// order as a plain `for` loop over the node array, which is what keeps the
/// active-set tick loop's event order identical to the old full scan.
class NodeBitset {
 public:
  explicit NodeBitset(std::size_t num_nodes) : words_((num_nodes + 63) / 64, 0) {}

  void set(NodeId node, bool member) {
    if (member) {
      insert(node);
    } else {
      erase(node);
    }
  }
  void insert(NodeId node) {
    std::uint64_t& word = words_[word_of(node)];
    const std::uint64_t bit = bit_of(node);
    count_ += static_cast<std::size_t>((word & bit) == 0);
    word |= bit;
  }
  void erase(NodeId node) {
    std::uint64_t& word = words_[word_of(node)];
    const std::uint64_t bit = bit_of(node);
    count_ -= static_cast<std::size_t>((word & bit) != 0);
    word &= ~bit;
  }
  bool contains(NodeId node) const { return (words_[word_of(node)] & bit_of(node)) != 0; }
  std::size_t count() const { return count_; }

  /// Visits members in ascending node-id order. Each 64-id word is read once
  /// when iteration reaches it, so a member inserted behind the cursor (or
  /// into the word currently being drained) is picked up on the *next* pass —
  /// callers re-check their predicate per visit, which makes the traversal
  /// equivalent to the old predicate-guarded full scan (see
  /// Cluster::handle_tick).
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t word = words_[wi];
      while (word != 0) {
        const int bit = std::countr_zero(word);
        word &= word - 1;
        visit(static_cast<NodeId>(wi * 64 + static_cast<std::size_t>(bit)));
      }
    }
  }

  /// Visits members as for_each does, erasing each after its visit.
  template <typename Visit>
  void drain(Visit&& visit) {
    for_each([&](NodeId node) {
      visit(node);
      erase(node);
    });
  }

 private:
  static std::size_t word_of(NodeId node) { return static_cast<std::size_t>(node) >> 6; }
  static std::uint64_t bit_of(NodeId node) {
    return std::uint64_t{1} << (static_cast<std::size_t>(node) & 63);
  }

  std::vector<std::uint64_t> words_;
  std::size_t count_ = 0;
};

/// A parked workstation: steady, so the tick pass skips it and its ticks are
/// replayed on demand (DESIGN.md §12.6). Counted in tick rounds, the 1-based
/// number of the tick round, fired or skipped.
struct ParkedNode {
  std::uint64_t wake = 0;     // round of its next normal tick; 0 = not parked
  std::uint64_t through = 0;  // last round integrated
  SimTime through_time = 0.0;  // that round's tick time
};

/// The incremental sets a Cluster maintains, updated from
/// Workstation::publish_index after every mutation.
struct NodeActivity {
  NodeBitset ticking;
  /// Nodes mutated since the last exchange, drained in id order (board
  /// update order is value-irrelevant, DESIGN.md §12.1).
  NodeBitset dirty;
  /// Per node. A parked node keeps its `ticking` bit: for_each reads each
  /// word once, so a bit re-inserted mid-pass would be skipped.
  std::vector<ParkedNode> parked;
  /// Parked nodes whose published values (resident demand, the fault EMA's
  /// zero test) move in the ticks they skip: a memory ramp or a decaying
  /// EMA. Readers of published values settle these first; a node parked on
  /// a flat stretch publishes the same values until it wakes.
  NodeBitset moving;
  /// Nodes parked now. Every parked node is ticking, so the tick pass would
  /// only pass over parked nodes when this equals `ticking.count()`.
  std::size_t parked_count = 0;

  explicit NodeActivity(std::size_t num_nodes)
      : ticking(num_nodes), dirty(num_nodes), parked(num_nodes), moving(num_nodes) {}

  bool is_parked(NodeId node) const { return parked[node].wake != 0; }

  /// Parks `node` after its normal tick of `round` at `time`, for the
  /// `ticks` rounds that follow; `flat` as Workstation::TickOutcome::flat.
  void park(NodeId node, std::uint64_t round, SimTime time, std::uint64_t ticks, bool flat) {
    if (!is_parked(node)) ++parked_count;
    parked[node] = {round + ticks + 1, round, time};
    moving.set(node, !flat);
  }

  void unpark(NodeId node) {
    if (!is_parked(node)) return;
    --parked_count;
    parked[node].wake = 0;
    moving.erase(node);
  }

  /// Every mutation unparks: the accessor that reached the node settled it.
  void note_mutation(NodeId node, bool needs_tick) {
    ticking.set(node, needs_tick);
    dirty.insert(node);
    unpark(node);
  }
};

}  // namespace vrc::cluster
