#include "cluster/audit.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <string>

#include "util/log.h"

namespace vrc::cluster::audit {

Counters& counters() {
  static Counters instance;
  return instance;
}

void reset_counters() { counters() = Counters{}; }

namespace {

// Fields compared between a board row and a freshly captured snapshot.
// `timestamp` is deliberately absent: undirtied nodes keep their old stamp.
bool rows_agree(const LoadInfo& board, const LoadInfo& fresh) {
  return board.node == fresh.node && board.slots_used == fresh.slots_used &&
         board.user_memory == fresh.user_memory && board.idle_memory == fresh.idle_memory &&
         board.reserved == fresh.reserved && board.pressured == fresh.pressured &&
         board.failed == fresh.failed;
}

}  // namespace

void check_board(const LoadInfoBoard& board,
                 const std::function<std::optional<LoadInfo>(NodeId)>& fresh,
                 const char* context) {
  ++counters().board_audits;
  for (NodeId node = 0; node < board.size(); ++node) {
    const std::optional<LoadInfo> live = fresh(node);
    if (!live.has_value()) continue;  // frozen row (failed node): not diffed
    ++counters().rows_checked;
    const LoadInfo& row = board.info(node);
    if (!rows_agree(row, *live)) {
      VRC_LOG(kError) << "VRC_AUDIT failed (" << context << "): board row for "
                      << "node " << node << " diverged from fresh state "
                      << "(board: slots " << row.slots_used << ", user "
                      << row.user_memory << ", idle " << row.idle_memory
                      << "; fresh: slots " << live->slots_used << ", user "
                      << live->user_memory << ", idle " << live->idle_memory
                      << ") — a mutation escaped the dirty set";
      std::abort();
    }
  }
  std::string why;
  if (!board.audit_verify(&why)) {
    VRC_LOG(kError) << "VRC_AUDIT failed (" << context << "): " << why;
    std::abort();
  }
}

void check_skip(const NodeActivity& activity, std::uint64_t min_wake, std::uint64_t round) {
  ++counters().skips_checked;
  std::size_t parked = 0;
  std::uint64_t wake = std::numeric_limits<std::uint64_t>::max();
  for (NodeId node = 0; node < activity.parked.size(); ++node) {
    if (activity.moving.contains(node) && !activity.is_parked(node)) {
      VRC_LOG(kError) << "VRC_AUDIT failed (tick skip): node " << node
                      << " is marked moving but not parked";
      std::abort();
    }
    if (!activity.is_parked(node)) continue;
    ++parked;
    wake = std::min(wake, activity.parked[node].wake);
    if (!activity.ticking.contains(node)) {
      VRC_LOG(kError) << "VRC_AUDIT failed (tick skip): parked node " << node
                      << " is not ticking";
      std::abort();
    }
  }
  if (parked != activity.parked_count || wake != min_wake || wake <= round) {
    VRC_LOG(kError) << "VRC_AUDIT failed (tick skip) after round " << round << ": a scan counts "
                    << parked << " parked nodes waking at round " << wake << ", the cluster "
                    << activity.parked_count << " waking at round " << min_wake;
    std::abort();
  }
}

}  // namespace vrc::cluster::audit
