#include "cluster/audit.h"

#include <cstdlib>
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

}  // namespace vrc::cluster::audit
